(* Tests for the physical memory substrate: the buddy allocator (splits,
   merges, alignment, double-free detection, invariant preservation under
   random workloads), the frame table against a reference model, NUMA
   striping and accounting. *)

module Buddy = Mm_phys.Buddy
module Phys = Mm_phys.Phys
module Frame = Mm_phys.Frame

let check = Alcotest.check

(* -- Buddy basics -- *)

let test_alloc_distinct () =
  let b = Buddy.create ~nframes:1024 in
  let a = Buddy.alloc b ~order:0 in
  let c = Buddy.alloc b ~order:0 in
  check Alcotest.bool "distinct" true (a <> c);
  check Alcotest.int "two allocated" 2 (Buddy.allocated_frames b);
  Buddy.check_invariants b

let test_alignment () =
  let b = Buddy.create ~nframes:(1 lsl 16) in
  let _ = Buddy.alloc b ~order:0 in
  let big = Buddy.alloc b ~order:6 in
  check Alcotest.bool "order-6 block aligned" true
    (Mm_util.Align.is_aligned big 64);
  let huge = Buddy.alloc b ~order:9 in
  check Alcotest.bool "order-9 block aligned" true
    (Mm_util.Align.is_aligned huge 512);
  Buddy.check_invariants b

let test_split_and_merge () =
  let b = Buddy.create ~nframes:1024 in
  (* Allocate an order-3 block, free it as... no: allocate two order-0
     from a split, free both, the buddies must merge back. *)
  let a = Buddy.alloc b ~order:3 in
  Buddy.free b ~pfn:a ~order:3;
  Buddy.check_invariants b;
  let x = Buddy.alloc b ~order:0 in
  let y = Buddy.alloc b ~order:0 in
  check Alcotest.bool "buddies from one split" true (x lxor y = 1 || x <> y);
  Buddy.free b ~pfn:x ~order:0;
  Buddy.free b ~pfn:y ~order:0;
  Buddy.check_invariants b;
  check Alcotest.bool "merges recorded" true (Buddy.merges b > 0);
  check Alcotest.int "nothing allocated" 0 (Buddy.allocated_frames b)

let test_double_free_detected () =
  let b = Buddy.create ~nframes:1024 in
  let a = Buddy.alloc b ~order:0 in
  Buddy.free b ~pfn:a ~order:0;
  Alcotest.(check bool)
    "double free raises" true
    (try
       Buddy.free b ~pfn:a ~order:0;
       false
     with Invalid_argument _ -> true)

let test_misaligned_free_detected () =
  let b = Buddy.create ~nframes:1024 in
  let _ = Buddy.alloc b ~order:2 in
  Alcotest.(check bool)
    "misaligned free raises" true
    (try
       Buddy.free b ~pfn:1 ~order:2;
       false
     with Invalid_argument _ -> true)

let test_out_of_memory () =
  let b = Buddy.create ~nframes:16 in
  let _ = Buddy.alloc b ~order:4 in
  Alcotest.(check bool)
    "exhaustion raises" true
    (try
       ignore (Buddy.alloc b ~order:0);
       false
     with Buddy.Out_of_memory -> true)

let buddy_stress_prop =
  QCheck.Test.make ~name:"buddy invariants under random alloc/free" ~count:60
    QCheck.(
      pair small_int
        (list_of_size (QCheck.Gen.return 200) (int_bound 3)))
    (fun (seed, orders) ->
      let rng = Mm_util.Rng.create ~seed in
      let b = Buddy.create ~nframes:(1 lsl 14) in
      let live = ref [] in
      List.iter
        (fun order ->
          if Mm_util.Rng.bool rng || !live = [] then begin
            let pfn = Buddy.alloc b ~order in
            live := (pfn, order) :: !live
          end
          else begin
            let i = Mm_util.Rng.int rng (List.length !live) in
            let pfn, order = List.nth !live i in
            live := List.filteri (fun j _ -> j <> i) !live;
            Buddy.free b ~pfn ~order
          end;
          Buddy.check_invariants b)
        orders;
      (* Allocated count equals the live set's frame total. *)
      Buddy.allocated_frames b
      = List.fold_left (fun a (_, o) -> a + (1 lsl o)) 0 !live)

let buddy_no_overlap_prop =
  QCheck.Test.make ~name:"buddy never hands out overlapping blocks" ~count:40
    QCheck.(list_of_size (QCheck.Gen.return 100) (int_bound 4))
    (fun orders ->
      let b = Buddy.create ~nframes:(1 lsl 14) in
      let claimed = Hashtbl.create 256 in
      List.for_all
        (fun order ->
          let pfn = Buddy.alloc b ~order in
          let ok = ref true in
          for i = pfn to pfn + (1 lsl order) - 1 do
            if Hashtbl.mem claimed i then ok := false;
            Hashtbl.replace claimed i ()
          done;
          !ok)
        orders)

(* -- Reference-implementation equivalence --

   A deliberately naive buddy (unsorted association lists, smallest-pfn pop
   by linear scan) implementing the same split/merge/frontier algorithm.
   The optimized allocator must produce identical pfn sequences and
   identical per-order free-block sets on any alloc/free trace. *)

module Ref_buddy = struct
  let max_order = 10

  type t = { nframes : int; mutable frontier : int; free : int list array }

  let create ~nframes =
    { nframes; frontier = 0; free = Array.make (max_order + 1) [] }

  let block_size order = 1 lsl order
  let buddy_of ~pfn ~order = pfn lxor block_size order
  let is_free t ~pfn ~order = List.mem pfn t.free.(order)

  let remove t ~pfn ~order =
    t.free.(order) <- List.filter (fun p -> p <> pfn) t.free.(order)

  let add t ~pfn ~order = t.free.(order) <- pfn :: t.free.(order)

  let pop_min t ~order =
    match t.free.(order) with
    | [] -> None
    | l ->
      let m = List.fold_left min max_int l in
      remove t ~pfn:m ~order;
      Some m

  let rec any_free_above t ~order =
    order < max_order
    && (t.free.(order + 1) <> [] || any_free_above t ~order:(order + 1))

  let rec insert_and_merge t ~pfn ~order ~limit =
    let b = buddy_of ~pfn ~order in
    if
      order < max_order
      && b + block_size order <= limit
      && is_free t ~pfn:b ~order
    then begin
      remove t ~pfn:b ~order;
      insert_and_merge t ~pfn:(min pfn b) ~order:(order + 1) ~limit
    end
    else add t ~pfn ~order

  let release_range t ~lo ~hi =
    let lo = ref lo in
    while !lo < hi do
      let rec align o =
        if
          o < max_order
          && Mm_util.Align.is_aligned !lo (block_size (o + 1))
          && !lo + block_size (o + 1) <= hi
        then align (o + 1)
        else o
      in
      let order = align 0 in
      insert_and_merge t ~pfn:!lo ~order ~limit:hi;
      lo := !lo + block_size order
    done

  let rec alloc t ~order =
    if order > max_order then failwith "ref buddy: out of memory";
    match pop_min t ~order with
    | Some pfn -> pfn
    | None ->
      if not (any_free_above t ~order) then begin
        let pfn = Mm_util.Align.up t.frontier (block_size order) in
        if pfn + block_size order > t.nframes then
          failwith "ref buddy: out of memory";
        release_range t ~lo:t.frontier ~hi:pfn;
        t.frontier <- pfn + block_size order;
        pfn
      end
      else begin
        let big = alloc t ~order:(order + 1) in
        add t ~pfn:(big + block_size order) ~order;
        big
      end

  let free t ~pfn ~order = insert_and_merge t ~pfn ~order ~limit:t.frontier
  let free_blocks t ~order = List.sort compare t.free.(order)
end

(* The optimized allocator and the reference side by side: [alloc_both]
   checks that both return the same pfn, and [same_state] that the full
   free-list state (all orders) and the frontier agree, while the
   optimized allocator's internal invariants hold. *)
let buddy_pair ~nframes = (Buddy.create ~nframes, Ref_buddy.create ~nframes)

let alloc_both (b, r) ~order ~what =
  let pfn = Buddy.alloc b ~order in
  let pfn' = Ref_buddy.alloc r ~order in
  check Alcotest.int (Printf.sprintf "%s: alloc order %d pfn" what order) pfn'
    pfn;
  pfn

let free_both (b, r) ~pfn ~order =
  Buddy.free b ~pfn ~order;
  Ref_buddy.free r ~pfn ~order

let same_state (b, r) what =
  check Alcotest.int
    (Printf.sprintf "%s: frontier" what)
    r.Ref_buddy.frontier (Buddy.frontier b);
  for order = 0 to 10 do
    check
      Alcotest.(list int)
      (Printf.sprintf "%s: free blocks of order %d" what order)
      (Ref_buddy.free_blocks r ~order)
      (Buddy.free_blocks b ~order)
  done;
  Buddy.check_invariants b

(* One seeded random trace, compared step by step: allocations of
   orders 0-3, frees of random live blocks, and runs of up to 100
   order-0 allocations, which take the frontier whenever no order holds
   a free block. *)
let run_equivalence_trace ~seed ~steps =
  let p = buddy_pair ~nframes:(1 lsl 14) in
  let rng = Mm_util.Rng.create ~seed in
  let live = ref [] in
  for step = 1 to steps do
    let what = Printf.sprintf "step %d" step in
    let dice = Mm_util.Rng.int rng 8 in
    if dice = 0 then
      for _ = 0 to Mm_util.Rng.int rng 100 do
        live := (alloc_both p ~order:0 ~what, 0) :: !live
      done
    else if dice < 4 || !live = [] then begin
      let order = Mm_util.Rng.int rng 4 in
      live := (alloc_both p ~order ~what, order) :: !live
    end
    else begin
      let i = Mm_util.Rng.int rng (List.length !live) in
      let pfn, order = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      free_both p ~pfn ~order
    end;
    same_state p what
  done

let test_reference_equivalence () =
  List.iter (fun seed -> run_equivalence_trace ~seed ~steps:300) [ 1; 7; 42 ]

(* Long runs of order-0 allocations: from a fresh allocator, where each
   is the frame at the frontier, then after freeing them all in a
   scattered order, which merges them back into order-10 blocks, so the
   next run splits those blocks down before it reaches the frontier
   again. *)
let test_order0_runs () =
  let ((b, _) as p) = buddy_pair ~nframes:(1 lsl 14) in
  let n = 4096 in
  for i = 0 to n - 1 do
    let what = Printf.sprintf "fresh run, alloc %d" i in
    check Alcotest.int what i (alloc_both p ~order:0 ~what);
    same_state p what
  done;
  for i = 0 to n - 1 do
    free_both p ~pfn:(i * 97 mod n) ~order:0
  done;
  same_state p "all freed";
  check Alcotest.(list int) "merged into order-10 blocks" [ 0; 1024; 2048; 3072 ]
    (Buddy.free_blocks b ~order:10);
  check Alcotest.int "merges" (n - 4) (Buddy.merges b);
  for i = 0 to n + 999 do
    let what = Printf.sprintf "run after merges, alloc %d" i in
    ignore (alloc_both p ~order:0 ~what : int);
    same_state p what
  done;
  check Alcotest.int "frontier after the second run" (n + 1000) (Buddy.frontier b)

(* -- Phys / frames / NUMA -- *)

let test_frame_descriptors () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~kind:Frame.Anon () in
  check Alcotest.bool "kind set" true (Phys.kind phys f = Frame.Anon);
  let same = Phys.frame phys (f :> int) in
  check Alcotest.int "descriptor identity" (f :> int) (same :> int);
  Phys.set_contents phys same 7;
  check Alcotest.int "one descriptor per pfn" 7 (Phys.contents phys f);
  Phys.free phys f;
  check Alcotest.bool "freed" true (Phys.kind phys f = Frame.Free);
  Alcotest.(check bool)
    "free of free raises" true
    (try
       Phys.free phys f;
       false
     with Invalid_argument _ -> true)

(* A pfn's first touch reserves its two lock ids, rwlock first, but the
   locks are built only on first use. *)
let test_lazy_lock_ids () =
  Mm_obs.Contention.reset ();
  let phys = Phys.create () in
  let frames = List.map (Phys.frame phys) [ 40; 3; 2000 ] in
  (* Build the locks out of creation order: ids must not follow. *)
  List.iter
    (fun f -> ignore (Phys.lock phys f : Mm_sim.Mutex_s.t))
    (List.rev frames);
  List.iteri
    (fun i f ->
      let rw = Mm_sim.Rwlock_s.id (Phys.rwlock phys f) in
      check Alcotest.int (Printf.sprintf "frame %d rwlock id" i) (2 * i) rw;
      check Alcotest.int
        (Printf.sprintf "frame %d mutex id" i)
        (rw + 1)
        (Mm_sim.Mutex_s.id (Phys.lock phys f)))
    frames;
  check Alcotest.int "later locks continue after the reserved ids" 6
    (Mm_sim.Mutex_s.id (Mm_sim.Mutex_s.make ()))

let test_lazy_lock_identity () =
  let phys = Phys.create () in
  let f = Phys.alloc phys ~kind:Frame.Pt_page () in
  let l = Phys.lock phys f and rw = Phys.rwlock phys f in
  check Alcotest.bool "same mutex every call" true (Phys.lock phys f == l);
  check Alcotest.bool "same rwlock every call" true (Phys.rwlock phys f == rw);
  Phys.free phys f;
  let f' = Phys.alloc phys ~kind:Frame.Pt_page () in
  check Alcotest.int "frame reused" (f :> int) (f' :> int);
  check Alcotest.bool "mutex survives reuse" true (Phys.lock phys f' == l);
  check Alcotest.bool "rwlock survives reuse" true (Phys.rwlock phys f' == rw)

(* -- The frame table against a reference model --

   Random steps on one [Phys]: allocations of orders 0-3, frees, double
   frees, field writes, first touches of untouched pfns, and first uses
   of lines and locks. The model keeps a record per touched pfn; after
   every step each field must equal the model's, and so must the lines
   and locks built so far, physically, across free and reuse. The model
   reserves lock ids in first-touch order, so a lock built later must
   carry the id its pfn's first touch reserved. *)

type ref_frame = {
  mutable r_kind : Frame.kind;
  mutable r_order : int;
  mutable r_stale : bool;
  mutable r_wired : bool;
  mutable r_maps : int;
  mutable r_contents : int;
  r_lock_id : int;
  mutable r_line : Mm_sim.Engine.Line.t option;
  mutable r_lock : Mm_sim.Mutex_s.t option;
  mutable r_rwlock : Mm_sim.Rwlock_s.t option;
}

let kinds = [| Frame.Pt_page; Frame.Anon; Frame.File_page; Frame.Kernel |]

let run_table_model ~seed ~steps =
  Mm_obs.Contention.reset ();
  let phys = Phys.create () and rng = Mm_util.Rng.create ~seed in
  let model = Hashtbl.create 64 and next_id = ref 0 in
  let live = ref [] and freed = ref [] in
  let first_touch pfn =
    if not (Hashtbl.mem model pfn) then begin
      Hashtbl.replace model pfn
        {
          r_kind = Frame.Free; r_order = 0; r_stale = false; r_wired = false;
          r_maps = 0; r_contents = 0; r_lock_id = !next_id; r_line = None;
          r_lock = None; r_rwlock = None;
        };
      next_id := !next_id + 2
    end;
    Hashtbl.find model pfn
  in
  let pick l = List.nth l (Mm_util.Rng.int rng (List.length l)) in
  let touched () =
    List.sort compare (Hashtbl.fold (fun pfn _ acc -> pfn :: acc) model [])
  in
  let check_all step =
    Hashtbl.iter
      (fun pfn r ->
        let f = Phys.frame phys pfn in
        let fail what = Alcotest.failf "step %d: pfn %d: %s" step pfn what in
        if
          ( Phys.kind phys f, Phys.order phys f, Phys.stale phys f,
            Phys.wired phys f, Phys.map_count phys f, Phys.contents phys f )
          <> (r.r_kind, r.r_order, r.r_stale, r.r_wired, r.r_maps, r.r_contents)
        then fail "a field differs from the model";
        let same name built current =
          match built with
          | Some b when not (b == current ()) -> fail (name ^ " rebuilt")
          | Some _ | None -> ()
        in
        same "line" r.r_line (fun () -> Phys.line phys f);
        same "mutex" r.r_lock (fun () -> Phys.lock phys f);
        same "rwlock" r.r_rwlock (fun () -> Phys.rwlock phys f))
      model;
    check Alcotest.int
      (Printf.sprintf "step %d: allocated frames" step)
      (List.fold_left (fun a (_, o) -> a + (1 lsl o)) 0 !live)
      (Phys.allocated_frames phys)
  in
  for step = 1 to steps do
    (match Mm_util.Rng.int rng 7 with
    | 0 | 1 ->
      let order = Mm_util.Rng.int rng 4 and kind = pick (Array.to_list kinds) in
      let head = (Phys.alloc phys ~kind ~order () :> int) in
      for p = head to head + (1 lsl order) - 1 do
        let r = first_touch p in
        r.r_kind <- kind;
        r.r_order <- (if p = head then order else 0);
        r.r_stale <- false;
        r.r_wired <- false;
        r.r_maps <- 0;
        r.r_contents <- 0
      done;
      live := (head, order) :: !live;
      freed := List.filter (fun h -> h <> head) !freed
    | 2 when !live <> [] ->
      let ((head, order) as b) = pick !live in
      Phys.free phys (Phys.frame phys head);
      for p = head to head + (1 lsl order) - 1 do
        (Hashtbl.find model p).r_kind <- Frame.Free
      done;
      live := List.filter (fun x -> x <> b) !live;
      freed := head :: !freed
    | 2 when !freed <> [] ->
      let head = pick !freed in
      check Alcotest.bool
        (Printf.sprintf "step %d: double free of %d rejected" step head)
        true
        (try
           Phys.free phys (Phys.frame phys head);
           false
         with Invalid_argument _ -> true)
    | 3 when Hashtbl.length model > 0 ->
      let pfn = pick (touched ()) in
      let f = Phys.frame phys pfn and r = Hashtbl.find model pfn in
      (match Mm_util.Rng.int rng 6 with
      | 0 ->
        let v = Mm_util.Rng.bool rng in
        Phys.set_stale phys f v;
        r.r_stale <- v
      | 1 ->
        let v = Mm_util.Rng.bool rng in
        Phys.set_wired phys f v;
        r.r_wired <- v
      | 2 ->
        let v = Mm_util.Rng.int rng 5 in
        Phys.set_map_count phys f v;
        r.r_maps <- v
      | 3 ->
        Phys.add_map phys f;
        r.r_maps <- r.r_maps + 1
      | 4 ->
        let last = Phys.drop_map phys f in
        r.r_maps <- r.r_maps - 1;
        check Alcotest.bool
          (Printf.sprintf "step %d: drop_map of %d" step pfn)
          (r.r_maps = 0 && r.r_kind = Frame.Anon)
          last
      | _ ->
        let v = Mm_util.Rng.int rng 1_000_000 - 500_000 in
        Phys.set_contents phys f v;
        r.r_contents <- v)
    | 4 when Hashtbl.length model > 0 ->
      let pfn = pick (touched ()) in
      let f = Phys.frame phys pfn and r = Hashtbl.find model pfn in
      let ctx what = Printf.sprintf "step %d: pfn %d %s id" step pfn what in
      (match Mm_util.Rng.int rng 3 with
      | 0 -> if r.r_line = None then r.r_line <- Some (Phys.line phys f)
      | 1 ->
        if r.r_lock = None then begin
          let l = Phys.lock phys f in
          check Alcotest.int (ctx "mutex") (r.r_lock_id + 1) (Mm_sim.Mutex_s.id l);
          r.r_lock <- Some l
        end
      | _ ->
        if r.r_rwlock = None then begin
          let l = Phys.rwlock phys f in
          check Alcotest.int (ctx "rwlock") r.r_lock_id (Mm_sim.Rwlock_s.id l);
          r.r_rwlock <- Some l
        end)
    | _ ->
      (* A first touch anywhere in two chunks, allocated or not. *)
      let pfn = Mm_util.Rng.int rng 2048 in
      ignore (Phys.frame phys pfn : Frame.t);
      ignore (first_touch pfn : ref_frame));
    check_all step
  done

let table_model_prop =
  QCheck.Test.make ~name:"frame table matches a reference model" ~count:40
    QCheck.(pair small_int (int_range 50 250))
    (fun (seed, steps) ->
      run_table_model ~seed ~steps;
      true)

let words v = Obj.reachable_words (Obj.repr v)

(* The host words [v] reaches beyond what [w] reaches: a block both
   share, such as the empty chunk every PT page reads, counts once, with
   [w]. *)
let words_beside v w = words (v, w) - words w - 3

(* A PT page's entry storage: its chunks, with the decoded entries they
   hold, and its occupancy bits. *)
let pt_storage ~beside (node : _ Mm_pt.Pt.node) =
  words_beside node.Mm_pt.Pt.chunks beside.Mm_pt.Pt.chunks
  + words node.Mm_pt.Pt.occ

(* [f ()] on the one CPU of a fresh simulated world. *)
let in_sim f =
  let w = Mm_sim.Engine.create ~ncpus:1 and r = ref None in
  Mm_sim.Engine.spawn w ~cpu:0 (fun () -> r := Some (f ()));
  Mm_sim.Engine.run w;
  Option.get !r

let map_page pt node idx =
  Mm_pt.Pt.set pt node idx
    (Mm_hal.Pte.leaf ~pfn:(1000 + idx) ~perm:Mm_hal.Perm.rw ())

(* Minor words [f ()] allocates, with the measurement's own. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Host heap per simulated page: a frame's descriptor, and each further
   present PTE, first stored and then read. A frame is its pfn and its
   descriptor a row of the frame table, so a fresh frame allocates no
   more minor words than a reused one, and a chunk of the table takes at
   most 6 words a frame, its line and lock slot arrays included (each is
   allocated by the first line or lock built in the chunk). A stored
   entry keeps only its raw word, which its chunk already holds; the
   first read adds its decoded leaf (permissions are shared values).
   The PTEs are counted once every 64-entry chunk of the leaf holds a
   read entry: a chunk is paid for by the first entry in its stretch,
   as a dense page paid for all of them when it was created. The
   well-formedness check runs on the unread entries first: it decodes
   every word, but must not keep the decodes. *)
let test_heap_budget () =
  let phys = Phys.create () in
  let alloc () = ignore (Phys.alloc phys ~kind:Frame.Anon () : Frame.t) in
  alloc ();
  let fresh = minor_words alloc in
  Phys.free phys (Phys.alloc phys ~kind:Frame.Anon ());
  let reused = minor_words alloc in
  check Alcotest.bool
    (Printf.sprintf "fresh frame: %.0f minor words <= %.0f reused" fresh reused)
    true (fresh <= reused);
  let table = Phys.create () in
  let empty = words table in
  let frames = List.init 1024 (fun _ -> Phys.alloc table ~kind:Frame.Anon ()) in
  let f = List.hd frames in
  ignore (Phys.line table f, Phys.lock table f, Phys.rwlock table f);
  let per_frame = float_of_int (words table - empty) /. 1024. in
  check Alcotest.bool
    (Printf.sprintf "frame table: %.2f words a frame <= 6" per_frame)
    true (per_frame <= 6.0);
  let pt = Mm_pt.Pt.create phys Mm_hal.Isa.x86_64 in
  let leaf = Mm_pt.Pt.walk_create pt ~to_level:1 0 in
  let n = Mm_pt.Pt.entries_per_node pt in
  let is_first idx = idx mod 64 = 0 in
  let read idx = ignore (Mm_pt.Pt.get_uncharged pt leaf idx : Mm_hal.Pte.t) in
  let firsts = List.filter is_first (List.init n Fun.id) in
  List.iter (map_page pt leaf) firsts;
  List.iter read firsts;
  let before = words leaf in
  let per_pte () =
    float_of_int (words leaf - before) /. float_of_int (n - (n / 64))
  in
  for idx = 0 to n - 1 do
    if not (is_first idx) then map_page pt leaf idx
  done;
  Mm_pt.Pt.check_well_formed pt;
  let unread = per_pte () in
  check Alcotest.bool
    (Printf.sprintf "stored, unread PTE: %.3f words < 0.1" unread)
    true (unread < 0.1);
  for idx = 0 to n - 1 do
    if not (is_first idx) then read idx
  done;
  let read_once = per_pte () in
  check Alcotest.bool
    (Printf.sprintf "present PTE, read once: %.2f words <= 6" read_once)
    true (read_once <= 6.0)

(* Storage of sparse tables. Dense, a PT page's entries took about 1 040
   words (raw page, decoded mirror, one leaf), and a metadata array or
   radix leaf about 520 (512 slots and their occupancy bits), however
   few slots were in use. With one entry each now takes a quarter of
   that at most. A full PT page is bounded at its own size, with 64
   words of slack: 571 words while no entry is read (raw words and
   chunk headers), and 4 163 once every entry is read, each chunk's
   first read building its 65-word mirror and each read keeping its
   decoded leaf. A store that built the mirror (1 091 words) or decoded
   (4 163) would fail the first bound. *)
let test_sparse_storage () =
  let phys = Phys.create () in
  let pt = Mm_pt.Pt.create phys Mm_hal.Isa.x86_64 in
  let leaf_at vaddr = Mm_pt.Pt.walk_create pt ~to_level:1 vaddr in
  let first = leaf_at 0 and one = leaf_at 0x20_0000 in
  map_page pt first 0;
  map_page pt one 0;
  let one_words = pt_storage ~beside:first one in
  check Alcotest.bool
    (Printf.sprintf "PT page, one entry: %d words <= 260" one_words)
    true (one_words <= 260);
  let full = leaf_at 0x40_0000 in
  for idx = 0 to Mm_pt.Pt.entries_per_node pt - 1 do
    map_page pt full idx
  done;
  let unread_words = pt_storage ~beside:first full in
  check Alcotest.bool
    (Printf.sprintf "PT page, full and unread: %d words <= 571 + 64"
       unread_words)
    true
    (unread_words <= 571 + 64);
  for idx = 0 to Mm_pt.Pt.entries_per_node pt - 1 do
    ignore (Mm_pt.Pt.get_uncharged pt full idx : Mm_hal.Pte.t)
  done;
  let read_words = pt_storage ~beside:first full in
  check Alcotest.bool
    (Printf.sprintf "PT page, full and read once: %d words <= 4 163 + 64"
       read_words)
    true
    (read_words <= 4163 + 64);
  (* CortenMM: one touched page leaves one valid slot in its level-1
     page's metadata array. *)
  let open Cortenmm in
  let asp = Addr_space.create (Kernel.create ~ncpus:1 ()) Config.adv in
  let addr =
    in_sim (fun () ->
        let addr = Mm_compat.mmap asp ~len:4096 ~perm:Mm_hal.Perm.rw () in
        Mm.touch asp ~vaddr:addr ~write:true;
        addr)
  in
  let apt = Addr_space.pt asp in
  let node = Mm_pt.Pt.walk_opt apt ~to_level:1 addr in
  let m = Option.get node.Mm_pt.Pt.meta in
  check Alcotest.int "one valid metadata slot" 1 m.Addr_space.live;
  let meta_words = words m.Addr_space.slots + words m.Addr_space.bits in
  check Alcotest.bool
    (Printf.sprintf "metadata array, one slot: %d words <= 130" meta_words)
    true (meta_words <= 130);
  (* RadixVM: the words a reservation in a fresh leaf adds, less the
     leaf's lock and cache line, which are not slot storage (its record
     and the parent's child link still count). *)
  let rv = Mm_radixvm.Radixvm.create ~ncpus:1 () in
  let reserve addr =
    in_sim (fun () ->
        ignore
          (Mm_radixvm.Radixvm.mmap rv ~addr ~len:4096 ~perm:Mm_hal.Perm.rw ()
            : int))
  in
  reserve 0x4000_0000;
  let before = words rv in
  reserve 0x4020_0000;
  let lock_and_line =
    words (Mm_sim.Mutex_s.make ~id:0 ~name:"radixvm.node_lock" ())
    + words (Mm_sim.Engine.Line.make ())
  in
  let radix_words = words rv - before - lock_and_line in
  check Alcotest.bool
    (Printf.sprintf "radix leaf, one entry: %d words <= 130" radix_words)
    true (radix_words <= 130)

let test_usage_accounting () =
  let phys = Phys.create () in
  let f1 = Phys.alloc phys ~kind:Frame.Anon () in
  let _ = Phys.alloc phys ~kind:Frame.Pt_page () in
  let u = Phys.usage phys in
  check Alcotest.int "anon bytes" 4096 u.Phys.anon_bytes;
  check Alcotest.int "pt bytes" 4096 u.Phys.pt_bytes;
  Phys.free phys f1;
  check Alcotest.int "anon released" 0 (Phys.usage phys).Phys.anon_bytes;
  check Alcotest.int "peak remembered" 4096 (Phys.peak_data_bytes phys)

let test_numa_striping () =
  let phys = Phys.create ~numa_nodes:4 () in
  check Alcotest.int "4 nodes" 4 (Phys.numa_nodes phys);
  let frames =
    List.init 4 (fun node -> Phys.alloc phys ~kind:Frame.Anon ~node ())
  in
  List.iteri
    (fun node (f : Frame.t) ->
      check Alcotest.int
        (Printf.sprintf "frame %d on its node" node)
        node
        (Phys.node_of_pfn phys (f :> int)))
    frames;
  (* Freeing works across nodes. *)
  List.iter (Phys.free phys) frames;
  check Alcotest.int "all released" 0 (Phys.allocated_frames phys)

let test_numa_bad_node_rejected () =
  let phys = Phys.create ~numa_nodes:2 () in
  Alcotest.(check bool)
    "bad node raises" true
    (try
       ignore (Phys.alloc phys ~kind:Frame.Anon ~node:5 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "mm_phys"
    [
      ( "buddy",
        [
          Alcotest.test_case "alloc distinct" `Quick test_alloc_distinct;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "split and merge" `Quick test_split_and_merge;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "misaligned free" `Quick
            test_misaligned_free_detected;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          QCheck_alcotest.to_alcotest buddy_stress_prop;
          QCheck_alcotest.to_alcotest buddy_no_overlap_prop;
          Alcotest.test_case "reference equivalence" `Quick
            test_reference_equivalence;
          Alcotest.test_case "order-0 runs against the reference" `Quick
            test_order0_runs;
        ] );
      ( "phys",
        [
          Alcotest.test_case "frame descriptors" `Quick test_frame_descriptors;
          Alcotest.test_case "lazy lock ids" `Quick test_lazy_lock_ids;
          Alcotest.test_case "lazy lock identity" `Quick
            test_lazy_lock_identity;
          QCheck_alcotest.to_alcotest table_model_prop;
          Alcotest.test_case "heap budget" `Quick test_heap_budget;
          Alcotest.test_case "sparse storage" `Quick test_sparse_storage;
          Alcotest.test_case "usage accounting" `Quick test_usage_accounting;
          Alcotest.test_case "numa striping" `Quick test_numa_striping;
          Alcotest.test_case "numa bad node" `Quick test_numa_bad_node_rejected;
        ] );
    ]
