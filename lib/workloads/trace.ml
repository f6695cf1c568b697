(* MM operation traces: a portable text format for recording memory
   management workloads, a synthetic generator with workload profiles,
   and a replayer that drives any of the five systems.

   Regions are referenced by symbolic ids rather than addresses, so one
   trace replays identically on systems with different VA allocators.

   Text format, one operation per line ('#' starts a comment):

     <cpu> mmap <id> <bytes> <rw|ro>
     <cpu> munmap <id>
     <cpu> touch <id> <page-index> <r|w>
     <cpu> mprotect <id> <rw|ro>
     <cpu> fork <child-proc>
     <cpu> exit
     <cpu> write <id> <page-index> <value>
     <cpu> read <id> <page-index>
     <cpu> mlock <id>
     <cpu> munlock <id>
     <cpu> pressure <pages>

   (The last three are format v3; v2 and v1 traces contain none of the
   new keywords and keep loading unchanged.)

   Every line takes an optional trailing "@<proc>" naming the process
   executing the operation; it is omitted for process 0 (the root), so
   pre-fork traces round-trip byte-identically. [fork]'s @proc is the
   parent; the child inherits the parent's regions. *)

module Perm = Mm_hal.Perm

type op =
  | T_mmap of { id : int; len : int; writable : bool }
  | T_munmap of { id : int }
  | T_touch of { id : int; page : int; write : bool }
  | T_mprotect of { id : int; writable : bool }
  | T_fork of { child : int }
  | T_exit
  | T_write of { id : int; page : int; value : int }
  | T_read of { id : int; page : int }
  | T_mlock of { id : int }
  | T_munlock of { id : int }
  | T_pressure of { pages : int }

type entry = { cpu : int; proc : int; op : op }

type t = { ncpus : int; entries : entry array }

(* -- Text serialization -- *)

let entry_to_string { cpu; proc; op } =
  let base =
    match op with
    | T_mmap { id; len; writable } ->
      Printf.sprintf "%d mmap %d %d %s" cpu id len
        (if writable then "rw" else "ro")
    | T_munmap { id } -> Printf.sprintf "%d munmap %d" cpu id
    | T_touch { id; page; write } ->
      Printf.sprintf "%d touch %d %d %s" cpu id page (if write then "w" else "r")
    | T_mprotect { id; writable } ->
      Printf.sprintf "%d mprotect %d %s" cpu id (if writable then "rw" else "ro")
    | T_fork { child } -> Printf.sprintf "%d fork %d" cpu child
    | T_exit -> Printf.sprintf "%d exit" cpu
    | T_write { id; page; value } ->
      Printf.sprintf "%d write %d %d %d" cpu id page value
    | T_read { id; page } -> Printf.sprintf "%d read %d %d" cpu id page
    | T_mlock { id } -> Printf.sprintf "%d mlock %d" cpu id
    | T_munlock { id } -> Printf.sprintf "%d munlock %d" cpu id
    | T_pressure { pages } -> Printf.sprintf "%d pressure %d" cpu pages
  in
  if proc = 0 then base else Printf.sprintf "%s @%d" base proc

exception Parse_error of int * string

let max_cpus = 4096

let entry_of_string ~line s =
  let fail msg = raise (Parse_error (line, msg)) in
  let int_of s = try int_of_string s with _ -> fail ("bad integer " ^ s) in
  let cpu_of s =
    let c = int_of s in
    if c < 0 || c >= max_cpus then fail (Printf.sprintf "cpu id %d out of range" c)
    else c
  in
  (* Peel the optional trailing "@<proc>" token. *)
  let toks = String.split_on_char ' ' (String.trim s) in
  let toks, proc =
    match List.rev toks with
    | last :: rest when String.length last > 1 && last.[0] = '@' ->
      let p = int_of (String.sub last 1 (String.length last - 1)) in
      if p < 0 then fail (Printf.sprintf "process id %d out of range" p);
      (List.rev rest, p)
    | _ -> (toks, 0)
  in
  match toks with
  | [ cpu; "mmap"; id; len; prot ] ->
    {
      cpu = cpu_of cpu;
      proc;
      op =
        T_mmap
          {
            id = int_of id;
            len = int_of len;
            writable =
              (match prot with
              | "rw" -> true
              | "ro" -> false
              | p -> fail ("bad protection " ^ p));
          };
    }
  | [ cpu; "munmap"; id ] ->
    { cpu = cpu_of cpu; proc; op = T_munmap { id = int_of id } }
  | [ cpu; "touch"; id; page; rw ] ->
    {
      cpu = cpu_of cpu;
      proc;
      op =
        T_touch
          {
            id = int_of id;
            page = int_of page;
            write =
              (match rw with
              | "w" -> true
              | "r" -> false
              | p -> fail ("bad access " ^ p));
          };
    }
  | [ cpu; "mprotect"; id; prot ] ->
    {
      cpu = cpu_of cpu;
      proc;
      op =
        T_mprotect
          {
            id = int_of id;
            writable =
              (match prot with
              | "rw" -> true
              | "ro" -> false
              | p -> fail ("bad protection " ^ p));
          };
    }
  | [ cpu; "fork"; child ] ->
    let child = int_of child in
    if child <= 0 then fail (Printf.sprintf "child process id %d out of range" child);
    { cpu = cpu_of cpu; proc; op = T_fork { child } }
  | [ cpu; "exit" ] -> { cpu = cpu_of cpu; proc; op = T_exit }
  | [ cpu; "write"; id; page; value ] ->
    {
      cpu = cpu_of cpu;
      proc;
      op = T_write { id = int_of id; page = int_of page; value = int_of value };
    }
  | [ cpu; "read"; id; page ] ->
    { cpu = cpu_of cpu; proc; op = T_read { id = int_of id; page = int_of page } }
  | [ cpu; "mlock"; id ] ->
    { cpu = cpu_of cpu; proc; op = T_mlock { id = int_of id } }
  | [ cpu; "munlock"; id ] ->
    { cpu = cpu_of cpu; proc; op = T_munlock { id = int_of id } }
  | [ cpu; "pressure"; pages ] ->
    let pages = int_of pages in
    if pages <= 0 then fail (Printf.sprintf "pressure size %d out of range" pages);
    { cpu = cpu_of cpu; proc; op = T_pressure { pages } }
  | _ -> fail ("unrecognized operation: " ^ s)

let save t path =
  let oc = open_out path in
  Printf.fprintf oc "# mm trace: %d cpus, %d operations\n" t.ncpus
    (Array.length t.entries);
  Array.iter (fun e -> output_string oc (entry_to_string e ^ "\n")) t.entries;
  close_out oc

let load path =
  let ic = open_in path in
  let entries = ref [] in
  let ncpus = ref 1 in
  let line = ref 0 in
  (try
     while true do
       incr line;
       let s = input_line ic in
       let s = String.trim s in
       if s <> "" && s.[0] <> '#' then begin
         let e = entry_of_string ~line:!line s in
         if e.cpu + 1 > !ncpus then ncpus := e.cpu + 1;
         entries := e :: !entries
       end
     done
   with End_of_file -> ());
  close_in ic;
  { ncpus = !ncpus; entries = Array.of_list (List.rev !entries) }

(* -- Synthetic generation -- *)

type profile =
  | Churn (* allocator-like: map, touch a few pages, unmap *)
  | Faults (* fault-heavy: few large regions, many touches *)
  | Mixed (* a blend, with occasional mprotects *)
  | Forks (* process trees: fork, COW writes/reads, exits *)
  | Reclaim (* value traffic under mlock/munlock and pressure storms *)

let profile_name = function
  | Churn -> "churn"
  | Faults -> "faults"
  | Mixed -> "mixed"
  | Forks -> "forks"
  | Reclaim -> "reclaim"

let generate ~profile ~ncpus ~ops_per_cpu ~seed =
  let next_id = ref 0 in
  let next_proc = ref 0 in
  let entries = ref [] in
  let emit_p cpu proc op = entries := { cpu; proc; op } :: !entries in
  let emit cpu op = emit_p cpu 0 op in
  for cpu = 0 to ncpus - 1 do
    let rng = Mm_util.Rng.create ~seed:(seed + (97 * cpu)) in
    let live = ref [] in
    let budget = ref ops_per_cpu in
    let fresh_region ~pages ~writable =
      incr next_id;
      let id = !next_id in
      emit cpu (T_mmap { id; len = pages * 4096; writable });
      live := (id, pages) :: !live;
      decr budget;
      id
    in
    (* Forks state: a stack of (proc, regions the process can reference),
       rooted at process 0. Each CPU grows its own subtree, so its stream
       stays self-contained (a child is only ever driven by the CPU that
       forked it). *)
    let pstack = ref [ (0, ref []) ] in
    while !budget > 0 do
      match profile with
      | Churn ->
        let pages = 1 + Mm_util.Rng.int rng 8 in
        let id = fresh_region ~pages ~writable:true in
        let touches = min !budget (1 + Mm_util.Rng.int rng pages) in
        for k = 0 to touches - 1 do
          emit cpu (T_touch { id; page = k mod pages; write = true });
          decr budget
        done;
        if !budget > 0 then begin
          emit cpu (T_munmap { id });
          live := List.remove_assoc id !live;
          decr budget
        end
      | Faults ->
        (match !live with
        | [] -> ignore (fresh_region ~pages:256 ~writable:true)
        | regions ->
          let id, pages =
            List.nth regions (Mm_util.Rng.int rng (List.length regions))
          in
          emit cpu
            (T_touch
               {
                 id;
                 page = Mm_util.Rng.int rng pages;
                 write = Mm_util.Rng.bool rng;
               });
          decr budget;
          if List.length regions < 4 && Mm_util.Rng.int rng 50 = 0 then
            ignore (fresh_region ~pages:256 ~writable:true))
      | Mixed -> (
        match Mm_util.Rng.int rng 10 with
        | 0 | 1 -> ignore (fresh_region ~pages:(1 + Mm_util.Rng.int rng 16) ~writable:true)
        | 2 -> (
          match !live with
          | (id, _) :: rest ->
            emit cpu (T_munmap { id });
            live := rest;
            decr budget
          | [] -> ignore (fresh_region ~pages:4 ~writable:true))
        | 3 -> (
          match !live with
          | (id, _) :: _ ->
            emit cpu (T_mprotect { id; writable = Mm_util.Rng.bool rng });
            decr budget
          | [] -> ignore (fresh_region ~pages:4 ~writable:true))
        | _ -> (
          match !live with
          | [] -> ignore (fresh_region ~pages:8 ~writable:true)
          | regions ->
            let id, pages =
              List.nth regions (Mm_util.Rng.int rng (List.length regions))
            in
            emit cpu
              (T_touch
                 {
                   id;
                   page = Mm_util.Rng.int rng pages;
                   write = Mm_util.Rng.bool rng;
                 });
            decr budget))
      | Reclaim -> (
        (* Value traffic interleaved with wiring and pressure storms:
           writes seed data tokens, [pressure] forces the page-out
           daemon to evict (write back / swap) what is not wired, reads
           then prove the tokens survived the round trip. mlock'd
           regions must come back untouched *without* a refault. *)
        let pick () =
          List.nth !live (Mm_util.Rng.int rng (List.length !live))
        in
        match Mm_util.Rng.int rng 16 with
        | 0 | 1 when List.length !live < 6 ->
          ignore (fresh_region ~pages:(2 + Mm_util.Rng.int rng 6) ~writable:true)
        | 2 ->
          if !live = [] then
            ignore (fresh_region ~pages:4 ~writable:true)
          else begin
            let id, _ = pick () in
            emit cpu (T_mlock { id });
            decr budget
          end
        | 3 ->
          if !live = [] then
            ignore (fresh_region ~pages:4 ~writable:true)
          else begin
            let id, _ = pick () in
            emit cpu (T_munlock { id });
            decr budget
          end
        | 4 | 5 ->
          emit cpu (T_pressure { pages = 8 + Mm_util.Rng.int rng 24 });
          decr budget
        | 6 | 7 | 8 | 9 | 10 ->
          if !live = [] then
            ignore (fresh_region ~pages:4 ~writable:true)
          else begin
            let id, pages = pick () in
            emit cpu
              (T_write
                 {
                   id;
                   page = Mm_util.Rng.int rng pages;
                   value = 1 + Mm_util.Rng.int rng 1_000_000;
                 });
            decr budget
          end
        | _ ->
          if !live = [] then
            ignore (fresh_region ~pages:4 ~writable:true)
          else begin
            let id, pages = pick () in
            emit cpu (T_read { id; page = Mm_util.Rng.int rng pages });
            decr budget
          end)
      | Forks -> (
        let depth = List.length !pstack in
        (* Memory ops act on a *random* live process, not just the
           innermost child: parents keep writing while their children
           live, which is the access pattern that separates a correct
           fork (write-protect both sides) from the parent-side-skip
           mutant the oracle gate arms. Fork/exit stay LIFO on the
           stack head so children always exit before their parent. *)
        let cur, cur_live =
          List.nth !pstack (Mm_util.Rng.int rng depth)
        in
        let fresh_in_proc () =
          incr next_id;
          let id = !next_id in
          let pages = 1 + Mm_util.Rng.int rng 8 in
          emit_p cpu cur (T_mmap { id; len = pages * 4096; writable = true });
          cur_live := (id, pages) :: !cur_live;
          decr budget
        in
        let pick () =
          let regions = !cur_live in
          List.nth regions (Mm_util.Rng.int rng (List.length regions))
        in
        match Mm_util.Rng.int rng 12 with
        | 0 when depth < 3 && !budget >= 3 ->
          (* Fork off the stack head: the child starts with the
             forking process's current region view (COW-shared until
             either side writes). *)
          let top, top_live = List.hd !pstack in
          incr next_proc;
          let child = !next_proc in
          emit_p cpu top (T_fork { child });
          pstack := (child, ref !top_live) :: !pstack;
          decr budget
        | 1 when depth > 1 ->
          let top, _ = List.hd !pstack in
          emit_p cpu top T_exit;
          pstack := List.tl !pstack;
          decr budget
        | 0 | 1 | 2 | 3 -> fresh_in_proc ()
        | 4 | 5 | 6 | 7 ->
          if !cur_live = [] then fresh_in_proc ()
          else begin
            (* Value traffic concentrates on the low pages of each
               region (hot-page skew): cross-process write/read
               collisions on shared COW pages are what give the value
               model its discriminating power. *)
            let id, pages = pick () in
            emit_p cpu cur
              (T_write
                 {
                   id;
                   page = Mm_util.Rng.int rng (min pages 2);
                   value = 1 + Mm_util.Rng.int rng 1_000_000;
                 });
            decr budget
          end
        | 8 | 9 ->
          if !cur_live = [] then fresh_in_proc ()
          else begin
            let id, pages = pick () in
            emit_p cpu cur
              (T_read { id; page = Mm_util.Rng.int rng (min pages 2) });
            decr budget
          end
        | _ ->
          if !cur_live = [] then fresh_in_proc ()
          else begin
            let id, pages = pick () in
            emit_p cpu cur
              (T_touch
                 {
                   id;
                   page = Mm_util.Rng.int rng pages;
                   write = Mm_util.Rng.bool rng;
                 });
            decr budget
          end)
    done;
    (* Every forked process exits before its CPU's stream ends, so a
       replayed world quiesces to the root process alone. *)
    List.iter
      (fun (p, _) -> if p <> 0 then emit_p cpu p T_exit)
      !pstack
  done;
  { ncpus; entries = Array.of_list (List.rev !entries) }

(* -- Replay -- *)

type replay_stats = {
  result : Runner.result;
  mmaps : int;
  munmaps : int;
  touches : int;
  forks : int;
  faults_denied : int; (* touches that hit SIGSEGV (e.g. after mprotect) *)
}

let replay ?(isa = Mm_hal.Isa.x86_64) ~kind trace =
  let root = System.make ~isa kind ~ncpus:trace.ncpus in
  (* proc -> live instance; process 0 is the root and never exits. *)
  let procs : (int, System.t) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace procs 0 root;
  (* (proc, id) -> (addr, len); shared across CPUs (simulation is
     cooperative). A fork copies the parent's entries under the child's
     key: region addresses are identical in the child's address space. *)
  let regions : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let mmaps = ref 0 and munmaps = ref 0 and touches = ref 0 in
  let forks = ref 0 in
  let denied = ref 0 in
  (* Per-CPU streams, replayed in trace order within each CPU. *)
  let per_cpu = Array.make trace.ncpus [] in
  Array.iter (fun e -> per_cpu.(e.cpu) <- e :: per_cpu.(e.cpu)) trace.entries;
  Array.iteri (fun i l -> per_cpu.(i) <- List.rev l) per_cpu;
  let cycles =
    Runner.run_phases ~ncpus:trace.ncpus
      ~prep:(fun cpu -> System.warm root ~cpu)
      ()
      ~measure:(fun cpu ->
        List.iter
          (fun { proc; op; _ } ->
            match Hashtbl.find_opt procs proc with
            | None -> () (* defunct process: skip, like a dead region id *)
            | Some sys -> (
              match op with
              | T_mmap { id; len; writable } ->
                incr mmaps;
                let perm = if writable then Perm.rw else Perm.r in
                let addr = System.mmap_exn sys ~len ~perm () in
                Hashtbl.replace regions (proc, id) (addr, len)
              | T_munmap { id } -> (
                match Hashtbl.find_opt regions (proc, id) with
                | Some (addr, len) ->
                  incr munmaps;
                  Hashtbl.remove regions (proc, id);
                  System.munmap_exn sys ~addr ~len
                | None -> ())
              | T_touch { id; page; write } -> (
                match Hashtbl.find_opt regions (proc, id) with
                | Some (addr, len) when page * 4096 < len -> (
                  incr touches;
                  match
                    System.touch sys ~vaddr:(addr + (page * 4096)) ~write
                  with
                  | Ok () -> ()
                  | Error _ -> incr denied)
                | Some _ | None -> ())
              | T_mprotect { id; writable } -> (
                match Hashtbl.find_opt regions (proc, id) with
                | Some (addr, len) when System.has_mprotect sys ->
                  System.mprotect_exn sys ~addr ~len
                    ~perm:(if writable then Perm.rw else Perm.r)
                | Some _ | None -> ())
              | T_fork { child } -> (
                match System.fork sys with
                | Ok csys ->
                  incr forks;
                  Hashtbl.replace procs child csys;
                  let inherited =
                    Hashtbl.fold
                      (fun (p, id) v acc ->
                        if p = proc then (id, v) :: acc else acc)
                      regions []
                  in
                  List.iter
                    (fun (id, v) -> Hashtbl.replace regions (child, id) v)
                    inherited
                | Error _ -> ())
              | T_exit ->
                if proc <> 0 then begin
                  System.destroy sys;
                  Hashtbl.remove procs proc;
                  let dead =
                    Hashtbl.fold
                      (fun (p, id) _ acc ->
                        if p = proc then (p, id) :: acc else acc)
                      regions []
                  in
                  List.iter (Hashtbl.remove regions) dead
                end
              | T_write { id; page; value } -> (
                match Hashtbl.find_opt regions (proc, id) with
                | Some (addr, len) when page * 4096 < len -> (
                  incr touches;
                  match
                    System.write_value sys ~vaddr:(addr + (page * 4096)) ~value
                  with
                  | Ok () -> ()
                  | Error _ -> incr denied)
                | Some _ | None -> ())
              | T_read { id; page } -> (
                match Hashtbl.find_opt regions (proc, id) with
                | Some (addr, len) when page * 4096 < len -> (
                  incr touches;
                  match System.read_value sys ~vaddr:(addr + (page * 4096)) with
                  | Ok _ -> ()
                  | Error _ -> incr denied)
                | Some _ | None -> ())
              | T_mlock { id } -> (
                (* Reclaim ops are capability-gated like mprotect: a
                   backend without a page-out daemon replays them as
                   no-ops (there is nothing to guard against). *)
                match Hashtbl.find_opt regions (proc, id) with
                | Some (addr, len) when System.has_reclaim sys -> (
                  match System.mlock sys ~addr ~len with
                  | Ok () -> ()
                  | Error _ -> incr denied)
                | Some _ | None -> ())
              | T_munlock { id } -> (
                match Hashtbl.find_opt regions (proc, id) with
                | Some (addr, len) when System.has_reclaim sys -> (
                  match System.munlock sys ~addr ~len with
                  | Ok () -> ()
                  | Error _ -> incr denied)
                | Some _ | None -> ())
              | T_pressure { pages } ->
                if System.has_reclaim sys then
                  ignore (System.pressure sys ~target_pages:pages)))
          per_cpu.(cpu))
  in
  {
    result = Runner.result ~ops:(Array.length trace.entries) ~cycles;
    mmaps = !mmaps;
    munmaps = !munmaps;
    touches = !touches;
    forks = !forks;
    faults_denied = !denied;
  }
