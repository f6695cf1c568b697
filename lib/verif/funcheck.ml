(* Functional correctness of the cursor operations (the paper's P2, §5.2)
   checked against a flat reference model — exhaustively over all short
   operation sequences on a small window (every sequence, not a random
   sample), and a linearizability check of concurrent transaction
   histories (§3.3's atomicity semantics). *)

module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm

let page = 4096
let window_pages = 8
let window_base = 0x4000_0000

(* -- The reference model: page number -> abstract status -- *)

type ref_entry = R_invalid | R_anon of Perm.t | R_mapped of Perm.t

type op =
  | Op_mmap of int * int * Perm.t
  | Op_munmap of int * int
  | Op_touch of int * bool
  | Op_protect of int * int * Perm.t

(* The operation universe for exhaustive enumeration: chosen to cover
   overlap, splitting, remapping, permission changes, and faults. *)
let op_universe =
  [
    Op_mmap (0, 4, Perm.rw);
    Op_mmap (2, 4, Perm.r);
    Op_munmap (1, 3);
    Op_touch (2, true);
    Op_touch (5, false);
    Op_protect (0, 4, Perm.r);
    Op_protect (2, 2, Perm.rw);
  ]

let apply_ref model op =
  let get p = match Hashtbl.find_opt model p with Some e -> e | None -> R_invalid in
  let set p e =
    if e = R_invalid then Hashtbl.remove model p else Hashtbl.replace model p e
  in
  match op with
  | Op_mmap (p, n, perm) ->
    for i = p to p + n - 1 do
      set i (R_anon perm)
    done
  | Op_munmap (p, n) ->
    for i = p to p + n - 1 do
      set i R_invalid
    done
  | Op_touch (p, w) -> (
    match get p with
    | R_anon q when Perm.allows q ~write:w -> set p (R_mapped q)
    | R_anon _ | R_mapped _ | R_invalid -> ())
  | Op_protect (p, n, perm) ->
    for i = p to p + n - 1 do
      match get i with
      | R_invalid -> ()
      | R_anon _ -> set i (R_anon perm)
      | R_mapped _ -> set i (R_mapped perm)
    done

let agree entry (s : Cortenmm.Status.t) =
  match (entry, s) with
  | R_invalid, Cortenmm.Status.Invalid -> true
  | R_anon p, Cortenmm.Status.Private_anon q -> Perm.equal p q
  | R_mapped p, Cortenmm.Status.Mapped { perm = q; _ } ->
    p.Perm.read = q.Perm.read && (p.Perm.write = q.Perm.write || q.Perm.cow)
  | _ -> false

(* Generated requests are always valid (aligned, in-range), so the
   typed-error results can only be [Ok]; faults from [touch] are part of
   the explored behaviour and are ignored either way. *)
let apply_real asp op =
  let a p = window_base + (p * page) in
  match op with
  | Op_mmap (p, n, perm) ->
    ignore (Cortenmm.Mm.mmap_r asp ~addr:(a p) ~len:(n * page) ~perm ())
  | Op_munmap (p, n) ->
    ignore (Cortenmm.Mm.munmap_r asp ~addr:(a p) ~len:(n * page))
  | Op_touch (p, w) -> ignore (Cortenmm.Mm.touch_r asp ~vaddr:(a p) ~write:w)
  | Op_protect (p, n, perm) ->
    ignore (Cortenmm.Mm.mprotect_r asp ~addr:(a p) ~len:(n * page) ~perm)

type exhaustive_result = {
  sequences : int;
  checks : int; (* page-status comparisons performed *)
  failures : (op list * int * string) list; (* sequence, page, detail *)
}

(* Run every operation sequence of length [depth] over the universe,
   checking agreement with the reference after every operation, plus the
   page-table well-formedness invariant. *)
let exhaustive ?(isa = Mm_hal.Isa.x86_64) ~cfg ~depth () =
  let sequences = ref 0 in
  let checks = ref 0 in
  let failures = ref [] in
  let rec enum prefix remaining =
    if remaining = 0 then begin
      incr sequences;
      let seq = List.rev prefix in
      let w = Engine.create ~ncpus:1 in
      Engine.spawn w ~cpu:0 (fun () ->
          let kernel = Cortenmm.Kernel.create ~isa ~ncpus:1 () in
          let asp = Cortenmm.Addr_space.create kernel cfg in
          let model = Hashtbl.create 16 in
          List.iter
            (fun op ->
              apply_real asp op;
              apply_ref model op;
              Cortenmm.Addr_space.check_well_formed asp;
              Cortenmm.Addr_space.with_lock asp ~lo:window_base
                ~hi:(window_base + (window_pages * page)) (fun c ->
                  for p = 0 to window_pages - 1 do
                    incr checks;
                    let s =
                      Cortenmm.Addr_space.query c (window_base + (p * page))
                    in
                    let e =
                      match Hashtbl.find_opt model p with
                      | Some e -> e
                      | None -> R_invalid
                    in
                    if not (agree e s) then
                      failures :=
                        (seq, p, Cortenmm.Status.to_string s) :: !failures
                  done))
            seq);
      Engine.run w
    end
    else
      List.iter (fun op -> enum (op :: prefix) (remaining - 1)) op_universe
  in
  enum [] depth;
  { sequences = !sequences; checks = !checks; failures = List.rev !failures }

(* -- Linearizability of concurrent transactions (§3.3) --

   Random per-thread operation streams run concurrently; each completed
   operation records its completion (commit) time. Two-phase locking
   serializes conflicting transactions in lock order, and disjoint ones
   commute, so replaying all operations serially in completion order on a
   fresh instance must produce the same user-visible final state. *)

type lin_result = {
  total_ops : int;
  matched : bool;
  detail : string;
}

let abstract_window asp =
  let shapes = Array.make window_pages "invalid" in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      Cortenmm.Addr_space.with_lock asp ~lo:window_base
        ~hi:(window_base + (window_pages * page)) (fun c ->
          for p = 0 to window_pages - 1 do
            shapes.(p) <-
              (match Cortenmm.Addr_space.query c (window_base + (p * page)) with
              | Cortenmm.Status.Invalid -> "invalid"
              | Cortenmm.Status.Mapped { perm; _ } ->
                "mapped:"
                ^ Perm.to_string (Perm.with_cow perm false)
              | Cortenmm.Status.Private_anon q -> "anon:" ^ Perm.to_string q
              | s -> Cortenmm.Status.to_string s)
          done));
  Engine.run w;
  shapes

let gen_ops ~rng ~count =
  List.init count (fun _ ->
      match Mm_util.Rng.int rng 4 with
      | 0 ->
        Op_mmap
          ( Mm_util.Rng.int rng (window_pages - 2),
            1 + Mm_util.Rng.int rng 2,
            if Mm_util.Rng.bool rng then Perm.rw else Perm.r )
      | 1 ->
        Op_munmap
          (Mm_util.Rng.int rng (window_pages - 2), 1 + Mm_util.Rng.int rng 2)
      | 2 -> Op_touch (Mm_util.Rng.int rng window_pages, Mm_util.Rng.bool rng)
      | _ ->
        Op_protect
          ( Mm_util.Rng.int rng (window_pages - 2),
            1 + Mm_util.Rng.int rng 2,
            if Mm_util.Rng.bool rng then Perm.rw else Perm.r ))

let lin_check ~cfg ~ncpus ~ops_per_thread ~seed =
  let streams =
    Array.init ncpus (fun c ->
        gen_ops ~rng:(Mm_util.Rng.create ~seed:(seed + (101 * c))) ~count:ops_per_thread)
  in
  (* Concurrent run, recording completion times. *)
  let kernel = Cortenmm.Kernel.create ~ncpus () in
  let asp = Cortenmm.Addr_space.create kernel cfg in
  let history = ref [] in
  let w = Engine.create ~ncpus in
  for c = 0 to ncpus - 1 do
    Engine.spawn w ~cpu:c (fun () ->
        List.iter
          (fun op ->
            apply_real asp op;
            history := (Engine.now (), c, op) :: !history)
          streams.(c))
  done;
  Engine.run w;
  let concurrent_final = abstract_window asp in
  (* Serial replay in completion order. *)
  let serial_kernel = Cortenmm.Kernel.create ~ncpus:1 () in
  let serial = Cortenmm.Addr_space.create serial_kernel cfg in
  let ordered =
    List.sort compare !history (* by time, then cpu, then op *)
  in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      List.iter (fun (_, _, op) -> apply_real serial op) ordered);
  Engine.run w;
  let serial_final = abstract_window serial in
  let matched = concurrent_final = serial_final in
  {
    total_ops = ncpus * ops_per_thread;
    matched;
    detail =
      (if matched then "concurrent history linearizes in commit order"
       else
         Printf.sprintf "MISMATCH: concurrent=[%s] serial=[%s]"
           (String.concat ";" (Array.to_list concurrent_final))
           (String.concat ";" (Array.to_list serial_final)));
  }
