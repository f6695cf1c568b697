(* The lock-contention profile: per-lock aggregates of serialized cycles.

   Every simulated lock gets a cheap integer id at creation ([fresh_id] is
   one increment — the first touch of each pfn in the frame table reserves
   two, for the PT-page locks built on first use, so registration must
   not allocate). A lock enters this table only on its first *profiled*
   operation, i.e. while a profiling session is active, so idle locks
   cost nothing and the table stays small (only locks that were actually
   exercised).

   "Serialized cycles" is the total virtual time fibers spent waiting to
   acquire the lock — exactly the quantity the paper's scalability
   analysis attributes to each lock/cache line. The report ranks by it. *)

type entry = {
  id : int;
  kind : Event.lock_kind; (* Mutex or the rwlock family *)
  name : string;
  mutable acquisitions : int;
  mutable contended : int; (* acquisitions that had to wait *)
  mutable wait_cycles : int; (* total serialized cycles *)
  mutable max_wait : int;
  mutable hold_cycles : int; (* exclusive-side hold time *)
}

(* Domain-local (like the metrics registry): lock ids and the profile
   table are per-domain, and parallel tasks reset them at task start so
   a world's lock ids are independent of what ran before it — the ids
   appear in Live-checker violation text, which must not depend on the
   domain count or task order. *)
type state = {
  table : (int, entry) Hashtbl.t;
  mutable next_id : int;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { table = Hashtbl.create 64; next_id = 0 })

let fresh_id () =
  let s = Domain.DLS.get state_key in
  let id = s.next_id in
  s.next_id <- id + 1;
  id

let reset () =
  let s = Domain.DLS.get state_key in
  Hashtbl.reset s.table;
  s.next_id <- 0

let get ~id ~kind ~name =
  let table = (Domain.DLS.get state_key).table in
  match Hashtbl.find_opt table id with
  | Some e -> e
  | None ->
    let e =
      {
        id;
        kind;
        name = name ();
        acquisitions = 0;
        contended = 0;
        wait_cycles = 0;
        max_wait = 0;
        hold_cycles = 0;
      }
    in
    Hashtbl.replace table id e;
    e

let acquired e ~wait =
  e.acquisitions <- e.acquisitions + 1;
  if wait > 0 then begin
    e.contended <- e.contended + 1;
    e.wait_cycles <- e.wait_cycles + wait;
    if wait > e.max_wait then e.max_wait <- wait
  end

let released e ~held = if held > 0 then e.hold_cycles <- e.hold_cycles + held

let name_of id =
  match Hashtbl.find_opt (Domain.DLS.get state_key).table id with
  | Some e -> e.name
  | None -> Printf.sprintf "lock#%d" id

(* Ranked by serialized cycles (ties by id, so output is deterministic). *)
let ranked () =
  Hashtbl.fold (fun _ e acc -> e :: acc) (Domain.DLS.get state_key).table []
  |> List.sort (fun a b ->
         match compare b.wait_cycles a.wait_cycles with
         | 0 -> compare a.id b.id
         | c -> c)

let top () = match ranked () with [] -> None | e :: _ -> Some e

let report ?(limit = 20) () =
  let b = Buffer.create 512 in
  match ranked () with
  | [] ->
    Buffer.add_string b "no lock contention recorded\n";
    Buffer.contents b
  | entries ->
    Buffer.add_string b
      "lock contention — ranked by serialized (wait) cycles\n\n";
    Buffer.add_string b
      (Printf.sprintf "%-32s %-8s %10s %10s %12s %10s %12s\n" "lock" "kind"
         "acqs" "contended" "wait-cycles" "max-wait" "hold-cycles");
    List.iteri
      (fun i e ->
        if i < limit then
          Buffer.add_string b
            (Printf.sprintf "%-32s %-8s %10d %10d %12d %10d %12d\n" e.name
               (match e.kind with
               | Event.Mutex -> "mutex"
               | Event.Rw_read | Event.Rw_write -> "rwlock")
               e.acquisitions e.contended e.wait_cycles e.max_wait
               e.hold_cycles))
      entries;
    let n = List.length entries in
    if n > limit then
      Buffer.add_string b (Printf.sprintf "... and %d more locks\n" (n - limit));
    Buffer.contents b
