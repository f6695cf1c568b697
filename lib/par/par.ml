(* Deterministic fork-join work pool over OCaml 5 domains.

   The contract that every driver in this repository leans on: given a
   list of *independent world thunks* — tasks that construct, run and
   tear down their own simulation worlds and never share mutable state —
   [run ~jobs tasks] executes them on [min jobs (length tasks)] domains
   and returns (and emits) the results in submission order. Parallelism
   may only ever change wall-clock time, never an observable result:
   every JSON file, table, digest and report produced through this pool
   is byte-for-byte identical for any [jobs].

   How that contract is kept:
   - Results land in a per-index slot and are merged (and streamed to
     [emit]) strictly in submission order by the calling domain.
   - Task isolation is the callers' side of the bargain: all simulator
     state that used to be process-global is Domain.DLS-scoped (each
     domain sees its own), and tasks begin with
     [Mm_workloads.Runner.reset_world_state] so a task's behaviour is
     independent of what ran before it on the same domain.
   - Worker domains are fresh, so their DLS state starts from the
     initializers; [jobs = 1] runs inline on the calling domain through
     the exact same per-task code path.
   - An exception inside a task is captured with its backtrace; after
     all domains join, the exception of the *lowest-indexed* failed task
     is re-raised — the same one a sequential run would have hit first
     (remaining tasks are not started once a failure is seen).

   The pool is deliberately simple: one atomic task cursor, one mutex +
   condition for result hand-off. Tasks here are whole simulation worlds
   (milliseconds to minutes), so hand-off cost is irrelevant. *)

type 'a timed = { value : 'a; seconds : float }

type 'a slot = ('a timed, exn * Printexc.raw_backtrace) result

let available_cores () = Domain.recommended_domain_count ()

(* Typed validation of a count flag, same result-style shape as the
   registry lookups: the [Error] is a ready-to-print message naming
   [flag]. *)
let count_of_string ~flag s =
  match int_of_string_opt (String.trim s) with
  | None ->
    Error
      (Printf.sprintf "invalid %s value %S (expected a positive integer)" flag
         s)
  | Some n when n <= 0 ->
    Error (Printf.sprintf "invalid %s value %d (must be at least 1)" flag n)
  | Some n -> Ok n

let timed_call f =
  let t0 = Unix.gettimeofday () in
  let value = f () in
  { value; seconds = Unix.gettimeofday () -. t0 }

(* [order] is a permutation of [0 .. n-1]: the order in which workers
   *claim* tasks. It exists purely as a scheduling hint (start the
   heaviest tasks first so no domain is left finishing a giant task
   alone at the end); result slots, merge order and emission order are
   always submission order, so it can never change an observable
   output. *)
let check_order ~n order =
  if Array.length order <> n then
    invalid_arg
      (Printf.sprintf "Par.run_timed: order has %d entries for %d tasks"
         (Array.length order) n);
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Par.run_timed: order is not a permutation of the tasks";
      seen.(i) <- true)
    order

let run_timed ?(emit = fun (_ : 'a timed) -> ()) ?(worker_init = fun () -> ())
    ?order ~jobs tasks =
  if jobs <= 0 then invalid_arg "Par.run_timed: jobs must be positive";
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  Option.iter (check_order ~n) order;
  if n = 0 then []
  else if min jobs n = 1 then begin
    (* Inline sequential path: same per-task code, no domains. Emission
       happens as each task completes, which for one worker *is*
       submission order. *)
    let out = ref [] in
    Array.iter
      (fun task ->
        let r = timed_call task in
        emit r;
        out := r :: !out)
      tasks;
    List.rev !out
  end
  else begin
    let slots : 'a slot option array = Array.make n None in
    let claim_order =
      match order with Some o -> o | None -> Array.init n Fun.id
    in
    let next = Atomic.make 0 in
    (* Lowest *submission* index that has failed so far (max_int = none).
       Tasks the sequential run would have reached — submission index
       below every failure — always execute, even when a custom [order]
       ran a later-submitted task (and failed it) first. *)
    let failed_min = Atomic.make max_int in
    let rec note_failure i =
      let cur = Atomic.get failed_min in
      if i < cur && not (Atomic.compare_and_set failed_min cur i) then
        note_failure i
    in
    let m = Mutex.create () in
    let filled = Condition.create () in
    let post i r =
      Mutex.lock m;
      slots.(i) <- Some r;
      Condition.broadcast filled;
      Mutex.unlock m
    in
    let worker () =
      worker_init ();
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n then begin
          let i = claim_order.(k) in
          (if i > Atomic.get failed_min then
             (* A lower-submitted task already failed: don't start work
                the sequential run would never have reached. The slot
                must still be filled so the merge loop can pass it by. *)
             post i
               (Error
                  ( Failure "Par: task skipped after an earlier failure",
                    Printexc.get_callstack 0 ))
           else
             match timed_call tasks.(i) with
             | r -> post i (Ok r)
             | exception e ->
               let bt = Printexc.get_raw_backtrace () in
               note_failure i;
               post i (Error (e, bt)));
          loop ()
        end
      in
      loop ()
    in
    let domains =
      Array.init (min jobs n) (fun _ -> Domain.spawn worker)
    in
    (* Stream results in submission order while workers run; stop
       emitting at the first failed slot (merge re-raises after join). *)
    let emitted = ref 0 in
    let ok = ref true in
    while !ok && !emitted < n do
      Mutex.lock m;
      while slots.(!emitted) = None do
        Condition.wait filled m
      done;
      Mutex.unlock m;
      (match slots.(!emitted) with
      | Some (Ok r) ->
        emit r;
        incr emitted
      | Some (Error _) | None -> ok := false)
    done;
    Array.iter Domain.join domains;
    (* Every slot is filled once the workers have joined. Anything the
       streaming loop already emitted is simply collected; the first
       failure re-raises with the original backtrace. *)
    let out = ref [] in
    let rec finish i =
      if i = n then List.rev !out
      else
        match slots.(i) with
        | None -> assert false
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok r) ->
          if i >= !emitted then emit r;
          out := r :: !out;
          finish (i + 1)
    in
    finish 0
  end

let run ?worker_init ~jobs tasks =
  List.map
    (fun r -> r.value)
    (run_timed ?worker_init ~jobs tasks)

let map ?worker_init ~jobs f xs =
  run ?worker_init ~jobs (List.map (fun x () -> f x) xs)
