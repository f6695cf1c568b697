(* The tracing session: per-vCPU event rings behind one global on/off
   switch.

   Zero-overhead-when-disabled: the only cost an instrumentation site pays
   when no session is active is the [on ()] check — one atomic read while
   no domain traces.
   Nothing in this module ever advances simulated time, so enabling a
   session changes *host* work only; virtual-time results are bit-identical
   with tracing on, off, or compiled out.

   Determinism: events carry the emitting vCPU's virtual time plus a
   global emission sequence number. The simulator schedules fibers
   deterministically, so the emission order — and therefore the entire
   stream — is reproducible run-to-run. [start] resets the metrics and
   contention registries (and the lock-id counter) so that two identical
   runs, each preceded by [start], produce byte-identical streams. *)

let max_cpus = 1024

type session = {
  rings : Event.t Ring.t option array; (* by cpu, created lazily *)
  capacity : int; (* per-cpu ring capacity *)
  mutable seq : int;
}

(* Domain-local: a tracing session belongs to the domain that started
   it. Parallel drivers (lib/par) never trace — the bench driver forces
   [-j 1] under [--trace]/[--report] so one session observes the whole
   sequential run, exactly as before. *)
let current_key : session option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

(* Process-wide count of domains with an open session. It is 0 in every
   untraced run, so [on] answers there without the domain-local lookup. *)
let open_sessions = Atomic.make 0

let sessions () = Atomic.get open_sessions
let on () = Atomic.get open_sessions > 0 && !(current ()) <> None

let start ?(capacity = 1 lsl 16) () =
  if capacity <= 0 then invalid_arg "Trace.start: capacity";
  Metrics.reset ();
  Contention.reset ();
  let cur = current () in
  if !cur = None then Atomic.incr open_sessions;
  cur := Some { rings = Array.make max_cpus None; capacity; seq = 0 }

let emit ~time ~cpu payload =
  match !(current ()) with
  | None -> ()
  | Some s ->
    if cpu < 0 || cpu >= max_cpus then ()
    else begin
      let ring =
        match s.rings.(cpu) with
        | Some r -> r
        | None ->
          let r = Ring.create ~capacity:s.capacity in
          s.rings.(cpu) <- Some r;
          r
      in
      Ring.push ring { Event.seq = s.seq; time; cpu; payload };
      s.seq <- s.seq + 1
    end

let collect s =
  let all =
    Array.fold_left
      (fun acc r -> match r with None -> acc | Some r -> Ring.to_list r :: acc)
      [] s.rings
  in
  List.concat all |> List.sort (fun a b -> compare a.Event.seq b.Event.seq)

let events () = match !(current ()) with None -> [] | Some s -> collect s

let dropped () =
  match !(current ()) with
  | None -> 0
  | Some s ->
    Array.fold_left
      (fun acc r -> match r with None -> acc | Some r -> acc + Ring.dropped r)
      0 s.rings

let stop () =
  let evs = events () in
  let cur = current () in
  if !cur <> None then Atomic.decr open_sessions;
  cur := None;
  evs

(* The canonical text stream — what the determinism guarantee is stated
   over (see test/test_obs.ml). *)
let to_text evs = String.concat "\n" (List.map Event.to_string evs)
