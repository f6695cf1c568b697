(* The event bus: one emit path, per domain, to at most two subscribers —
   the ring recorder that [start] opens (per-vCPU event rings) and one
   checker that [set_checker] installs.

   Zero-overhead-when-unobserved: the only cost an instrumentation site
   pays when no domain has a subscriber is the [on ()] check — one atomic
   read. Nothing in this module ever advances simulated time, so
   observing a run changes *host* work only; virtual-time results are
   bit-identical with subscribers or without.

   Determinism: events carry the emitting vCPU's virtual time plus the
   domain's emission sequence number. The simulator schedules fibers
   deterministically, so the emission order — and therefore the entire
   stream — is reproducible run-to-run. [start] resets the sequence
   number and the metrics and contention registries (and the lock-id
   counter) so that two identical runs, each preceded by [start], produce
   byte-identical streams. *)

let max_cpus = 1024

type session = {
  rings : Event.t Ring.t option array; (* by cpu, created lazily *)
  capacity : int; (* per-cpu ring capacity *)
}

type bus = {
  mutable session : session option;
  mutable checker : (Event.t -> unit) option;
  mutable seq : int;
}

(* Domain-local: subscribers belong to the domain that installed them.
   Parallel drivers (lib/par) never trace — the CLI forces [-j 1] under
   [--trace]/[--report] so one session observes the whole sequential
   run — while schedcheck shards check each run on its own domain. *)
let bus_key : bus Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { session = None; checker = None; seq = 0 })

let bus () = Domain.DLS.get bus_key
let subscribed b = b.session <> None || b.checker <> None

(* Process-wide count of domains with a subscriber. It is 0 in every
   unobserved run, so [on] answers there without the domain-local
   lookup. *)
let subscribed_domains = Atomic.make 0

let domains () = Atomic.get subscribed_domains
let on () = Atomic.get subscribed_domains > 0 && subscribed (bus ())

(* Change this domain's subscribers, keeping the count balanced. *)
let update f =
  let b = bus () in
  let before = subscribed b in
  f b;
  match (before, subscribed b) with
  | false, true -> Atomic.incr subscribed_domains
  | true, false -> Atomic.decr subscribed_domains
  | _ -> ()

let start ?(capacity = 1 lsl 16) () =
  if capacity <= 0 then invalid_arg "Trace.start: capacity";
  Metrics.reset ();
  Contention.reset ();
  update (fun b ->
      b.session <- Some { rings = Array.make max_cpus None; capacity };
      b.seq <- 0)

let recording () = (bus ()).session <> None
let set_checker f = update (fun b -> b.checker <- Some f)
let clear_checker () = update (fun b -> b.checker <- None)

let emit ~time ~cpu payload =
  let b = bus () in
  let e = { Event.seq = b.seq; time; cpu; payload } in
  b.seq <- b.seq + 1;
  (match b.session with
  | Some s when cpu >= 0 && cpu < max_cpus ->
    let ring =
      match s.rings.(cpu) with
      | Some r -> r
      | None ->
        let r = Ring.create ~capacity:s.capacity in
        s.rings.(cpu) <- Some r;
        r
    in
    Ring.push ring e
  | _ -> ());
  match b.checker with Some f -> f e | None -> ()

let collect s =
  let all =
    Array.fold_left
      (fun acc r -> match r with None -> acc | Some r -> Ring.to_list r :: acc)
      [] s.rings
  in
  List.concat all |> List.sort (fun a b -> compare a.Event.seq b.Event.seq)

let events () = match (bus ()).session with None -> [] | Some s -> collect s

let dropped () =
  match (bus ()).session with
  | None -> 0
  | Some s ->
    Array.fold_left
      (fun acc r -> match r with None -> acc | Some r -> acc + Ring.dropped r)
      0 s.rings

let stop () =
  let evs = events () in
  update (fun b -> b.session <- None);
  evs

(* The canonical text stream — what the determinism guarantee is stated
   over (see test/test_obs.ml). *)
let to_text evs = String.concat "\n" (List.map Event.to_string evs)
