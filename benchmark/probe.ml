(* Traced-mode instruments, all observing the simulation from outside:

   - a SIGPROF sampler that charges each host CPU-time sample to the
     innermost open wrapper call of the interrupted fiber, else to the
     engine (inside a world), else to the driver (outside any world);
   - a counting [Mm_sim.Monitor] hook (object, reclaim and frame events);
   - GC work from [Gc.quick_stat] deltas and GC pause time from the
     bundled [runtime_events] ring;
   - the simulator's own counters, read from the [Mm_obs.Trace] session's
     metrics and contention registries.

   None of them advances virtual time: a traced round must produce the
   same [sim_digest] as an untraced one. *)

module Monitor = Mm_sim.Monitor
module Metrics = Mm_obs.Metrics
module Engine = Mm_sim.Engine

(* -- SIGPROF sampler -- *)

let period_s = 0.004
let op_samples = Array.make Wrap.n_kinds 0
let engine_samples = ref 0
let driver_samples = ref 0

(* Runs at an OCaml safe point; it only reads state and bumps integers. *)
let on_sample _ =
  if Engine.in_fiber () then begin
    let k = Wrap.open_op.(Engine.cpu_id ()) in
    if k >= 0 then op_samples.(k) <- op_samples.(k) + 1
    else incr engine_samples
  end
  else if !Wrap.in_world then incr engine_samples
  else incr driver_samples

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

(* -- Counting monitor hook -- *)

let monitor_names =
  [|
    "tlb.frames_deferred"; "vm_object.created"; "vm_object.collapsed";
    "vm_object.destroyed"; "pager.pageoutd_wakeups"; "pager.pages_out";
    "pager.writebacks"; "pager.drops"; "pager.wired";
  |]

let monitor_counts = Array.make (Array.length monitor_names) 0

let count_event ev =
  let bump i = monitor_counts.(i) <- monitor_counts.(i) + 1 in
  match ev with
  | Monitor.Frame_deferred _ -> bump 0
  | Monitor.Obj_created _ -> bump 1
  | Monitor.Obj_collapsed _ -> bump 2
  | Monitor.Obj_destroyed _ -> bump 3
  | Monitor.Reclaim_waken _ -> bump 4
  | Monitor.Reclaim_page _ -> bump 5
  | Monitor.Reclaim_writeback _ -> bump 6
  | Monitor.Reclaim_drop _ -> bump 7
  | Monitor.Page_wired _ -> bump 8
  | _ -> ()

let tracing = ref false

(* [Runner.reset_world_state] clears the hook, so workloads re-arm it
   after every reset. *)
let arm_monitor () = if !tracing then Monitor.set count_event

(* -- GC pauses from runtime_events -- *)

let gc_pause_ns = ref 0
let gc_lost = ref 0
let gc_depth = ref 0
let gc_since = ref 0L
let cursor = ref None

(* Pause time is the union of the runtime's (nested) GC phases. *)
let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts _ ->
      if !gc_depth = 0 then gc_since := Runtime_events.Timestamp.to_int64 ts;
      incr gc_depth)
    ~runtime_end:(fun _ ts _ ->
      if !gc_depth > 0 then begin
        decr gc_depth;
        if !gc_depth = 0 then
          gc_pause_ns :=
            !gc_pause_ns
            + Int64.to_int
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !gc_since)
      end)
    ~lost_events:(fun _ n -> gc_lost := !gc_lost + n)
    ()

(* Drain the ring; workloads call this after every world so the ring
   does not wrap. *)
let poll_gc () =
  match !cursor with
  | Some c when !tracing -> ignore (Runtime_events.read_poll c callbacks None)
  | _ -> ()

(* -- One traced round -- *)

type round = {
  op_self : int array;  (** sampler hits per op kind *)
  engine_self : int;
  driver_self : int;
  monitor : int array;  (** by [monitor_names] *)
  counters : (string * int) list;  (** metrics registry counters *)
  hists : (string * Metrics.histogram) list;
  locks : Mm_obs.Contention.entry list;
  gc : Gc.stat * Gc.stat;  (** before, after *)
  gc_pause_s : float;
  gc_lost_events : int;
}

(* Run [f] traced; returns its result and what the instruments saw. *)
let traced f =
  if !cursor = None then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)
  end;
  Array.fill op_samples 0 Wrap.n_kinds 0;
  engine_samples := 0;
  driver_samples := 0;
  Array.fill monitor_counts 0 (Array.length monitor_counts) 0;
  tracing := true;
  poll_gc ();
  gc_depth := 0;
  gc_pause_ns := 0;
  gc_lost := 0;
  Mm_obs.Trace.start ~capacity:64 ();
  let g0 = Gc.quick_stat () in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  set_timer period_s;
  let finish () =
    set_timer 0.0;
    Sys.set_signal Sys.sigprof Sys.Signal_ignore;
    poll_gc ();
    tracing := false;
    Monitor.clear ()
  in
  let r =
    try f ()
    with e ->
      finish ();
      ignore (Mm_obs.Trace.stop ());
      raise e
  in
  finish ();
  let g1 = Gc.quick_stat () in
  let round =
    {
      op_self = Array.copy op_samples;
      engine_self = !engine_samples;
      driver_self = !driver_samples;
      monitor = Array.copy monitor_counts;
      counters = Metrics.counters ();
      hists = Metrics.histograms ();
      locks = Mm_obs.Contention.ranked ();
      gc = (g0, g1);
      gc_pause_s = float_of_int !gc_pause_ns *. 1e-9;
      gc_lost_events = !gc_lost;
    }
  in
  ignore (Mm_obs.Trace.stop ());
  (r, round)
