(* The benchmark's view of a backend: a [Backend.S] wrapper that counts
   every call into the backend boundary from outside.

   The wrapper never calls [Engine.tick] and never changes an argument or
   a result, so a wrapped world is simulated exactly like an unwrapped
   one; it only reads [Engine.now] before and after each call. Besides the
   per-op counters it keeps, per vCPU, which op is open, so the SIGPROF
   sampler ({!Probe}) can charge host time to the innermost open call of
   the fiber it interrupts. *)

module Engine = Mm_sim.Engine
module Backend = Mm_workloads.Backend

let kinds =
  [|
    "mmap"; "munmap"; "mprotect"; "touch"; "fork"; "destroy"; "write_value";
    "read_value"; "mlock"; "munlock"; "pressure";
  |]

let n_kinds = Array.length kinds
let mmap_k = 0
let munmap_k = 1
let mprotect_k = 2
let touch_k = 3
let fork_k = 4
let destroy_k = 5
let write_value_k = 6
let read_value_k = 7
let mlock_k = 8
let munlock_k = 9
let pressure_k = 10

(* Per-kind totals over every wrapped system, since the last [reset]. *)
let calls = Array.make n_kinds 0
let errors = Array.make n_kinds 0

(* cortenmm-adv only: per-kind simulated cycles and every call's
   latency, for exact percentiles. *)
let adv_calls = Array.make n_kinds 0
let adv_cycles = Array.make n_kinds 0
let adv_lat = ref (Array.make 4096 0)
let adv_n = ref 0

(* The op open on each vCPU, or -1. Worlds run one fiber per vCPU. *)
let max_cpus = 1024
let open_op = Array.make max_cpus (-1)

(* Whether the host is inside a simulated world's lifetime (set by the
   workloads around each world), for the sampler's engine/driver split. *)
let in_world = ref false

let reset () =
  Array.fill calls 0 n_kinds 0;
  Array.fill errors 0 n_kinds 0;
  Array.fill adv_calls 0 n_kinds 0;
  Array.fill adv_cycles 0 n_kinds 0;
  adv_n := 0

let total_calls () = Array.fold_left ( + ) 0 calls
let total_errors () = Array.fold_left ( + ) 0 errors

let note_adv k dt =
  adv_calls.(k) <- adv_calls.(k) + 1;
  adv_cycles.(k) <- adv_cycles.(k) + dt;
  if !adv_n = Array.length !adv_lat then begin
    let a = Array.make (2 * !adv_n) 0 in
    Array.blit !adv_lat 0 a 0 !adv_n;
    adv_lat := a
  end;
  !adv_lat.(!adv_n) <- dt;
  incr adv_n

(* Exact percentile (nearest rank) of the adv per-call latencies. *)
let adv_percentile q =
  let n = !adv_n in
  if n = 0 then 0
  else begin
    let a = Array.sub !adv_lat 0 n in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let timed ~adv k failed f =
  calls.(k) <- calls.(k) + 1;
  if not (Engine.in_fiber ()) then begin
    let r = f () in
    if failed r then errors.(k) <- errors.(k) + 1;
    r
  end
  else begin
    let cpu = Engine.cpu_id () in
    let outer = open_op.(cpu) in
    open_op.(cpu) <- k;
    let t0 = Engine.now () in
    let r = try f () with e -> open_op.(cpu) <- outer; raise e in
    open_op.(cpu) <- outer;
    if failed r then errors.(k) <- errors.(k) + 1;
    if adv then note_adv k (Engine.now () - t0);
    r
  end

let is_error = function Ok _ -> false | Error _ -> true

let wrap (b : Backend.b) : Backend.b =
  let module B = (val b) in
  let adv = B.name = "cortenmm-adv" in
  let call k f = timed ~adv k is_error f in
  (module struct
    include B

    let mmap t ?addr ~len ~perm () =
      call mmap_k (fun () -> B.mmap t ?addr ~len ~perm ())

    let munmap t ~addr ~len = call munmap_k (fun () -> B.munmap t ~addr ~len)

    let mprotect t ~addr ~len ~perm =
      call mprotect_k (fun () -> B.mprotect t ~addr ~len ~perm)

    let touch t ~vaddr ~write = call touch_k (fun () -> B.touch t ~vaddr ~write)

    let touch_range t ~addr ~len ~write =
      call touch_k (fun () -> B.touch_range t ~addr ~len ~write)

    let fork t = call fork_k (fun () -> B.fork t)

    let destroy t =
      timed ~adv destroy_k (fun () -> false) (fun () -> B.destroy t)

    let write_value t ~vaddr ~value =
      call write_value_k (fun () -> B.write_value t ~vaddr ~value)

    let read_value t ~vaddr =
      call read_value_k (fun () -> B.read_value t ~vaddr)

    let mlock t ~addr ~len = call mlock_k (fun () -> B.mlock t ~addr ~len)
    let munlock t ~addr ~len = call munlock_k (fun () -> B.munlock t ~addr ~len)

    let pressure t ~target_pages =
      call pressure_k (fun () -> B.pressure t ~target_pages)
  end : Backend.S)
