(* Scheduler tie-break policies.

   The engine orders events by (time, tie key, sequence number). Every
   event push asks the world's policy for the tie key of that push; two
   events with equal virtual times pop in key order, so the policy
   controls exactly the schedule freedom the simulation has — which
   same-time ready fiber runs first, and where a [serialize] re-entry
   lands among its contemporaries — and nothing else (causality across
   distinct times is fixed by the time model).

   [fifo] answers 0 for every push, which collapses the order back to
   (time, seq): bit-for-bit the pre-hook behaviour. [random] draws keys
   from a seeded generator and records them, so a run that fails can be
   replayed; [replay] feeds a recorded key sequence back (0 past the
   end). Because the simulation is a deterministic function of the key
   sequence, replaying the keys replays the run exactly, and editing the
   keys (zeroing, truncating) yields new — still deterministic —
   schedules, which is what the schedcheck shrinker exploits. *)

type t = {
  name : string;
  next : int -> int; (* decision index -> tie key *)
  record : bool;
  mutable count : int;
  mutable buf : int array;
}

let name t = t.name

let fifo () =
  { name = "fifo"; next = (fun _ -> 0); record = false; count = 0; buf = [||] }

let random ?(amplitude = 8) ~seed () =
  if amplitude <= 0 then invalid_arg "Sched.random: amplitude";
  let rng = Mm_util.Rng.create ~seed in
  {
    name = Printf.sprintf "random(seed=%d)" seed;
    next = (fun _ -> Mm_util.Rng.int rng amplitude);
    record = true;
    count = 0;
    buf = [||];
  }

let replay keys =
  {
    name = Printf.sprintf "replay(%d keys)" (Array.length keys);
    next = (fun i -> if i < Array.length keys then keys.(i) else 0);
    record = false;
    count = 0;
    buf = [||];
  }

let next_key t =
  let k = t.next t.count in
  if t.record then begin
    if t.count >= Array.length t.buf then begin
      let ncap = max 64 (2 * Array.length t.buf) in
      let nb = Array.make ncap 0 in
      Array.blit t.buf 0 nb 0 t.count;
      t.buf <- nb
    end;
    t.buf.(t.count) <- k
  end;
  t.count <- t.count + 1;
  k

let recorded t = Array.sub t.buf 0 (min t.count (Array.length t.buf))
