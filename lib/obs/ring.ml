(* Fixed-capacity ring buffer: the per-vCPU event store of the tracer.

   Pushing beyond the capacity overwrites the oldest entries (and counts
   them), so a long run keeps the *tail* of its history — what one wants
   when inspecting how a run ended — at a bounded, allocation-free cost
   per event after warmup. *)

type 'a t = {
  data : 'a option array;
  capacity : int;
  mutable pushed : int; (* total pushes ever *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity";
  { data = Array.make capacity None; capacity; pushed = 0 }


let push t v =
  t.data.(t.pushed mod t.capacity) <- Some v;
  t.pushed <- t.pushed + 1

let length t = min t.pushed t.capacity
let dropped t = max 0 (t.pushed - t.capacity)

(* Oldest-first. *)
let to_list t =
  let n = length t in
  let first = t.pushed - n in
  List.init n (fun i ->
      match t.data.((first + i) mod t.capacity) with
      | Some v -> v
      | None -> assert false)

let clear t =
  Array.fill t.data 0 t.capacity None;
  t.pushed <- 0
