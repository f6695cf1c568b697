(* Capture-aware stdout.

   Parallel drivers run experiment tasks on worker domains but must keep
   the printed stream byte-identical to a sequential run. File
   descriptors are process-wide, so redirection cannot be per-domain —
   instead every experiment prints through this module, and a driver
   wraps each task in [capture], which swaps the domain-local sink for a
   buffer. The calling domain then replays the buffers in submission
   order. With no capture active, everything goes straight to stdout,
   so sequential drivers (and [-j 1]) behave exactly as before. *)

let sink_key : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sink () = Domain.DLS.get sink_key

let print_string s =
  match !(sink ()) with
  | None -> Stdlib.print_string s
  | Some b -> Buffer.add_string b s

let print_char c =
  match !(sink ()) with
  | None -> Stdlib.print_char c
  | Some b -> Buffer.add_char b c

let print_newline () = print_char '\n'

let printf fmt = Printf.ksprintf print_string fmt

(* Run [f] with output diverted to a fresh buffer; restore the previous
   sink afterwards (captures nest). If [f] raises, the partial output is
   discarded with it — exactly what a crashed sequential run would leave
   unflushed mid-stream. *)
let capture f =
  let r = sink () in
  let saved = !r in
  let b = Buffer.create 1024 in
  r := Some b;
  let v = Fun.protect ~finally:(fun () -> r := saved) f in
  (v, Buffer.contents b)
