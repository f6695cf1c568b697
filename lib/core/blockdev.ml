(* A simulated block device used as swap space.

   Pages are stored as their integer "contents" token so swap-out/swap-in
   round-trips are verifiable. I/O costs model a fast NVMe device. *)

let write_cost = 9_000 (* cycles to submit + complete a 4 KiB write *)
let read_cost = 7_000

type t = {
  id : int;
  name : string;
  nblocks : int;
  blocks : (int, int) Hashtbl.t; (* block -> stored contents *)
  mutable next_block : int;
  free_blocks : int Queue.t;
}

(* Domain-local, reset per parallel task, like [File.next_id]. *)
let next_id_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let next_id () = Domain.DLS.get next_id_key
let reset_ids () = next_id () := 0

let create ?(nblocks = 1 lsl 20) ~name () =
  let next_id = next_id () in
  incr next_id;
  {
    id = !next_id;
    name;
    nblocks;
    blocks = Hashtbl.create 64;
    next_block = 0;
    free_blocks = Queue.create ();
  }

exception Device_full

let alloc_block t =
  match Queue.take_opt t.free_blocks with
  | Some b -> b
  | None ->
    if t.next_block >= t.nblocks then raise Device_full;
    let b = t.next_block in
    t.next_block <- t.next_block + 1;
    b

let write_page t ~block ~contents =
  Mm_sim.Engine.charge write_cost;
  Hashtbl.replace t.blocks block contents

let read_page t ~block =
  Mm_sim.Engine.charge read_cost;
  match Hashtbl.find_opt t.blocks block with
  | Some c -> c
  | None -> invalid_arg "Blockdev.read_page: block never written"

let free_block t ~block =
  Hashtbl.remove t.blocks block;
  Queue.push block t.free_blocks

let has_block t ~block = Hashtbl.mem t.blocks block

let used_blocks t = Hashtbl.length t.blocks
let name t = t.name
