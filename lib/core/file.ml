(* Simulated file objects with a page cache, backing mmaped files and
   shared anonymous memory.

   The paper (§4.5, reverse mapping): "The file object contains a tree of
   all AddrSpaces that map the file, enabling reverse mapping. Reverse
   mappings of shared anonymous mappings are supported by naming the pages
   within the kernel" — i.e. shared anonymous memory is a kernel-internal
   file. [kind] distinguishes the two. The mapper tree is a shared
   {!Pager.Mapper_set} (the same container backs the anonymous rmap).

   Page contents are integer tokens derived from (file id, page index) so
   tests can verify that a faulted-in mapping observes the right data.
   Written-back contents persist in a [disk] store, so a cache page the
   page-out daemon drops refaults with the last written-back data — the
   value model sees reclaim as fully transparent. *)

type kind = Regular of string | Shm

type mapper = Pager.mapping = {
  asp_id : int;
  map_vaddr : int;
  file_offset : int;
  len : int;
}

type t = {
  id : int;
  kind : kind;
  pages : (int, Mm_phys.Frame.t) Hashtbl.t; (* page index -> cache frame *)
  disk : (int, int) Hashtbl.t; (* page index -> written-back contents *)
  lock : Mm_sim.Mutex_s.t;
  mappers : Pager.Mapper_set.t; (* the AddrSpace tree *)
  mutable dirty : (int, unit) Hashtbl.t; (* dirty page indexes *)
  mutable writebacks : int;
}

(* File ids appear in monitor/report text: domain-local, reset per
   parallel task ([Mm_workloads.Runner.reset_world_state]) so they are
   independent of what ran before on the same domain. *)
let next_id_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let next_id () = Domain.DLS.get next_id_key
let reset_ids () = next_id () := 0

let io_read_cost = 8_000 (* first touch of a cache page: read from disk *)

let create ~kind =
  let next_id = next_id () in
  incr next_id;
  {
    id = !next_id;
    kind;
    pages = Hashtbl.create 16;
    disk = Hashtbl.create 16;
    lock = Mm_sim.Mutex_s.make ~name:"file.lock" ();
    mappers = Pager.Mapper_set.create ();
    dirty = Hashtbl.create 16;
    writebacks = 0;
  }

let regular ~name = create ~kind:(Regular name)
let shm () = create ~kind:Shm

let page_token t ~page_index = (t.id * 1_000_003) + page_index

(* The content a page (re)faults in with: written-back data wins over the
   pristine token / zero fill. *)
let backing_contents t ~page_index =
  match Hashtbl.find_opt t.disk page_index with
  | Some c -> Some c
  | None -> None

(* Fetch the cache frame for a page, faulting it in from "disk" on first
   use. Shared-memory pages start zeroed instead of read; a page that was
   written back and dropped refaults with the stored contents. *)
let get_page t phys ~page_index =
  match Hashtbl.find_opt t.pages page_index with
  | Some f -> f
  | None ->
    let f = Mm_phys.Phys.alloc phys ~kind:Mm_phys.Frame.File_page () in
    (match backing_contents t ~page_index with
    | Some c ->
      Mm_sim.Engine.charge io_read_cost;
      Mm_phys.Phys.set_contents phys f c
    | None -> (
      match t.kind with
      | Regular _ ->
        Mm_sim.Engine.charge io_read_cost;
        Mm_phys.Phys.set_contents phys f (page_token t ~page_index)
      | Shm ->
        Mm_sim.Engine.charge Mm_sim.Cost.page_zero;
        Mm_phys.Phys.set_contents phys f 0));
    Hashtbl.replace t.pages page_index f;
    f

let lookup_page t ~page_index = Hashtbl.find_opt t.pages page_index

let mark_dirty t ~page_index =
  if Mm_obs.Trace.on () then
    Mm_sim.Engine.obs
      (Mm_obs.Event.Page_dirtied { file = t.id; page = page_index });
  Hashtbl.replace t.dirty page_index ()

(* Store one page's contents in the backing store (one device write). *)
let store_page t ~page_index ~contents =
  Mm_sim.Engine.charge Blockdev.write_cost;
  t.writebacks <- t.writebacks + 1;
  Hashtbl.replace t.disk page_index contents;
  Hashtbl.remove t.dirty page_index;
  if Mm_obs.Trace.on () then
    Mm_sim.Engine.obs
      (Mm_obs.Event.Reclaim_writeback { file = t.id; page = page_index })

let writeback t phys =
  let idxs =
    List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) t.dirty [])
  in
  List.iter
    (fun i ->
      let contents =
        match Hashtbl.find_opt t.pages i with
        | Some f -> Mm_phys.Phys.contents phys f
        | None -> ( match backing_contents t ~page_index:i with
          | Some c -> c
          | None -> ( match t.kind with
            | Regular _ -> page_token t ~page_index:i
            | Shm -> 0))
      in
      store_page t ~page_index:i ~contents)
    idxs;
  List.length idxs

(* Drop a clean (written-back) cache page: the frame is released and a
   later access refaults it from the backing store. The caller is
   responsible for having unmapped it everywhere first. *)
let drop_page t phys ~page_index =
  match Hashtbl.find_opt t.pages page_index with
  | None -> ()
  | Some f ->
    if Mm_obs.Trace.on () then
      Mm_sim.Engine.obs
        (Mm_obs.Event.Reclaim_drop
         { file = t.id; page = page_index; pfn = (f :> int) });
    Hashtbl.remove t.pages page_index;
    Mm_phys.Phys.free phys f

let add_mapper t m = Pager.Mapper_set.add t.mappers m

let remove_mapper t ~asp_id ~map_vaddr =
  Pager.Mapper_set.remove t.mappers ~asp_id ~map_vaddr

let mappers t = Pager.Mapper_set.to_list t.mappers
let cached_pages t = Hashtbl.length t.pages

let cached_page_indexes t =
  List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) t.pages [])

(* Would dropping this cache page lose data? True when the page is
   dirty-marked, or its frame contents differ from what the backing
   store would refault (the "hardware dirty bit" the simulation does not
   track per-PTE: user stores mutate the frame token directly). *)
let needs_writeback t phys ~page_index =
  match Hashtbl.find_opt t.pages page_index with
  | None -> false
  | Some f ->
    Hashtbl.mem t.dirty page_index
    || Mm_phys.Phys.contents phys f
       <>
       (match backing_contents t ~page_index with
       | Some c -> c
       | None -> (
         match t.kind with
         | Regular _ -> page_token t ~page_index
         | Shm -> 0))
let id t = t.id

let name t =
  match t.kind with Regular n -> n | Shm -> Printf.sprintf "shm:%d" t.id

(* -- The pager provider (file and shm) -- *)

let pager t phys =
  {
    Pager.name = (match t.kind with Regular _ -> "file" | Shm -> "shm");
    get_page = (fun ~page_index -> get_page t phys ~page_index);
    put_pages =
      (fun pages ->
        (* Reclaim-time writeback: page out the listed (index, contents)
           pairs. The injected mutant "forgets" the store, so the refault
           after a drop observes stale data. *)
        List.map
          (fun (page_index, contents) ->
            if not (Pager.mutant_reclaim_skip_writeback ()) then
              store_page t ~page_index ~contents
            else Hashtbl.remove t.dirty page_index;
            page_index)
          pages);
    has_page =
      (fun ~page_index ->
        Hashtbl.mem t.pages page_index || Hashtbl.mem t.disk page_index);
    dealloc =
      (fun () ->
        let idxs = Hashtbl.fold (fun i _ acc -> i :: acc) t.pages [] in
        List.iter
          (fun i ->
            match Hashtbl.find_opt t.pages i with
            | Some f ->
              Hashtbl.remove t.pages i;
              Mm_phys.Phys.free phys f
            | None -> ())
          (List.sort compare idxs);
        Hashtbl.reset t.disk;
        Hashtbl.reset t.dirty);
  }
