(* A uniform façade over the five evaluated systems (CortenMM_adv,
   CortenMM_rw and its ablations, Linux, RadixVM, NrOS). An instance
   packs a first-class {!Backend.S} module with its state; the data
   fields ([kind], [caps], [page_size]...) stay plain record fields so
   drivers read capabilities without unpacking. *)

module Perm = Mm_hal.Perm
module Errno = Mm_hal.Errno

(* Re-exports: [Backend] owns the interface types; [System] remains the
   name the drivers use. *)

type kind = Backend.kind =
  | Corten of Cortenmm.Config.t
  | Linux
  | Radixvm
  | Nros

let kind_name = Backend.kind_name

type caps = Backend.caps = {
  demand_paging : bool;
  has_mprotect : bool;
  has_reclaim : bool;
}

type mem_stats = Backend.mem_stats = {
  pt_bytes : int;
  kernel_bytes : int;
  resident_bytes : int;
  peak_resident_bytes : int;
}

type page_state = Backend.page_state =
  | P_unmapped
  | P_mapped of { writable : bool; resident : bool }

module type BACKEND = Backend.S

type backend = Backend.b

let backend_of_kind : kind -> backend = function
  | Corten cfg -> Backend_corten.make cfg
  | Linux -> Backend_linux.backend
  | Radixvm -> Backend_radixvm.backend
  | Nros -> Backend_nros.backend

(* The named-backend registry: the one list the drivers (bench --list,
   mmrepro sweep/trace/oracle, the differential oracle's default set)
   derive the evaluated systems from. *)
module Registry = struct
  type entry = {
    r_name : string;
    r_kind : kind;
    r_backend : backend;
  }

  let entry k =
    { r_name = kind_name k; r_kind = k; r_backend = backend_of_kind k }

  let all =
    [
      entry Linux;
      entry Radixvm;
      entry Nros;
      entry (Corten Cortenmm.Config.rw);
      entry (Corten Cortenmm.Config.adv);
    ]

  let names = List.map (fun e -> e.r_name) all

  (* Lookup failures carry the valid-name listing so every driver reports
     the same actionable message without reimplementing it. *)
  let find name =
    match List.find_opt (fun e -> e.r_name = name) all with
    | Some e -> Ok e
    | None ->
      Error
        (Printf.sprintf "unknown system %S (valid: %s)" name
           (String.concat ", " names))
end

(* An instance: the backend module packed with its state. *)
type instance =
  | Instance : (module Backend.S with type t = 's) * 's -> instance

type t = {
  kind : kind;
  name : string;
  ncpus : int;
  page_size : int;
  caps : caps;
  instance : instance;
}

let of_backend ?isa (b : backend) ~ncpus =
  let module B = (val b) in
  let st = B.create ?isa ~ncpus () in
  {
    kind = B.kind;
    name = B.name;
    ncpus;
    page_size = B.page_size st;
    caps = B.caps;
    instance = Instance ((module B), st);
  }

let make ?isa kind ~ncpus = of_backend ?isa (backend_of_kind kind) ~ncpus
let demand_paging t = t.caps.demand_paging
let has_mprotect t = t.caps.has_mprotect
let has_reclaim t = t.caps.has_reclaim

(* -- The typed operation surface -- *)

let mmap t ?addr ~len ~perm () =
  let (Instance ((module B), st)) = t.instance in
  B.mmap st ?addr ~len ~perm ()

let munmap t ~addr ~len =
  let (Instance ((module B), st)) = t.instance in
  B.munmap st ~addr ~len

let mprotect t ~addr ~len ~perm =
  let (Instance ((module B), st)) = t.instance in
  B.mprotect st ~addr ~len ~perm

let touch t ~vaddr ~write =
  let (Instance ((module B), st)) = t.instance in
  B.touch st ~vaddr ~write

let touch_range t ~addr ~len ~write =
  let (Instance ((module B), st)) = t.instance in
  B.touch_range st ~addr ~len ~write

let page_state t ~vaddr =
  let (Instance ((module B), st)) = t.instance in
  B.page_state st ~vaddr

let fork t =
  let (Instance ((module B), st)) = t.instance in
  match B.fork st with
  | Error _ as e -> e
  | Ok child -> Ok { t with instance = Instance ((module B), child) }

let destroy t =
  let (Instance ((module B), st)) = t.instance in
  B.destroy st

let write_value t ~vaddr ~value =
  let (Instance ((module B), st)) = t.instance in
  B.write_value st ~vaddr ~value

let read_value t ~vaddr =
  let (Instance ((module B), st)) = t.instance in
  B.read_value st ~vaddr

let mlock t ~addr ~len =
  let (Instance ((module B), st)) = t.instance in
  B.mlock st ~addr ~len

let munlock t ~addr ~len =
  let (Instance ((module B), st)) = t.instance in
  B.munlock st ~addr ~len

let pressure t ~target_pages =
  let (Instance ((module B), st)) = t.instance in
  B.pressure st ~target_pages

let timer_tick t =
  let (Instance ((module B), st)) = t.instance in
  B.timer_tick st

let mem_stats t =
  let (Instance ((module B), st)) = t.instance in
  B.mem_stats st

let set_shootdown_policy t p =
  let (Instance ((module B), st)) = t.instance in
  B.set_shootdown_policy st p

let tlb_counters t =
  let (Instance ((module B), st)) = t.instance in
  B.tlb_counters st

(* The feature matrix of the paper's Table 2 (claims of the respective
   papers/systems, reproduced verbatim). *)
let table2_features =
  [
    ( "linux",
      [ true; true; true; true; true; true; true ] );
    ( "radixvm",
      [ true; true; false; false; true; false; true ] );
    ( "nros",
      [ false; false; false; false; false; true; true ] );
    ( "cortenmm",
      [ true; true; true; true; true; true; false ] );
  ]

let table2_headers =
  [
    "On-demand paging";
    "COW";
    "Page swapping";
    "Reverse mapping";
    "mmaped file";
    "Huge page";
    "NUMA policy";
  ]

(* What our reproduction actually implements (printed next to the paper's
   claims for honesty). *)
let implemented_features =
  [
    ("linux", [ true; true; false; false; false; false; false ]);
    ("radixvm", [ true; false; false; false; false; false; false ]);
    ("nros", [ false; false; false; false; false; false; false ]);
    (* NUMA policies are implemented here as an extension (the paper's
       CortenMM lacks them; see ext-numa). *)
    ("cortenmm", [ true; true; true; true; true; true; true ]);
  ]


(* Warm the calling CPU's share of the address space: one throwaway
   mapping materializes the PT chain (and, for CortenMM's adv protocol,
   keeps the covering page of later transactions at the leaf level rather
   than the root). Application drivers call this in their prep phase —
   real processes run in address spaces warmed by their startup. *)
let warm t ~cpu:_ =
  let a = Errno.ok_exn (mmap t ~len:t.page_size ~perm:Mm_hal.Perm.rw ()) in
  (if demand_paging t then
     match touch t ~vaddr:a ~write:true with Ok () | Error _ -> ());
  Errno.ok_exn (munmap t ~addr:a ~len:t.page_size)
