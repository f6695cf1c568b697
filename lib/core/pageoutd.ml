(* The global page-out daemon: one reclaimer over *every* registered
   backing store.

   Registered address spaces contribute anonymous pages (a kswapd-style
   second-chance clock scan over the hardware accessed bits, swapped to
   the daemon's swap partition through the anonymous pager); registered
   files contribute page-cache pages (unmapped from every mapper via the
   shared {!Pager.Mapper_set} rmap, written back if modified, then
   dropped through the file pager).

   Pressure is simulated and driven from outside: [pressure] forces a
   reclaim of a given size (the harness's knob for reclaim storms), and
   [age] runs the clock hand alone, stripping accessed bits without
   taking a page. The daemon never runs unless one of them is called, so
   worlds that ignore it are byte-identical to pre-daemon worlds.

   Correctness properties (checked by [Mm_verif.Live] via the Reclaim_*
   monitor events): wired (mlock'd) pages are never taken; dirty pages
   are written back before their cache frame is dropped; every unmap
   happens inside a transaction, so the TLB shootdown commits before the
   frame can be reused. *)

module Pt = Mm_pt.Pt
module Pte = Mm_hal.Pte

type stats = {
  mutable scanned : int;
  mutable second_chances : int;
  mutable swapped : int;
  mutable file_written_back : int;
  mutable file_dropped : int;
  mutable wakeups : int;
}

type t = {
  kernel : Kernel.t;
  dev : Blockdev.t;
  mutable spaces : Addr_space.t list; (* in registration order *)
  mutable files : File.t list;
  stats : stats;
}

let fresh_stats () =
  {
    scanned = 0;
    second_chances = 0;
    swapped = 0;
    file_written_back = 0;
    file_dropped = 0;
    wakeups = 0;
  }

let create kernel ~dev () =
  { kernel; dev; spaces = []; files = []; stats = fresh_stats () }

let stats t = t.stats

let register_space t asp =
  if not (List.exists (fun a -> a == asp) t.spaces) then
    t.spaces <- t.spaces @ [ asp ]

let unregister_space t asp =
  t.spaces <- List.filter (fun a -> not (a == asp)) t.spaces

let register_file t file =
  if not (List.exists (fun f -> f == file) t.files) then
    t.files <- t.files @ [ file ]

let space_of t asp_id =
  List.find_opt (fun a -> Addr_space.id a = asp_id) t.spaces

(* -- Page-cache reclaim --

   For each cache page of [file] (in sorted index order, a deterministic
   scan): skip wired frames; unmap the page from every registered mapper
   (each unmap is its own transaction, like the clock scan's swap-outs);
   once no mapping remains, write the contents back if dropping would
   lose data, then release the frame. A page mapped by an address space
   the daemon does not know is left alone. *)
let reclaim_file_pages t file ~target =
  let ps = Kernel.page_size t.kernel in
  let phys = t.kernel.Kernel.phys in
  let fpager = File.pager file phys in
  let dropped = ref 0 in
  List.iter
    (fun page_index ->
      if !dropped < target then
        match File.lookup_page file ~page_index with
        | None -> ()
        | Some f when Mm_phys.Phys.wired phys f -> ()
        | Some f ->
          let offset = page_index * ps in
          let covering =
            List.filter
              (fun m ->
                offset >= m.Pager.file_offset
                && offset < m.Pager.file_offset + m.Pager.len)
              (File.mappers file)
          in
          let all_known =
            List.for_all
              (fun m -> space_of t m.Pager.asp_id <> None)
              covering
          in
          if all_known then begin
            List.iter
              (fun m ->
                match space_of t m.Pager.asp_id with
                | Some asp ->
                  ignore
                    (Mm.unmap_file_page asp
                       ~vaddr:
                         (m.Pager.map_vaddr
                         + (offset - m.Pager.file_offset)))
                | None -> ())
              covering;
            if Mm_phys.Phys.map_count phys f = 0 then begin
              if File.needs_writeback file phys ~page_index then begin
                ignore
                  (fpager.Pager.put_pages
                     [ (page_index, Mm_phys.Phys.contents phys f) ]);
                t.stats.file_written_back <- t.stats.file_written_back + 1
              end;
              if Mm_obs.Trace.on () then
                Mm_sim.Engine.obs
                  (Mm_obs.Event.Reclaim_page { pfn = (f :> int) });
              File.drop_page file phys ~page_index;
              incr dropped;
              t.stats.file_dropped <- t.stats.file_dropped + 1
            end
          end)
    (File.cached_page_indexes file);
  !dropped

(* -- Anonymous reclaim -- *)

(* Mirror a pass's increments into the metrics registry so reclaim
   activity shows up in [--report]/[--json] like every other subsystem.
   Guarded by the trace session, so an untraced run never touches the
   registry, nor counts the pass's candidate lists. *)
let note_pass ~hot ~cold ~swapped =
  if Mm_obs.Trace.on () then begin
    let second_chances = List.length hot in
    Mm_obs.Metrics.add
      (Mm_obs.Metrics.counter "pageoutd.scanned")
      (second_chances + List.length cold);
    Mm_obs.Metrics.add
      (Mm_obs.Metrics.counter "pageoutd.second_chances")
      second_chances;
    Mm_obs.Metrics.add (Mm_obs.Metrics.counter "pageoutd.swapped") swapped
  end

(* One clock pass over [asp]: reclaim up to [target] pages. Candidate
   discovery walks the page table (a streaming scan, like kswapd's LRU
   walk): a page whose accessed bit is set gets a second chance (the bit
   is cleared, as kswapd's clock hand does); a cold page (bit already
   clear) is swapped out. Hot pages touched again before the next pass
   have their bit set by the MMU walk, so they survive. The reclaim of
   each page is its own transaction, so faults proceed concurrently with
   the scan. The pass looks the running fiber up once for its own page-
   table accesses; each swap-out's transaction looks it up once more. *)
let clock_pass t asp ~target =
  let stats = t.stats in
  let pt = Addr_space.pt asp in
  let ps = Addr_space.page_size asp in
  let fo = Mm_sim.Engine.current () in
  (* Collect candidates lock-free; re-validation happens inside
     [Mm.swap_out]'s transaction. *)
  let cold = ref [] in
  let hot = ref [] in
  Pt.iter_leaves_on fo pt (Pt.root pt) (fun vaddr level pte ->
      if level = 1 then
        match pte with
        | Pte.Leaf { perm; accessed; _ } when not perm.Mm_hal.Perm.cow ->
          stats.scanned <- stats.scanned + 1;
          if accessed then hot := vaddr :: !hot else cold := vaddr :: !cold
        | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> ());
  (* Second chance: strip the accessed bits of hot pages so they must be
     re-touched to survive the next pass. The stripped pages' TLB entries
     must be flushed — a TLB hit bypasses the page walk and would never
     set the bit again (this is why kswapd batches a flush after clearing
     reference bits). *)
  let stripped = ref [] in
  List.iter
    (fun vaddr ->
      stats.second_chances <- stats.second_chances + 1;
      let node = Pt.walk_opt_on fo pt ~to_level:1 vaddr in
      if node.Pt.level = 1 then begin
        let idx = Pt.index pt ~level:1 ~vaddr in
        match Pt.get_on fo pt node idx with
        | Pte.Leaf { accessed = true; _ } ->
          Pt.clear_accessed_on fo pt node idx;
          stripped := (vaddr / ps) :: !stripped
        | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> ()
      end)
    !hot;
  (if !stripped <> [] && Option.is_some fo then
     let ncpus = (Addr_space.kernel asp).Kernel.ncpus in
     let tlb = Addr_space.tlb asp in
     if List.length !stripped > 64 then
       Mm_tlb.Tlb.shootdown_full tlb ~targets:(Array.make ncpus true)
     else
       Mm_tlb.Tlb.shootdown tlb ~targets:(Array.make ncpus true)
         ~vpns:!stripped);
  (* Reclaim cold pages until the target is met. *)
  let swapped = ref 0 in
  List.iter
    (fun vaddr ->
      if !swapped < target && Mm.swap_out asp ~vaddr ~dev:t.dev then begin
        incr swapped;
        stats.swapped <- stats.swapped + 1
      end)
    (List.rev !cold);
  note_pass ~hot:!hot ~cold:!cold ~swapped:!swapped;
  !swapped

(* One full pass: page cache first (cheap, Linux-style preference), then
   the anonymous clock scan per registered space. *)
let run_once t ~target =
  let got = ref 0 in
  List.iter
    (fun file ->
      if !got < target then
        got := !got + reclaim_file_pages t file ~target:(target - !got))
    t.files;
  List.iter
    (fun asp ->
      if !got < target then
        got := !got + clock_pass t asp ~target:(target - !got))
    t.spaces;
  !got

(* Forced reclaim of [target_pages] pages (or until two full passes make
   no progress — everything left is hot, wired, or unknown). *)
let pressure t ~target_pages =
  if target_pages <= 0 then 0
  else begin
    t.stats.wakeups <- t.stats.wakeups + 1;
    if Mm_obs.Trace.on () then begin
      Mm_obs.Metrics.inc (Mm_obs.Metrics.counter "pageoutd.wakeups");
      Mm_sim.Engine.obs
        (Mm_obs.Event.Reclaim_waken
           {
             free = Mm_phys.Phys.data_frames t.kernel.Kernel.phys;
             target = target_pages;
           })
    end;
    let rec go total dry =
      if total >= target_pages || dry >= 2 then total
      else
        let got = run_once t ~target:(target_pages - total) in
        go (total + got) (if got = 0 then dry + 1 else 0)
    in
    go 0 0
  end

(* The clock hand alone: strip every registered space's accessed bits,
   take nothing. *)
let age t = List.iter (fun asp -> ignore (clock_pass t asp ~target:0)) t.spaces
