(* A kswapd-style swap daemon: reclaim resident anonymous pages to a swap
   device using a second-chance (clock) policy over the hardware accessed
   bits.

   Each pass scans the present 4 KiB anonymous leaves of an address space:
   a page whose accessed bit is set gets a second chance (the bit is
   cleared, as kswapd's clock hand does); a cold page (bit already clear)
   is swapped out through the transactional interface. Hot pages that are
   touched between passes have their bit set again by the MMU walk, so
   they survive; cold pages go to disk and fault back in transparently. *)

module Pt = Mm_pt.Pt
module Geometry = Mm_hal.Geometry
module Pte = Mm_hal.Pte

type stats = {
  mutable scanned : int;
  mutable second_chances : int;
  mutable swapped : int;
}

let fresh_stats () = { scanned = 0; second_chances = 0; swapped = 0 }

(* Mirror a pass's increments into the metrics registry so reclaim
   activity shows up in [--report]/[--json] like every other subsystem.
   Guarded by the trace session (PR-1's zero-perturbation rule). *)
let note_pass ~scanned ~second_chances ~swapped =
  if Mm_obs.Trace.on () then begin
    Mm_obs.Metrics.add (Mm_obs.Metrics.counter "swapd.scanned") scanned;
    Mm_obs.Metrics.add
      (Mm_obs.Metrics.counter "swapd.second_chances")
      second_chances;
    Mm_obs.Metrics.add (Mm_obs.Metrics.counter "swapd.swapped") swapped
  end

(* One clock pass: reclaim up to [target] pages. Candidate discovery walks
   the page table (a streaming scan, like kswapd's LRU walk); the actual
   reclaim of each page is its own transaction, so faults proceed
   concurrently with the scan. *)
let run_once ?(stats = fresh_stats ()) asp ~dev ~target =
  let pt = Addr_space.pt asp in
  let ps = Addr_space.page_size asp in
  (* Collect candidates lock-free; re-validation happens inside
     [Mm.swap_out]'s transaction. *)
  let cold = ref [] in
  let hot = ref [] in
  Pt.iter_leaves pt (Pt.root pt) (fun vaddr level pte ->
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
      let node = Pt.walk_opt pt ~to_level:1 vaddr in
      if node.Pt.level = 1 then begin
        let idx = Pt.index pt ~level:1 ~vaddr in
        match Pt.get pt node idx with
        | Pte.Leaf { accessed = true; _ } ->
          Pt.clear_accessed pt node idx;
          stripped := (vaddr / ps) :: !stripped
        | Pte.Leaf _ | Pte.Absent | Pte.Table _ -> ()
      end)
    !hot;
  (if !stripped <> [] && Mm_sim.Engine.in_fiber () then
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
      if !swapped < target && Mm.swap_out asp ~vaddr ~dev then begin
        incr swapped;
        stats.swapped <- stats.swapped + 1
      end)
    (List.rev !cold);
  note_pass
    ~scanned:(List.length !hot + List.length !cold)
    ~second_chances:(List.length !hot) ~swapped:!swapped;
  !swapped

(* Run passes until [target] pages are reclaimed or no progress is made
   (two consecutive dry passes: everything left is hot or unreclaimable). *)
let reclaim ?(stats = fresh_stats ()) asp ~dev ~target =
  let rec go total dry =
    if total >= target || dry >= 2 then total
    else
      let got = run_once ~stats asp ~dev ~target:(target - total) in
      go (total + got) (if got = 0 then dry + 1 else 0)
  in
  go 0 0
