(* Advanced semantics tour: NUMA placement, transparent huge pages, and
   reclaim under memory pressure — the extension features built on top of
   the per-PTE metadata arrays.

   Run with: dune exec examples/memory_pressure.exe *)

module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm
open Cortenmm

let page = 4096
let mib n = n * 1024 * 1024
let ok = function Ok v -> v | Error e -> raise (Mm_hal.Errno.Error e)

let () =
  let kernel = Kernel.create ~numa_nodes:2 ~ncpus:4 () in
  let asp = Addr_space.create kernel Config.adv in
  let dev = Blockdev.create ~name:"nvme0swap" () in
  let daemon = Pageoutd.create kernel ~dev () in
  Pageoutd.register_space daemon asp;
  let w = Engine.create ~ncpus:4 in
  Engine.spawn w ~cpu:0 (fun () ->
      Printf.printf "== NUMA placement (policy lives in the metadata) ==\n";
      let a = ok (Mm.mmap_r asp ~policy:(Numa.Interleave [ 0; 1 ])
                    ~len:(4 * page) ~perm:Perm.rw ()) in
      Mm.touch_range asp ~addr:a ~len:(4 * page) ~write:true;
      for i = 0 to 3 do
        let node =
          Addr_space.with_lock asp ~lo:(a + (i * page))
            ~hi:(a + ((i + 1) * page)) (fun c ->
              match Addr_space.query c (a + (i * page)) with
              | Status.Mapped { pfn; _ } ->
                Mm_phys.Phys.node_of_pfn kernel.Kernel.phys pfn
              | _ -> -1)
        in
        Printf.printf "   page %d -> NUMA node %d\n" i node
      done;

      Printf.printf "\n== transparent huge pages ==\n";
      let h = ok (Mm.mmap_r asp ~addr:(mib 512) ~len:(mib 2) ~perm:Perm.rw ()) in
      Mm.touch_range asp ~addr:h ~len:(mib 2) ~write:true;
      Printf.printf "   PT pages before promotion: %d\n"
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp));
      Printf.printf "   khugepaged promoted %d region(s)\n" (Mm.khugepaged asp);
      Printf.printf "   PT pages after promotion:  %d\n"
        (Mm_pt.Pt.pt_page_count (Addr_space.pt asp));

      Printf.printf "\n== memory pressure: the swap daemon ==\n";
      let r = ok (Mm.mmap_r asp ~len:(128 * page) ~perm:Perm.rw ()) in
      Mm.touch_range asp ~addr:r ~len:(128 * page) ~write:true;
      Mm.write_value asp ~vaddr:r ~value:4242;
      let got = Pageoutd.pressure daemon ~target_pages:100 in
      let stats = Pageoutd.stats daemon in
      Printf.printf
        "   reclaimed %d pages (scanned %d, second chances %d)\n" got
        stats.Pageoutd.scanned stats.Pageoutd.second_chances;
      Printf.printf "   swap device now holds %d blocks\n"
        (Blockdev.used_blocks dev);
      Printf.printf "   touching a swapped page faults it back: value %d\n"
        (Mm.read_value asp ~vaddr:r);
      Addr_space.check_well_formed asp;
      Printf.printf "\npage table verified well-formed.\n");
  Engine.run w
