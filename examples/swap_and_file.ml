(* Swapping and file-backed mappings.

   Run with: dune exec examples/swap_and_file.exe

   Demonstrates the advanced memory semantics carried by the per-PTE
   metadata arrays (paper §4.3): a page swapped out to a block device and
   transparently faulted back in, a private file mapping with COW against
   the page cache, and a shared mapping written back with msync. *)

module Engine = Mm_sim.Engine
module Perm = Mm_hal.Perm
open Cortenmm

let status_at asp addr =
  Addr_space.with_lock asp ~lo:addr ~hi:(addr + 4096) (fun c ->
      Status.to_string (Addr_space.query c addr))

let ok = function Ok v -> v | Error e -> raise (Mm_hal.Errno.Error e)

let () =
  let kernel = Kernel.create ~ncpus:1 () in
  let asp = Addr_space.create kernel Config.adv in
  let w = Engine.create ~ncpus:1 in
  Engine.spawn w ~cpu:0 (fun () ->
      Printf.printf "== swapping ==\n";
      let dev = Blockdev.create ~name:"nvme0swap" () in
      let a = ok (Mm.mmap_r asp ~len:4096 ~perm:Perm.rw ()) in
      Mm.write_value asp ~vaddr:a ~value:777;
      Printf.printf "   before swap-out: %s\n" (status_at asp a);
      ignore (Mm.swap_out asp ~vaddr:a ~dev);
      Printf.printf "   after swap-out:  %s (device holds %d block)\n"
        (status_at asp a) (Blockdev.used_blocks dev);
      Printf.printf "   touching swapped page faults it back in...\n";
      let value = Mm.read_value asp ~vaddr:a in
      let status = status_at asp a in
      Printf.printf "   value after swap-in: %d, status %s\n" value status;

      Printf.printf "\n== private file mapping (COW against the page cache) ==\n";
      let file = File.regular ~name:"libc.so" in
      let m =
        ok
          (Mm.mmap_r asp ~backing:(Mm.File_private (file, 0)) ~len:(16 * 1024)
             ~perm:Perm.rw ())
      in
      Printf.printf "   first read faults the page cache in: value %d\n"
        (Mm.read_value asp ~vaddr:m);
      Printf.printf "   status: %s\n" (status_at asp m);
      Mm.write_value asp ~vaddr:m ~value:9999;
      Printf.printf "   after a private write: value %d, cache page intact: %b\n"
        (Mm.read_value asp ~vaddr:m)
        (match File.lookup_page file ~page_index:0 with
        | Some f -> f.Mm_phys.Frame.contents <> 9999
        | None -> false);

      Printf.printf "\n== shared mapping + msync ==\n";
      let log = File.regular ~name:"journal.dat" in
      let s =
        ok
          (Mm.mmap_r asp ~backing:(Mm.Shared (log, 0)) ~len:(16 * 1024)
             ~perm:Perm.rw ())
      in
      Mm.write_value asp ~vaddr:s ~value:31337;
      Printf.printf "   wrote through the shared mapping; msync wrote back %d page(s)\n"
        (ok (Mm.msync_r asp ~file:log));

      Printf.printf "\n== reverse mapping ==\n";
      let rmapped =
        Addr_space.with_lock asp ~lo:a ~hi:(a + 4096) (fun c ->
            match Addr_space.query c a with
            | Status.Mapped { pfn; _ } -> Kernel.rmap_of kernel ~pfn
            | _ -> [])
      in
      List.iter
        (fun (asp_id, vaddr) ->
          Printf.printf "   frame of %#x is mapped by asp %d at %#x\n" a asp_id
            vaddr)
        rmapped;
      Addr_space.check_well_formed asp;
      Printf.printf "\npage table verified well-formed.\n");
  Engine.run w
