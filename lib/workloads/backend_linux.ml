(* Linux adapter: wraps the VMA-tree baseline behind {!Backend.S}.
   [Linux_mm] speaks exceptions internally; the adapter classifies
   malformed requests host-side (zero simulated cycles) and converts
   [Fault] into a typed SIGSEGV at the boundary. *)

module Errno = Mm_hal.Errno
module L = Mm_linux.Linux_mm

let backend : Backend.b =
  (module struct
    type t = L.t

    let name = "linux"
    let kind = Backend.Linux
    let caps =
      { Backend.demand_paging = true; has_mprotect = true; has_reclaim = false }
    let create ?(isa = Mm_hal.Isa.x86_64) ~ncpus () = L.create ~isa ~ncpus ()
    let page_size = L.page_size

    let mmap t ?addr ~len ~perm () =
      match Backend.check_mmap ~page_size:(L.page_size t) ?addr ~len () with
      | Error _ as e -> e
      | Ok () -> (
        try Ok (L.mmap t ?addr ~len ~perm ())
        with
        | Mm_phys.Buddy.Out_of_memory | Cortenmm.Va_alloc.Va_exhausted ->
          Error Errno.ENOMEM)

    let munmap t ~addr ~len =
      match Backend.check_range ~page_size:(L.page_size t) ~addr ~len with
      | Error _ as e -> e
      | Ok () -> Ok (L.munmap t ~addr ~len)

    let mprotect t ~addr ~len ~perm =
      match Backend.check_range ~page_size:(L.page_size t) ~addr ~len with
      | Error _ as e -> e
      | Ok () -> Ok (L.mprotect t ~addr ~len ~perm)

    let touch t ~vaddr ~write =
      try Ok (L.touch t ~vaddr ~write)
      with L.Fault v -> Error (Errno.SIGSEGV v)

    let touch_range t ~addr ~len ~write =
      try Ok (L.touch_range t ~addr ~len ~write)
      with L.Fault v -> Error (Errno.SIGSEGV v)

    let page_state t ~vaddr =
      match L.page_state t ~vaddr with
      | `Unmapped -> Backend.P_unmapped
      | `Lazy w -> Backend.P_mapped { writable = w; resident = false }
      | `Resident w -> Backend.P_mapped { writable = w; resident = true }

    let fork t =
      try Ok (L.fork t)
      with Mm_phys.Buddy.Out_of_memory -> Error Errno.ENOMEM

    let destroy t = L.destroy t

    let write_value t ~vaddr ~value =
      try Ok (L.write_value t ~vaddr ~value)
      with L.Fault v -> Error (Errno.SIGSEGV v)

    let read_value t ~vaddr =
      try Ok (L.read_value t ~vaddr)
      with L.Fault v -> Error (Errno.SIGSEGV v)

    let mlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
    let munlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
    let pressure _ ~target_pages:_ = Error Errno.ENOSYS

    let timer_tick t =
      match Mm_sim.Engine.current () with
      | Some f -> Mm_tlb.Tlb.timer_tick (L.tlb t) ~cpu:f.f_cpu
      | None -> ()

    let set_shootdown_policy t p = Mm_tlb.Tlb.set_policy (L.tlb t) p
    let tlb_counters t = Mm_tlb.Tlb.counters (L.tlb t)

    let mem_stats t =
      let u = Mm_phys.Phys.usage (L.phys t) in
      {
        Backend.pt_bytes = L.pt_page_count t * L.page_size t;
        kernel_bytes = u.Mm_phys.Phys.kernel_bytes;
        resident_bytes = u.Mm_phys.Phys.anon_bytes;
        peak_resident_bytes = Mm_phys.Phys.peak_data_bytes (L.phys t);
      }
  end : Backend.S)
