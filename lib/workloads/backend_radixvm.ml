(* RadixVM adapter. RadixVM (EuroSys'13) has no mprotect — the radix
   tree's per-page metadata fixes permissions at map time — so the
   capability is absent and [mprotect] answers [ENOSYS] as a value. *)

module Errno = Mm_hal.Errno
module R = Mm_radixvm.Radixvm

let backend : Backend.b =
  (module struct
    type t = R.t

    let name = "radixvm"
    let kind = Backend.Radixvm
    let caps = { Backend.demand_paging = true; has_mprotect = false; has_reclaim = false }
    let create ?(isa = Mm_hal.Isa.x86_64) ~ncpus () = R.create ~isa ~ncpus ()
    let page_size = R.page_size

    let mmap t ?addr ~len ~perm () =
      match Backend.check_mmap ~page_size:(R.page_size t) ?addr ~len () with
      | Error _ as e -> e
      | Ok () -> (
        try Ok (R.mmap t ?addr ~len ~perm ())
        with
        | Mm_phys.Buddy.Out_of_memory | Cortenmm.Va_alloc.Va_exhausted ->
          Error Errno.ENOMEM)

    let munmap t ~addr ~len =
      match Backend.check_range ~page_size:(R.page_size t) ~addr ~len with
      | Error _ as e -> e
      | Ok () -> Ok (R.munmap t ~addr ~len)

    let mprotect _ ~addr:_ ~len:_ ~perm:_ = Error Errno.ENOSYS

    let touch t ~vaddr ~write =
      try Ok (R.touch t ~vaddr ~write)
      with R.Fault v -> Error (Errno.SIGSEGV v)

    let touch_range t ~addr ~len ~write =
      try Ok (R.touch_range t ~addr ~len ~write)
      with R.Fault v -> Error (Errno.SIGSEGV v)

    let page_state t ~vaddr =
      match R.page_state t ~vaddr with
      | `Unmapped -> Backend.P_unmapped
      | `Lazy w -> Backend.P_mapped { writable = w; resident = false }
      | `Resident w -> Backend.P_mapped { writable = w; resident = true }

    let fork t =
      try Ok (R.fork t)
      with Mm_phys.Buddy.Out_of_memory -> Error Errno.ENOMEM

    let destroy t = R.destroy t

    let write_value t ~vaddr ~value =
      try Ok (R.write_value t ~vaddr ~value)
      with R.Fault v -> Error (Errno.SIGSEGV v)

    let read_value t ~vaddr =
      try Ok (R.read_value t ~vaddr)
      with R.Fault v -> Error (Errno.SIGSEGV v)

    let mlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
    let munlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
    let pressure _ ~target_pages:_ = Error Errno.ENOSYS

    let timer_tick t =
      match Mm_sim.Engine.current () with
      | Some f -> Mm_tlb.Tlb.timer_tick (R.tlb t) ~cpu:f.f_cpu
      | None -> ()

    let set_shootdown_policy t p = Mm_tlb.Tlb.set_policy (R.tlb t) p
    let tlb_counters t = Mm_tlb.Tlb.counters (R.tlb t)

    let mem_stats t =
      let u = Mm_phys.Phys.usage (R.phys t) in
      {
        Backend.pt_bytes = R.replicated_pt_bytes t;
        kernel_bytes = R.radix_bytes t;
        resident_bytes = u.Mm_phys.Phys.anon_bytes;
        peak_resident_bytes = Mm_phys.Phys.peak_data_bytes (R.phys t);
      }
  end : Backend.S)
