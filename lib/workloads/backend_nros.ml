(* NrOS adapter. NrOS (OSDI'21) backs mappings eagerly through the
   replication log — no demand paging — and has no mprotect; both are
   capability facts the drivers and the oracle consume as data. *)

module Errno = Mm_hal.Errno
module N = Mm_nros.Nros

let backend : Backend.b =
  (module struct
    type t = N.t

    let name = "nros"
    let kind = Backend.Nros
    let caps = { Backend.demand_paging = false; has_mprotect = false; has_reclaim = false }
    let create ?(isa = Mm_hal.Isa.x86_64) ~ncpus () = N.create ~isa ~ncpus ()
    let page_size = N.page_size

    let mmap t ?addr ~len ~perm () =
      match Backend.check_mmap ~page_size:(N.page_size t) ?addr ~len () with
      | Error _ as e -> e
      | Ok () -> (
        try Ok (N.mmap t ?addr ~len ~perm ())
        with
        | Mm_phys.Buddy.Out_of_memory | Cortenmm.Va_alloc.Va_exhausted ->
          Error Errno.ENOMEM)

    let munmap t ~addr ~len =
      match Backend.check_range ~page_size:(N.page_size t) ~addr ~len with
      | Error _ as e -> e
      | Ok () -> Ok (N.munmap t ~addr ~len)

    let mprotect _ ~addr:_ ~len:_ ~perm:_ = Error Errno.ENOSYS

    let touch t ~vaddr ~write =
      try Ok (N.touch t ~vaddr ~write)
      with N.Fault v -> Error (Errno.SIGSEGV v)

    let touch_range t ~addr ~len ~write =
      try Ok (N.touch_range t ~addr ~len ~write)
      with N.Fault v -> Error (Errno.SIGSEGV v)

    let page_state t ~vaddr =
      match N.page_state t ~vaddr with
      | `Unmapped -> Backend.P_unmapped
      | `Lazy w -> Backend.P_mapped { writable = w; resident = false }
      | `Resident w -> Backend.P_mapped { writable = w; resident = true }

    let fork t =
      try Ok (N.fork t)
      with Mm_phys.Buddy.Out_of_memory -> Error Errno.ENOMEM

    let destroy t = N.destroy t

    let write_value t ~vaddr ~value =
      try Ok (N.write_value t ~vaddr ~value)
      with N.Fault v -> Error (Errno.SIGSEGV v)

    let read_value t ~vaddr =
      try Ok (N.read_value t ~vaddr)
      with N.Fault v -> Error (Errno.SIGSEGV v)

    let mlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
    let munlock _ ~addr:_ ~len:_ = Error Errno.ENOSYS
    let pressure _ ~target_pages:_ = Error Errno.ENOSYS

    let timer_tick t =
      match Mm_sim.Engine.current () with
      | Some f -> Mm_tlb.Tlb.timer_tick (N.tlb t) ~cpu:f.f_cpu
      | None -> ()

    let set_shootdown_policy t p = Mm_tlb.Tlb.set_policy (N.tlb t) p
    let tlb_counters t = Mm_tlb.Tlb.counters (N.tlb t)

    let mem_stats t =
      let u = Mm_phys.Phys.usage (N.phys t) in
      {
        Backend.pt_bytes = N.replicated_pt_bytes t;
        kernel_bytes = u.Mm_phys.Phys.kernel_bytes;
        resident_bytes = u.Mm_phys.Phys.anon_bytes;
        peak_resident_bytes = Mm_phys.Phys.peak_data_bytes (N.phys t);
      }
  end : Backend.S)
