(* The portability layer of CortenMM (paper §4.4, Fig 9).

   CortenMM hides the minor per-ISA differences of the hardware PTE layout
   behind a Rust trait; the OCaml analog is a module signature implemented
   once per ISA. Besides the raw layout the implementation records which
   optional MMU features (MPK protection keys) the format can express —
   Table 5 measures the cost of adding such a feature.

   The paper's assumptions on the format (§4.4) are captured here: the
   software-visible bits must be able to (1) identify validity, (2) tell
   leaves from tables, (3) enforce access permissions, and (4) report
   accessed/dirty state. *)

module type S = sig
  val name : string

  val supports_mpk : bool
  (** Whether the format has protection-key bits (x86-64 PKU only). *)

  val needs_break_before_make : bool
  (** ARM's FEAT_BBM discipline: changing a live translation requires
      writing an invalid entry and invalidating the TLB before the new
      entry is written (paper §4.5). *)

  val encode : level:int -> Pte.t -> int64
  (** Encode a decoded entry into the raw hardware word. Raises
      [Invalid_argument] for entries the format cannot express (e.g. a huge
      leaf at a level the ISA does not support, or an MPK key on an ISA
      without protection keys). *)

  val decode : level:int -> int64 -> Pte.t
  (** Decode a raw word. Total: any word decodes to some entry (unknown bit
      patterns with the valid bit clear are [Absent]). *)
end

(* How the implementations compute. The arithmetic runs on native ints,
   not [Int64.t]: every boxed Int64 operation allocates, and decode is
   the hottest function in the simulator (a PT-page scan decodes 512
   entries). [Int64.to_int] unboxes the hardware word without
   allocating and keeps bits 0-62, with bit 62 landing on the native
   sign bit, which [lsr]-based field extraction still sees as an
   ordinary bit. Only bit 63 (x86's XD) cannot be held: decode tests it
   on the boxed word ([w < 0L]) and encode sets it on the [Int64.t].

   Each implementation tests and sets its bits and fields itself, with
   no per-bit or per-field helper shared across modules: the dev
   profile compiles with [-opaque], under which every call into another
   module is a real call, a dozen of them per encode. *)
