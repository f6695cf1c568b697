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

(* Shared bit-twiddling helpers for the per-ISA implementations.

   The arithmetic runs on native ints, not [Int64.t]: every boxed Int64
   operation allocates, and decode is the hottest function in the
   simulator (a PT-page scan decodes 512 entries). [bits] unboxes the
   hardware word once — [Int64.to_int] does not allocate — and keeps
   bits 0-62, with bit 62 landing on the native sign bit; [lsr]-based
   field extraction still sees it as an ordinary bit. Only bit 63
   (x86's XD) cannot be held, so callers test it on the boxed word
   ([w < 0L]) and restore it through [word ~bit63]. *)

let bits (w : int64) : int = Int64.to_int w

let get_bit b n = b land (1 lsl n) <> 0

let set_bit b n v = if v then b lor (1 lsl n) else b

let field b ~lo ~width = (b lsr lo) land ((1 lsl width) - 1)

let set_field b ~lo ~width v =
  if v < 0 || (width < 63 && v >= 1 lsl width) then
    invalid_arg "Pte_format.set_field: value out of range";
  b land lnot (((1 lsl width) - 1) lsl lo) lor (v lsl lo)

(* Rebuild the hardware word from bits 0-62 assembled in a native int,
   plus bit 63. The mask strips the sign-extension of native bit 62. *)
let word ~bit63 b =
  let w = Int64.logand (Int64.of_int b) 0x7FFF_FFFF_FFFF_FFFFL in
  if bit63 then Int64.logor w Int64.min_int else w
