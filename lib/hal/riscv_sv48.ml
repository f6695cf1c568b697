(* RISC-V Sv48 page-table entry layout.

   Bit layout (RISC-V privileged spec):
     0  V  valid
     1  R  readable
     2  W  writable
     3  X  executable
     4  U  user accessible
     5  G  global
     6  A  accessed
     7  D  dirty
     8-9   RSW, reserved for software — bit 8 carries the COW marker
     10-53 physical frame number

   A valid entry with R=W=X=0 is a pointer to the next level; any of R/W/X
   set makes it a leaf (at any level — RISC-V supports huge leaves at every
   non-leaf level, "megapages"/"gigapages"/"terapages"). This is the
   `PteFlags::V` check from the paper's Fig 9. *)

open Pte_format

let name = "RISC-V Sv48"
let supports_mpk = false
let needs_break_before_make = false

let v_bit = 0
let r_bit = 1
let w_bit = 2
let x_bit = 3
let u_bit = 4
let g_bit = 5
let a_bit = 6
let d_bit = 7
let cow_bit = 8
let pfn_lo = 10
let pfn_width = 44

let encode ~level (pte : Pte.t) =
  match pte with
  | Pte.Absent -> 0L
  | Pte.Table { pfn } ->
    if level <= 1 then invalid_arg "Sv48: table entry at leaf level";
    let b = set_bit 0 v_bit true in
    word ~bit63:false (set_field b ~lo:pfn_lo ~width:pfn_width pfn)
  | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
    if not (perm.Perm.read || perm.Perm.execute) then
      invalid_arg "Sv48: leaf must have R or X (R=W=X=0 means pointer)";
    if perm.Perm.write && not perm.Perm.read then
      invalid_arg "Sv48: W without R is reserved";
    if perm.Perm.mpk_key <> 0 then
      invalid_arg "Sv48: no protection keys";
    if level > 1 && not (Mm_util.Align.is_aligned pfn (1 lsl (9 * (level - 1))))
    then invalid_arg "Sv48: misaligned superpage frame";
    let b = set_bit 0 v_bit true in
    let b = set_bit b r_bit perm.Perm.read in
    let b = set_bit b w_bit perm.Perm.write in
    let b = set_bit b x_bit perm.Perm.execute in
    let b = set_bit b u_bit perm.Perm.user in
    let b = set_bit b g_bit global in
    let b = set_bit b a_bit accessed in
    let b = set_bit b d_bit dirty in
    let b = set_bit b cow_bit perm.Perm.cow in
    word ~bit63:false (set_field b ~lo:pfn_lo ~width:pfn_width pfn)

let decode ~level w =
  let b = bits w in
  if not (get_bit b v_bit) then Pte.Absent
  else
    let leaf = get_bit b r_bit || get_bit b w_bit || get_bit b x_bit in
    let pfn = field b ~lo:pfn_lo ~width:pfn_width in
    if (not leaf) && level > 1 then Pte.Table { pfn }
    else if not leaf then Pte.Absent (* R=W=X=0 at level 1 is malformed *)
    else
      let perm =
        Perm.of_flags ~read:(get_bit b r_bit) ~write:(get_bit b w_bit)
          ~execute:(get_bit b x_bit) ~user:(get_bit b u_bit)
          ~cow:(get_bit b cow_bit) ~mpk_key:0
      in
      Pte.Leaf
        {
          pfn;
          perm;
          accessed = get_bit b a_bit;
          dirty = get_bit b d_bit;
          global = get_bit b g_bit;
        }
