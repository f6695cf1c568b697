(* x86-64 (IA-32e 4-level paging) page-table entry layout.

   Bit layout (Intel SDM Vol. 3, §4.5):
     0  P    present
     1  R/W  writable
     2  U/S  user accessible
     3  PWT  (ignored here)
     4  PCD  (ignored here)
     5  A    accessed
     6  D    dirty (leaf only)
     7  PS   page size: 1 => huge leaf at levels 2 (2 MiB) and 3 (1 GiB)
     8  G    global (leaf only)
     9-11    available to software — bit 9 carries the COW marker
     12-51   physical frame number
     59-62   protection key (PKU; leaf only)
     63  XD  execute disable

   A present entry that is not a huge leaf is a table pointer at levels > 1
   and a 4 KiB leaf at level 1 — exactly the `is_present`/`HUGE` logic the
   paper's Fig 9 sketches. *)

open Pte_format

let name = "x86-64"
let supports_mpk = true
let needs_break_before_make = false

let p_bit = 0
let rw_bit = 1
let us_bit = 2
let a_bit = 5
let d_bit = 6
let ps_bit = 7
let g_bit = 8
let cow_bit = 9
let pfn_lo = 12
let pfn_width = 40
let pku_lo = 59
let pku_width = 4
let xd_bit = 63

let encode ~level (pte : Pte.t) =
  match pte with
  | Pte.Absent -> 0L
  | Pte.Table { pfn } ->
    if level <= 1 then invalid_arg "x86-64: table entry at leaf level";
    (* Intermediate entries get RW|US set so the leaf controls access. *)
    let b = set_bit 0 p_bit true in
    let b = set_bit b rw_bit true in
    let b = set_bit b us_bit true in
    word ~bit63:false (set_field b ~lo:pfn_lo ~width:pfn_width pfn)
  | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
    if not perm.Perm.read then
      invalid_arg "x86-64: present leaf is always readable (use Absent)";
    let huge = level > 1 in
    if level > 3 then invalid_arg "x86-64: no huge pages above 1 GiB";
    if huge && not (Mm_util.Align.is_aligned pfn (1 lsl (9 * (level - 1))))
    then invalid_arg "x86-64: misaligned huge-page frame";
    let b = set_bit 0 p_bit true in
    let b = set_bit b rw_bit perm.Perm.write in
    let b = set_bit b us_bit perm.Perm.user in
    let b = set_bit b a_bit accessed in
    let b = set_bit b d_bit dirty in
    let b = set_bit b ps_bit huge in
    let b = set_bit b g_bit global in
    let b = set_bit b cow_bit perm.Perm.cow in
    let b = set_field b ~lo:pku_lo ~width:pku_width perm.Perm.mpk_key in
    let b = set_field b ~lo:pfn_lo ~width:pfn_width pfn in
    word ~bit63:(not perm.Perm.execute) b (* XD *)

let decode ~level w =
  let b = bits w in
  if not (get_bit b p_bit) then Pte.Absent
  else
    let huge = get_bit b ps_bit in
    let pfn = field b ~lo:pfn_lo ~width:pfn_width in
    if level > 1 && not huge then Pte.Table { pfn }
    else
      let perm =
        Perm.of_flags ~read:true ~write:(get_bit b rw_bit)
          ~execute:(w >= 0L) (* XD is bit 63: the boxed word's sign *)
          ~user:(get_bit b us_bit) ~cow:(get_bit b cow_bit)
          ~mpk_key:(field b ~lo:pku_lo ~width:pku_width)
      in
      Pte.Leaf
        {
          pfn;
          perm;
          accessed = get_bit b a_bit;
          dirty = get_bit b d_bit;
          global = get_bit b g_bit;
        }
