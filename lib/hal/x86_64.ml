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

let name = "x86-64"
let supports_mpk = true
let needs_break_before_make = false

(* Masks of the flag bits, and the fields' positions and widths. *)
let p_bit = 1 lsl 0
let rw_bit = 1 lsl 1
let us_bit = 1 lsl 2
let a_bit = 1 lsl 5
let d_bit = 1 lsl 6
let ps_bit = 1 lsl 7
let g_bit = 1 lsl 8
let cow_bit = 1 lsl 9
let pfn_lo = 12
let pfn_width = 40
let pku_lo = 59
let pku_width = 4

(* A field value that does not fit raises what it always raised. *)
let out_of_range () = invalid_arg "Pte_format.set_field: value out of range"

let bit b v = if v then b else 0

(* The hardware word of bits 0-62 assembled in a native int, whose sign
   bit is bit 62, plus XD: the mask drops the sign extension. *)
let word b ~xd =
  let w = Int64.logand (Int64.of_int b) Int64.max_int in
  if xd then Int64.logor w Int64.min_int else w

let encode ~level (pte : Pte.t) =
  match pte with
  | Pte.Absent -> 0L
  | Pte.Table { pfn } ->
    if level <= 1 then invalid_arg "x86-64: table entry at leaf level";
    if pfn lsr pfn_width <> 0 then out_of_range ();
    (* Intermediate entries get RW|US set so the leaf controls access. *)
    Int64.of_int (p_bit lor rw_bit lor us_bit lor (pfn lsl pfn_lo))
  | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
    if not perm.Perm.read then
      invalid_arg "x86-64: present leaf is always readable (use Absent)";
    let huge = level > 1 in
    if level > 3 then invalid_arg "x86-64: no huge pages above 1 GiB";
    if huge && pfn land ((1 lsl (9 * (level - 1))) - 1) <> 0 then
      invalid_arg "x86-64: misaligned huge-page frame";
    let key = perm.Perm.mpk_key in
    if key lsr pku_width <> 0 then out_of_range ();
    if pfn lsr pfn_width <> 0 then out_of_range ();
    word ~xd:(not perm.Perm.execute)
      (p_bit
      lor bit rw_bit perm.Perm.write
      lor bit us_bit perm.Perm.user
      lor bit a_bit accessed lor bit d_bit dirty lor bit ps_bit huge
      lor bit g_bit global
      lor bit cow_bit perm.Perm.cow
      lor (key lsl pku_lo) lor (pfn lsl pfn_lo))

let decode ~level w =
  (* Bits 0-62; XD, bit 63, is the boxed word's sign. *)
  let b = Int64.to_int w in
  if b land p_bit = 0 then Pte.Absent
  else
    let pfn = (b lsr pfn_lo) land ((1 lsl pfn_width) - 1) in
    if level > 1 && b land ps_bit = 0 then Pte.Table { pfn }
    else
      let perm =
        Perm.of_flags ~read:true ~write:(b land rw_bit <> 0)
          ~execute:(w >= 0L) ~user:(b land us_bit <> 0)
          ~cow:(b land cow_bit <> 0)
          ~mpk_key:((b lsr pku_lo) land ((1 lsl pku_width) - 1))
      in
      Pte.Leaf
        {
          pfn;
          perm;
          accessed = b land a_bit <> 0;
          dirty = b land d_bit <> 0;
          global = b land g_bit <> 0;
        }
