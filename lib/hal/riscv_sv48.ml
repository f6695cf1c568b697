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

let name = "RISC-V Sv48"
let supports_mpk = false
let needs_break_before_make = false

(* Masks of the flag bits, and the frame number's position and width. *)
let v_bit = 1 lsl 0
let r_bit = 1 lsl 1
let w_bit = 1 lsl 2
let x_bit = 1 lsl 3
let u_bit = 1 lsl 4
let g_bit = 1 lsl 5
let a_bit = 1 lsl 6
let d_bit = 1 lsl 7
let cow_bit = 1 lsl 8
let pfn_lo = 10
let pfn_width = 44

(* A frame number that does not fit raises what it always raised. *)
let out_of_range () = invalid_arg "Pte_format.set_field: value out of range"

let bit b v = if v then b else 0

let encode ~level (pte : Pte.t) =
  match pte with
  | Pte.Absent -> 0L
  | Pte.Table { pfn } ->
    if level <= 1 then invalid_arg "Sv48: table entry at leaf level";
    if pfn lsr pfn_width <> 0 then out_of_range ();
    Int64.of_int (v_bit lor (pfn lsl pfn_lo))
  | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
    if not (perm.Perm.read || perm.Perm.execute) then
      invalid_arg "Sv48: leaf must have R or X (R=W=X=0 means pointer)";
    if perm.Perm.write && not perm.Perm.read then
      invalid_arg "Sv48: W without R is reserved";
    if perm.Perm.mpk_key <> 0 then
      invalid_arg "Sv48: no protection keys";
    if level > 1 && pfn land ((1 lsl (9 * (level - 1))) - 1) <> 0 then
      invalid_arg "Sv48: misaligned superpage frame";
    if pfn lsr pfn_width <> 0 then out_of_range ();
    Int64.of_int
      (v_bit
      lor bit r_bit perm.Perm.read
      lor bit w_bit perm.Perm.write
      lor bit x_bit perm.Perm.execute
      lor bit u_bit perm.Perm.user
      lor bit g_bit global lor bit a_bit accessed lor bit d_bit dirty
      lor bit cow_bit perm.Perm.cow
      lor (pfn lsl pfn_lo))

let decode ~level w =
  let b = Int64.to_int w in
  if b land v_bit = 0 then Pte.Absent
  else
    let leaf = b land (r_bit lor w_bit lor x_bit) <> 0 in
    let pfn = (b lsr pfn_lo) land ((1 lsl pfn_width) - 1) in
    if (not leaf) && level > 1 then Pte.Table { pfn }
    else if not leaf then Pte.Absent (* R=W=X=0 at level 1 is malformed *)
    else
      let perm =
        Perm.of_flags ~read:(b land r_bit <> 0) ~write:(b land w_bit <> 0)
          ~execute:(b land x_bit <> 0) ~user:(b land u_bit <> 0)
          ~cow:(b land cow_bit <> 0) ~mpk_key:0
      in
      Pte.Leaf
        {
          pfn;
          perm;
          accessed = b land a_bit <> 0;
          dirty = b land d_bit <> 0;
          global = b land g_bit <> 0;
        }
