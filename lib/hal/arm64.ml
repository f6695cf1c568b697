(* ARMv8-A VMSAv8-64 stage-1 descriptor layout, 4 KiB granule (simplified).

   Bit layout (ARM DDI 0487, D8.3):
     0     valid
     1     type: at upper levels 1 = table, 0 = block leaf;
           at the last level 1 = page leaf, 0 = reserved (invalid)
     2-4   AttrIndx (memory attributes; fixed to 0 here)
     6     AP[1]  EL0 (user) access
     7     AP[2]  read-only
     10    AF     access flag
     11    nG     not-global
     12-47 physical frame number
     53    PXN    privileged execute-never
     54    UXN    unprivileged execute-never
     55    software: COW marker
     56    software: dirty (hardware DBM management is not modelled)

   ARM allows block (huge) leaves at its levels 1 and 2 only — our levels 3
   (1 GiB) and 2 (2 MiB) — matching x86-64. The break-before-make rule the
   paper mentions (§4.5) is a TLB-maintenance discipline and is handled by
   the TLB layer, not the descriptor format. *)

let name = "ARMv8 4K"
let supports_mpk = false
let needs_break_before_make = true

(* Masks of the flag bits, and the frame number's position and width. *)
let valid_bit = 1 lsl 0
let type_bit = 1 lsl 1
let ap1_bit = 1 lsl 6
let ap2_bit = 1 lsl 7
let af_bit = 1 lsl 10
let ng_bit = 1 lsl 11
let pfn_lo = 12
let pfn_width = 36
let pxn_bit = 1 lsl 53
let uxn_bit = 1 lsl 54
let cow_bit = 1 lsl 55
let dirty_bit = 1 lsl 56

(* A frame number that does not fit raises what it always raised. *)
let out_of_range () = invalid_arg "Pte_format.set_field: value out of range"

let bit b v = if v then b else 0

let encode ~level (pte : Pte.t) =
  match pte with
  | Pte.Absent -> 0L
  | Pte.Table { pfn } ->
    if level <= 1 then invalid_arg "ARMv8: table entry at leaf level";
    if pfn lsr pfn_width <> 0 then out_of_range ();
    Int64.of_int (valid_bit lor type_bit lor (pfn lsl pfn_lo))
  | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
    if not perm.Perm.read then
      invalid_arg "ARMv8: present leaf is always readable (use Absent)";
    if perm.Perm.mpk_key <> 0 then invalid_arg "ARMv8: no protection keys";
    if level = 4 then invalid_arg "ARMv8: no level-0 blocks with 4K granule";
    if level > 1 && pfn land ((1 lsl (9 * (level - 1))) - 1) <> 0 then
      invalid_arg "ARMv8: misaligned block frame";
    if pfn lsr pfn_width <> 0 then out_of_range ();
    (* Page descriptors at the last level have the type bit set; block
       descriptors at upper levels have it clear. *)
    Int64.of_int
      (valid_bit
      lor bit type_bit (level = 1)
      lor bit ap1_bit perm.Perm.user
      lor bit ap2_bit (not perm.Perm.write)
      lor bit af_bit accessed
      lor bit ng_bit (not global)
      lor bit uxn_bit (not perm.Perm.execute)
      lor pxn_bit
      lor bit cow_bit perm.Perm.cow
      lor bit dirty_bit dirty
      lor (pfn lsl pfn_lo))

let decode ~level w =
  let b = Int64.to_int w in
  if b land valid_bit = 0 then Pte.Absent
  else
    let type_set = b land type_bit <> 0 in
    let pfn = (b lsr pfn_lo) land ((1 lsl pfn_width) - 1) in
    let leaf = if level = 1 then type_set else not type_set in
    if (not leaf) && level = 1 then Pte.Absent (* reserved encoding *)
    else if not leaf then Pte.Table { pfn }
    else
      let perm =
        Perm.of_flags ~read:true
          ~write:(b land ap2_bit = 0)
          ~execute:(b land uxn_bit = 0)
          ~user:(b land ap1_bit <> 0) ~cow:(b land cow_bit <> 0) ~mpk_key:0
      in
      Pte.Leaf
        {
          pfn;
          perm;
          accessed = b land af_bit <> 0;
          dirty = b land dirty_bit <> 0;
          global = b land ng_bit = 0;
        }
