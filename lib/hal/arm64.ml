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

open Pte_format

let name = "ARMv8 4K"
let supports_mpk = false
let needs_break_before_make = true

let valid_bit = 0
let type_bit = 1
let ap1_bit = 6
let ap2_bit = 7
let af_bit = 10
let ng_bit = 11
let pfn_lo = 12
let pfn_width = 36
let pxn_bit = 53
let uxn_bit = 54
let cow_bit = 55
let dirty_bit = 56

let encode ~level (pte : Pte.t) =
  match pte with
  | Pte.Absent -> 0L
  | Pte.Table { pfn } ->
    if level <= 1 then invalid_arg "ARMv8: table entry at leaf level";
    let b = set_bit 0 valid_bit true in
    let b = set_bit b type_bit true in
    word ~bit63:false (set_field b ~lo:pfn_lo ~width:pfn_width pfn)
  | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
    if not perm.Perm.read then
      invalid_arg "ARMv8: present leaf is always readable (use Absent)";
    if perm.Perm.mpk_key <> 0 then invalid_arg "ARMv8: no protection keys";
    if level = 4 then invalid_arg "ARMv8: no level-0 blocks with 4K granule";
    if level > 1 && not (Mm_util.Align.is_aligned pfn (1 lsl (9 * (level - 1))))
    then invalid_arg "ARMv8: misaligned block frame";
    let b = set_bit 0 valid_bit true in
    (* Page descriptors at the last level have the type bit set; block
       descriptors at upper levels have it clear. *)
    let b = set_bit b type_bit (level = 1) in
    let b = set_bit b ap1_bit perm.Perm.user in
    let b = set_bit b ap2_bit (not perm.Perm.write) in
    let b = set_bit b af_bit accessed in
    let b = set_bit b ng_bit (not global) in
    let b = set_bit b uxn_bit (not perm.Perm.execute) in
    let b = set_bit b pxn_bit true in
    let b = set_bit b cow_bit perm.Perm.cow in
    let b = set_bit b dirty_bit dirty in
    word ~bit63:false (set_field b ~lo:pfn_lo ~width:pfn_width pfn)

let decode ~level w =
  let b = bits w in
  if not (get_bit b valid_bit) then Pte.Absent
  else
    let type_set = get_bit b type_bit in
    let pfn = field b ~lo:pfn_lo ~width:pfn_width in
    let leaf = if level = 1 then type_set else not type_set in
    if (not leaf) && level = 1 then Pte.Absent (* reserved encoding *)
    else if not leaf then Pte.Table { pfn }
    else
      let perm =
        Perm.of_flags ~read:true
          ~write:(not (get_bit b ap2_bit))
          ~execute:(not (get_bit b uxn_bit))
          ~user:(get_bit b ap1_bit) ~cow:(get_bit b cow_bit) ~mpk_key:0
      in
      Pte.Leaf
        {
          pfn;
          perm;
          accessed = get_bit b af_bit;
          dirty = get_bit b dirty_bit;
          global = not (get_bit b ng_bit);
        }
