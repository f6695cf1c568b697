(* Tests for the HAL: geometry index math and bit-accurate PTE
   encode/decode roundtrips on all three ISAs. *)

open Mm_hal

let check = Alcotest.check

let pte_testable = Alcotest.testable Pte.pp Pte.equal

(* -- Geometry -- *)

let test_geometry_constants () =
  let g = Geometry.x86_64 in
  check Alcotest.int "page size" 4096 (Geometry.page_size g);
  check Alcotest.int "entries" 512 (Geometry.entries g);
  check Alcotest.int "L1 coverage" 4096 (Geometry.coverage g ~level:1);
  check Alcotest.int "L2 coverage (2MiB)" (2 * 1024 * 1024)
    (Geometry.coverage g ~level:2);
  check Alcotest.int "L3 coverage (1GiB)" (1024 * 1024 * 1024)
    (Geometry.coverage g ~level:3);
  check Alcotest.int "L4 coverage (512GiB)" (512 * 1024 * 1024 * 1024)
    (Geometry.coverage g ~level:4)

let test_geometry_index () =
  let g = Geometry.x86_64 in
  (* vaddr = idx4:idx3:idx2:idx1:offset = 1:2:3:4:0 *)
  let vaddr =
    (1 lsl (12 + 27)) lor (2 lsl (12 + 18)) lor (3 lsl (12 + 9)) lor (4 lsl 12)
  in
  check Alcotest.int "idx L4" 1 (Geometry.index g ~level:4 ~vaddr);
  check Alcotest.int "idx L3" 2 (Geometry.index g ~level:3 ~vaddr);
  check Alcotest.int "idx L2" 3 (Geometry.index g ~level:2 ~vaddr);
  check Alcotest.int "idx L1" 4 (Geometry.index g ~level:1 ~vaddr)

let test_geometry_level_for_size () =
  let g = Geometry.x86_64 in
  check (Alcotest.option Alcotest.int) "4K" (Some 1)
    (Geometry.level_for_size g ~size:4096);
  check (Alcotest.option Alcotest.int) "2M" (Some 2)
    (Geometry.level_for_size g ~size:(2 * 1024 * 1024));
  check (Alcotest.option Alcotest.int) "1G" (Some 3)
    (Geometry.level_for_size g ~size:(1024 * 1024 * 1024));
  check (Alcotest.option Alcotest.int) "8K is no level" None
    (Geometry.level_for_size g ~size:8192)

let test_geometry_pages_per_entry () =
  let g = Geometry.x86_64 in
  check Alcotest.int "L1" 1 (Geometry.pages_per_entry g ~level:1);
  check Alcotest.int "L2" 512 (Geometry.pages_per_entry g ~level:2);
  check Alcotest.int "L3" (512 * 512) (Geometry.pages_per_entry g ~level:3)

let test_check_vaddr () =
  let g = Geometry.x86_64 in
  Geometry.check_vaddr g 0;
  Geometry.check_vaddr g (Geometry.va_limit g - 1);
  let rejects v =
    try
      Geometry.check_vaddr g v;
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "negative rejected" true (rejects (-4096));
  check Alcotest.bool "beyond limit rejected" true
    (rejects (Geometry.va_limit g))

(* -- PTE formats -- *)

let all_isas = Isa.all

(* A perm generator restricted to what hardware formats can express:
   present leaves are readable, and MPK keys only where supported. *)
let gen_perm ~mpk =
  QCheck.Gen.(
    let* write = bool in
    let* execute = bool in
    let* user = bool in
    let* cow = bool in
    let* key = if mpk then int_bound 15 else return 0 in
    return (Perm.make ~read:true ~write ~execute ~user ~cow ~mpk_key:key ()))

let gen_leaf ~mpk ~level =
  QCheck.Gen.(
    let align = 1 lsl (9 * (level - 1)) in
    (* Keep pfn within the narrowest format's field (ARM: 36 bits). *)
    let* base = int_bound ((1 lsl 34) / align) in
    let pfn = base * align in
    let* perm = gen_perm ~mpk in
    let* accessed = bool in
    let* dirty = bool in
    let* global = bool in
    return (Pte.leaf ~accessed ~dirty ~global ~pfn ~perm ()))

let roundtrip_prop (isa : Isa.t) =
  let (module F : Pte_format.S) = isa.Isa.fmt in
  let max_leaf_level =
    match isa.Isa.name with "x86-64" | "arm64" -> 3 | _ -> 4
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s leaf encode/decode roundtrip" isa.Isa.name)
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* level = int_range 1 max_leaf_level in
         let* pte = gen_leaf ~mpk:F.supports_mpk ~level in
         return (level, pte)))
    (fun (level, pte) ->
      let raw = Isa.encode isa ~level pte in
      Pte.equal (Isa.decode isa ~level raw) pte)

let table_roundtrip_prop (isa : Isa.t) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s table encode/decode roundtrip" isa.Isa.name)
    ~count:200
    QCheck.(pair (int_range 2 4) (int_bound 0xFFFF_FFF))
    (fun (level, pfn) ->
      let pte = Pte.Table { pfn } in
      let raw = Isa.encode isa ~level pte in
      Pte.equal (Isa.decode isa ~level raw) pte)

(* Word 0 decodes to [Absent] at every level of every format: a PT
   page's untouched chunks share one all-zero chunk and rely on it. *)
let test_absent_is_zero () =
  List.iter
    (fun isa ->
      for level = 1 to 4 do
        check Alcotest.int64
          (Printf.sprintf "%s absent L%d" isa.Isa.name level)
          0L
          (Isa.encode isa ~level Pte.Absent);
        check pte_testable "zero decodes absent" Pte.Absent
          (Isa.decode isa ~level 0L)
      done)
    all_isas

let test_x86_bits () =
  (* Check specific bit positions against the SDM layout. *)
  let pte =
    Pte.leaf ~accessed:true ~dirty:true ~pfn:0x1234
      ~perm:(Perm.make ~write:true ~execute:false ~user:true ())
      ()
  in
  let raw = Isa.encode Isa.x86_64 ~level:1 pte in
  let bit n = Int64.(logand raw (shift_left 1L n) <> 0L) in
  check Alcotest.bool "P" true (bit 0);
  check Alcotest.bool "RW" true (bit 1);
  check Alcotest.bool "US" true (bit 2);
  check Alcotest.bool "A" true (bit 5);
  check Alcotest.bool "D" true (bit 6);
  check Alcotest.bool "PS clear at L1" false (bit 7);
  check Alcotest.bool "XD (no execute)" true (bit 63);
  check Alcotest.int "pfn field" 0x1234
    Int64.(to_int (logand (shift_right_logical raw 12) 0xFF_FFFF_FFFFL))

let test_x86_huge_bit () =
  let pte = Pte.leaf ~pfn:512 ~perm:Perm.rw () in
  let raw = Isa.encode Isa.x86_64 ~level:2 pte in
  check Alcotest.bool "PS set at L2" true
    Int64.(logand raw (shift_left 1L 7) <> 0L)

let test_x86_mpk_field () =
  let pte = Pte.leaf ~pfn:7 ~perm:(Perm.with_mpk Perm.rw 11) () in
  let raw = Isa.encode Isa.x86_64 ~level:1 pte in
  check Alcotest.int "PKU bits 59-62" 11
    Int64.(to_int (logand (shift_right_logical raw 59) 0xFL))

let test_riscv_bits () =
  let pte =
    Pte.leaf ~pfn:0x55 ~perm:(Perm.make ~write:true ~execute:true ()) ()
  in
  let raw = Isa.encode Isa.riscv_sv48 ~level:1 pte in
  let bit n = Int64.(logand raw (shift_left 1L n) <> 0L) in
  check Alcotest.bool "V" true (bit 0);
  check Alcotest.bool "R" true (bit 1);
  check Alcotest.bool "W" true (bit 2);
  check Alcotest.bool "X" true (bit 3);
  check Alcotest.int "ppn at bit 10" 0x55
    Int64.(to_int (logand (shift_right_logical raw 10) 0xFFFL))

let test_riscv_table_is_pointer () =
  (* A table entry must have R=W=X=0. *)
  let raw = Isa.encode Isa.riscv_sv48 ~level:2 (Pte.Table { pfn = 3 }) in
  check Alcotest.int64 "rwx clear" 0L Int64.(logand raw 0b1110L)

let test_riscv_rejects_mpk () =
  Alcotest.check_raises "no PKU on riscv"
    (Invalid_argument "Sv48: no protection keys") (fun () ->
      ignore
        (Isa.encode Isa.riscv_sv48 ~level:1
           (Pte.leaf ~pfn:1 ~perm:(Perm.with_mpk Perm.rw 3) ())))

let test_arm_block_levels () =
  (* Blocks allowed at our levels 2 and 3, rejected at level 4. *)
  let pte = Pte.leaf ~pfn:512 ~perm:Perm.rw () in
  ignore (Isa.encode Isa.arm64 ~level:2 pte);
  let pte3 = Pte.leaf ~pfn:(512 * 512) ~perm:Perm.rw () in
  ignore (Isa.encode Isa.arm64 ~level:3 pte3);
  Alcotest.check_raises "no L0 block"
    (Invalid_argument "ARMv8: no level-0 blocks with 4K granule") (fun () ->
      ignore (Isa.encode Isa.arm64 ~level:4 (Pte.leaf ~pfn:0 ~perm:Perm.rw ())))

let test_arm_readonly_encoding () =
  (* AP[2] set means read-only. *)
  let ro = Pte.leaf ~pfn:1 ~perm:Perm.r () in
  let raw = Isa.encode Isa.arm64 ~level:1 ro in
  check Alcotest.bool "AP2 set for read-only" true
    Int64.(logand raw (shift_left 1L 7) <> 0L);
  let rw = Pte.leaf ~pfn:1 ~perm:Perm.rw () in
  let raw = Isa.encode Isa.arm64 ~level:1 rw in
  check Alcotest.bool "AP2 clear for writable" false
    Int64.(logand raw (shift_left 1L 7) <> 0L)

let test_huge_alignment_enforced () =
  List.iter
    (fun isa ->
      Alcotest.(check bool)
        (isa.Isa.name ^ " misaligned huge rejected")
        true
        (try
           ignore
             (Isa.encode isa ~level:2 (Pte.leaf ~pfn:511 ~perm:Perm.rw ()));
           false
         with Invalid_argument _ -> true))
    all_isas

let test_present_leaf_requires_read () =
  List.iter
    (fun isa ->
      Alcotest.(check bool)
        (isa.Isa.name ^ " non-readable leaf rejected")
        true
        (try
           ignore
             (Isa.encode isa ~level:1
                (Pte.leaf ~pfn:1 ~perm:(Perm.make ~read:false ()) ()));
           false
         with Invalid_argument _ -> true))
    all_isas

let test_isa_find () =
  check Alcotest.string "find riscv" "riscv-sv48"
    (Isa.find "riscv-sv48").Isa.name;
  Alcotest.(check bool)
    "unknown raises" true
    (try
       ignore (Isa.find "vax");
       false
     with Invalid_argument _ -> true)

(* -- Perm -- *)

let test_perm_allows () =
  check Alcotest.bool "r allows read" true (Perm.allows Perm.r ~write:false);
  check Alcotest.bool "r denies write" false (Perm.allows Perm.r ~write:true);
  check Alcotest.bool "rw allows write" true (Perm.allows Perm.rw ~write:true);
  check Alcotest.bool "none denies read" false
    (Perm.allows Perm.none ~write:false)

let test_perm_to_string () =
  check Alcotest.string "rw" "rw-u" (Perm.to_string Perm.rw);
  check Alcotest.string "cow" "r--u+cow"
    (Perm.to_string (Perm.with_cow Perm.r true))

(* [make] returns shared values from a table; each must be the record the
   arguments describe, and keys outside 0-15 are still rejected. *)
let test_perm_make_table () =
  (* All 512 combinations of the five flags and the 16 keys. *)
  for i = 0 to 511 do
    let flag n = i land (1 lsl n) <> 0 in
    let read = flag 0 and write = flag 1 and execute = flag 2 in
    let user = flag 3 and cow = flag 4 and mpk_key = i lsr 5 in
    let expected = { Perm.read; write; execute; user; cow; mpk_key } in
    let got = Perm.make ~read ~write ~execute ~user ~cow ~mpk_key () in
    if got <> expected then
      Alcotest.failf "Perm.make %s gave %s" (Perm.to_string expected)
        (Perm.to_string got)
  done;
  List.iter
    (fun mpk_key ->
      check Alcotest.bool
        (Printf.sprintf "mpk_key %d rejected" mpk_key)
        true
        (try
           ignore (Perm.make ~mpk_key ());
           false
         with Invalid_argument _ -> true))
    [ -1; 16 ]

(* -- Reference codecs --

   The formats' encoders and decoders as they were before each computed
   its bits in-module: one helper call per bit or field, the helpers
   below. [codec_prop] and [decode_prop] pin today's formats to them,
   word for word and message for message. *)

module Ref = struct
  let bits (w : int64) : int = Int64.to_int w
  let get_bit b n = b land (1 lsl n) <> 0
  let set_bit b n v = if v then b lor (1 lsl n) else b
  let field b ~lo ~width = (b lsr lo) land ((1 lsl width) - 1)

  let set_field b ~lo ~width v =
    if v < 0 || (width < 63 && v >= 1 lsl width) then
      invalid_arg "Pte_format.set_field: value out of range";
    b land lnot (((1 lsl width) - 1) lsl lo) lor (v lsl lo)

  let word ~bit63 b =
    let w = Int64.logand (Int64.of_int b) 0x7FFF_FFFF_FFFF_FFFFL in
    if bit63 then Int64.logor w Int64.min_int else w

  let is_aligned = Mm_util.Align.is_aligned

  module X86_64 = struct
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

    let encode ~level (pte : Pte.t) =
      match pte with
      | Pte.Absent -> 0L
      | Pte.Table { pfn } ->
        if level <= 1 then invalid_arg "x86-64: table entry at leaf level";
        let b = set_bit 0 p_bit true in
        let b = set_bit b rw_bit true in
        let b = set_bit b us_bit true in
        word ~bit63:false (set_field b ~lo:pfn_lo ~width:pfn_width pfn)
      | Pte.Leaf { pfn; perm; accessed; dirty; global } ->
        if not perm.Perm.read then
          invalid_arg "x86-64: present leaf is always readable (use Absent)";
        let huge = level > 1 in
        if level > 3 then invalid_arg "x86-64: no huge pages above 1 GiB";
        if huge && not (is_aligned pfn (1 lsl (9 * (level - 1)))) then
          invalid_arg "x86-64: misaligned huge-page frame";
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
        word ~bit63:(not perm.Perm.execute) b

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
              ~execute:(w >= 0L) ~user:(get_bit b us_bit)
              ~cow:(get_bit b cow_bit)
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
  end

  module Riscv_sv48 = struct
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
        if perm.Perm.mpk_key <> 0 then invalid_arg "Sv48: no protection keys";
        if level > 1 && not (is_aligned pfn (1 lsl (9 * (level - 1)))) then
          invalid_arg "Sv48: misaligned superpage frame";
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
        else if not leaf then Pte.Absent
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
  end

  module Arm64 = struct
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
        if perm.Perm.mpk_key <> 0 then
          invalid_arg "ARMv8: no protection keys";
        if level = 4 then
          invalid_arg "ARMv8: no level-0 blocks with 4K granule";
        if level > 1 && not (is_aligned pfn (1 lsl (9 * (level - 1)))) then
          invalid_arg "ARMv8: misaligned block frame";
        let b = set_bit 0 valid_bit true in
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
        if (not leaf) && level = 1 then Pte.Absent
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
  end
end

(* Each ISA's reference codec and the width of its frame-number field. *)
let reference (isa : Isa.t) =
  if isa == Isa.x86_64 then
    (Ref.X86_64.encode, Ref.X86_64.decode, Ref.X86_64.pfn_width)
  else if isa == Isa.riscv_sv48 then
    (Ref.Riscv_sv48.encode, Ref.Riscv_sv48.decode, Ref.Riscv_sv48.pfn_width)
  else (Ref.Arm64.encode, Ref.Arm64.decode, Ref.Arm64.pfn_width)

(* Every permission record, formats' rejects included: the five flags
   in all 32 combinations with each MPK key from -1 to 16. [Perm.make]
   refuses keys outside 0..15, so these are built as records. *)
let every_perm =
  List.concat_map
    (fun mpk_key ->
      List.init 32 (fun i ->
          let flag n = i land (1 lsl n) <> 0 in
          { Perm.read = flag 0; write = flag 1; execute = flag 2;
            user = flag 3; cow = flag 4; mpk_key }))
    (List.init 18 (fun k -> k - 1))

(* A level, an entry kind and a frame number: 0, random, the field's
   largest, one past it, negative, and huge-aligned or misaligned for
   the level. *)
let gen_codec_case ~width =
  QCheck.Gen.(
    let* level = int_range 1 4 in
    let align = 1 lsl (9 * (level - 1)) in
    let top = 1 lsl width in
    let* pfn =
      oneof
        [
          return 0;
          int_bound (top - 1);
          return (top - 1);
          return top;
          map (fun x -> -x - 1) (int_bound (top - 1));
          map (fun k -> k * align) (int_bound ((top / align) - 1));
          map2
            (fun k off -> (k * align) + 1 + off)
            (int_bound ((top / align) - 1))
            (int_bound (max 0 (align - 2)));
        ]
    in
    let* kind = int_bound 2 in
    let* accessed = bool in
    let* dirty = bool in
    let* global = bool in
    return (level, kind, pfn, accessed, dirty, global))

let outcome f = match f () with w -> Ok w | exception Invalid_argument m -> Error m

(* [encode] returns the reference's word, or raises the reference's
   message, for an [Absent], a [Table] or a leaf with every permission. *)
let codec_prop (isa : Isa.t) =
  let ref_encode, _, width = reference isa in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s encode equals the reference" isa.Isa.name)
    ~count:300
    (QCheck.make
       ~print:(fun (level, kind, pfn, a, d, g) ->
         Printf.sprintf "level %d kind %d pfn %d a %b d %b g %b" level kind pfn
           a d g)
       (gen_codec_case ~width))
    (fun (level, kind, pfn, accessed, dirty, global) ->
      let ptes =
        match kind with
        | 0 -> [ Pte.Absent ]
        | 1 -> [ Pte.Table { pfn } ]
        | _ ->
          List.map
            (fun perm -> Pte.Leaf { pfn; perm; accessed; dirty; global })
            every_perm
      in
      List.for_all
        (fun pte ->
          let got = outcome (fun () -> Isa.encode isa ~level pte)
          and want = outcome (fun () -> ref_encode ~level pte) in
          got = want
          || QCheck.Test.fail_reportf "%s at level %d: %s, reference %s"
               (Pte.to_string pte) level
               (match got with Ok w -> Int64.to_string w | Error m -> m)
               (match want with Ok w -> Int64.to_string w | Error m -> m))
        ptes)

(* [decode] equals the reference at every level, for any 64-bit word. *)
let decode_prop (isa : Isa.t) =
  let _, ref_decode, _ = reference isa in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s decode equals the reference" isa.Isa.name)
    ~count:1000
    QCheck.(pair int64 bool)
    (fun (w, top) ->
      let w =
        if top then Int64.logor w Int64.min_int
        else Int64.logand w Int64.max_int
      in
      List.for_all
        (fun level ->
          let got = Isa.decode isa ~level w and want = ref_decode ~level w in
          (Pte.equal got want && got = want)
          || QCheck.Test.fail_reportf "%Lx at level %d: %s, reference %s" w
               level (Pte.to_string got) (Pte.to_string want))
        [ 1; 2; 3; 4 ])

let () =
  Alcotest.run "mm_hal"
    [
      ( "geometry",
        [
          Alcotest.test_case "constants" `Quick test_geometry_constants;
          Alcotest.test_case "index" `Quick test_geometry_index;
          Alcotest.test_case "level_for_size" `Quick
            test_geometry_level_for_size;
          Alcotest.test_case "pages_per_entry" `Quick
            test_geometry_pages_per_entry;
          Alcotest.test_case "check_vaddr" `Quick test_check_vaddr;
        ] );
      ( "pte-roundtrip",
        List.concat_map
          (fun isa ->
            [
              QCheck_alcotest.to_alcotest (roundtrip_prop isa);
              QCheck_alcotest.to_alcotest (table_roundtrip_prop isa);
            ])
          all_isas );
      ( "pte-reference",
        List.concat_map
          (fun isa ->
            [
              QCheck_alcotest.to_alcotest (codec_prop isa);
              QCheck_alcotest.to_alcotest (decode_prop isa);
            ])
          all_isas );
      ( "pte-bits",
        [
          Alcotest.test_case "absent is zero" `Quick test_absent_is_zero;
          Alcotest.test_case "x86 bit layout" `Quick test_x86_bits;
          Alcotest.test_case "x86 huge PS bit" `Quick test_x86_huge_bit;
          Alcotest.test_case "x86 MPK field" `Quick test_x86_mpk_field;
          Alcotest.test_case "riscv bit layout" `Quick test_riscv_bits;
          Alcotest.test_case "riscv table pointer" `Quick
            test_riscv_table_is_pointer;
          Alcotest.test_case "riscv rejects MPK" `Quick test_riscv_rejects_mpk;
          Alcotest.test_case "arm block levels" `Quick test_arm_block_levels;
          Alcotest.test_case "arm read-only AP2" `Quick
            test_arm_readonly_encoding;
          Alcotest.test_case "huge alignment" `Quick
            test_huge_alignment_enforced;
          Alcotest.test_case "leaf requires read" `Quick
            test_present_leaf_requires_read;
          Alcotest.test_case "isa registry" `Quick test_isa_find;
        ] );
      ( "perm",
        [
          Alcotest.test_case "allows" `Quick test_perm_allows;
          Alcotest.test_case "to_string" `Quick test_perm_to_string;
          Alcotest.test_case "make table" `Quick test_perm_make_table;
        ] );
    ]
