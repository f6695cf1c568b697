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
