(* ISA-independent decoded view of a page-table entry.

   Hardware stores entries as raw 64-bit words whose layout differs per ISA;
   the [Pte_format] implementations translate between this view and the raw
   encodings. A [Leaf] above level 1 is a huge-page mapping. *)

type t =
  | Absent
  | Table of { pfn : int }
  | Leaf of {
      pfn : int;
      perm : Perm.t;
      accessed : bool;
      dirty : bool;
      global : bool;
    }

let leaf ?(accessed = false) ?(dirty = false) ?(global = false) ~pfn ~perm () =
  Leaf { pfn; perm; accessed; dirty; global }

let is_present = function Absent -> false | Table _ | Leaf _ -> true
let is_leaf = function Leaf _ -> true | Absent | Table _ -> false

let pfn = function
  | Absent -> None
  | Table { pfn } -> Some pfn
  | Leaf { pfn; _ } -> Some pfn

let equal a b =
  match (a, b) with
  | Absent, Absent -> true
  | Table { pfn = p1 }, Table { pfn = p2 } -> p1 = p2
  | Leaf l1, Leaf l2 ->
    l1.pfn = l2.pfn && Perm.equal l1.perm l2.perm
    && l1.accessed = l2.accessed && l1.dirty = l2.dirty
    && l1.global = l2.global
  | (Absent | Table _ | Leaf _), _ -> false

let to_string = function
  | Absent -> "absent"
  | Table { pfn } -> Printf.sprintf "table->%#x" pfn
  | Leaf { pfn; perm; accessed; dirty; global } ->
    Printf.sprintf "leaf->%#x %s%s%s%s" pfn (Perm.to_string perm)
      (if accessed then " A" else "")
      (if dirty then " D" else "")
      (if global then " G" else "")

let pp fmt t = Format.pp_print_string fmt (to_string t)
