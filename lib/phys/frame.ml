(* Physical page frames. CortenMM borrows Linux's one descriptor per
   physical frame (paper §4.5, "struct page"), and Linux keeps those
   descriptors in a flat array indexed by pfn; so does {!Phys}, whose
   frame table holds each frame's descriptor fields. A frame is
   therefore just its pfn. *)

type kind = Free | Pt_page | Anon | File_page | Kernel
type t = int

external of_pfn : int -> t = "%identity"
