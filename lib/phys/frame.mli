(** Physical page frames. A frame is its pfn: its page descriptor lives
    in {!Phys}'s frame table, and {!Phys}'s accessors read and write it. *)

type kind =
  | Free
  | Pt_page  (** a page-table page *)
  | Anon  (** anonymous user data *)
  | File_page  (** page-cache page of a simulated file *)
  | Kernel  (** metadata arrays, VMA structs, etc. *)

type t = private int
(** A frame's pfn: [(f :> int)]. {!Phys.frame} and {!Phys.alloc} make
    them. *)

external of_pfn : int -> t = "%identity"
(** For {!Phys}, which makes the pfn's descriptor first. *)
