(** Virtual-page state — the paper's Fig 4 [Status] enum — plus the
    internal per-PTE metadata entry representation. *)

open Mm_hal

type t =
  | Invalid
  | Mapped of { pfn : int; perm : Perm.t }
  | Private_anon of Perm.t
  | Private_file of { file : File.t; offset : int; perm : Perm.t }
  | Shared_anon of { shm : File.t; offset : int; perm : Perm.t }
  | Swapped of { dev : Blockdev.t; block : int; perm : Perm.t }

val perm : t -> Perm.t option
val to_string : t -> string

(** {2 Per-PTE metadata entries}

    What the metadata array of a PT page stores per slot: either nothing,
    the origin of a resident mapping (the permissions live in the PTE), a
    virtually-allocated status possibly covering a whole upper-level
    slot, or a swapped-out page. *)

type origin = O_anon | O_file of File.t * int | O_shm of File.t * int

type meta_entry =
  | M_invalid
  | M_resident of origin
  | M_alloc of { origin : origin; perm : Perm.t; policy : Numa.policy }
  | M_swapped of { dev : Blockdev.t; block : int; perm : Perm.t }

val meta_entry_bytes : int
(** Accounted size of one entry (the paper's upper bound doubles a 4 KiB
    PT page with a fully populated 512-entry array). *)
