(* Virtual-page state — the paper's Fig 4 [Status] enum.

   CortenMM stores, per PTE slot, the state that cannot live in the MMU
   itself. A slot of an upper-level PT page can carry a status for its
   whole coverage ("using upper-level PT pages to represent large memory
   regions with identical status"). The hardware-visible part of a page's
   state (a present mapping and its permissions) lives in the PTE; [query]
   combines both views into this public type. *)

open Mm_hal

type t =
  | Invalid
  | Mapped of { pfn : int; perm : Perm.t }
  (* Virtually allocated page states (not backed by a physical page): *)
  | Private_anon of Perm.t
  | Private_file of { file : File.t; offset : int; perm : Perm.t }
  | Shared_anon of { shm : File.t; offset : int; perm : Perm.t }
  | Swapped of { dev : Blockdev.t; block : int; perm : Perm.t }

let perm = function
  | Invalid -> None
  | Mapped { perm; _ }
  | Private_anon perm
  | Private_file { perm; _ }
  | Shared_anon { perm; _ }
  | Swapped { perm; _ } ->
    Some perm

let to_string = function
  | Invalid -> "invalid"
  | Mapped { pfn; perm } ->
    Printf.sprintf "mapped(%#x,%s)" pfn (Perm.to_string perm)
  | Private_anon p -> Printf.sprintf "anon(%s)" (Perm.to_string p)
  | Private_file { file; offset; perm } ->
    Printf.sprintf "file(%s@%d,%s)" (File.name file) offset
      (Perm.to_string perm)
  | Shared_anon { shm; offset; perm } ->
    Printf.sprintf "shm(%s@%d,%s)" (File.name shm) offset
      (Perm.to_string perm)
  | Swapped { dev; block; perm } ->
    Printf.sprintf "swapped(%s@%d,%s)" (Blockdev.name dev) block
      (Perm.to_string perm)

(* -- The per-PTE metadata entry (internal representation) --

   What the metadata array actually stores per slot. A [Mapped] page's
   permissions live in the PTE; the metadata remembers only its *origin*
   (anonymous, file, shm) so that unmap/writeback/swap know where the page
   came from. Virtually-allocated state is stored wholesale. *)

type origin = O_anon | O_file of File.t * int | O_shm of File.t * int

type meta_entry =
  | M_invalid
  | M_resident of origin (* PTE at this slot holds the mapping *)
  | M_alloc of { origin : origin; perm : Perm.t; policy : Numa.policy }
    (* allocated, unmapped; the NUMA policy lives here (paper §4.5) *)
  | M_swapped of { dev : Blockdev.t; block : int; perm : Perm.t }

(* Bytes accounted per metadata entry: the paper's upper bound doubles a
   4 KiB PT page with a fully-populated array of 512 entries → 8 B/entry. *)
let meta_entry_bytes = 8
