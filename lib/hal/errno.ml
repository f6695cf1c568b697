(* Typed error values for the MM operation surface. The backends signal
   failure as data ([result]) at the interface boundary instead of ad-hoc
   exceptions, which is what lets the differential oracle compare error
   outcomes across systems deterministically. *)

type t =
  | EINVAL (* malformed request: empty range, unaligned address *)
  | ENOMEM (* out of physical frames or virtual address space *)
  | EACCES (* permission denied at syscall level *)
  | ENOSYS (* the backend does not implement this operation *)
  | EAGAIN (* transient resource shortage; retry (mlock under pressure) *)
  | EPERM (* operation exceeds a hard limit, e.g. the wired-page quota *)
  | SIGSEGV of int (* access faulted; carries the faulting vaddr *)

exception Error of t

let ok_exn = function Ok v -> v | Error e -> raise (Error e)

let to_string = function
  | EINVAL -> "EINVAL"
  | ENOMEM -> "ENOMEM"
  | EACCES -> "EACCES"
  | ENOSYS -> "ENOSYS"
  | EAGAIN -> "EAGAIN"
  | EPERM -> "EPERM"
  | SIGSEGV vaddr -> Printf.sprintf "SIGSEGV@0x%x" vaddr

(* Class label, without payloads: two backends faulting at different
   virtual addresses for the same logical access still agree. *)
let label = function
  | EINVAL -> "EINVAL"
  | ENOMEM -> "ENOMEM"
  | EACCES -> "EACCES"
  | ENOSYS -> "ENOSYS"
  | EAGAIN -> "EAGAIN"
  | EPERM -> "EPERM"
  | SIGSEGV _ -> "SIGSEGV"

let same_class a b = label a = label b

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Mm_hal.Errno.Error " ^ to_string e)
    | _ -> None)
