(* Access permissions attached to a virtual page.

   [cow] is the software-only copy-on-write marker from the paper (Fig 8:
   "Use the first unused bit as copy-on-write"); it lives in a
   software-available PTE bit on every supported ISA. [mpk_key] models the
   Intel MPK protection-key tag (Table 5 evaluates adding MPK support). *)

type t = {
  read : bool;
  write : bool;
  execute : bool;
  user : bool;
  cow : bool;
  mpk_key : int; (* 0..15; 0 means "no key" on ISAs without MPK *)
}

(* Every decoded leaf carries a permission, so [make] hands out shared
   values from a table of all 512 (five flags x 16 keys) rather than
   allocating one per decode. The table is built on first use, not at
   start-up, where its fresh heap pages would lengthen every process
   start; domains that race to build it build equal tables. *)
let table : t array Atomic.t = Atomic.make [||]

let build_table () =
  let t =
    Array.init 512 (fun i ->
        let flag n = i land (1 lsl n) <> 0 in
        { read = flag 0; write = flag 1; execute = flag 2; user = flag 3;
          cow = flag 4; mpk_key = i lsr 5 })
  in
  Atomic.set table t;
  t

(* Every argument is required, so a decoder's call passes no [Some]
   boxes: without cross-module inlining each optional argument passed
   allocates one. *)
let of_flags ~read ~write ~execute ~user ~cow ~mpk_key =
  if mpk_key < 0 || mpk_key > 15 then invalid_arg "Perm.of_flags: mpk_key";
  let table = match Atomic.get table with [||] -> build_table () | t -> t in
  let bit b n = Bool.to_int b lsl n in
  table.(bit read 0 lor bit write 1 lor bit execute 2 lor bit user 3
         lor bit cow 4 lor (mpk_key lsl 5))

let make ?(read = true) ?(write = false) ?(execute = false) ?(user = true)
    ?(cow = false) ?(mpk_key = 0) () =
  of_flags ~read ~write ~execute ~user ~cow ~mpk_key

let r =
  { read = true; write = false; execute = false; user = true; cow = false;
    mpk_key = 0 }

let none = { r with read = false }
let rw = { r with write = true }

let equal a b =
  a.read = b.read && a.write = b.write && a.execute = b.execute
  && a.user = b.user && a.cow = b.cow && a.mpk_key = b.mpk_key

let with_write t write = { t with write }
let with_cow t cow = { t with cow }
let with_mpk t mpk_key =
  if mpk_key < 0 || mpk_key > 15 then invalid_arg "Perm.with_mpk";
  { t with mpk_key }

let allows t ~write = t.read && ((not write) || t.write)

let to_string t =
  Printf.sprintf "%c%c%c%c%s%s"
    (if t.read then 'r' else '-')
    (if t.write then 'w' else '-')
    (if t.execute then 'x' else '-')
    (if t.user then 'u' else 'k')
    (if t.cow then "+cow" else "")
    (if t.mpk_key <> 0 then Printf.sprintf "+pk%d" t.mpk_key else "")
