(* Binary min-heap of scheduler events keyed by (time, tie key, sequence
   number). The tie key is a scheduler-policy knob that reorders events
   pushed for the same virtual time — with all keys 0 the ordering
   degenerates to (time, seq), the historical order. The sequence number
   makes the ordering total, which makes the whole simulation
   deterministic for any fixed key assignment. *)

type 'a entry = { time : int; key : int; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let is_empty t = t.size = 0

(* Earliest queued time, [max_int] when empty. Allocation-free peek for the
   scheduler's serialize fast path. *)
let min_time t = if t.size = 0 then max_int else t.data.(0).time

let before a b =
  a.time < b.time
  || (a.time = b.time
     && (a.key < b.key || (a.key = b.key && a.seq < b.seq)))

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 16 (cap * 2) in
    let nd = Array.make ncap t.data.(0) in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end

let push t ~time ~key ~seq value =
  let e = { time; key; seq; value } in
  if Array.length t.data = 0 then t.data <- Array.make 16 e;
  grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before t.data.(!i) t.data.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = t.data.(p) in
    t.data.(p) <- t.data.(!i);
    t.data.(!i) <- tmp;
    i := p
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.size && before t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.time, top.value)
  end
