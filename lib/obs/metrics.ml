(* A registry of named counters and histograms that any layer can register
   into. Counters are plain ints; histograms bucket values by log2 (good
   enough for cycle counts spanning orders of magnitude) and keep exact
   count/sum/min/max so means are precise even though percentiles are
   bucket-resolution.

   The registry is global (instrumentation sites are scattered across
   every layer and must not thread a handle around) and deterministic:
   enumeration is sorted by name, never by hash order. *)

type counter = { c_name : string; mutable count : int }

type histogram = {
  h_name : string;
  buckets : int array; (* buckets.(b) counts values with log2 = b *)
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

(* The registry is domain-local: each domain of a parallel driver
   accumulates into its own tables (its tasks reset them at task
   start), so instrumentation sites on two domains never race. Within
   a domain it keeps the process-global feel instrumentation sites
   rely on. *)
type registry = {
  reg_counters : (string, counter) Hashtbl.t;
  reg_histograms : (string, histogram) Hashtbl.t;
}

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { reg_counters = Hashtbl.create 64; reg_histograms = Hashtbl.create 64 })

let counters_tbl () = (Domain.DLS.get registry_key).reg_counters
let histograms_tbl () = (Domain.DLS.get registry_key).reg_histograms

let counter name =
  let counters_tbl = counters_tbl () in
  match Hashtbl.find_opt counters_tbl name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace counters_tbl name c;
    c

let add c by = c.count <- c.count + by
let inc c = add c 1
let count c = c.count

let nbuckets = 63

let histogram name =
  let histograms_tbl = histograms_tbl () in
  match Hashtbl.find_opt histograms_tbl name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        buckets = Array.make nbuckets 0;
        n = 0;
        sum = 0;
        min_v = max_int;
        max_v = 0;
      }
    in
    Hashtbl.replace histograms_tbl name h;
    h

(* A histogram with the same shape but outside the registry: per-run
   latency recorders (the serving mode makes one per operation class per
   run) that must not accumulate across runs in one process and must not
   leak into dump()/histograms(). *)
let unregistered name =
  {
    h_name = name;
    buckets = Array.make nbuckets 0;
    n = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

(* floor (log2 v), found by halving the width searched six times; 0 for
   [v <= 0]. At most 61 (for [max_int]), so always below [nbuckets]. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then begin b := 32; v := !v lsr 32 end;
    if !v lsr 16 <> 0 then begin b := !b + 16; v := !v lsr 16 end;
    if !v lsr 8 <> 0 then begin b := !b + 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin b := !b + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin b := !b + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then b := !b + 1;
    !b
  end

let observe h v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let mean h = if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n
let samples h = h.n
let total h = h.sum
let max_value h = h.max_v

(* Upper bound of the bucket holding the q-th quantile observation: the
   value at rank ceil(q*n) in sorted order lands in some log2 bucket b,
   and we report that bucket's inclusive upper edge 2^(b+1)-1, clamped to
   the exact maximum. So for an exact quantile x >= 1 the result r
   satisfies x <= r <= max(1, 2x-1): never an underestimate, and at most
   one power of two above (x=0 reports r <= 1, bucket 0's edge). *)
let quantile h q =
  if h.n = 0 then 0
  else begin
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int h.n)))
    in
    let acc = ref 0 and result = ref h.max_v and found = ref false in
    Array.iteri
      (fun b c ->
        if not !found then begin
          acc := !acc + c;
          if !acc >= target then begin
            result := min h.max_v ((1 lsl (b + 1)) - 1);
            found := true
          end
        end)
      h.buckets;
    !result
  end

let sorted_values tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let counters () =
  sorted_values (counters_tbl ())
  |> List.map (fun c -> (c.c_name, c.count))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histograms () =
  sorted_values (histograms_tbl ())
  |> List.map (fun h -> (h.h_name, h))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () =
  Hashtbl.reset (counters_tbl ());
  Hashtbl.reset (histograms_tbl ())

(* Plain-text dump, e.g. under a benchmark's --report flag. *)
let dump () =
  let b = Buffer.create 256 in
  let cs = counters () in
  if cs <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-36s %d\n" name v))
      cs
  end;
  let hs = histograms () in
  if hs <> [] then begin
    Buffer.add_string b "histograms (cycles):\n";
    Buffer.add_string b
      (Printf.sprintf "  %-36s %10s %10s %10s %10s %10s\n" "" "count" "mean"
         "p50<=" "p99<=" "max");
    List.iter
      (fun (name, h) ->
        Buffer.add_string b
          (Printf.sprintf "  %-36s %10d %10.1f %10d %10d %10d\n" name h.n
             (mean h) (quantile h 0.5) (quantile h 0.99) h.max_v))
      hs
  end;
  Buffer.contents b
