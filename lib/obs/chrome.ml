(* Chrome trace_event exporter (Perfetto / chrome://tracing loadable).

   Mapping: the whole simulation is pid 1; each vCPU is a "thread"
   (tid = cpu index). Span-at-completion events (lock waits, cursor
   transactions, page faults) become complete events (ph "X") with
   ts = time - span and dur = span; point events become instants
   (ph "i", thread scope); Counter events become ph "C"; explicit
   Span_begin/Span_end become ph "B"/"E". Virtual cycles map 1:1 to the
   microseconds of the trace_event format — absolute magnitudes are
   what the simulator says they are. *)

let cat = function
  | Event.Lock_acquire _ | Lock_release _ | Lock_contend _
  | Lock_downgrade _ -> "lock"
  | Rcu_enter | Rcu_exit | Rcu_retire _ | Rcu_fire _ | Rcu_defer _
  | Rcu_gp _ -> "rcu"
  | Tlb_shootdown _ | Tlb_latr_drain _ -> "tlb"
  | Pt_split _ | Pt_free _ -> "pt"
  | Cursor_lock _ | Txn_committed _ | Cursor_commit _ | Stale_retry -> "cursor"
  | Page_fault _ -> "fault"
  | Frame_allocated _ | Frame_deferred _ | Frame_freed _ -> "frame"
  | Obj_created _ | Obj_ref _ | Obj_unref _ | Obj_collapsed _
  | Obj_destroyed _ -> "object"
  | Page_wired _ | Page_unwired _ | Page_dirtied _ -> "page"
  | Reclaim_waken _ | Reclaim_page _ | Reclaim_writeback _
  | Reclaim_drop _ -> "reclaim"
  | Span_begin _ | Span_end _ | Counter _ -> "user"

(* Display name: lock events resolve the registry name so the Perfetto
   slice reads "mmap_lock (rw-write) wait" rather than "lock-acquire". *)
let display_name p =
  match p with
  | Event.Lock_acquire { lock; kind; _ } ->
    Printf.sprintf "%s (%s) acquire" (Contention.name_of lock)
      (Event.lock_kind_name kind)
  | Lock_release { lock; kind; _ } ->
    Printf.sprintf "%s (%s) hold" (Contention.name_of lock)
      (Event.lock_kind_name kind)
  | Lock_contend { lock; kind } ->
    Printf.sprintf "%s (%s) contend" (Contention.name_of lock)
      (Event.lock_kind_name kind)
  | Span_begin { name } | Span_end { name } | Counter { name; _ } -> name
  | p -> Event.name p

let args_of p =
  match Event.payload_args p with
  | [] -> []
  | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) args)) ]

let event_to_json (e : Event.t) : Json.t =
  let base name ph ts =
    [ ("name", Json.String name);
      ("cat", Json.String (cat e.payload));
      ("ph", Json.String ph);
      ("ts", Json.Int ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int e.cpu) ]
  in
  let name = display_name e.payload in
  match e.payload with
  | Span_begin _ -> Json.Obj (base name "B" e.time @ args_of e.payload)
  | Span_end _ -> Json.Obj (base name "E" e.time @ args_of e.payload)
  | Counter { name; value } ->
    Json.Obj
      (base name "C" e.time
      @ [ ("args", Json.Obj [ ("value", Json.Int value) ]) ])
  | p -> (
    match Event.span_of p with
    | Some dur ->
      Json.Obj
        (base name "X" (e.time - dur)
        @ [ ("dur", Json.Int dur) ]
        @ args_of p)
    | None ->
      Json.Obj (base name "i" e.time @ [ ("s", Json.String "t") ] @ args_of p))

let metadata events =
  (* One thread_name record per vCPU that emitted anything, plus the
     process name. Metadata ph "M" events have ts-independent semantics. *)
  let cpus =
    List.sort_uniq compare (List.map (fun (e : Event.t) -> e.cpu) events)
  in
  let meta name tid args =
    Json.Obj
      [ ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj args) ]
  in
  meta "process_name" 0 [ ("name", Json.String "mmrepro") ]
  :: List.map
       (fun cpu ->
         meta "thread_name" cpu
           [ ("name", Json.String (Printf.sprintf "vCPU %d" cpu)) ])
       cpus

let to_json events =
  Json.Obj
    [ ("traceEvents", Json.List (metadata events @ List.map event_to_json events));
      ("displayTimeUnit", Json.String "ns") ]

let write ~path events = Json.write_file ~path (to_json events)
