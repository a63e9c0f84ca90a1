(* The event log.  See the interface for the contract. *)

type phase = Begin | End | Instant | Counter

type event = {
  name : string;
  phase : phase;
  ts : int;
  wall_us : int;
  lane : int;
  ordinal : int;
  args : (string * Json.t) list;
}

type t = {
  capacity : int;
  mutex : Mutex.t;
  mutable ring : event array;
      (* grows up to [capacity] before the first eviction, so the slot
         of an ordinal is always [ordinal mod length ring] *)
  mutable next : int;  (* next ordinal; events ever emitted *)
  t0 : float;  (* Unix epoch seconds at creation *)
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    mutex = Mutex.create ();
    ring = [||];
    next = 0;
    t0 = Unix.gettimeofday ();
  }

let emit t ?(ts = 0) ?(args = []) phase name =
  let lane = (Domain.self () :> int) in
  Mutex.lock t.mutex;
  let wall_us = Float.to_int ((Unix.gettimeofday () -. t.t0) *. 1e6) in
  let ev = { name; phase; ts; wall_us; lane; ordinal = t.next; args } in
  let len = Array.length t.ring in
  if t.next = len && len < t.capacity then begin
    let ring = Array.make (min t.capacity (max 16 (2 * len))) ev in
    Array.blit t.ring 0 ring 0 len;
    t.ring <- ring
  end;
  t.ring.(t.next mod Array.length t.ring) <- ev;
  t.next <- t.next + 1;
  Mutex.unlock t.mutex;
  ev

let with_span t ?args name f =
  ignore (emit t ?args Begin name);
  Fun.protect ~finally:(fun () -> ignore (emit t End name)) f

(* Lane names are process-global: pool workers register once at spawn,
   before any particular log exists; the trace exporter looks names up
   for the lanes its events touch. *)
let lanes : (int, string) Hashtbl.t = Hashtbl.create 8
let lanes_mutex = Mutex.create ()

let register_lane name =
  Mutex.lock lanes_mutex;
  Hashtbl.replace lanes (Domain.self () :> int) name;
  Mutex.unlock lanes_mutex

let lane_name lane =
  Mutex.lock lanes_mutex;
  let n = Hashtbl.find_opt lanes lane in
  Mutex.unlock lanes_mutex;
  match n with
  | Some n -> n
  | None -> if lane = 0 then "main" else Printf.sprintf "lane-%d" lane

(* The retained window and the count ever emitted, read together. *)
let window t =
  Mutex.lock t.mutex;
  let len = Array.length t.ring in
  let kept = min t.next len in
  let first = t.next - kept in
  let evs = List.init kept (fun i -> t.ring.((first + i) mod len)) in
  let recorded = t.next in
  Mutex.unlock t.mutex;
  (evs, recorded)

let events t = fst (window t)
let capacity t = t.capacity

let recorded t =
  Mutex.lock t.mutex;
  let n = t.next in
  Mutex.unlock t.mutex;
  n

let dropped t = max 0 (recorded t - t.capacity)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let kind ev =
  match ev.phase with
  | Begin -> ev.name ^ ".begin"
  | End -> ev.name ^ ".end"
  | Instant | Counter -> ev.name

let event_to_json ev =
  Json.Obj
    [
      ("ordinal", Json.Int ev.ordinal);
      ("ts", Json.Int ev.ts);
      ("kind", Json.Str (kind ev));
      ("args", Json.Obj ev.args);
    ]

let to_dump t =
  let evs, recorded = window t in
  Json.Obj
    [
      ( "flightRecorder",
        Json.Obj
          [
            ("capacity", Json.Int t.capacity);
            ("recorded", Json.Int recorded);
            ("dropped", Json.Int (recorded - List.length evs));
            ("events", Json.List (List.map event_to_json evs));
          ] );
    ]

let trace_event ph name ~ts ~lane args =
  let base =
    [
      ("name", Json.Str name);
      ("ph", Json.Str ph);
      ("ts", Json.Int ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int lane);
    ]
  in
  (* instants scope to their thread so Perfetto draws them in-lane *)
  let scope = if ph = "i" then [ ("s", Json.Str "t") ] else [] in
  let args =
    if ph = "E" && args = [] then [] else [ ("args", Json.Obj args) ]
  in
  Json.Obj (base @ scope @ args)

(* Spans nest per lane, so once a window has lost its front, a close
   finding its lane with no open span closes an evicted open. *)
let without_evicted_opens evs =
  let depth = Hashtbl.create 8 in
  List.filter
    (fun ev ->
      let d = Option.value ~default:0 (Hashtbl.find_opt depth ev.lane) in
      match ev.phase with
      | Begin ->
          Hashtbl.replace depth ev.lane (d + 1);
          true
      | End when d = 0 -> false
      | End ->
          Hashtbl.replace depth ev.lane (d - 1);
          true
      | Instant | Counter -> true)
    evs

let to_trace t =
  let evs, recorded = window t in
  let evs =
    if recorded > List.length evs then without_evicted_opens evs else evs
  in
  let lanes = List.sort_uniq compare (List.map (fun e -> e.lane) evs) in
  let meta =
    List.map
      (fun lane ->
        trace_event "M" "thread_name" ~ts:0 ~lane
          [ ("name", Json.Str (lane_name lane)) ])
      lanes
  in
  let ph = function
    | Begin -> "B"
    | End -> "E"
    | Instant -> "i"
    | Counter -> "C"
  in
  let event e =
    trace_event (ph e.phase) e.name ~ts:e.wall_us ~lane:e.lane e.args
  in
  Json.Obj [ ("traceEvents", Json.List (meta @ List.map event evs)) ]

let write_json doc path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc doc;
      output_char oc '\n')

let write_dump t path = write_json (to_dump t) path
let write_trace t path = write_json (to_trace t) path

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

type document = Trace | Dump

let document doc =
  if Json.member "flightRecorder" doc <> None then Dump else Trace

let ( let* ) = Result.bind

let field what conv ev k =
  match Option.bind (Json.member k ev) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s field %S" what k)

let int_field = field "integer" (function Json.Int n -> Some n | _ -> None)
let str_field = field "string" (function Json.Str s -> Some s | _ -> None)

let list_field k doc =
  match Json.member k doc with
  | Some (Json.List l) -> Ok l
  | Some _ -> Error (k ^ " is not an array")
  | None -> Error ("missing " ^ k)

(* [step i ev] over the events in order, up to the first error. *)
let each step evs =
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
        let* () = step i ev in
        go (i + 1) rest
  in
  go 0 evs

let at i r = Result.map_error (Printf.sprintf "event %d: %s" i) r

(* Per lane, a stack of open span names. *)
let check_trace doc =
  let* evs = list_field "traceEvents" doc in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let step i ev =
    let* name = at i (str_field ev "name") in
    let* ph = at i (str_field ev "ph") in
    let* _ = at i (int_field ev "ts") in
    let* _ = at i (int_field ev "pid") in
    let* tid = at i (int_field ev "tid") in
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
    at i
      (match (ph, stack) with
      | "B", _ ->
          Hashtbl.replace stacks tid (name :: stack);
          Ok ()
      | "E", top :: rest when top = name ->
          Hashtbl.replace stacks tid rest;
          Ok ()
      | "E", top :: _ ->
          Error
            (Printf.sprintf "lane %d: E %S closes open span %S" tid name top)
      | "E", [] ->
          Error (Printf.sprintf "lane %d: E %S with no open span" tid name)
      | ("i" | "C" | "M"), _ -> Ok ()
      | _ -> Error (Printf.sprintf "bad phase %S" ph))
  in
  let* () = each step evs in
  match
    Hashtbl.fold
      (fun tid stack acc ->
        match stack with [] -> acc | n :: _ -> (tid, n) :: acc)
      stacks []
  with
  | [] -> Ok ()
  | (tid, n) :: _ -> Error (Printf.sprintf "lane %d: unclosed span %S" tid n)

(* A dump's spans pair "<name>.begin" with "<name>.end" per name and
   trace_id argument, so per-request spans balance independently. *)
let span_key kind args =
  let strip suffix =
    let n = String.length kind - String.length suffix in
    if n > 0 && String.ends_with ~suffix kind then Some (String.sub kind 0 n)
    else None
  in
  let key name =
    match List.assoc_opt "trace_id" args with
    | Some (Json.Int id) -> name ^ "#" ^ string_of_int id
    | _ -> name ^ "#"
  in
  match (strip ".begin", strip ".end") with
  | Some name, _ -> Some (`Begin, key name)
  | None, Some name -> Some (`End, key name)
  | None, None -> None

let check_dump doc =
  let* fr =
    match Json.member "flightRecorder" doc with
    | Some (Json.Obj _ as o) -> Ok o
    | _ -> Error "flightRecorder is not an object"
  in
  let* capacity = int_field fr "capacity" in
  let* recorded = int_field fr "recorded" in
  let* dropped = int_field fr "dropped" in
  let* evs = list_field "events" fr in
  let* () = if capacity >= 1 then Ok () else Error "capacity must be >= 1" in
  let len = List.length evs in
  (* the window is exactly the last min(recorded, capacity) events *)
  let* () =
    if len = min recorded capacity then Ok ()
    else
      Error
        (Printf.sprintf
           "window incoherent: %d event(s) for %d recorded, capacity %d" len
           recorded capacity)
  in
  let* () =
    if dropped = recorded - len then Ok ()
    else
      Error
        (Printf.sprintf "dropped count %d disagrees with recorded %d - %d kept"
           dropped recorded len)
  in
  let opens : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let step i ev =
    let* ordinal = at i (int_field ev "ordinal") in
    let* _ = at i (int_field ev "ts") in
    let* kind = at i (str_field ev "kind") in
    let args =
      match Json.member "args" ev with Some (Json.Obj a) -> a | _ -> []
    in
    let* () =
      if ordinal = dropped + i then Ok ()
      else
        at i
          (Error
             (Printf.sprintf "ordinal %d, expected %d" ordinal (dropped + i)))
    in
    let n key = Option.value ~default:0 (Hashtbl.find_opt opens key) in
    match span_key kind args with
    | None -> Ok ()
    | Some (`Begin, key) ->
        Hashtbl.replace opens key (n key + 1);
        Ok ()
    | Some (`End, key) when n key > 0 ->
        Hashtbl.replace opens key (n key - 1);
        Ok ()
    | Some (`End, _) when dropped > 0 ->
        (* the matching begin may have been evicted *)
        Ok ()
    | Some (`End, _) ->
        at i (Error (Printf.sprintf "%S closes an unopened span" kind))
  in
  let* () = each step evs in
  if dropped > 0 then Ok ()
  else
    match
      Hashtbl.fold
        (fun key n acc -> if n <> 0 then (key, n) :: acc else acc)
        opens []
      |> List.sort compare
    with
    | [] -> Ok ()
    | (key, n) :: _ -> Error (Printf.sprintf "span %S unbalanced (%+d)" key n)

let check doc =
  match document doc with Trace -> check_trace doc | Dump -> check_dump doc
