type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  mutable next : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable closed : span list;  (** newest first *)
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () = { next = 0; stack = []; closed = [] }

let with_span r name f =
  match r with
  | None -> f ()
  | Some r ->
      let id = r.next in
      r.next <- id + 1;
      let parent = match r.stack with p :: _ -> p | [] -> -1 in
      r.stack <- id :: r.stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = now () in
          r.stack <- List.tl r.stack;
          r.closed <- { id; parent; name; t0; t1 } :: r.closed)
        f

let spans r = List.rev r.closed

let self_time (t0, t1) children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  (* merge sorted intervals, summing the covered length *)
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0., None) clipped
  in
  let covered =
    match last with Some (a, b) -> covered +. (b -. a) | None -> covered
  in
  t1 -. t0 -. covered

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let st = self_time (s.t0, s.t1) (Hashtbl.find_all children s.id) in
      let sum, n =
        Option.value ~default:(0., 0) (Hashtbl.find_opt totals s.name)
      in
      Hashtbl.replace totals s.name (sum +. st, n + 1))
    spans;
  Hashtbl.fold (fun name (sum, n) acc -> (name, sum, n) :: acc) totals []
  |> List.sort compare

let to_json spans =
  let open Telemetry.Json in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us t = Float ((t -. base) *. 1e6) in
  Obj
    [
      ( "traceEvents",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", Str s.name);
                   ("ph", Str "X");
                   ("ts", us s.t0);
                   ("dur", Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", Int 1);
                   ("tid", Int 1);
                   ( "args",
                     Obj [ ("id", Int s.id); ("parent", Int s.parent) ] );
                 ])
             spans) );
    ]
