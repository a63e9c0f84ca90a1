type t = {
  metrics : Metrics.t;
  events : Events.t option;
  profiler : Heap_profiler.t option;
}

let none : t option = None

let make ?metrics ?events ?profiler () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  { metrics; events; profiler }

let metrics = function Some s -> s.metrics | None -> Metrics.disabled

let events = function Some s -> s.events | None -> None

let with_span sink ?args name f =
  match sink with
  | Some { events = Some ev; _ } -> Events.with_span ev ?args name f
  | _ -> f ()
