(** The telemetry sink: the bundle instrumented code receives.

    A sink carries a metrics registry plus an optional event log and
    heap profiler, so a single optional argument threads all three
    through the VM, heap, and harness.  [none] is the canonical
    "telemetry off" value: its registry is {!Metrics.disabled} and hot
    paths can skip it with one match. *)

type t = {
  metrics : Metrics.t;
  events : Events.t option;
  profiler : Heap_profiler.t option;
}

val none : t option
(** [None]; for readability at call sites. *)

val make :
  ?metrics:Metrics.t -> ?events:Events.t -> ?profiler:Heap_profiler.t -> unit -> t
(** Defaults: a fresh enabled registry, no event log, no profiler. *)

val metrics : t option -> Metrics.t
(** The sink's registry, or {!Metrics.disabled}. *)

val events : t option -> Events.t option
(** The sink's event log, if any. *)

val with_span :
  t option -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Span on the sink's event log if any, else just the call. *)
