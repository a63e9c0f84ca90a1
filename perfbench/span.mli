(** In-memory span recorder for the traced benchmark run.

    Spans are recorded by the benchmark around its calls into each
    layer's public functions; nothing inside [lib/] is instrumented.
    A span has a name, a start, an end and the span that encloses it.
    Spans are kept in memory and written out once, when the benchmark
    ends.  Recording is single-domain: only the submitting thread opens
    spans. *)

type span = {
  id : int;
  parent : int;  (** enclosing span's [id]; [-1] for a root *)
  name : string;
  t0 : float;  (** seconds on the monotonic clock *)
  t1 : float;
}

type t

val now : unit -> float
(** Monotonic clock, in seconds. *)

val create : unit -> t

val with_span : t option -> string -> (unit -> 'a) -> 'a
(** [with_span rec name f] runs [f] under a span named [name] whose
    parent is the innermost open span.  With [None] it is just [f ()].
    The span is closed (and recorded) also when [f] raises. *)

val spans : t -> span list
(** Every closed span, in order of closing. *)

val self_time : float * float -> (float * float) list -> float
(** [self_time (t0, t1) children] is [t1 - t0] minus the length of the
    part of [[t0, t1]] that the children's intervals cover (overlaps
    between children counted once). *)

val self_times : span list -> (string * float * int) list
(** Per span name: total self time in seconds and number of spans,
    sorted by name.  Each span's children are the spans whose [parent]
    is its [id]. *)

val to_json : span list -> Telemetry.Json.t
(** Chrome trace-event rendering ("X" events, microseconds). *)
