(** The event log: one record of a run for every telemetry producer.

    The VM, builds, the supervised pool and the service emit each fact
    once, as an {!event}.  Two exporters render the same log: the
    Chrome trace-event document ({!to_trace}, loadable in Perfetto or
    [chrome://tracing]) and the flight-recorder dump ({!to_dump}).
    {!check} validates either document.

    Every event carries two clocks.  [ts] is the producer's own clock:
    executed instructions for the VM, virtual ticks for the service,
    the input index for the pool, and 0 for producers without one.  The
    dump exports it, so a dump is byte-identical across runs and
    [--jobs] values whenever its producers emit from serial sections.
    [wall_us] is wall time since the log was created; the trace exports
    it.

    The log is a ring of [capacity] events: once full, each new event
    evicts the oldest.  Ordinals are dense, assigned at emission and
    never reused, so a retained window starts at ordinal {!dropped}.

    Emitting never touches the VM's cost clock, so attaching a log
    preserves bit-identical cycles.  A log is safe to use from several
    domains at once. *)

type phase =
  | Begin  (** opens a span on the emitting lane *)
  | End  (** closes the lane's innermost open span of the same name *)
  | Instant
  | Counter  (** integer args: one series each of a counter track *)

type event = {
  name : string;
  phase : phase;
  ts : int;  (** producer clock *)
  wall_us : int;  (** microseconds since the log was created *)
  lane : int;  (** id of the emitting domain *)
  ordinal : int;  (** dense, 0-based *)
  args : (string * Json.t) list;
}

type t

val default_capacity : int
(** 4096 events. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is clamped to at least 1; [max_int] keeps every event.
    Storage grows with the events held, not with the capacity. *)

val emit :
  t -> ?ts:int -> ?args:(string * Json.t) list -> phase -> string -> event
(** Stamps the event with the next ordinal, the wall clock and the
    calling domain's lane, appends it, and returns it.  [ts] defaults
    to 0, [args] to none. *)

val with_span :
  t -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Brackets the call in [Begin]/[End]; the span is closed even if the
    call raises. *)

val register_lane : string -> unit
(** Names the calling domain's lane, process-wide, for the trace's
    [thread_name] records.  {!Exec.Pool} workers register as
    ["worker-N"]; the main domain defaults to ["main"]. *)

(** {1 Inspection} *)

val events : t -> event list
(** Retained events, oldest first. *)

val capacity : t -> int

val recorded : t -> int
(** Events ever emitted, retained or not. *)

val dropped : t -> int
(** Events evicted so far: [recorded - length (events t)]. *)

(** {1 Exporters} *)

val kind : event -> string
(** The event's name in the dump: ["<name>.begin"] for [Begin],
    ["<name>.end"] for [End], the bare name otherwise. *)

val event_to_json : event -> Json.t
(** The dump form, [{"ordinal":..,"ts":..,"kind":..,"args":{..}}]. *)

val to_dump : t -> Json.t
(** [{"flightRecorder":{"capacity":..,"recorded":..,"dropped":..,
    "events":[..]}}]: the retained window on the producer clock. *)

val to_trace : t -> Json.t
(** [{"traceEvents":[..]}] on the wall clock, with one [M]
    [thread_name] record per lane.  When the ring has evicted events,
    the closes of spans whose opens were evicted are left out, so every
    lane still nests. *)

val write_dump : t -> string -> unit
val write_trace : t -> string -> unit

(** {1 Validation} *)

type document = Trace | Dump

val document : Json.t -> document
(** [Dump] when the document has a ["flightRecorder"] member. *)

val check : Json.t -> (unit, string) result
(** Validates the document by its shape.

    A trace is an object with a ["traceEvents"] array; every event has
    string [name] and [ph] and integer [ts], [pid] and [tid]; [ph] is
    one of B/E/i/C/M; and on every lane the B/E events balance like
    parentheses with matching names.

    A dump has integer [capacity] (at least 1), [recorded] and
    [dropped] and an [events] array holding exactly the last
    [min recorded capacity] events, with [dropped = recorded - length];
    every event has integer [ordinal] and [ts] and a string [kind], and
    the ordinals run densely from [dropped].  Kinds ending in
    [".begin"]/[".end"] must balance per span name and [trace_id]
    argument.  When [dropped > 0] the front of a span may have been
    evicted, so unmatched ends and trailing opens are tolerated. *)
