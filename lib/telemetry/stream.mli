(** Streaming time-series: windowed snapshot/diff aggregation over a
    {!Metrics} registry, emitted as JSON values (one per completed
    window) on a caller-driven virtual clock.

    The producer calls {!advance} with the current virtual time as it
    processes work; whenever the clock crosses a window boundary the
    stream snapshots the registry, diffs it against the previous window
    boundary, and emits one ["window"] line carrying per-interval
    counter deltas, gauge tracks, histogram deltas with nearest-rank
    percentiles, and an SLO burn rate.  Because the clock is virtual
    and the producer is a serial simulation, the emitted stream is
    byte-identical across [--jobs] values.

    Burn rate: [violatedΔ / max 1 (violatedΔ + metΔ)] over the window,
    computed from two counters (by default the service's
    ["service/slo/violated"] and ["service/slo/met"]).  It is always
    present on a window line — 0.0 when no SLO-tracked request
    completed in the window. *)

type t

val default_window : int
(** 100_000 virtual ticks. *)

val create :
  ?window:int ->
  ?burn_violated:string ->
  ?burn_met:string ->
  metrics:Metrics.t ->
  emit:(Json.t -> unit) ->
  unit ->
  t
(** The stream takes its first base snapshot at creation, so counters
    accumulated before [create] never leak into the first window. *)

val advance : t -> now:int -> unit
(** Emit every window that [now] has fully passed.  Idempotent for a
    non-advancing clock. *)

val finish : t -> now:int -> unit
(** Emit any trailing partial window up to [now], including one that
    only carries counts recorded at a final tick that is itself a window
    boundary.  Always emits at least one window over the stream's
    lifetime. *)

val windows : t -> Metrics.snapshot list
(** The raw per-window snapshot diffs emitted so far, oldest first —
    folding {!Metrics.merge} over them equals the whole-run diff. *)

val event : t -> Flight_recorder.event -> unit
(** Emit a flight-recorder event as an interleaved
    [{"type":"event",...}] line on the same sink. *)
