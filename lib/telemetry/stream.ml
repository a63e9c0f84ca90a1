(* Windowed metrics streaming.  See the interface for the contract. *)

type t = {
  window : int;
  metrics : Metrics.t;
  emit : Json.t -> unit;
  burn_num : string;
  burn_den : string;
  mutable base : Metrics.snapshot;  (* snapshot at the open window's start *)
  mutable start : int;  (* tick the open window starts at *)
  mutable index : int;  (* ordinal of the open window *)
  mutable diffs : Metrics.snapshot list;  (* emitted windows, newest first *)
}

let default_window = 100_000

let create ?(window = default_window) ?(burn_violated = "service/slo/violated")
    ?(burn_met = "service/slo/met") ~metrics ~emit () =
  {
    window = max 1 window;
    metrics;
    emit;
    burn_num = burn_violated;
    burn_den = burn_met;
    base = Metrics.snapshot metrics;
    start = 0;
    index = 0;
    diffs = [];
  }

let counter_delta d name =
  match Metrics.find d name with Some (Metrics.Counter n) -> n | _ -> 0

let burn_rate t d =
  let violated = counter_delta d t.burn_num in
  let met = counter_delta d t.burn_den in
  Float.of_int violated /. Float.of_int (max 1 (violated + met))

(* Wall-clock metrics (the [*_ns] histograms) are nondeterministic across
   worker counts and machines; window lines live on the virtual clock and
   must be byte-identical across [--jobs], so they are excluded from the
   wire format (they stay in the raw [windows] diffs). *)
let wall_clock name =
  String.length name > 3 && String.sub name (String.length name - 3) 3 = "_ns"

let window_to_json t ~index ~from_ ~to_ d =
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) (name, v) ->
        if wall_clock name then (cs, gs, hs)
        else
        match v with
        | Metrics.Counter n ->
            ((if n <> 0 then (name, Json.Int n) :: cs else cs), gs, hs)
        | Metrics.Gauge { last; max } ->
            ( cs,
              ( name,
                Json.Obj [ ("last", Json.Int last); ("max", Json.Int max) ] )
              :: gs,
              hs )
        | Metrics.Histogram { count; sum; max; buckets } ->
            if count = 0 then (cs, gs, hs)
            else
              ( cs,
                gs,
                ( name,
                  Json.Obj
                    [
                      ("count", Json.Int count);
                      ("sum", Json.Int sum);
                      ("max", Json.Int max);
                      ("p50", Json.Int (Metrics.percentile buckets 0.50));
                      ("p90", Json.Int (Metrics.percentile buckets 0.90));
                      ("p99", Json.Int (Metrics.percentile buckets 0.99));
                    ] )
                :: hs ))
      ([], [], []) d
  in
  Json.Obj
    [
      ("type", Json.Str "window");
      ("index", Json.Int index);
      ("from", Json.Int from_);
      ("to", Json.Int to_);
      ("burn_rate", Json.Float (burn_rate t d));
      ("counters", Json.Obj (List.rev counters));
      ("gauges", Json.Obj (List.rev gauges));
      ("histograms", Json.Obj (List.rev hists));
    ]

let flush t ~to_ =
  let snap = Metrics.snapshot t.metrics in
  let d = Metrics.diff snap t.base in
  t.emit (window_to_json t ~index:t.index ~from_:t.start ~to_ d);
  t.diffs <- d :: t.diffs;
  t.base <- snap;
  t.start <- to_;
  t.index <- t.index + 1

let advance t ~now =
  while now >= t.start + t.window do
    flush t ~to_:(t.start + t.window)
  done

(* The trailing window is emitted when the clock moved past the last
   boundary, when nothing was emitted yet, or when counts landed on the
   final boundary tick itself — an empty-length window then carries
   them, so folding the windows still gives the whole-run diff. *)
let finish t ~now =
  advance t ~now;
  if now > t.start || t.index = 0 || Metrics.snapshot t.metrics <> t.base then
    flush t ~to_:(max now t.start)

let windows t = List.rev t.diffs

let event t ev =
  match Flight_recorder.event_to_json ev with
  | Json.Obj fields -> t.emit (Json.Obj (("type", Json.Str "event") :: fields))
  | other -> t.emit other
