(* The three workloads. Each is a closed loop with one caller: the next
   request goes out only when the previous verdict has come back and
   been checked against the oracle.

   - cold-sweep: in-process [Instance.check] with the cache off;
   - warm-recheck: [check] requests to an in-process daemon whose store
     the set-up filled, so every operator is a cache hit;
   - cert-verify: [cert-push] requests to an in-process daemon, with
     honest bundles and a seeded minority of tampered ones.

   The untraced run reports the end-to-end metrics. The traced run
   alternates passes without and with a span-collecting sink, and
   breaks each traced request down by layer: the spans the checker and
   the daemon already emit, plus calls into each layer's public
   functions made from here, right after the request and outside its
   timed interval. *)

open Entangle_models
module P = Entangle_serve.Protocol
module Srv = Entangle_serve.Server
module Cl = Entangle_serve.Client
module CE = Entangle_certexport
module Config = Entangle.Config
module Refine = Entangle.Refine

let now = Unix.gettimeofday

let time f =
  let t = now () in
  let r = f () in
  (now () -. t, r)

(* Median wall time of [reps] calls of [f], in seconds. *)
let median_time ?(reps = 3) f =
  Stats.median (List.init reps (fun _ -> fst (time (fun () -> ignore (f ())))))

(* --- deterministic counts ----------------------------------------------- *)

(* Work counts that depend only on the requests, never on timing: one
   pass sends every request once, so every pass of a run must produce
   the same counts. *)
type counts = {
  iterations : int;
  matches : int;
  unions : int;
  nodes_peak : int;
  operators : int;
  cache_hits : int;
  cache_misses : int;
  replays_failed : int;
  frame_bytes : int;
  bundle_bytes : int;
  rejects : int;
}

let zero =
  {
    iterations = 0;
    matches = 0;
    unions = 0;
    nodes_peak = 0;
    operators = 0;
    cache_hits = 0;
    cache_misses = 0;
    replays_failed = 0;
    frame_bytes = 0;
    bundle_bytes = 0;
    rejects = 0;
  }

let add a b =
  {
    iterations = a.iterations + b.iterations;
    matches = a.matches + b.matches;
    unions = a.unions + b.unions;
    nodes_peak = max a.nodes_peak b.nodes_peak;
    operators = a.operators + b.operators;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    replays_failed = a.replays_failed + b.replays_failed;
    frame_bytes = a.frame_bytes + b.frame_bytes;
    bundle_bytes = a.bundle_bytes + b.bundle_bytes;
    rejects = a.rejects + b.rejects;
  }

let of_stats (s : Refine.stats) =
  {
    zero with
    iterations = s.Refine.saturation_iterations;
    matches = s.Refine.matches_examined;
    unions = s.Refine.unions_applied;
    nodes_peak = s.Refine.egraph_nodes_peak;
    operators = s.Refine.operators_processed;
    cache_hits = s.Refine.cache_hits;
    cache_misses = s.Refine.cache_misses;
    replays_failed = s.Refine.cache_replays_failed;
  }

let counts_fields c =
  [
    ("egraph.iterations", c.iterations);
    ("egraph.matches", c.matches);
    ("egraph.unions", c.unions);
    ("egraph.nodes_peak", c.nodes_peak);
    ("core.operators", c.operators);
    ("cache.hits", c.cache_hits);
    ("cache.misses", c.cache_misses);
    ("cache.replays_failed", c.replays_failed);
    ("serve.frame_bytes", c.frame_bytes);
    ("certexport.bundle_bytes", c.bundle_bytes);
    ("certexport.rejects", c.rejects);
  ]

(* --- the closed loop ---------------------------------------------------- *)

type outcome = { ok : bool; counts : counts }

type loop = {
  latencies : float array;  (** seconds, one per request, sorted *)
  attempted : int;
  failed : int;
  elapsed_s : float;
  passes : int;
  pass_counts : counts;  (** the counts of one pass *)
  counts_repeat : bool;  (** every pass produced [pass_counts] *)
  plain_mean_s : float;  (** mean latency over the untraced passes *)
  traced_mean_s : float;  (** mean latency over the traced passes *)
  traced : (int * float * (string * float) list) list;
      (** per traced request: item, latency, and what [after] returned *)
  alloc_words : float;  (** allocated during the untraced requests *)
  major_collections : int;  (** completed during the untraced requests *)
  kernel_ms : float list;  (** the reference kernel's times around the passes *)
}

(* How a traced run sends a request, and what it reads after each one:
   [after] sees the request's index and latency (s) outside the timed
   interval and returns that request's per-layer times (ms) by metric
   name. *)
type traced = {
  traced_request : int -> outcome;
  after : int -> float -> (string * float) list;
}

(* Whole passes until [seconds] have gone by and the p90 has at least
   {!Stats.min_above} samples above it, or a hard cap is hit (then
   reported as a problem). With [traced], passes alternate between the
   plain and the traced request, so both see the same host; the loop
   then ends after a traced pass. The reference kernel runs before the
   first pass and after each pass ({!Host.sample}); [elapsed_s] leaves
   its runs out. *)
let closed_loop ~seed ~seconds ~n ~request ?traced () =
  let lat = ref [] and attempted = ref 0 and failed = ref 0 in
  let samples = ref [] in
  let words = ref 0. and majors = ref 0 in
  let sum = [| 0.; 0. |] and count = [| 0; 0 |] in
  let first = ref None and repeat = ref true in
  Gc.compact ();
  let kernel = ref [ Host.sample () ] and kernel_s = ref 0. in
  let t0 = now () in
  let cap = t0 +. (4. *. seconds) +. 20. in
  let pass = ref 0 in
  let period = if traced = None then 1 else 2 in
  let finished () =
    !pass mod period = 0
    && ((now () -. t0 >= seconds && Stats.enough (Stats.sorted !lat) 90.)
       || now () > cap)
  in
  while !pass < period || not (finished ()) do
    let kind = !pass mod period in
    let c = ref zero in
    Array.iter
      (fun i ->
        let g = Gc.quick_stat () in
        let t = now () in
        let o =
          match traced with
          | Some tr when kind = 1 -> tr.traced_request i
          | _ -> request i
        in
        let dt = now () -. t in
        if kind = 0 then begin
          let g' = Gc.quick_stat () in
          words :=
            !words +. (g'.Gc.minor_words -. g.Gc.minor_words)
            +. (g'.Gc.major_words -. g.Gc.major_words)
            -. (g'.Gc.promoted_words -. g.Gc.promoted_words);
          majors := !majors + g'.Gc.major_collections - g.Gc.major_collections
        end;
        lat := dt :: !lat;
        incr attempted;
        if not o.ok then incr failed;
        c := add !c o.counts;
        sum.(kind) <- sum.(kind) +. dt;
        count.(kind) <- count.(kind) + 1;
        match traced with
        | Some tr when kind = 1 -> samples := (i, dt, tr.after i dt) :: !samples
        | _ -> ())
      (Inputs.order ~seed ~pass:!pass n);
    (match !first with
    | None -> first := Some !c
    | Some c0 -> if c0 <> !c then repeat := false);
    let dt, k = time Host.sample in
    kernel := k :: !kernel;
    kernel_s := !kernel_s +. dt;
    incr pass
  done;
  let mean k = sum.(k) /. float_of_int (max 1 count.(k)) in
  {
    latencies = Stats.sorted !lat;
    attempted = !attempted;
    failed = !failed;
    elapsed_s = now () -. t0 -. !kernel_s;
    passes = !pass;
    pass_counts = Option.value ~default:zero !first;
    counts_repeat = !repeat;
    plain_mean_s = mean 0;
    traced_mean_s = mean 1;
    traced = List.rev !samples;
    alloc_words = !words;
    major_collections = !majors;
    kernel_ms = !kernel;
  }

let overhead_pct l = 100. *. ((l.traced_mean_s /. l.plain_mean_s) -. 1.)

(* --- the run record ----------------------------------------------------- *)

type result = {
  setup_s : float;  (** median over the set-up repetitions *)
  setup_reps : (float * float) list;
      (** each repetition: seconds, and the kernel's ms around it *)
  loop : loop;  (** the timed (untraced, or traced) loop *)
  peak_heap_mb : float;
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  problems : string list;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Repeat the whole set-up [reps] times from scratch, tearing down all
   but the last, and report the median duration: one set-up is a short
   interval, too noisy to compare on its own. Each repetition starts on
   a compacted heap, so none inherits another's collection debt, and
   the reference kernel runs right before and after it. Also returns
   each repetition's duration with the kernel's mean time around it. *)
let repeated_setup ~reps ~setup ~teardown =
  let rec go k times =
    Gc.compact ();
    let before = Host.sample () in
    let dt, s = time setup in
    let after = Host.sample () in
    let times = (dt, (before +. after) /. 2.) :: times in
    if k >= reps then (Stats.median (List.map fst times), List.rev times, s)
    else begin
      teardown s;
      go (k + 1) times
    end
  in
  go 1 []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* --- the per-layer table of a traced loop -------------------------------- *)

let ms s = s *. 1e3

(* A layer's time on one request, measured from here by running its
   work again: the faster of two runs, so that a collection landing in
   one run is not charged to the layer. In ms, with the result. *)
let layer_time f =
  let t1, _ = time f in
  let t2, r = time f in
  (ms (Float.min t1 t2), r)

(* Allocation and major collections per untraced request; Gc counts
   every domain, so on the daemon workloads this includes the daemon. *)
let gc_layers (l : loop) =
  let r = float_of_int (max 1 (l.attempted - List.length l.traced)) in
  [
    ("gc.alloc_mb_per_req", l.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6 /. r);
    ("gc.major_per_req", float_of_int l.major_collections /. r);
  ]

(* Per-request means of what [after] measured on the traced requests. *)
let layer_means (l : loop) =
  match l.traced with
  | [] -> []
  | (_, _, first) :: _ ->
      let r = float_of_int (List.length l.traced) in
      List.map
        (fun (name, _) ->
          ( name,
            List.fold_left (fun acc (_, _, t) -> acc +. List.assoc name t) 0. l.traced
            /. r ))
        first

(* Per-pass counts. The iteration and cache counts are what the
   checker's sink saw over the traced passes ({!Layers.seen}), so they
   are measured where the work happens, the daemon included; each must
   equal what the replies reported. The other counts come from the
   replies' [Refine.stats]. *)
let count_layers (l : loop) coll =
  let c = l.pass_counts in
  let per_request bytes =
    float_of_int bytes /. 1024. /. float_of_int (max 1 (l.attempted / l.passes))
  in
  let traced_passes = max 1 (l.passes / 2) in
  let seen =
    [
      ("egraph.iterations", "iteration.iteration", c.iterations);
      ("cache.hits", "cache.cache-hit", c.cache_hits);
      ("cache.misses", "cache.cache-miss", c.cache_misses);
      ("cache.replays_failed", "cache.cache-replay-failed", c.replays_failed);
    ]
  in
  let problems =
    List.filter_map
      (fun (name, key, replied) ->
        let n = Layers.seen coll key in
        if n = replied * traced_passes then None
        else
          Some
            (Fmt.str "%s: the sink saw %d over %d traced passes, the replies %d a pass"
               name n traced_passes replied))
      seen
  in
  ( List.map
      (fun (name, key, _) ->
        (name, float_of_int (Layers.seen coll key) /. float_of_int traced_passes))
      seen
    @ [
        ("egraph.matches", float_of_int c.matches);
        ("egraph.unions", float_of_int c.unions);
        ( "egraph.union_per_match",
          if c.matches = 0 then 0. else float_of_int c.unions /. float_of_int c.matches );
        ("egraph.nodes_peak", float_of_int c.nodes_peak);
        ("core.operators", float_of_int c.operators);
        ("certexport.rejects", float_of_int c.rejects);
        ("serve.frame_kb", per_request c.frame_bytes);
        ("certexport.bundle_kb", per_request c.bundle_bytes);
      ],
    problems )

(* One request's span times, in ms, by metric name. The daemon names
   its span after the verb, so every ["serve.*"] span is the handling. *)
let span_layers totals =
  let get key = ms (Layers.get totals key) in
  let handle =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > 6 && String.sub k 0 6 = "serve." then acc +. v else acc)
      0. totals
  in
  [
    ("egraph.saturate_ms", get "phase.saturate");
    ("core.frontier_ms", get "phase.frontier");
    ("core.extract_ms", get "phase.extract");
    ("cache.lookup_ms", get "cache.cache-lookup");
    ("serve.handle_ms", ms handle);
  ]

(* The layers whose spans the checker emits on every search. *)
let search_layers =
  [ "egraph.saturate_ms"; "core.frontier_ms"; "core.extract_ms"; "cache.lookup_ms" ]

(* Layers timed outside a request, by running the same work again,
   jitter around what they took inside it. Over a traced loop the
   disjoint layers may exceed the mean latency by at most
   [mean_tolerance]; any one request's layers by at most
   [request_tolerance] plus [request_slack_ms]. *)
let mean_tolerance = 0.10
let request_tolerance = 0.5
let request_slack_ms = 2.

(* The per-layer table of a traced loop. [attributed] names the layers
   that are disjoint parts of a request's latency; what they leave of
   it is [core.unattributed_ms]. A layer in [zero_layers] must do no
   work on this workload. [coll] is the traced passes' collector. *)
let layer_table (l : loop) coll ~attributed ~zero_layers =
  let sum t = List.fold_left (fun acc n -> acc +. List.assoc n t) 0. attributed in
  let over =
    List.filter
      (fun (_, dt, t) -> sum t > (ms dt *. (1. +. request_tolerance)) +. request_slack_ms)
      l.traced
  in
  let means = layer_means l in
  let latency_ms = ms l.traced_mean_s in
  let counted, disagree = count_layers l coll in
  let layers =
    means @ counted @ gc_layers l
    @ [
        ("core.unattributed_ms", latency_ms -. sum means);
        ("trace.overhead_pct", overhead_pct l);
      ]
  in
  let problems =
    disagree
    @ (if sum means <= latency_ms *. (1. +. mean_tolerance) then []
     else
       [
         Fmt.str "layers sum to %.3f ms, more than the %.3f ms mean latency + %.0f%%"
           (sum means) latency_ms (100. *. mean_tolerance);
       ])
    @ (if over = [] then []
       else
         [
           Fmt.str "%d of %d traced requests: layers exceed the latency by more than %.0f%% + %.0f ms"
             (List.length over) (List.length l.traced)
             (100. *. request_tolerance) request_slack_ms;
         ])
    @ List.filter_map
        (fun name ->
          match List.assoc_opt name layers with
          | Some v when v <> 0. -> Some (Fmt.str "%s is %g, expected 0" name v)
          | _ -> None)
        zero_layers
  in
  (layers, problems)

(* A wrong answer is a failed operation; say which, once per item. *)
let reported = Hashtbl.create 8

let wrong label what =
  if not (Hashtbl.mem reported label) then begin
    Hashtbl.add reported label ();
    Printf.eprintf "perfbench: %s: %s\n%!" label what
  end

(* --- the in-process daemon ---------------------------------------------- *)

type daemon = { domain : unit Domain.t; client : Cl.t }

let start_daemon ?cache ~config ~socket () =
  match Srv.create ~config ?cache ~socket () with
  | Error e -> failwith ("cannot start the daemon: " ^ Srv.error_message e)
  | Ok server -> (
      let domain = Domain.spawn (fun () -> Srv.run server) in
      match Cl.connect ~client:"perfbench" ~timeout_s:120. ~socket () with
      | Ok client -> { domain; client }
      | Error e ->
          (match Cl.connect ~socket () with
          | Ok c -> ignore (Cl.shutdown c)
          | Error _ -> ());
          Domain.join domain;
          failwith ("cannot connect to the daemon: " ^ Cl.error_message e))

let stop_daemon d =
  ignore (Cl.shutdown d.client);
  Domain.join d.domain

(* --- cold-sweep --------------------------------------------------------- *)

let local_verdict ~config (b : Inputs.built) =
  let failure_tag (f : Refine.failure) =
    match f.Refine.verdict with
    | Refine.Unmapped _ -> "unmapped"
    | Refine.Inconclusive _ -> "inconclusive"
    | Refine.Internal _ -> "internal"
  in
  match b.Inputs.expectation with
  | None -> (
      match Instance.check ~config b.Inputs.inst with
      | Ok s -> ("refines", s.Refine.stats)
      | Error f -> (failure_tag f, f.Refine.stats))
  | Some (fs, fd) -> (
      let inst = b.Inputs.inst in
      match
        Entangle.Expectation.check ~config
          ~rules:(Entangle_lemmas.Registry.rules_for_model inst.Instance.family)
          ~gs:inst.Instance.gs ~gd:inst.Instance.gd
          ~input_relation:inst.Instance.input_relation ~fs ~fd ()
      with
      | Ok s -> ("refines", s.Refine.stats)
      | Error v ->
          ( "expectation-violated",
            match v.Entangle.Expectation.refinement with
            | Ok s -> s.Refine.stats
            | Error f -> f.Refine.stats ))

let lint_ms (inst : Instance.t) =
  fst
    (layer_time (fun () ->
         ( Entangle_analysis.Graph_check.check inst.Instance.gs,
           Entangle_analysis.Graph_check.check inst.Instance.gd )))

(* The set-up builds every instance and checks each once, untimed, so
   that the timed passes start with the lemma rules built and the heap
   grown, as every later request finds them. *)
let cold_sweep ~seed ~seconds ~traced ~setup_reps =
  let setup () =
    let built = Array.of_list (Inputs.build Inputs.checks) in
    Array.iter (fun b -> ignore (local_verdict ~config:Config.default b)) built;
    built
  in
  let setup_s, setup_reps, built = repeated_setup ~reps:setup_reps ~setup ~teardown:ignore in
  let n = Array.length built in
  let request config i =
    let b = built.(i) in
    let expected = Oracle.verdict_name (Inputs.expected_local b.Inputs.item) in
    match local_verdict ~config b with
    | exception e ->
        wrong b.Inputs.item.Inputs.label ("raised " ^ Printexc.to_string e);
        { ok = false; counts = zero }
    | verdict, stats ->
        let ok = verdict = expected && stats.Refine.cache_hits = 0 in
        if not ok then
          wrong b.Inputs.item.Inputs.label
            (Fmt.str "%s (%d cache hits), expected %s" verdict stats.Refine.cache_hits
               expected);
        { ok; counts = of_stats stats }
  in
  if not traced then
    let loop = closed_loop ~seed ~seconds ~n ~request:(request Config.default) () in
    { setup_s; setup_reps; loop; peak_heap_mb = peak_heap_mb (); layers = []; problems = [] }
  else begin
    let coll = Layers.create () in
    let config = Config.with_trace (Layers.sink coll) Config.default in
    let after i _ =
      span_layers (Layers.take coll)
      @ [ ("analysis.lint_ms", lint_ms built.(i).Inputs.inst) ]
    in
    let loop =
      closed_loop ~seed ~seconds ~n ~request:(request Config.default)
        ~traced:{ traced_request = request config; after }
        ()
    in
    let layers, problems =
      layer_table loop coll
        ~attributed:("analysis.lint_ms" :: search_layers)
        ~zero_layers:[ "cache.hits"; "cache.misses"; "cache.lookup_ms"; "serve.handle_ms" ]
    in
    { setup_s; setup_reps; loop; peak_heap_mb = peak_heap_mb (); layers; problems }
  end

(* --- the daemon workloads ----------------------------------------------- *)

(* The serve codec on one exchange: encoding both frames, then decoding
   both, in ms. *)
let codec_layers req resp =
  let encode, (req_s, resp_s) =
    layer_time (fun () ->
        (P.request_to_string ~id:1 req, P.response_to_string ~id:1 resp))
  in
  let decode, _ =
    layer_time (fun () -> (P.request_of_string req_s, P.response_of_string resp_s))
  in
  [ ("serve.encode_ms", encode); ("serve.decode_ms", decode) ]

let frame_bytes req = String.length (P.request_to_string ~id:0 req)

(* A traced daemon run keeps the set-up's daemon for the plain passes
   and starts a second one, whose configuration carries the span
   collector, for the traced passes. After each traced request,
   [probes state i resp] times the layers of request [i], whose reply
   was [resp], by calling into them from here. *)
let daemon_workload ~seed ~seconds ~traced ~setup_reps ~items ~setup
    ~start_traced ~teardown ~request ~probes ~attributed ~zero_layers () =
  let setup_s, setup_reps, state = repeated_setup ~reps:setup_reps ~setup ~teardown in
  Fun.protect
    ~finally:(fun () -> teardown state)
    (fun () ->
      let n = items state in
      let last = ref None in
      let req d i =
        let o, resp = request state d i in
        last := resp;
        o
      in
      if not traced then
        let loop = closed_loop ~seed ~seconds ~n ~request:(req None) () in
        { setup_s; setup_reps; loop; peak_heap_mb = peak_heap_mb (); layers = []; problems = [] }
      else begin
        let coll = Layers.create () in
        let d = start_traced state (Layers.sink coll) in
        Fun.protect
          ~finally:(fun () -> stop_daemon d)
          (fun () ->
            let sent = ref 0 and late = ref 0 in
            let after i dt =
              incr sent;
              if not (Layers.await_served coll !sent) then incr late;
              let spans = span_layers (Layers.take coll) in
              ("serve.rtt_ms", ms dt)
              :: ("serve.wire_ms", ms dt -. List.assoc "serve.handle_ms" spans)
              :: spans
              @
              match !last with
              | Some resp -> probes state i resp
              | None -> failwith "no reply to probe"
            in
            let loop =
              closed_loop ~seed ~seconds ~n ~request:(req None)
                ~traced:{ traced_request = req (Some d); after }
                ()
            in
            let layers, problems =
              layer_table loop coll
                ~attributed:(("serve.wire_ms" :: search_layers) @ attributed)
                ~zero_layers
            in
            let problems =
              if !late = 0 then problems
              else
                Fmt.str "%d traced requests: the daemon's serve span had not ended 1 s after the reply"
                  !late
                :: problems
            in
            { setup_s; setup_reps; loop; peak_heap_mb = peak_heap_mb (); layers; problems })
      end)

(* --- warm-recheck ------------------------------------------------------- *)

type warm = {
  wbuilt : Inputs.built array;
  wreqs : P.request array;
  wdaemon : daemon;
  wstore : string;
}

let open_cache dir =
  match Entangle_cache.Cache.create ~dir () with
  | Ok c -> c
  | Error e -> failwith ("cannot open the store: " ^ e)

let check_outcome (b : Inputs.built) req = function
  | Ok (P.Checked r as resp) ->
      let s = r.P.stats in
      let expected = Oracle.verdict_name (Inputs.expected_daemon b.Inputs.item) in
      let ok =
        r.P.verdict = expected && s.Refine.cache_misses = 0
        && s.Refine.cache_replays_failed = 0 && s.Refine.cache_hits > 0
        && s.Refine.saturation_iterations = 0
      in
      if not ok then
        wrong b.Inputs.item.Inputs.label
          (Fmt.str "%s (%d hits, %d misses, %d iterations), expected a cached %s"
             r.P.verdict s.Refine.cache_hits s.Refine.cache_misses
             s.Refine.saturation_iterations expected);
      ({ ok; counts = { (of_stats s) with frame_bytes = frame_bytes req } }, Some resp)
  | Ok _ | Error _ ->
      wrong b.Inputs.item.Inputs.label "no verdict";
      ({ ok = false; counts = zero }, None)

(* The operators a check of [inst] processes and the relation entries
   it seeds each with: its inputs' mappings and the sequential inputs'.
   Taken from one cached local check, whose provenance lists exactly
   the operators it looked up. *)
let keyed_operators cache (inst : Instance.t) =
  let config = Config.with_cache (Some cache) Config.default in
  let relation, processed =
    match Instance.check ~config inst with
    | Ok s -> (s.Refine.full_relation, List.map fst s.Refine.cache_provenance)
    | Error f ->
        (f.Refine.partial_relation, List.map fst f.Refine.cache_provenance @ [ f.Refine.operator ])
  in
  let bindings = Entangle.Relation.bindings relation in
  List.map
    (fun v ->
      let inputs = Entangle_ir.Node.inputs v in
      ( v,
        List.filter
          (fun (t, _) ->
            List.exists (Entangle_ir.Tensor.equal t) inputs
            || Entangle_ir.Graph.is_input inst.Instance.gs t)
          bindings ))
    (List.sort_uniq
       (fun a b -> compare (Entangle_ir.Node.id a) (Entangle_ir.Node.id b))
       processed)

let warm_recheck ~seed ~seconds ~traced ~setup_reps ~dir =
  let socket = Filename.concat dir "warm.sock" in
  let rep = ref 0 in
  let setup () =
    incr rep;
    let wbuilt = Array.of_list (Inputs.build Inputs.checks) in
    let wreqs = Array.map Inputs.check_request wbuilt in
    let wstore = Filename.concat dir (Fmt.str "store-%d" !rep) in
    let wdaemon =
      start_daemon ~cache:(open_cache wstore) ~config:Config.default ~socket ()
    in
    (* The fill: one cold pass, answered like any check. *)
    Array.iteri
      (fun i req ->
        let b = wbuilt.(i) in
        match Cl.request wdaemon.client req with
        | Ok (P.Checked r)
          when r.P.verdict = Oracle.verdict_name (Inputs.expected_daemon b.Inputs.item) ->
            ()
        | _ -> failwith ("fill pass: wrong reply for " ^ b.Inputs.item.Inputs.label))
      wreqs;
    { wbuilt; wreqs; wdaemon; wstore }
  in
  let teardown w =
    stop_daemon w.wdaemon;
    rm_rf w.wstore
  in
  let start_traced w sink =
    start_daemon ~cache:(open_cache w.wstore)
      ~config:(Config.with_trace sink Config.default)
      ~socket:(Filename.concat dir "warm-traced.sock")
      ()
  in
  let request w d i =
    let d = Option.value d ~default:w.wdaemon in
    check_outcome w.wbuilt.(i) w.wreqs.(i) (Cl.request d.client w.wreqs.(i))
  in
  (* The layers of a hit, timed from here: parsing the request's graphs
     and relation, linting them, the two graph fingerprint environments,
     and the cache key of every operator the check processes, each on a
     fresh context as the checker builds one per check. *)
  let scratch = lazy (open_cache (Filename.concat dir "probe-store")) in
  let keyed = Hashtbl.create 32 in
  let probes w i resp =
    let b = w.wbuilt.(i) in
    let inst = b.Inputs.inst in
    let gs = inst.Instance.gs and gd = inst.Instance.gd in
    let parse, _ =
      match w.wreqs.(i) with
      | P.Check { gs = s; gd = d; relation; _ } ->
          layer_time (fun () ->
              match (Entangle_ir.Serial.graph_of_sexp s, Entangle_ir.Serial.graph_of_sexp d) with
              | Ok gs', Ok gd' -> ignore (Entangle.Relation_io.of_sexp ~gs:gs' ~gd:gd' relation)
              | _ -> failwith "request graphs do not parse")
      | _ -> invalid_arg "warm-recheck sends check requests"
    in
    let graph_env, _ =
      layer_time (fun () ->
          ( Entangle_fingerprint.Fingerprint.graph_env gs,
            Entangle_fingerprint.Fingerprint.graph_env gd ))
    in
    let ops =
      match Hashtbl.find_opt keyed i with
      | Some ops -> ops
      | None ->
          let ops = keyed_operators (Lazy.force scratch) inst in
          Hashtbl.add keyed i ops;
          ops
    in
    let keys =
      match
        Entangle_cache.Cache.context (Lazy.force scratch)
          ~config_fp:(Config.search_fingerprint Config.default)
          ~whole_graph:false
          ~rules:(Entangle_lemmas.Registry.rules_for_model inst.Instance.family)
          ~gs ~gd
      with
      | None -> 0.
      | Some ctx ->
          fst
            (layer_time (fun () ->
                 List.iter (fun (v, seeds) -> ignore (Entangle_cache.Cache.key ctx ~seeds v)) ops))
    in
    [
      ("ir.parse_ms", parse);
      ("analysis.lint_ms", lint_ms inst);
      ("fingerprint.graph_env_ms", graph_env);
      ("fingerprint.keys_ms", keys);
    ]
    @ codec_layers w.wreqs.(i) resp
  in
  daemon_workload ~seed ~seconds ~traced ~setup_reps
    ~items:(fun w -> Array.length w.wbuilt)
    ~setup ~start_traced ~teardown ~request ~probes
    ~attributed:[ "ir.parse_ms"; "analysis.lint_ms"; "fingerprint.graph_env_ms"; "fingerprint.keys_ms" ]
    ~zero_layers:[ "egraph.iterations"; "egraph.saturate_ms"; "cache.misses" ]
    ()

(* --- cert-verify -------------------------------------------------------- *)

type cert = {
  bundles : (string * Oracle.mutation option * string) array;
      (** label, the mutation a tampered copy carries, the text *)
  cdaemon : daemon;
}

let cert_verify ~seed ~seconds ~traced ~setup_reps ~dir =
  let socket = Filename.concat dir "cert.sock" in
  let setup () =
    let built = Array.of_list (Inputs.build Inputs.certified) in
    let cdaemon = start_daemon ~config:Config.default ~socket () in
    let honest =
      Array.map
        (fun b ->
          match Cl.request cdaemon.client (Inputs.fetch_request b) with
          | Ok (P.Cert_bundle { bundle }) -> bundle
          | _ -> failwith ("cert-fetch: no bundle for " ^ b.Inputs.item.Inputs.label))
        built
    in
    let tampered =
      List.mapi
        (fun k (m, b) -> (Fmt.str "tampered-%d-%s" k (Oracle.mutation_name m), Some m, b))
        (Inputs.tampered ~seed honest)
    in
    let honest =
      Array.mapi (fun i b -> (built.(i).Inputs.item.Inputs.label, None, b)) honest
    in
    { bundles = Array.append honest (Array.of_list tampered); cdaemon }
  in
  let teardown c = stop_daemon c.cdaemon in
  let start_traced _ sink =
    start_daemon
      ~config:(Config.with_trace sink Config.default)
      ~socket:(Filename.concat dir "cert-traced.sock")
      ()
  in
  let request c d i =
    let d = Option.value d ~default:c.cdaemon in
    let label, m, bundle = c.bundles.(i) in
    let req = P.Cert_push { bundle } in
    match Cl.request d.client req with
    | Ok (P.Cert_verdict_reply v as resp) ->
        let expected = Option.map Oracle.mutation_code m in
        let ok = v.P.accepted = (m = None) && v.P.cert_code = expected in
        if not ok then
          wrong label
            (Fmt.str "%s, expected %s"
               (Option.value v.P.cert_code ~default:"accepted")
               (Option.value expected ~default:"accepted"));
        ( {
            ok;
            counts =
              {
                zero with
                frame_bytes = frame_bytes req;
                bundle_bytes = String.length bundle;
                rejects = (if v.P.accepted then 0 else 1);
              };
          },
          Some resp )
    | Ok _ | Error _ ->
        wrong label "no verdict";
        ({ ok = false; counts = zero }, None)
  in
  (* The minimal verifier's two stages, timed from here. *)
  let probes c i resp =
    let _, _, bundle = c.bundles.(i) in
    let parse, parsed = layer_time (fun () -> CE.Bundle.of_string bundle) in
    let verify =
      match parsed with
      | Ok b -> fst (layer_time (fun () -> CE.Verify.check b))
      | Error _ -> 0.
    in
    [ ("certexport.parse_ms", parse); ("certexport.verify_ms", verify) ]
    @ codec_layers (P.Cert_push { bundle }) resp
  in
  daemon_workload ~seed ~seconds ~traced ~setup_reps
    ~items:(fun c -> Array.length c.bundles)
    ~setup ~start_traced ~teardown ~request ~probes
    ~attributed:[ "certexport.parse_ms"; "certexport.verify_ms" ]
    ~zero_layers:[ "egraph.iterations"; "egraph.saturate_ms"; "cache.hits"; "cache.lookup_ms" ]
    ()

(* The end-to-end metrics an untraced run reports, with their units,
   in the order BENCHMARK.json lists them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("req_p50_ms", "ms");
    ("req_p90_ms", "ms");
    ("req_per_s", "1/s");
    ("peak_heap_mb", "MB");
  ]

(* Every per-layer metric a traced run reports, with its unit, in the
   order BENCHMARK.json lists them. *)
let per_layer =
  [
    ("egraph.saturate_ms", "ms");
    ("core.frontier_ms", "ms");
    ("core.extract_ms", "ms");
    ("egraph.iterations", "count");
    ("egraph.matches", "count");
    ("egraph.unions", "count");
    ("egraph.union_per_match", "ratio");
    ("egraph.nodes_peak", "count");
    ("core.operators", "count");
    ("analysis.lint_ms", "ms");
    ("fingerprint.graph_env_ms", "ms");
    ("fingerprint.keys_ms", "ms");
    ("fingerprint.sha256_mb_per_s", "MB/s");
    ("cache.lookup_ms", "ms");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.replays_failed", "count");
    ("ir.parse_ms", "ms");
    ("serve.rtt_ms", "ms");
    ("serve.handle_ms", "ms");
    ("serve.wire_ms", "ms");
    ("serve.encode_ms", "ms");
    ("serve.decode_ms", "ms");
    ("serve.frame_kb", "KB");
    ("certexport.parse_ms", "ms");
    ("certexport.verify_ms", "ms");
    ("certexport.bundle_kb", "KB");
    ("certexport.rejects", "count");
    ("gc.alloc_mb_per_req", "MB");
    ("gc.major_per_req", "count");
    ("core.unattributed_ms", "ms");
    ("trace.overhead_pct", "%");
    ("host.ref_ms", "ms");
  ]

(* --- host diagnostics ---------------------------------------------------- *)

let sha256_mb_per_s () =
  let buf = String.init (1 lsl 20) (fun i -> Char.chr ((i * 7) land 0xff)) in
  1. /. median_time (fun () -> Entangle_fingerprint.Sha256.hex buf) *. float_of_int (1 lsl 20) /. 1e6
