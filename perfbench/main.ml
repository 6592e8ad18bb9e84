(* perfbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the last line of standard output is a JSON object
   with the end-to-end metrics; with --trace 1 it carries the per-layer
   metrics instead. The line before it is a record of the run: the
   reference kernel's times and the calibration drawn from them, the
   end-to-end metrics as measured, the deterministic counts of one
   pass, and any problem found. *)

open Perfbench

let workloads = [ "cold-sweep"; "warm-recheck"; "cert-verify" ]

let usage =
  "usage: main.exe --workload (cold-sweep|warm-recheck|cert-verify) --seed N \
   --seconds S --trace 0|1"

let die msg =
  prerr_endline msg;
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> die usage
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> die usage in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> die usage in
  let workload = get "workload" in
  if not (List.mem workload workloads) then die ("unknown workload: " ^ workload);
  let seconds = int "seconds" in
  if seconds < 1 then die usage;
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> die usage
  in
  (workload, int "seed", float_of_int seconds, trace)

module J = Entangle_trace.Jsonw

let metric (value, unit) = J.Obj [ ("value", J.Float value); ("unit", J.Str unit) ]

let () =
  let workload, seed, seconds, traced = parse_args () in
  let run_root = ".perfbench-run" in
  let dir = Filename.concat run_root (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir run_root 0o755 with Sys_error _ -> ());
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      Workloads.rm_rf dir;
      try Sys.rmdir run_root with Sys_error _ -> ());
  Host.prepare ();
  (* A traced run reports no set-up time, so it sets up once. *)
  let setup_reps = if traced then 1 else 3 in
  let r =
    match workload with
    | "cold-sweep" ->
        Workloads.cold_sweep ~seed ~seconds ~traced ~setup_reps
    | "warm-recheck" ->
        Workloads.warm_recheck ~seed ~seconds ~traced ~setup_reps ~dir
    | _ -> Workloads.cert_verify ~seed ~seconds ~traced ~setup_reps ~dir
  in
  let sha = if traced then Workloads.sha256_mb_per_s () else 0. in
  let l = r.Workloads.loop in
  let kernel = List.map Host.total (Host.samples ()) in
  (* The end-to-end metrics as measured; [calibrated] brings the times
     to the reference host's speed (see host.ml). *)
  let raw =
    [
      ("setup_s", r.Workloads.setup_s);
      ("req_p50_ms", 1e3 *. Stats.percentile l.Workloads.latencies 50.);
      ("req_p90_ms", 1e3 *. Stats.percentile l.Workloads.latencies 90.);
      ("req_per_s", float_of_int l.Workloads.attempted /. l.Workloads.elapsed_s);
      ("peak_heap_mb", r.Workloads.peak_heap_mb);
    ]
  in
  (* Each set-up repetition is calibrated by the kernel's time around
     it, and the loop's times by the kernel's median time around its
     passes: the host can change speed between set-up and loop. *)
  let calibration = Host.calibration_at (Stats.median l.Workloads.kernel_ms) in
  let calibrated =
    List.map
      (fun (name, v) ->
        match name with
        | "peak_heap_mb" -> (name, v)
        | "setup_s" ->
            ( name,
              Stats.median
                (List.map
                   (fun (s, k) -> s *. Host.calibration_at k)
                   r.Workloads.setup_reps) )
        | "req_per_s" -> (name, v /. calibration)
        | _ -> (name, v *. calibration))
      raw
  in
  let problems =
    r.Workloads.problems
    @ (if l.Workloads.counts_repeat then []
       else [ "deterministic counts differ between passes" ])
    @
    if Stats.enough l.Workloads.latencies 90. then []
    else [ "fewer than 10 samples above p90" ]
  in
  let record =
    J.Obj
      [
        ("workload", J.Str workload);
        ("seed", J.Int seed);
        ("traced", J.Bool traced);
        ("host_ref_ms_start", J.Float (List.hd kernel));
        ("host_ref_ms_end", J.Float (List.nth kernel (List.length kernel - 1)));
        ("host_ref_ms_median", J.Float (Host.median_ms ()));
        ( "host_ref_parts_ms",
          J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (Host.part_medians ())) );
        ("host_ref_samples", J.Int (List.length kernel));
        ("calibration", J.Float calibration);
        ("raw", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) raw));
        ( "setup_reps",
          J.Arr
            (List.map
               (fun (s, k) -> J.Arr [ J.Float s; J.Float k ])
               r.Workloads.setup_reps) );
        ("domains", J.Int (Domain.recommended_domain_count ()));
        ("ocaml", J.Str Sys.ocaml_version);
        ( "ocamlrunparam",
          J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
        ("passes", J.Int l.Workloads.passes);
        ("samples", J.Int l.Workloads.attempted);
        ( "samples_above_p90",
          J.Int
            (Stats.above l.Workloads.latencies
               (Stats.percentile l.Workloads.latencies 90.)) );
        ( "pass_counts",
          J.Obj
            (List.map
               (fun (k, v) -> (k, J.Int v))
               (Workloads.counts_fields l.Workloads.pass_counts)) );
        ("problems", J.Arr (List.map (fun p -> J.Str p) problems));
      ]
  in
  let metrics =
    if not traced then
      List.map
        (fun (name, unit) -> (name, (List.assoc name calibrated, unit)))
        Workloads.end_to_end
    else
      let layers =
        ("fingerprint.sha256_mb_per_s", sha)
        :: ("host.ref_ms", Host.median_ms ())
        :: r.Workloads.layers
      in
      List.map
        (fun (name, unit) ->
          (* a layer this workload never calls did no work *)
          (name, (Option.value ~default:0. (List.assoc_opt name layers), unit)))
        Workloads.per_layer
  in
  print_endline (J.to_string (J.Obj [ ("record", record) ]));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (l.Workloads.failed = 0 && problems = []));
            ("attempted", J.Int l.Workloads.attempted);
            ("failed", J.Int l.Workloads.failed);
            ("metrics", J.Obj (List.map (fun (k, m) -> (k, metric m)) metrics));
          ]))
