(* The benchmark's own tests: seeded inputs are reproducible, the
   percentile rule holds, the oracle agrees with the catalog, and each
   certificate mutation is rejected with its own code. *)

open Perfbench
module P = Entangle_serve.Protocol
module CE = Entangle_certexport


(* The bytes the daemon workloads send over [passes] passes. *)
let request_bytes ~seed ~passes =
  let reqs = Array.of_list (List.map Inputs.check_request (Inputs.build Inputs.checks)) in
  let b = Buffer.create (1 lsl 20) in
  for pass = 0 to passes - 1 do
    Array.iter
      (fun i -> Buffer.add_string b (P.request_to_string ~id:i reqs.(i)))
      (Inputs.order ~seed ~pass (Array.length reqs))
  done;
  Buffer.contents b

let same_seed_same_bytes () =
  let a = request_bytes ~seed:7 ~passes:3 and b = request_bytes ~seed:7 ~passes:3 in
  Alcotest.(check bool) "same seed, byte-identical requests" true (String.equal a b);
  Alcotest.(check bool)
    "another seed, another order" false
    (String.equal a (request_bytes ~seed:8 ~passes:3))

let order_is_a_permutation () =
  List.iter
    (fun seed ->
      let a = Inputs.order ~seed ~pass:3 30 in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "every item once" (Array.init 30 Fun.id) sorted)
    [ 0; 1; 42 ]

let percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int i) in
  Alcotest.(check bool) "100 samples leave 10 above p90" true (Stats.enough (xs 100) 90.);
  Alcotest.(check bool) "99 samples leave 9 above p90" false (Stats.enough (xs 99) 90.);
  for n = 1 to 400 do
    let a = xs n in
    if Stats.enough a 90. then
      Alcotest.(check bool)
        (Fmt.str "%d samples: at least %d above p90" n Stats.min_above)
        true
        (Stats.above a (Stats.percentile a 90.) >= Stats.min_above)
  done

(* The loop stops only once the rule holds, even when time is up. *)
let loop_meets_the_rule () =
  let request _ = { Workloads.ok = true; counts = Workloads.zero } in
  let l = Workloads.closed_loop ~seed:3 ~seconds:0.01 ~n:7 ~request () in
  Alcotest.(check bool) "enough samples above p90" true (Stats.enough l.Workloads.latencies 90.);
  Alcotest.(check int) "whole passes" 0 (l.Workloads.attempted mod 7);
  Alcotest.(check bool) "counts repeat" true l.Workloads.counts_repeat

(* The reference kernel's rings are single cycles: a walk of 2^bits
   steps visits every slot once and comes back to the start. *)
let ring_is_one_cycle () =
  let bits = 10 in
  let a = Host.ring bits in
  let n = 1 lsl bits in
  let seen = Array.make n false in
  let i = ref 0 in
  for _ = 1 to n do
    Alcotest.(check bool) "slot not visited yet" false seen.(!i);
    seen.(!i) <- true;
    i := Int32.to_int a.{!i}
  done;
  Alcotest.(check int) "back at the start" 0 !i

(* The collector counts what the checker emits: ended spans and
   instants, by "cat.name", whatever domain they come from. *)
let layers_count_events () =
  let coll = Layers.create () in
  let sink = Layers.sink coll in
  let module S = Entangle_trace.Sink in
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to 3 do
          S.span_begin sink ~cat:"iteration" "iteration";
          S.span_end sink ~cat:"iteration" "iteration"
        done;
        S.instant sink ~cat:"cache" "cache-hit";
        S.instant sink ~cat:"cache" "cache-hit")
  in
  Domain.join d;
  S.instant sink ~cat:"cache" "cache-miss";
  S.span sink ~cat:"serve" "check" ignore;
  Alcotest.(check int) "iterations" 3 (Layers.seen coll "iteration.iteration");
  Alcotest.(check int) "hits" 2 (Layers.seen coll "cache.cache-hit");
  Alcotest.(check int) "misses" 1 (Layers.seen coll "cache.cache-miss");
  Alcotest.(check int) "nothing else" 0 (Layers.seen coll "cache.cache-replay-failed");
  Alcotest.(check bool) "the serve span ended" true (Layers.await_served coll 1);
  Alcotest.(check bool) "no second serve span" false (Layers.await_served coll 2)

let oracle_matches_catalog () =
  List.iter
    (fun (c : Entangle_models.Bugs.case) ->
      let declared =
        match c.Entangle_models.Bugs.kind with
        | Entangle_models.Bugs.Refinement_failure -> Oracle.Refinement_failure
        | Entangle_models.Bugs.Expectation_violation -> Oracle.Expectation_violation
      in
      Alcotest.(check bool)
        (Fmt.str "bug %d has its Table-3 kind" c.Entangle_models.Bugs.id)
        true
        (Oracle.bug_kind c.Entangle_models.Bugs.id = declared))
    (Entangle_models.Bugs.all ())

let honest_bundle =
  lazy
    (let inst = Entangle_models.Regression.build ~microbatches:2 () in
     match Entangle_models.Instance.check inst with
     | Error _ -> Alcotest.fail "the regression model does not refine"
     | Ok success -> (
         match
           Entangle.Cert_export.bundle ~producer:"perfbench-test"
             ~gs:inst.Entangle_models.Instance.gs ~gd:inst.Entangle_models.Instance.gd
             ~env:inst.Entangle_models.Instance.env
             ~input_relation:inst.Entangle_models.Instance.input_relation success
         with
         | Ok b -> CE.Bundle.to_string b
         | Error e -> Alcotest.fail e))

let code_of text =
  match CE.Verify.check_string text with
  | Ok _ -> "accepted"
  | Error e -> CE.Cert_error.code_string e.CE.Cert_error.code

let passes_are_25_requests () =
  let honest = Lazy.force honest_bundle in
  Alcotest.(check int) "cold-sweep and warm-recheck" 25 (List.length Inputs.checks);
  Alcotest.(check int)
    "cert-verify" 25
    (List.length Inputs.certified
    + List.length (Inputs.tampered ~seed:0 [| honest; honest |]))

let mutations_yield_their_codes () =
  let honest = Lazy.force honest_bundle in
  Alcotest.(check string) "the honest bundle" "accepted" (code_of honest);
  for seed = 0 to 11 do
    List.iter
      (fun m ->
        let rng = Random.State.make [| seed |] in
        let tampered = Inputs.mutate rng m honest in
        Alcotest.(check string)
          (Fmt.str "%s, seed %d" (Oracle.mutation_name m) seed)
          (Oracle.mutation_code m) (code_of tampered);
        Alcotest.(check string)
          "same seed, same mutation" tampered
          (Inputs.mutate (Random.State.make [| seed |]) m honest))
      Oracle.mutations
  done

(* main.exe reports exactly the metrics BENCHMARK.json declares. *)
let metrics_match_declaration () =
  let json =
    match
      Entangle_trace.Json.parse
        (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let declared key =
    match Entangle_trace.Json.member key json with
    | Some (Entangle_trace.Json.Arr l) ->
        List.map
          (fun m ->
            match
              ( Entangle_trace.Json.member "name" m,
                Entangle_trace.Json.member "unit" m )
            with
            | Some (Entangle_trace.Json.Str n), Some (Entangle_trace.Json.Str u) -> (n, u)
            | _ -> Alcotest.fail "metric without name or unit")
          l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  Alcotest.(check (list (pair string string)))
    "per-layer metrics" (declared "per_layer") Workloads.per_layer;
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics" (declared "end_to_end") Workloads.end_to_end

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same request bytes" `Quick same_seed_same_bytes;
          Alcotest.test_case "each pass is a permutation" `Quick order_is_a_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "the loop meets the rule" `Quick loop_meets_the_rule;
          Alcotest.test_case "metrics match BENCHMARK.json" `Quick metrics_match_declaration;
        ] );
      ( "layers",
        [
          Alcotest.test_case "the kernel's rings are one cycle" `Quick ring_is_one_cycle;
          Alcotest.test_case "the collector counts events" `Quick layers_count_events;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "Table-3 kinds match the catalog" `Quick oracle_matches_catalog;
          Alcotest.test_case "each mutation yields its code" `Quick mutations_yield_their_codes;
          Alcotest.test_case "a pass is 25 requests" `Quick passes_are_25_requests;
        ] );
    ]
