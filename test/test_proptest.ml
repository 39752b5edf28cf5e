(* Tests for the property-testing builder: operation semantics, the
   weighted sequence generator (QCheck-fuzzed bounds/purity), derived
   monitors, sequence-level shrinking, engine identity, and the
   guarded/unguarded acceptance contrast. *)

open Automode_core
open Automode_robust
open Automode_proptest
open Automode_casestudy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let describe_all ops = String.concat "; " (List.map Op.describe ops)

(* ------------------------------------------------------------------ *)
(* Operations                                                         *)
(* ------------------------------------------------------------------ *)

let test_op_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "negative tick rejected" true
    (raises (fun () -> Op.command ~flow:"x" ~value:(Value.Int 1) ~at:(-1) ()));
  checkb "non-positive hold rejected" true
    (raises (fun () -> Op.silence ~flow:"x" ~at:0 ~hold:0));
  checkb "non-positive down rejected" true
    (raises (fun () -> Op.reset ~flows:[ "x" ] ~at:2 ~down:0));
  checkb "valid op accepted" true
    (match Op.command ~flow:"x" ~value:(Value.Int 1) ~at:0 () with
     | Op.Command _ -> true
     | _ -> false)

let flow_at fn flow tick =
  match List.assoc_opt flow (fn tick) with
  | Some m -> m
  | None -> Value.Absent

let test_op_compile_semantics () =
  let ramp tick = [ ("x", Value.Present (Value.Int tick)) ] in
  (* a command overrides the flow for exactly its window *)
  let cmd = Op.command ~flow:"x" ~value:(Value.Int 99) ~at:3 ~hold:2 () in
  let fn = Fault.apply (Op.compile cmd) ramp in
  checkb "before window untouched" true
    (Value.equal_message (flow_at fn "x" 2) (Value.Present (Value.Int 2)));
  checkb "window overridden" true
    (Value.equal_message (flow_at fn "x" 3) (Value.Present (Value.Int 99))
     && Value.equal_message (flow_at fn "x" 4) (Value.Present (Value.Int 99)));
  checkb "after window untouched" true
    (Value.equal_message (flow_at fn "x" 5) (Value.Present (Value.Int 5)));
  (* a crash silences the flow permanently from its tick *)
  let crash = Op.crash ~flows:[ "x" ] ~at:4 in
  let fn = Fault.apply (Op.compile crash) ramp in
  checkb "alive before crash" true
    (Value.equal_message (flow_at fn "x" 3) (Value.Present (Value.Int 3)));
  checkb "silent from crash tick on" true
    (Value.equal_message (flow_at fn "x" 4) Value.Absent
     && Value.equal_message (flow_at fn "x" 40) Value.Absent);
  (* a reset comes back after its outage *)
  let reset = Op.reset ~flows:[ "x" ] ~at:2 ~down:3 in
  let fn = Fault.apply (Op.compile reset) ramp in
  checkb "down during reset" true
    (Value.equal_message (flow_at fn "x" 2) Value.Absent
     && Value.equal_message (flow_at fn "x" 4) Value.Absent);
  checkb "back after reset" true
    (Value.equal_message (flow_at fn "x" 5) (Value.Present (Value.Int 5)))

let test_op_describe_stable () =
  checks "command describe"
    "cmd x:=99@t3..5"
    (Op.describe (Op.command ~flow:"x" ~value:(Value.Int 99) ~at:3 ~hold:2 ()));
  checks "crash describe" "crash {a,b}@t7"
    (Op.describe (Op.crash ~flows:[ "a"; "b" ] ~at:7))

(* ------------------------------------------------------------------ *)
(* Sequence generator (QCheck fuzz)                                   *)
(* ------------------------------------------------------------------ *)

let fuzz_gens =
  [ Opgen.command ~weight:3 ~flow:"a" ~values:[ Value.Int 1; Value.Int 2 ] ();
    Opgen.silence ~weight:2 ~flow:"b" ();
    Opgen.spike ~weight:2 ~flow:"a" ~values:[ Value.Float 9. ] ();
    Opgen.reset ~weight:1 ~flows:[ "a"; "b" ] ();
    Opgen.crash ~weight:1 ~flows:[ "b" ] () ]

let qcheck_expand_bounds =
  QCheck.Test.make ~name:"expand respects length and horizon bounds"
    ~count:200
    QCheck.(triple (int_range 1 1000) (int_range 1 20) (int_range 0 6))
    (fun (seed, iteration, min_ops) ->
      let max_ops = min_ops + 5 in
      let horizon = 30 in
      let ops =
        Opgen.expand ~gens:fuzz_gens ~min_ops ~max_ops ~horizon ~seed
          ~iteration
      in
      let n = List.length ops in
      min_ops <= n && n <= max_ops
      && List.for_all
           (fun op ->
             let t = Op.start_tick op in
             0 <= t && t < horizon)
           ops
      &&
      (* sorted by start tick *)
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          Op.start_tick a <= Op.start_tick b && sorted rest
        | _ -> true
      in
      sorted ops)

let qcheck_expand_pure =
  QCheck.Test.make ~name:"expansion is pure in (seed, iteration)" ~count:200
    QCheck.(pair (int_range 1 10_000) (int_range 1 50))
    (fun (seed, iteration) ->
      let go () =
        Opgen.expand ~gens:fuzz_gens ~min_ops:1 ~max_ops:8 ~horizon:40 ~seed
          ~iteration
      in
      String.equal (describe_all (go ())) (describe_all (go ())))

let qcheck_weight_zero_never_drawn =
  QCheck.Test.make ~name:"weight-0 generator is never drawn" ~count:100
    QCheck.(pair (int_range 1 1000) (int_range 1 20))
    (fun (seed, iteration) ->
      let gens =
        fuzz_gens
        @ [ Opgen.crash ~weight:0 ~flows:[ "forbidden" ] () ]
      in
      Opgen.expand ~gens ~min_ops:4 ~max_ops:8 ~horizon:40 ~seed ~iteration
      |> List.for_all (fun op ->
             not (List.mem "forbidden" (Op.flows op))))

let test_weights_shape_distribution () =
  (* deterministic frequency check: weight 3 commands must out-draw
     weight 1 crashes over a few hundred expansions *)
  let count pred =
    List.init 100 (fun seed ->
        Opgen.expand ~gens:fuzz_gens ~min_ops:4 ~max_ops:8 ~horizon:40
          ~seed:(seed + 1) ~iteration:1)
    |> List.concat
    |> List.filter pred
    |> List.length
  in
  let cmds = count (function Op.Command _ -> true | _ -> false) in
  let crashes = count (function Op.Crash _ -> true | _ -> false) in
  checkb
    (Printf.sprintf "weight 3 (%d draws) > weight 1 (%d draws)" cmds crashes)
    true
    (cmds > crashes)

let test_expand_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "inverted bounds rejected" true
    (raises (fun () ->
         Opgen.expand ~gens:fuzz_gens ~min_ops:5 ~max_ops:2 ~horizon:40
           ~seed:1 ~iteration:1));
  checkb "all-zero weights rejected" true
    (raises (fun () ->
         Opgen.expand
           ~gens:[ Opgen.crash ~weight:0 ~flows:[ "x" ] () ]
           ~min_ops:1 ~max_ops:2 ~horizon:40 ~seed:1 ~iteration:1));
  checkb "negative weight rejected" true
    (raises (fun () -> Opgen.crash ~weight:(-1) ~flows:[ "x" ] ()))

(* ------------------------------------------------------------------ *)
(* Derived monitors                                                   *)
(* ------------------------------------------------------------------ *)

let trace_of rows ~flows =
  List.fold_left Trace.record (Trace.make ~flows) rows

let test_derive_finite () =
  let m = Derive.finite ~flow:"x" in
  let ok =
    trace_of ~flows:[ "x" ]
      [ [ ("x", Value.Present (Value.Float 1.)) ]; [] ]
  in
  let bad =
    trace_of ~flows:[ "x" ]
      [ [ ("x", Value.Present (Value.Float 1.)) ];
        [ ("x", Value.Present (Value.Float Float.nan)) ] ]
  in
  checkb "finite passes" true (Monitor.eval m ok = Monitor.Pass);
  checkb "NaN fails at its tick" true
    (match Monitor.eval m bad with
     | Monitor.Fail { at_tick = 1; _ } -> true
     | _ -> false)

let test_derive_conforms () =
  let m = Derive.conforms ~flow:"x" ~ty:Dtype.Tbool in
  let ok = trace_of ~flows:[ "x" ] [ [ ("x", Value.Present (Value.Bool true)) ] ] in
  let bad = trace_of ~flows:[ "x" ] [ [ ("x", Value.Present (Value.Int 3)) ] ] in
  checkb "conforming value passes" true (Monitor.eval m ok = Monitor.Pass);
  checkb "ill-typed value fails" true
    (Monitor.is_fail (Monitor.eval m bad))

let test_derive_fresh () =
  let m = Derive.fresh ~flow:"x" ~max_gap:2 in
  let v = Value.Present (Value.Int 1) in
  let ok =
    trace_of ~flows:[ "x" ] [ []; []; [ ("x", v) ]; []; []; [ ("x", v) ] ]
  in
  let stale =
    trace_of ~flows:[ "x" ] [ [ ("x", v) ]; []; []; []; [ ("x", v) ] ]
  in
  checkb "startup silence and small gaps pass" true
    (Monitor.eval m ok = Monitor.Pass);
  checkb "gap over max_gap fails" true (Monitor.is_fail (Monitor.eval m stale))

let test_derive_monitors_from_ports () =
  let names =
    List.map Monitor.name
      (Derive.monitors ~ranges:[ ("FZG_V", 5., 32.) ] Door_lock.component)
  in
  checkb "one conforms monitor per typed output" true
    (List.mem "derived-type:T1C" names && List.mem "derived-type:T4C" names);
  checkb "range monitor appended" true
    (List.mem "derived-range:FZG_V" names);
  (* enum outputs are not numeric: no finite monitors for the door lock *)
  checkb "no finite monitor for enum-only outputs" true
    (not (List.exists (fun n ->
         String.length n >= 14 && String.sub n 0 14 = "derived-finite") names))

(* ------------------------------------------------------------------ *)
(* Builder: engines, determinism, shrinking                           *)
(* ------------------------------------------------------------------ *)

let seeds = [ 1; 2; 3; 4; 5 ]

let test_engines_identical () =
  let text engine =
    Builder.to_text
      (Builder.run (Builder.with_engine engine Propcase.unguarded) ~seeds)
  in
  let indexed = text Builder.Indexed in
  checks "interpreted == indexed" indexed (text Builder.Interpreted)

let test_campaign_deterministic () =
  let go () = Builder.to_text (Builder.run Propcase.unguarded ~seeds) in
  let a = go () in
  checks "rerun byte-identical" a (go ());
  checks "4 domains byte-identical" a (Parallel.with_domains 4 go)

(* The executor batches the indexed engine's cases through the
   struct-of-arrays engine, while the interpreted oracle loops (over
   domains, too); the campaign (cases, verdicts, shrunk counterexamples)
   must be byte-identical either way. *)
let test_campaign_batched_identical () =
  let go spec = Builder.to_text (Builder.run spec ~seeds) in
  let interpreted = Builder.with_engine Builder.Interpreted Propcase.unguarded in
  let batched = go Propcase.unguarded in
  checks "interpreted loop == batched" batched (go interpreted);
  checks "interpreted loop, 4 domains == batched" batched
    (Parallel.with_domains 4 (fun () -> go interpreted))

(* Prefix sharing is on by default; the campaign text must equal the
   looped (~prefix_share:false) run, shrinking included, also with the
   instance axis sharded over domains. *)
let test_campaign_prefix_identical () =
  let go ?prefix_share () =
    Builder.to_text (Builder.run ?prefix_share Propcase.unguarded ~seeds)
  in
  let looped = go ~prefix_share:false () in
  checks "shared == looped" looped (go ());
  checks "shared, 4 domains == looped" looped (Parallel.with_domains 4 go);
  checks "looped, 4 domains == looped" looped
    (Parallel.with_domains 4 (go ~prefix_share:false))

let rec is_subseq small big =
  match (small, big) with
  | [], _ -> true
  | _, [] -> false
  | s :: st, b :: bt ->
    if s == b then is_subseq st bt else is_subseq small bt

let test_shrunk_is_subsequence () =
  let campaign = Builder.run Propcase.unguarded ~seeds in
  checkb "found failures" true (campaign.Builder.failures <> []);
  List.iter
    (fun (fl : Builder.failure) ->
      match fl.Builder.shrunk with
      | None -> Alcotest.fail "failure not shrunk"
      | Some o ->
        let case =
          List.find
            (fun (c : Builder.case) ->
              c.Builder.seed = fl.Builder.fail_seed
              && c.Builder.iteration = fl.Builder.fail_iteration)
            campaign.Builder.cases
        in
        checkb "shrunk ops are a genuine subsequence" true
          (is_subseq o.Builder.shrunk_ops case.Builder.ops);
        checkb "shrunk sequence is small" true
          (List.length o.Builder.shrunk_ops <= 10);
        checkb "shrunk horizon within original" true
          (o.Builder.shrunk_ticks <= Propcase.horizon))
    campaign.Builder.failures

let test_shrunk_replays () =
  (* the minimal sequence, re-run from scratch, still fails the same
     monitor — the bit-for-bit replay claim *)
  let campaign = Builder.run Propcase.unguarded ~seeds:[ 4 ] in
  List.iter
    (fun (fl : Builder.failure) ->
      match fl.Builder.shrunk with
      | None -> Alcotest.fail "failure not shrunk"
      | Some o ->
        let verdicts =
          Builder.run_ops Propcase.unguarded ~seed:fl.Builder.fail_seed
            ~ops:o.Builder.shrunk_ops ~ticks:o.Builder.shrunk_ticks
        in
        checkb "minimal sequence still fails its monitor" true
          (match List.assoc_opt fl.Builder.fail_monitor verdicts with
           | Some (Monitor.Fail { reason; _ }) ->
             String.equal reason o.Builder.shrunk_reason
           | _ -> false))
    campaign.Builder.failures

let test_acceptance_contrast () =
  let c = Propcase.run ~seeds () in
  checkb "unguarded fails under generated sequences" true
    (c.Propcase.unguarded.Builder.failures <> []);
  checki "guarded passes every seed and iteration" 0
    (List.length c.Propcase.guarded.Builder.failures);
  checkb "contrast holds" true (Propcase.contrast_holds c);
  (* every unguarded failure carries a shrunk counterexample *)
  checkb "all failures shrunk" true
    (List.for_all
       (fun (f : Builder.failure) -> f.Builder.shrunk <> None)
       c.Propcase.unguarded.Builder.failures)

let test_builder_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "negative horizon rejected" true
    (raises (fun () ->
         Builder.spec ~name:"x" ~component:Door_lock.component ~ticks:(-1) ()));
  checkb "non-positive iterations rejected" true
    (raises (fun () -> Builder.with_iterations 0 Propcase.unguarded));
  checkb "inverted op bounds rejected" true
    (raises (fun () ->
         Builder.with_ops ~min_ops:4 ~max_ops:1 Propcase.generators
           Propcase.unguarded))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-proptest"
    [ ( "op",
        [ Alcotest.test_case "validation" `Quick test_op_validation;
          Alcotest.test_case "compile semantics" `Quick
            test_op_compile_semantics;
          Alcotest.test_case "describe stable" `Quick test_op_describe_stable ]
      );
      ( "opgen",
        qsuite
          [ qcheck_expand_bounds; qcheck_expand_pure;
            qcheck_weight_zero_never_drawn ]
        @ [ Alcotest.test_case "weights shape the distribution" `Quick
              test_weights_shape_distribution;
            Alcotest.test_case "validation" `Quick test_expand_validation ] );
      ( "derive",
        [ Alcotest.test_case "finite" `Quick test_derive_finite;
          Alcotest.test_case "conforms" `Quick test_derive_conforms;
          Alcotest.test_case "fresh" `Quick test_derive_fresh;
          Alcotest.test_case "monitors from ports" `Quick
            test_derive_monitors_from_ports ] );
      ( "builder",
        [ Alcotest.test_case "engines trace-identical" `Quick
            test_engines_identical;
          Alcotest.test_case "campaign deterministic" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "campaign batched identical" `Quick
            test_campaign_batched_identical;
          Alcotest.test_case "campaign prefix identical" `Quick
            test_campaign_prefix_identical;
          Alcotest.test_case "shrunk is a subsequence" `Quick
            test_shrunk_is_subsequence;
          Alcotest.test_case "shrunk replays bit-for-bit" `Quick
            test_shrunk_replays;
          Alcotest.test_case "guarded/unguarded contrast" `Quick
            test_acceptance_contrast;
          Alcotest.test_case "validation" `Quick test_builder_validation ] ) ]
