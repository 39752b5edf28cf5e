(* Benchmark harness: one experiment per figure of the paper (DESIGN.md
   Sec. 5, E1..E12 plus ablations).  Each experiment first regenerates its
   paper artifact (diagram, trace, report) and then times the implementing
   code path with Bechamel.  Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Automode_core
open Automode_la
open Automode_transform
open Automode_casestudy
open Automode_workloads

let line () = print_endline (String.make 72 '-')

let section title =
  line ();
  print_endline title;
  line ()

(* ------------------------------------------------------------------ *)
(* Artifact regeneration (the "figures")                              *)
(* ------------------------------------------------------------------ *)

let regenerate_artifacts () =
  section "E1 | Fig. 1: message-based time-synchronous communication";
  print_string (Trace.to_string (Door_lock.demo_trace ~ticks:10 ()));

  section "E2 | Fig. 2: explicit sampling with when / every(2, true)";
  print_string (Trace.to_string (Sampling.demo_trace ~ticks:8 ~factor:2 ()));

  section "E4 | Fig. 4: SSD on the FAA level + conflict rules";
  let faa = Workloads.faa_network ~n:12 ~conflict_every:4 in
  print_string (Render.component_to_string faa.Model.model_root);
  let findings = Faa_rules.run faa in
  Printf.printf "rules: %s\n" (Faa_rules.summary findings);

  section "E5 | Fig. 5: longitudinal momentum controller DFD";
  print_string (Render.component_to_string Momentum.component);
  (match
     Causality.evaluation_order
       (match Momentum.component.Model.comp_behavior with
        | Model.B_dfd net -> net
        | _ -> assert false)
   with
   | Ok order -> Printf.printf "causal order: %s\n" (String.concat " -> " order)
   | Error _ -> ());

  section "E6 | Fig. 6: engine operation modes MTD";
  Format.printf "%a" Render.mtd Engine_modes.mtd;
  let product = Engine_modes.global_mode_system in
  Printf.printf
    "global mode transition system: %d modes, %d transitions (deterministic: %b)\n"
    (List.length product.Model.mtd_modes)
    (List.length product.Model.mtd_transitions)
    (Mtd.deterministic product);

  section "E7 | Fig. 7: simplified engine controller CCD + OSEK conditions";
  print_string (Render.component_to_string Engine_ccd.component);
  Printf.printf "OSEK well-definedness violations: %d (delay on %s present)\n"
    (List.length
       (Well_defined.check ~target:Well_defined.osek_fixed_priority
          Engine_ccd.ccd))
    "idle_to_fuel";

  section "E8 | Fig. 8 + Sec. 5: white-box reengineering case study";
  let _, report = Engine_ascet.reengineer () in
  Format.printf "%a" Reengineer.pp_report report;
  let expr_total model =
    let n = ref 0 in
    Model.iter_components
      (fun _ (c : Model.component) ->
        match c.Model.comp_behavior with
        | Model.B_exprs outs ->
          List.iter (fun (_, e) -> n := !n + Simplify.size e) outs
        | _ -> ())
      model.Model.model_root;
    !n
  in
  let plain, _ = Reengineer.whitebox ~simplify:false Engine_ascet.ascet_model in
  let simp, _ = Reengineer.whitebox ~simplify:true Engine_ascet.ascet_model in
  Printf.printf
    "expression nodes after reengineering: %d raw, %d simplified (-%d%%)\n"
    (expr_total plain) (expr_total simp)
    (100 * (expr_total plain - expr_total simp) / Stdlib.max 1 (expr_total plain));

  section "E3 | Fig. 3: abstraction-level pipeline FAA/FDA -> LA/TA -> OA";
  let r = Pipeline.run () in
  Format.printf "%a" Pipeline.pp_summary r;

  section "E9 | Sec. 4: black-box reengineering from a communication matrix";
  let faa_bb = Body_matrix.faa_of Body_matrix.handcrafted in
  Printf.printf "partial FAA from %d matrix entries: %d vehicle functions\n"
    (List.length Body_matrix.handcrafted.Automode_osek.Comm_matrix.entries)
    (match faa_bb.Model.model_root.comp_behavior with
     | Model.B_ssd net -> List.length net.net_components
     | _ -> 0);

  section "E10 | Sec. 4 / 3.3: MTD -> mode-port DFD and partitionable dataflow";
  let refactored = Refactor.mtd_to_mode_port_dfd Throttle.component in
  Printf.printf "mode-port DFD blocks: %d\n"
    (match refactored.Model.comp_behavior with
     | Model.B_dfd net -> List.length net.net_components
     | _ -> 0);
  let part = Mtd_to_dataflow.transform Throttle.component in
  Printf.printf "partitionable clusters: %s\n"
    (String.concat ", "
       (List.map (fun (c : Cluster.t) -> c.cluster_name) part.Ccd.clusters));

  section "E11 | Sec. 3.3: implementation types and quantization";
  List.iter
    (fun (lo, hi, res) ->
      match Impl_type.smallest_container ~lo ~hi ~resolution:res with
      | Some impl ->
        Printf.printf
          "range [%g, %g] @ %g -> %s (step %s, error bound %s)\n" lo hi res
          (Impl_type.to_string impl)
          (match Impl_type.quantization_step impl with
           | Some s -> Printf.sprintf "%.3g" s
           | None -> "-")
          (match Impl_type.quantization_error_bound impl with
           | Some b -> Printf.sprintf "%.3g" b
           | None -> "-")
      | None -> Printf.printf "range [%g, %g] @ %g -> (no container)\n" lo hi res)
    [ (0., 10., 0.1); (-100., 100., 0.01); (0., 8000., 1.); (-1., 1., 1e-6) ];

  section "infra | persistence, static analysis, variants";
  let fda, _ = Engine_ascet.reengineer () in
  let text = Automode_syntax.Model_printer.to_string fda in
  Printf.printf "serialized reengineered model: %d bytes; reparse equal: %b\n"
    (String.length text)
    ((Automode_syntax.Model_parser.parse text).Model.model_root
    = fda.Model.model_root);
  Printf.printf "static check of the reengineered model: %s\n"
    (Static_check.summary (Static_check.model fda));
  Printf.printf "central-locking variants: %s\n"
    (String.concat ", "
       (List.map fst (Variants.configurations Central_locking.family)));

  section "E12 | Sec. 3.4: generated ASCET projects";
  List.iter
    (fun (p : Automode_codegen.Ascet_project.project) ->
      Printf.printf "project %s: %d bytes\n" p.project_ecu
        (String.length p.project_text))
    (Automode_codegen.Ascet_project.generate Engine_ccd.deployment);

  section "E13 | robustness: seeded fault-injection campaigns";
  print_string
    (Automode_robust.Report.to_text
       (Robustness.door_lock_campaign ~seeds:[ 1; 2; 3; 4 ] ()));
  print_endline "\nengine deployment under CAN loss + timing faults:";
  Robustness.pp_engine_campaign Format.std_formatter
    (Robustness.engine_campaign ~seeds:[ 1; 2 ] ());

  section "E14 | graceful degradation: guarded vs. unguarded";
  Guarded.pp_comparison Format.std_formatter
    (Guarded.door_lock_comparison ~shrink:false ~seeds:[ 1; 2; 3; 4 ] ());
  print_endline "guarded engine deployment (E2E frames + watchdog):";
  Robustness.pp_engine_campaign Format.std_formatter
    (Guarded.guarded_engine_campaign ~seeds:[ 1; 2 ] ());

  section "E15 | redundancy: replicated vs. unreplicated";
  Replicated.pp_report Format.std_formatter
    (Replicated.campaign ~shrink:false ~seeds:[ 1; 2; 3; 4 ] ());
  print_endline "dual-channel TT schedule (fault-free):";
  Format.printf "%a@." Automode_osek.Tt_bus.pp_result
    (Automode_osek.Tt_bus.simulate
       (Replicated.tt_schedule ~dual:true)
       ~horizon:200_000);

  section "E16 | observability: deterministic metrics registry";
  (* instrumented door-lock crash scenario: the metrics dump below is a
     pure function of the simulation, byte-identical across reruns *)
  let m = Automode_obs.Metrics.create () in
  Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m) (fun () ->
      ignore
        (Sim.run ~ticks:64 ~inputs:Door_lock.crash_scenario
           Door_lock.component);
      Automode_guard.Health.observe
        (Sim.run ~ticks:64 ~inputs:Robustness.lock_stimulus Guarded.component));
  print_string (Automode_obs.Metrics.to_text m)

(* E16's overhead claim: full metrics on the E3 pipeline cost < 10 %.
   Min-of-reps wall clock so scheduler noise cancels; the bound is only
   asserted in full bench mode (never in the --artifacts-only CI smoke,
   whose shared runners make wall-clock bounds flaky). *)
let e16_overhead ~assert_bound () =
  section "E16 | observability: instrumentation overhead on the E3 pipeline";
  let reps = 5 in
  let min_time f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let base = min_time (fun () -> Pipeline.run ~equiv_ticks:50 ()) in
  let m = Automode_obs.Metrics.create () in
  let sink = Automode_obs.Probe.standard m in
  let instr =
    min_time (fun () ->
        Automode_obs.Metrics.reset m;
        Automode_obs.Probe.with_sink sink (fun () ->
            Pipeline.run ~equiv_ticks:50 ()))
  in
  let overhead = 100. *. (instr -. base) /. base in
  Printf.printf
    "E3 pipeline, min of %d runs: %.1f ms uninstrumented, %.1f ms with \
     full metrics (overhead %+.1f%%)\n"
    reps (base *. 1e3) (instr *. 1e3) overhead;
  if assert_bound then
    if overhead < 10. then print_endline "overhead bound < 10%: OK"
    else begin
      Printf.printf "overhead bound < 10%%: FAILED (%+.1f%%)\n" overhead;
      exit 1
    end

(* E17: the solo fast path ([run_indexed], a width-1 batch) vs. the
   interpreted oracle on the same workload, and the domain-parallel
   campaign sweep vs. serial.  Engine speedups are asserted in full
   bench mode; the parallel speedup additionally needs actual cores (a
   single-CPU runner can only lose wall clock to domain overhead, while
   the byte-identity of the reports holds anywhere and is asserted
   whenever the section runs). *)
let e17_speedups ~domains ~assert_bounds () =
  section "E17 | indexed engine + domain-parallel campaign sweeps";
  let reps = 5 in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let min_time f =
    let best = ref infinity in
    for _ = 1 to reps do
      best := Float.min !best (time_once f)
    done;
    !best
  in
  (* engine speedup: same workloads as ablation/engine-sim-indexed-500t
     and E5/dfd-sim-200-32t; each bound is the retired closure engine's
     3x gate times that engine's own lead over the oracle (2.0x and
     3.1x), so the gate is no looser than the one it replaces *)
  let fda, _ = Engine_ascet.reengineer () in
  let fda_inputs tick =
    List.map
      (fun (n, v) -> (n, Value.Present v))
      (Engine_ascet.drive_inputs tick)
  in
  let dfd = Workloads.random_dfd_component ~seed:42 ~n:200 in
  let dfd_inputs t = [ ("src", Value.Present (Value.Float (float_of_int t))) ] in
  (* oracle and indexed samples alternate, so a load spike on a shared
     box hits both sides of the ratio rather than one *)
  let engine_rows =
    List.map
      (fun (name, comp, inputs, ticks, bound) ->
        let indexed = Sim.index comp in
        let t_o = ref infinity and t_i = ref infinity in
        for _ = 1 to 2 * reps do
          t_o :=
            Float.min !t_o (time_once (fun () -> Sim.run ~ticks ~inputs comp));
          t_i :=
            Float.min !t_i
              (time_once (fun () -> Sim.run_indexed ~ticks ~inputs indexed))
        done;
        (name, !t_o, !t_i, !t_o /. !t_i, bound))
      [ ("engine-fda-500t", fda.Model.model_root, fda_inputs, 500, 6.);
        ("random-dfd-200-32t", dfd, dfd_inputs, 32, 9.) ]
  in
  Printf.printf "%-22s %14s %14s %9s\n" "workload" "oracle ms" "indexed ms"
    "speedup";
  List.iter
    (fun (name, t_o, t_i, r, _) ->
      Printf.printf "%-22s %14.2f %14.2f %8.2fx\n" name (t_o *. 1e3)
        (t_i *. 1e3) r)
    engine_rows;
  if assert_bounds then
    List.iter
      (fun (name, _, _, r, bound) ->
        if r >= bound then
          Printf.printf "%s speedup >= %gx: OK\n" name bound
        else begin
          Printf.printf "%s speedup >= %gx: FAILED (%.2fx)\n" name bound r;
          exit 1
        end)
      engine_rows;
  (* campaign sweep: the E13 door-lock campaign, 16 seeds, horizon scaled
     up so per-seed work dominates the domain-spawn overhead *)
  let scn =
    Automode_robust.Scenario.make ~schedule:Robustness.lock_schedule
      ~events:Robustness.lock_events ~name:"door-lock-xl" ~component:Door_lock.component ~ticks:2000
      ~inputs:Robustness.lock_stimulus ~faults:Robustness.lock_faults
      ~monitors:Robustness.lock_monitors ()
  in
  let seeds = List.init 16 (fun i -> i + 1) in
  let sweep ~domains () =
    Automode_robust.Parallel.with_domains domains (fun () ->
        Automode_robust.Scenario.sweep ~shrink:false scn ~seeds)
  in
  let serial_report = sweep ~domains:1 () in
  let parallel_report = sweep ~domains () in
  let identical =
    String.equal
      (Automode_robust.Report.to_text serial_report)
      (Automode_robust.Report.to_text parallel_report)
    && String.equal
         (Automode_robust.Report.to_csv serial_report)
         (Automode_robust.Report.to_csv parallel_report)
  in
  let t_serial = min_time (fun () -> sweep ~domains:1 ()) in
  let t_par = min_time (fun () -> sweep ~domains ()) in
  let speedup = t_serial /. t_par in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "door-lock campaign, 16 seeds, 2000t: serial %.1f ms, %d domains %.1f \
     ms (%.2fx on %d core%s); reports byte-identical: %b\n"
    (t_serial *. 1e3) domains (t_par *. 1e3) speedup cores
    (if cores = 1 then "" else "s")
    identical;
  if not identical then begin
    print_endline "serial vs parallel report identity: FAILED";
    exit 1
  end;
  if assert_bounds then
    if cores < 4 then
      Printf.printf
        "parallel speedup > 1.5x: skipped (%d core%s available)\n" cores
        (if cores = 1 then "" else "s")
    else if speedup > 1.5 then print_endline "parallel speedup > 1.5x: OK"
    else begin
      Printf.printf "parallel speedup > 1.5x: FAILED (%.2fx)\n" speedup;
      exit 1
    end

(* E18: the campaign service's content-addressed verdict cache.  A warm
   sweep (every per-seed verdict spliced from the cache) must return a
   report byte-identical to the cold compute and to the plain uncached
   sweep — asserted whenever the section runs — and be substantially
   faster (asserted in full bench mode only).  Returns (name, ns/run)
   rows for the JSON dump. *)
let e18_cache ~assert_bounds () =
  section "E18 | campaign-as-a-service: content-addressed verdict cache";
  let reps = 5 in
  let min_time f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let module Serve = Automode_serve in
  let scn = Robustness.door_lock_scenario in
  let seeds = List.init 8 (fun i -> i + 1) in
  (* cold: a fresh cache per run, so every seed is computed and stored *)
  let t_cold =
    min_time (fun () ->
        Serve.Cached.sweep ~cache:(Serve.Cache.create ()) ~shrink:false scn
          ~seeds)
  in
  let cache = Serve.Cache.create () in
  let cold_report =
    Automode_robust.Report.to_text
      (Serve.Cached.sweep ~cache ~shrink:false scn ~seeds)
  in
  let warm () = Serve.Cached.sweep ~cache ~shrink:false scn ~seeds in
  let warm_report = Automode_robust.Report.to_text (warm ()) in
  let t_warm = min_time warm in
  let plain_report =
    Automode_robust.Report.to_text
      (Automode_robust.Scenario.sweep ~shrink:false scn ~seeds)
  in
  let identical =
    String.equal cold_report warm_report
    && String.equal cold_report plain_report
  in
  let speedup = t_cold /. t_warm in
  Printf.printf
    "door-lock campaign, 8 seeds: cold %.2f ms, warm (all %d seeds from \
     cache) %.2f ms (%.1fx); reports byte-identical: %b\n"
    (t_cold *. 1e3) (List.length seeds) (t_warm *. 1e3) speedup identical;
  if not identical then begin
    print_endline "cold vs warm report identity: FAILED";
    exit 1
  end;
  if assert_bounds then
    if speedup >= 2. then print_endline "warm-cache speedup >= 2x: OK"
    else begin
      Printf.printf "warm-cache speedup >= 2x: FAILED (%.2fx)\n" speedup;
      exit 1
    end;
  [ ("serve/E18-campaign-cold-8seeds", t_cold *. 1e9);
    ("serve/E18-campaign-warm-8seeds", t_warm *. 1e9) ]

(* E19: the property-testing builder's abstraction cost.  The same 16
   (seed, iteration) cases of the unguarded door-lock spec are run once
   through [Builder.run] and once through a hand-assembled loop (expand
   the operations, compile the fault list, derive the crash-event
   schedule, simulate on the pre-built index, judge every monitor).
   Verdict identity is asserted whenever the section runs; the <= 1.2x
   overhead bound only gates full bench runs.  Returns (name, ns/run)
   rows for the JSON dump. *)
let e19_proptest ~assert_bounds () =
  section "E19 | property-testing builder: overhead vs hand-assembled loop";
  let reps = 5 in
  let min_time f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let module P = Automode_proptest in
  let module R = Automode_robust in
  let spec = Propcase.unguarded in
  let seeds = List.init 8 (fun i -> i + 1) in
  let iterations = P.Builder.iterations spec in
  P.Builder.prepare spec;
  let builder () = P.Builder.run ~shrink:false spec ~seeds in
  let monitors =
    P.Derive.monitors ~ranges:[ ("FZG_V", 5., 32.) ] Door_lock.component
  in
  let indexed = Sim.index Door_lock.component in
  let base name tick =
    String.equal name "crash" && tick = Robustness.crash_tick
  in
  let hand () =
    List.concat_map
      (fun seed ->
        List.init iterations (fun i ->
            let iteration = i + 1 in
            let ops = P.Builder.expand spec ~seed ~iteration in
            let faults = List.concat_map P.Op.compile ops in
            let crash_faults =
              List.filter
                (fun f -> String.equal (R.Fault.flow f) "CRSH")
                faults
            in
            let schedule =
              R.Fault.schedule_of_faults ~base crash_faults ~event:"crash"
            in
            let inputs = R.Fault.apply faults Robustness.lock_stimulus in
            let trace =
              Sim.run_indexed ~schedule ~ticks:Robustness.lock_ticks ~inputs
                indexed
            in
            List.map
              (fun m -> (R.Monitor.name m, R.Monitor.eval m trace))
              monitors))
      seeds
  in
  let builder_verdicts =
    List.map (fun c -> c.P.Builder.verdicts) (builder ()).P.Builder.cases
  in
  let identical = builder_verdicts = hand () in
  let t_builder = min_time builder in
  let t_hand = min_time hand in
  let overhead = t_builder /. t_hand in
  Printf.printf
    "unguarded door-lock spec, 8 seeds x %d iterations: builder %.2f ms, \
     hand-assembled loop %.2f ms (%.2fx); verdicts identical: %b\n"
    iterations (t_builder *. 1e3) (t_hand *. 1e3) overhead identical;
  if not identical then begin
    print_endline "builder vs hand-assembled verdict identity: FAILED";
    exit 1
  end;
  if assert_bounds then
    if overhead <= 1.2 then print_endline "builder overhead <= 1.2x: OK"
    else begin
      Printf.printf "builder overhead <= 1.2x: FAILED (%.2fx)\n" overhead;
      exit 1
    end;
  [ ("proptest/E19-builder-16cases", t_builder *. 1e9);
    ("proptest/E19-hand-16cases", t_hand *. 1e9) ]

(* E20: bounded-exhaustive litmus synthesis, cold vs. warm per-scenario
   classification cache.  The warm run answers every scenario from the
   cache, so its report must be byte-identical to the cold compute —
   asserted whenever the section runs — and at least 2x faster (full
   bench mode only).  Returns (name, ns/run) rows for the JSON dump. *)
let e20_litmus ~assert_bounds () =
  section "E20 | litmus synthesis: enumeration throughput, cold vs warm cache";
  let reps = 5 in
  let min_time f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let module Serve = Automode_serve in
  let module Synth = Automode_litmus.Synth in
  let bound = 2 in
  let t_cold =
    min_time (fun () ->
        Serve.Catalog.litmus_result ~cache:(Serve.Cache.create ()) ~bound ())
  in
  let cache = Serve.Cache.create () in
  let cold = Serve.Catalog.litmus_result ~cache ~bound () in
  let warm () = Serve.Catalog.litmus_result ~cache ~bound () in
  let warm_r = warm () in
  let t_warm = min_time warm in
  let identical = String.equal (Synth.to_text cold) (Synth.to_text warm_r) in
  let speedup = t_cold /. t_warm in
  Printf.printf
    "door-lock twin, bound %d: %d scenarios enumerated, %d unique; cold \
     %.1f ms (%.0f scenarios/s), warm (all classifications from cache) \
     %.1f ms (%.1fx); reports byte-identical: %b\n"
    bound cold.Synth.res_enumerated cold.Synth.res_unique (t_cold *. 1e3)
    (float_of_int cold.Synth.res_evaluated /. t_cold)
    (t_warm *. 1e3) speedup identical;
  if not identical then begin
    print_endline "cold vs warm report identity: FAILED";
    exit 1
  end;
  if assert_bounds then
    if speedup >= 2. then print_endline "warm-cache speedup >= 2x: OK"
    else begin
      Printf.printf "warm-cache speedup >= 2x: FAILED (%.2fx)\n" speedup;
      exit 1
    end;
  [ ("litmus/E20-enum-cold-k2", t_cold *. 1e9);
    ("litmus/E20-enum-warm-k2", t_warm *. 1e9) ]

(* E21: the struct-of-arrays batched engine vs. looping [run_indexed]
   (one width-1 batch per instance) over the instance axis.  One batch
   steps 1000 divergent instances of the 200-node random DFD; the pinned
   instance-ticks/sec ratio and the per-instance trace identity (looped
   vs batched vs domain-sharded) are asserted whenever the section runs
   — the ratio compares two measurements from the same process, so it
   is stable even on noisy CI runners.  The bound was >= 10x while the
   looped reference ran the per-node indexed stepper; routing it through
   width-1 batches made that reference 1.038x slower (median
   change/parent ratio of 20 alternating pairs, 2-core shared VM), so
   the bound is 10 x 1.038, rounded up: no looser than before.  The
   looped and cold batched samples alternate (min of [reps] each, as in
   E17), so a load spike on a shared box hits both sides of the ratio
   rather than one.  Returns (name, ns/run) rows for the JSON dump. *)
let e21_batch ~domains () =
  section "E21 | batched engine: instance axis vs looped run_indexed";
  let bound = 10.4 in
  let reps = 5 in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let min_time f =
    let best = ref infinity in
    for _ = 1 to reps do
      best := Float.min !best (time_once f)
    done;
    !best
  in
  let dfd = Workloads.random_dfd_component ~seed:42 ~n:200 in
  let ix = Sim.index dfd in
  let instances = 1000 in
  let ticks = 32 in
  (* per-instance stimuli diverge, so every instance simulates a
     different trajectory through the same compiled net *)
  let inputs i t =
    [ ( "src",
        Value.Present
          (Value.Float (float_of_int t +. (0.25 *. float_of_int i))) ) ]
  in
  let looped () =
    Array.init instances (fun i ->
        Sim.run_indexed ~ticks ~inputs:(inputs i) ix)
  in
  let cold () =
    let b = Sim.batch ~instances ix in
    Sim.run_batch ~ticks ~inputs b;
    b
  in
  let t_loop = ref infinity and t_cold = ref infinity in
  for _ = 1 to reps do
    t_loop := Float.min !t_loop (time_once looped);
    t_cold := Float.min !t_cold (time_once cold)
  done;
  let t_loop = !t_loop and t_cold = !t_cold in
  let b = Sim.batch ~instances ix in
  let t_warm = min_time (fun () -> Sim.run_batch ~ticks ~inputs b) in
  let reference = looped () in
  let identical_to_reference () =
    let ok = ref true in
    for i = 0 to instances - 1 do
      if
        not
          (String.equal
             (Trace.to_csv (Sim.batch_trace b ~instance:i))
             (Trace.to_csv reference.(i)))
      then ok := false
    done;
    !ok
  in
  Sim.run_batch ~ticks ~inputs b;
  let identical = identical_to_reference () in
  Sim.run_batch ~shards:domains
    ~map:(fun thunks ->
      ignore
        (Automode_robust.Parallel.map ~domains (fun f -> f ()) thunks))
    ~ticks ~inputs b;
  let identical_sharded = identical_to_reference () in
  let ratio_cold = t_loop /. t_cold in
  let ratio_warm = t_loop /. t_warm in
  let itps t = float_of_int (instances * ticks) /. t in
  Printf.printf
    "random-dfd-200, %d instances x %d ticks: looped %.1f ms (%.2e \
     instance-ticks/s), batched cold %.1f ms (%.2e, %.1fx), batched warm \
     %.1f ms (%.2e, %.1fx)\n"
    instances ticks (t_loop *. 1e3) (itps t_loop) (t_cold *. 1e3)
    (itps t_cold) ratio_cold (t_warm *. 1e3) (itps t_warm) ratio_warm;
  Printf.printf
    "per-instance traces byte-identical: %b (1 shard), %b (%d shards)\n"
    identical identical_sharded domains;
  if not (identical && identical_sharded) then begin
    print_endline "batched vs looped trace identity: FAILED";
    exit 1
  end;
  if ratio_cold >= bound then
    Printf.printf "batched >= %gx instance-ticks/sec (cold): OK\n" bound
  else begin
    Printf.printf
      "batched >= %gx instance-ticks/sec (cold): FAILED (%.2fx)\n" bound
      ratio_cold;
    exit 1
  end;
  [ ("core/E21-looped-1000x32", t_loop *. 1e9);
    ("core/E21-batch-cold-1000x32", t_cold *. 1e9);
    ("core/E21-batch-warm-1000x32", t_warm *. 1e9) ]

(* E5's compile-path scaling gate: [Sim.index] (causality order plus
   slot/driver resolution) must grow near-linearly in the number of
   blocks.  Min of 5 samples at n = 200, 400 and 800 random-DFD blocks;
   the 800/200 ratio must stay <= 10x (quadratic growth would be 16x).
   Every sample compiles 800 blocks' worth (800/n calls, timed per
   call), so each size pays its share of minor-GC work alike, and the
   sizes' samples interleave, so machine noise hits them alike.  Both
   sides come from the same process, so it asserts in every mode. *)
let e5_index_scaling () =
  section "E5 | compile-path scaling: Sim.index on random DFDs";
  let sizes = [| 200; 400; 800 |] in
  let comps =
    Array.map (fun n -> Workloads.random_dfd_component ~seed:42 ~n) sizes
  in
  let best = Array.make (Array.length sizes) infinity in
  for _ = 1 to 5 do
    Array.iteri
      (fun i comp ->
        let calls = 800 / sizes.(i) in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to calls do
          ignore (Sim.index comp)
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int calls in
        if dt < best.(i) then best.(i) <- dt)
      comps
  done;
  Array.iteri
    (fun i n -> Printf.printf "Sim.index n=%d: %.2f ms\n" n (best.(i) *. 1e3))
    sizes;
  let ratio = best.(2) /. best.(0) in
  if ratio <= 10. then
    Printf.printf "Sim.index n=800/n=200 <= 10x: OK (%.1fx)\n" ratio
  else begin
    Printf.printf "Sim.index n=800/n=200 <= 10x: FAILED (%.1fx)\n" ratio;
    exit 1
  end

(* E22: the campaign executor's prefix-sharing plan (Robust.Exec: batch
   snapshots + fork-from-divergence scheduling) vs. its looped
   reference ([~prefix_share:false]).  Two workloads whose faults all
   activate late in the horizon, so almost the whole simulation is a
   shared fault-free prefix:

   - a door-lock litmus twin with a late-activating k=2 alphabet (every
     atom >= tick 168 of a 200-tick horizon): prefix-shared enumeration
     must be >= 3x the straight per-scenario loop;
   - a 1000-seed robustness sweep whose dropout windows open at
     >= 0.93 * horizon: prefix-shared must be >= 2x the loop.

   Both ratios compare two measurements from the same process, so they
   are stable on noisy runners, and report byte-identity (default plan,
   looped reference and --domains) is asserted whenever the section
   runs.  The prefix counters of the shared sweep are
   printed as the shared/replayed-ticks table of EXPERIMENTS E22. *)
let e22_prefix ~domains () =
  section "E22 | prefix sharing: checkpointed campaigns vs straight loops";
  let reps = 3 in
  let min_time f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let module B = Automode_proptest.Builder in
  let module L = Automode_litmus in
  let module R = Automode_robust in
  (* -- late-atom door-lock litmus twin, k = 2 ---------------------- *)
  let horizon = 200 in
  let lit name = Dtype.enum_value Door_lock.lock_status name in
  let spec ~name ~component ~flow =
    B.spec ~name ~component ~ticks:horizon ~inputs:Robustness.lock_stimulus ()
    |> B.with_monitors
         [ Automode_robust.Monitor.range ~name:"volt-range" ~flow ~lo:5.
             ~hi:32. ]
  in
  let twin =
    { L.Eval.twin_name = "door-lock-late";
      unguarded =
        spec ~name:"door-lock-unguarded-late" ~component:Door_lock.component
          ~flow:"FZG_V";
      guarded =
        spec ~name:"door-lock-guarded-late" ~component:Guarded.component
          ~flow:(Automode_guard.Health.qualified_flow "FZG_V");
      checks = [] }
  in
  let alphabet =
    L.Alphabet.union
      [ L.Alphabet.spikes ~flow:"FZG_V"
          ~values:[ Value.Float 2.; Value.Float 40. ]
          ~at:[ 170; 185 ] ~hold:3;
        L.Alphabet.silences ~flow:"FZG_V" ~at:[ 168; 182 ] ~holds:[ 6; 10 ];
        L.Alphabet.commands ~flow:"T4S"
          ~values:[ lit "Locked"; lit "Unlocked" ]
          ~at:[ 175 ];
        L.Alphabet.crashes ~flows:[ "FZG_V" ] ~at:[ 172; 190 ];
        L.Alphabet.resets ~flows:[ "FZG_V" ] ~at:[ 174; 192 ] ~down:6 ]
  in
  let config =
    { L.Synth.bound = 2; max_scenarios = 100_000; shrink = false }
  in
  let synth ~prefix_share ?(domains = 1) () =
    R.Parallel.with_domains domains (fun () ->
        L.Synth.run ~config ~prefix_share ~twin ~alphabet ())
  in
  let t_lit_loop = min_time (fun () -> synth ~prefix_share:false ()) in
  let t_lit_shared = min_time (fun () -> synth ~prefix_share:true ()) in
  let lit_ref = L.Synth.to_text (synth ~prefix_share:false ()) in
  let lit_identical =
    List.for_all
      (fun r -> String.equal lit_ref (L.Synth.to_text (r ())))
      [ (fun () -> synth ~prefix_share:true ());
        (fun () -> synth ~prefix_share:true ~domains ()) ]
  in
  let ratio_lit = t_lit_loop /. t_lit_shared in
  Printf.printf
    "litmus k=2, %d-atom late alphabet, horizon %d: looped %.1f ms, \
     prefix-shared %.1f ms (%.1fx); reports byte-identical: %b\n"
    (L.Alphabet.size alphabet) horizon (t_lit_loop *. 1e3)
    (t_lit_shared *. 1e3) ratio_lit lit_identical;
  (* -- 1000-seed late-fault robustness sweep ----------------------- *)
  let sweep_ticks = 200 in
  let seeds = List.init 1000 (fun i -> i + 1) in
  let scn =
    R.Scenario.make ~name:"door-lock-late-dropout"
      ~component:Door_lock.component ~ticks:sweep_ticks
      ~inputs:Robustness.lock_stimulus
      ~faults:(fun seed ->
        [ R.Fault.dropout ~flow:"FZG_V"
            (R.Fault.Window
               { from_tick = 186 + (seed mod 8); until_tick = sweep_ticks })
        ])
      ~monitors:
        [ R.Monitor.range ~name:"volt-range" ~flow:"FZG_V" ~lo:0. ~hi:48. ]
      ()
  in
  let sweep ~prefix_share ?(domains = 1) () =
    R.Parallel.with_domains domains (fun () ->
        R.Scenario.sweep ~shrink:false ~prefix_share scn ~seeds)
  in
  let t_sw_loop = min_time (fun () -> sweep ~prefix_share:false ()) in
  let t_sw_shared = min_time (fun () -> sweep ~prefix_share:true ()) in
  let sw_ref = R.Report.to_text (sweep ~prefix_share:false ()) in
  let sw_identical =
    List.for_all
      (fun r -> String.equal sw_ref (R.Report.to_text (r ())))
      [ (fun () -> sweep ~prefix_share:true ());
        (fun () -> sweep ~prefix_share:true ~domains ()) ]
  in
  let ratio_sw = t_sw_loop /. t_sw_shared in
  Printf.printf
    "robustness sweep, %d seeds x %d ticks, dropout windows from t>=186: \
     looped %.1f ms, prefix-shared %.1f ms (%.1fx); reports \
     byte-identical (serial/domains): %b\n"
    (List.length seeds) sweep_ticks (t_sw_loop *. 1e3) (t_sw_shared *. 1e3)
    ratio_sw sw_identical;
  (* shared/replayed tick accounting of the shared sweep (the
     EXPERIMENTS E22 table); counters are inert without this sink *)
  let m = Automode_obs.Metrics.create () in
  ignore
    (Automode_obs.Probe.with_sink
       (Automode_obs.Probe.standard m)
       (fun () -> sweep ~prefix_share:true ()));
  print_string (Automode_obs.Metrics.to_text m);
  if not (lit_identical && sw_identical) then begin
    print_endline "prefix-shared vs looped report identity: FAILED";
    exit 1
  end;
  if ratio_lit >= 3. then
    print_endline "litmus prefix sharing >= 3x: OK"
  else begin
    Printf.printf "litmus prefix sharing >= 3x: FAILED (%.2fx)\n" ratio_lit;
    exit 1
  end;
  if ratio_sw >= 2. then
    print_endline "robustness-sweep prefix sharing >= 2x: OK"
  else begin
    Printf.printf "robustness-sweep prefix sharing >= 2x: FAILED (%.2fx)\n"
      ratio_sw;
    exit 1
  end;
  [ ("litmus/E22-litmus-looped-k2", t_lit_loop *. 1e9);
    ("litmus/E22-litmus-shared-k2", t_lit_shared *. 1e9);
    ("robust/E22-sweep-looped-1000", t_sw_loop *. 1e9);
    ("robust/E22-sweep-shared-1000", t_sw_shared *. 1e9) ]

(* ------------------------------------------------------------------ *)
(* Benchmarks                                                         *)
(* ------------------------------------------------------------------ *)

let stage = Staged.stage

let sim_bench name comp inputs ticks =
  Test.make ~name (stage (fun () -> Sim.run ~ticks ~inputs comp))

let e1_tests =
  [ sim_bench "E1/door-lock-sim-64t" Door_lock.component
      Door_lock.crash_scenario 64 ]

let e2_tests =
  [ sim_bench "E2/sampling-factor2-64t" (Sampling.component ~factor:2)
      (fun tick -> [ ("a", Value.Present (Value.Int tick)) ])
      64;
    sim_bench "E2/sampling-factor16-64t" (Sampling.component ~factor:16)
      (fun tick -> [ ("a", Value.Present (Value.Int tick)) ])
      64 ]

let e3_tests =
  [ Test.make ~name:"E3/full-pipeline"
      (stage (fun () -> Pipeline.run ~equiv_ticks:50 ())) ]

let e4_tests =
  List.map
    (fun n ->
      let model = Workloads.faa_network ~n ~conflict_every:5 in
      Test.make
        ~name:(Printf.sprintf "E4/faa-rules-%d" n)
        (stage (fun () -> Faa_rules.run model)))
    [ 10; 100; 500 ]

let e5_tests =
  List.concat_map
    (fun n ->
      let net = Workloads.random_dfd ~seed:42 ~n in
      let comp = Workloads.random_dfd_component ~seed:42 ~n in
      [ Test.make
          ~name:(Printf.sprintf "E5/causality-check-%d" n)
          (stage (fun () -> Causality.check net));
        Test.make
          ~name:(Printf.sprintf "E5/dfd-sim-%d-32t" n)
          (stage (fun () ->
               Sim.run ~ticks:32
                 ~inputs:(fun t ->
                   [ ("src", Value.Present (Value.Float (float_of_int t))) ])
                 comp)) ])
    [ 50; 200 ]
  @ List.map
      (fun n ->
        let comp = Workloads.random_dfd_component ~seed:42 ~n in
        Test.make
          ~name:(Printf.sprintf "E5/sim-index-%d" n)
          (stage (fun () -> Sim.index comp)))
      [ 200; 400; 800 ]

let e6_tests =
  List.map
    (fun k ->
      Test.make
        ~name:(Printf.sprintf "E6/mtd-product-k%d" k)
        (stage (fun () -> Workloads.product_of_k ~k)))
    [ 2; 3; 4 ]
  @ [ Test.make ~name:"E6/engine-mtd-sim-42t"
        (stage (fun () -> Engine_modes.demo_trace ~ticks:42 ())) ]

let e7_tests =
  [ Test.make ~name:"E7/ccd-well-definedness"
      (stage (fun () ->
           Well_defined.check ~target:Well_defined.osek_fixed_priority
             Engine_ccd.ccd));
    Test.make ~name:"E7/deploy-check"
      (stage (fun () -> Deploy.check Engine_ccd.deployment));
    Test.make ~name:"E7/scheduler-sim-1s"
      (stage (fun () ->
           List.map
             (fun (_, ts) ->
               if ts = [] then None
               else Some (Automode_osek.Scheduler.simulate ~horizon:1_000_000 ts))
             (Deploy.task_sets Engine_ccd.deployment)));
    Test.make ~name:"E7/can-sim-1s"
      (stage (fun () ->
           List.map
             (fun (_, frames) ->
               if frames = [] then None
               else
                 Some
                   (Automode_osek.Can_bus.simulate
                      { Automode_osek.Can_bus.bitrate = 500_000 }
                      ~horizon:1_000_000 frames))
             (Deploy.bus_frames Engine_ccd.deployment)));
    Test.make ~name:"E7/ccd-sim-200t"
      (stage (fun () -> Engine_ccd.demo_trace ~ticks:200 ())) ]

let e8_tests =
  [ Test.make ~name:"E8/whitebox-reengineering"
      (stage (fun () -> Engine_ascet.reengineer ()));
    Test.make ~name:"E8/flag-analysis"
      (stage (fun () ->
           Automode_ascet.Ascet_analysis.inferred_flags
             Engine_ascet.ascet_model));
    Test.make ~name:"E8/ascet-interp-500t"
      (stage (fun () ->
           Automode_ascet.Ascet_interp.run Engine_ascet.ascet_model ~ticks:500
             ~inputs:Engine_ascet.drive_inputs
             ~observe:Engine_ascet.observed));
    (let fda, _ = Engine_ascet.reengineer () in
     let inputs tick =
       List.map
         (fun (n, v) -> (n, Value.Present v))
         (Engine_ascet.drive_inputs tick)
     in
     Test.make ~name:"E8/fda-sim-500t"
       (stage (fun () -> Sim.run ~ticks:500 ~inputs fda.Model.model_root))) ]

let e9_tests =
  List.map
    (fun signals ->
      let cm = Body_matrix.synthetic ~nodes:12 ~signals () in
      Test.make
        ~name:(Printf.sprintf "E9/blackbox-%dsig" signals)
        (stage (fun () -> Body_matrix.faa_of cm)))
    [ 50; 500 ]

let e10_tests =
  [ Test.make ~name:"E10/mtd-to-modeport-dfd"
      (stage (fun () -> Refactor.mtd_to_mode_port_dfd Throttle.component));
    Test.make ~name:"E10/mtd-to-dataflow"
      (stage (fun () -> Mtd_to_dataflow.transform Throttle.component));
    Test.make ~name:"E10/equivalence-check-64t"
      (stage (fun () ->
           Equiv.trace_equivalent ~ticks:64 ~flows:[ "rate" ]
             Throttle.component
             (Refactor.mtd_to_mode_port_dfd Throttle.component))) ]

let e11_tests =
  let impl =
    Impl_type.fixed_for_range ~container:Impl_type.Int16 ~lo:(-100.) ~hi:100. ()
  in
  [ Test.make ~name:"E11/encode-decode-1k"
      (stage (fun () ->
           let rec go i acc =
             if i = 1000 then acc
             else
               let v = Value.Float (float_of_int i /. 7.) in
               go (i + 1)
                 (Impl_type.decode impl (Impl_type.encode impl v) :: acc)
           in
           go 0 []));
    (let q = Refine.quantizer_block ~name:"Q" impl in
     sim_bench "E11/quantizer-sim-128t" q
       (fun t -> [ ("in", Value.Present (Value.Float (float_of_int t *. 0.3))) ])
       128) ]

let e12_tests =
  [ Test.make ~name:"E12/ascet-project-gen"
      (stage (fun () ->
           Automode_codegen.Ascet_project.generate Engine_ccd.deployment)) ]

let e13_tests =
  [ Test.make ~name:"E13/door-lock-campaign-4seeds"
      (stage (fun () ->
           Robustness.door_lock_campaign ~shrink:false ~seeds:[ 1; 2; 3; 4 ] ()));
    Test.make ~name:"E13/door-lock-shrink-seed3"
      (stage (fun () ->
           Robustness.door_lock_campaign ~shrink:true ~seeds:[ 3 ] ()));
    Test.make ~name:"E13/engine-injection-200ms"
      (stage (fun () ->
           Automode_robust.Inject_net.simulate
             (Robustness.engine_injection ~seed:1 ())
             ~horizon:200_000)) ]

let e14_tests =
  [ sim_bench "E14/door-lock-guarded-sim-64t" Guarded.component
      Robustness.lock_stimulus 64;
    Test.make ~name:"E14/guarded-comparison-2seeds"
      (stage (fun () ->
           Guarded.door_lock_comparison ~shrink:false ~seeds:[ 1; 2 ] ()));
    (* the guard job as the catalog runs it: unguarded and guarded
       sweeps plus the recovery scenario, shrink on *)
    Test.make ~name:"E14/guarded-campaign-4seeds"
      (stage (fun () ->
           Automode_serve.Catalog.guard ~seeds:[ 1; 2; 3; 4 ] ()));
    Test.make ~name:"E14/guarded-engine-injection-200ms"
      (stage (fun () ->
           Automode_robust.Inject_net.simulate
             (Guarded.guarded_engine_injection ~seed:1 ())
             ~horizon:200_000)) ]

let e15_tests =
  [ sim_bench "E15/engine-replicated-sim-80t" Replicated.replicated
      Replicated.repl_stimulus 80;
    Test.make ~name:"E15/replicated-campaign-2seeds"
      (stage (fun () ->
           Replicated.campaign ~shrink:false ~seeds:[ 1; 2 ] ()));
    (* the TA leg of a redund job: both channel legs over 8 seeds,
       sharing each seed's TT fault model *)
    (let seeds = List.init 8 (fun i -> i + 1) in
     Test.make ~name:"E15/tt-legs-8seeds"
       (stage (fun () ->
            let faults = Replicated.shared_channel_faults ~seeds in
            ( Replicated.channel_campaign ~faults ~dual:true ~seeds (),
              Replicated.channel_campaign ~faults ~dual:false ~seeds () ))));
    Test.make ~name:"E15/tt-bus-dual-200ms"
      (stage (fun () ->
           Automode_osek.Tt_bus.simulate
             ~faults:(Replicated.channel_faults 1)
             (Replicated.tt_schedule ~dual:true)
             ~horizon:200_000)) ]

let e16_tests =
  let m = Automode_obs.Metrics.create () in
  let sink = Automode_obs.Probe.standard m in
  let with_metrics f () =
    Automode_obs.Metrics.reset m;
    Automode_obs.Probe.with_sink sink f
  in
  [ Test.make ~name:"E16/pipeline-uninstrumented"
      (stage (fun () -> Pipeline.run ~equiv_ticks:50 ()));
    Test.make ~name:"E16/pipeline-metrics-on"
      (stage (with_metrics (fun () -> Pipeline.run ~equiv_ticks:50 ())));
    sim_bench "E16/door-lock-sim-uninstrumented-64t" Door_lock.component
      Door_lock.crash_scenario 64;
    Test.make ~name:"E16/door-lock-sim-metrics-on-64t"
      (stage
         (with_metrics (fun () ->
              Sim.run ~ticks:64 ~inputs:Door_lock.crash_scenario
                Door_lock.component))) ]

(* Tooling-infrastructure benches: persistence, static analysis and
   variant enumeration over the reengineered engine controller. *)
let infra_tests =
  let fda, _ = Engine_ascet.reengineer () in
  let text = Automode_syntax.Model_printer.to_string fda in
  [ Test.make ~name:"infra/model-print"
      (stage (fun () -> Automode_syntax.Model_printer.to_string fda));
    Test.make ~name:"infra/model-parse"
      (stage (fun () -> Automode_syntax.Model_parser.parse text));
    Test.make ~name:"infra/static-check"
      (stage (fun () -> Static_check.model fda));
    Test.make ~name:"infra/variant-enumeration"
      (stage (fun () -> Variants.configurations Central_locking.family));
    Test.make ~name:"infra/central-locking-rules"
      (stage (fun () -> Faa_rules.run Central_locking.full_variant)) ]

(* Ablations (DESIGN.md Sec. 6). *)
let ablation_tests =
  let net =
    match Engine_ccd.component.Model.comp_behavior with
    | Model.B_dfd net -> net
    | _ -> assert false
  in
  let as_ssd =
    Ssd.of_network ~ports:Engine_ccd.component.Model.comp_ports net
  in
  let inputs tick =
    [ ("pedal", Value.Present (Value.Float 0.4));
      ("n", Value.Present (Value.Float (1000. +. float_of_int tick))) ]
  in
  [ (let fda, _ = Engine_ascet.reengineer () in
     let inputs tick =
       List.map
         (fun (n, v) -> (n, Value.Present v))
         (Engine_ascet.drive_inputs tick)
     in
     let indexed = Sim.index fda.Model.model_root in
     Test.make ~name:"ablation/engine-sim-indexed-500t"
       (stage (fun () -> Sim.run_indexed ~ticks:500 ~inputs indexed)));
    (let indexed = Sim.index (Workloads.random_dfd_component ~seed:42 ~n:200) in
     Test.make ~name:"ablation/dfd-sim-indexed-200-32t"
       (stage (fun () ->
            Sim.run_indexed ~ticks:32
              ~inputs:(fun t ->
                [ ("src", Value.Present (Value.Float (float_of_int t))) ])
              indexed)));
    Test.make ~name:"ablation/reengineer-no-simplify"
      (stage (fun () ->
           Reengineer.whitebox ~simplify:false Engine_ascet.ascet_model));
    Test.make ~name:"ablation/reengineer-with-simplify"
      (stage (fun () ->
           Reengineer.whitebox ~simplify:true Engine_ascet.ascet_model));
    sim_bench "ablation/engine-net-as-dfd-100t" Engine_ccd.component inputs 100;
    sim_bench "ablation/engine-net-as-ssd-100t" as_ssd inputs 100;
    Test.make ~name:"ablation/scheduler-sim-12tasks"
      (stage (fun () ->
           Automode_osek.Scheduler.simulate ~horizon:1_000_000
             (Workloads.task_set ~n:12)));
    Test.make ~name:"ablation/scheduler-rta-12tasks"
      (stage (fun () ->
           Automode_osek.Scheduler.response_time_analysis
             (Workloads.task_set ~n:12))) ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                    *)
(* ------------------------------------------------------------------ *)

let all_tests =
  Test.make_grouped ~name:"automode"
    (e1_tests @ e2_tests @ e3_tests @ e4_tests @ e5_tests @ e6_tests
    @ e7_tests @ e8_tests @ e9_tests @ e10_tests @ e11_tests @ e12_tests
    @ e13_tests @ e14_tests @ e15_tests @ e16_tests @ infra_tests
    @ ablation_tests)

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

(* Flatten Bechamel's OLS table to a sorted (name, ns/run) list; sorting
   makes both the printed table and the JSON dump diff cleanly. *)
let estimates_of results =
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ t ] -> t
        | Some _ | None -> Float.nan
      in
      rows := (name, est) :: !rows)
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

(* Machine-readable results: benchmark name -> ns/run.  NaN estimates
   (benchmark produced no usable samples) serialize as null. *)
let results_to_json rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  %S: %s" name
           (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)))
    rows;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write_json path rows =
  let oc = open_out path in
  output_string oc (results_to_json rows);
  close_out oc;
  Printf.printf "wrote %d benchmark estimates to %s\n" (List.length rows) path

let print_results rows =
  section "measurements (monotonic clock, ns per run)";
  Printf.printf "%-44s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-44s %16s\n" name human)
    rows

(* Value of "--flag VALUE" in Sys.argv, if present. *)
let arg_value flag =
  let n = Array.length Sys.argv in
  let rec go i =
    if i >= n - 1 then None
    else if String.equal Sys.argv.(i) flag then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let () =
  regenerate_artifacts ();
  (* --artifacts-only: regenerate the figures without timing anything —
     the CI smoke invocation.  The E16 overhead table is printed either
     way; the < 10 % bound only gates full bench runs (CI runners are
     too noisy for a wall-clock assertion). *)
  let artifacts_only =
    Array.exists (String.equal "--artifacts-only") Sys.argv
  in
  (* --no-assert: time everything but skip the wall-clock bound checks —
     for CI runs that want the JSON estimates without flaky gates. *)
  let assert_bounds =
    (not artifacts_only)
    && not (Array.exists (String.equal "--no-assert") Sys.argv)
  in
  e16_overhead ~assert_bound:assert_bounds ();
  let domains =
    match arg_value "--domains" with
    | Some n -> (try Stdlib.max 2 (int_of_string n) with _ -> 4)
    | None -> 4
  in
  e17_speedups ~domains ~assert_bounds ();
  let serve_rows = e18_cache ~assert_bounds () in
  let prop_rows = e19_proptest ~assert_bounds () in
  let litmus_rows = e20_litmus ~assert_bounds () in
  e5_index_scaling ();
  (* E21 asserts its ratio and identity in every mode, including the
     --artifacts-only CI smoke: both sides of the ratio come from the
     same process on the same machine. *)
  let batch_rows = e21_batch ~domains () in
  (* E22, like E21, asserts its ratios and report identity in every
     mode — both sides of each ratio come from the same process. *)
  let prefix_rows = e22_prefix ~domains () in
  if not artifacts_only then begin
    print_endline "";
    section "benchmarks (this may take a minute)";
    let rows =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (estimates_of (benchmark ()) @ serve_rows @ prop_rows @ litmus_rows
        @ batch_rows @ prefix_rows)
    in
    print_results rows;
    match arg_value "--json" with
    | Some path -> write_json path rows
    | None -> ()
  end
