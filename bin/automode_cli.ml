(* automode - command-line front-end of the AutoMoDe tool prototype.

   Sub-commands mirror the methodology's activities: simulate and render
   models, run FAA rules and causality checks, reengineer ASCET sources,
   evaluate deployments, and generate per-ECU projects. *)

open Cmdliner
open Automode_core
open Automode_casestudy

(* ------------------------------------------------------------------ *)
(* Bundled models                                                     *)
(* ------------------------------------------------------------------ *)

let bundled : (string * Model.component) list =
  [ ("door-lock", Door_lock.component);
    ("sampling", Sampling.component ~factor:2);
    ("momentum", Momentum.component);
    ("engine-modes", Engine_modes.component);
    ("engine-ccd", Engine_ccd.component);
    ("throttle", Throttle.component) ]

let bundled_traces : (string * (int -> Trace.t)) list =
  [ ("door-lock", fun ticks -> Door_lock.demo_trace ~ticks ());
    ("sampling", fun ticks -> Sampling.demo_trace ~ticks ());
    ("momentum", fun ticks -> Momentum.step_response ~ticks ~target:20. ());
    ("engine-modes", fun ticks -> Engine_modes.demo_trace ~ticks ());
    ("engine-ccd", fun ticks -> Engine_ccd.demo_trace ~ticks ());
    ("throttle", fun ticks -> Throttle.demo_trace ~ticks ()) ]

let model_names = List.map fst bundled

(* A MODEL argument is either a bundled name or a path to a .amod file in
   the textual AutoMoDe format. *)
let find_model name =
  if Filename.check_suffix name ".amod" then
    try Ok (Automode_syntax.Model_parser.parse_file name).Model.model_root with
    | Automode_syntax.Model_parser.Parse_error (msg, line) ->
      Error (Printf.sprintf "%s:%d: %s" name line msg)
    | Automode_syntax.Syntax_lexer.Lex_error (msg, line) ->
      Error (Printf.sprintf "%s:%d: %s" name line msg)
    | Sys_error msg -> Error msg
  else
    match List.assoc_opt name bundled with
    | Some c -> Ok c
    | None ->
      Error
        (Printf.sprintf "unknown model %s (available: %s, or a .amod file)"
           name
           (String.concat ", " model_names))

let model_arg =
  let doc =
    "Bundled model (" ^ String.concat ", " model_names
    ^ ") or a .amod file in the textual AutoMoDe format."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let ticks_arg default =
  let doc = "Number of base-clock ticks to simulate." in
  Arg.(value & opt int default & info [ "ticks"; "t" ] ~doc)

let or_fail = function
  | Ok x -> x
  | Error msg -> prerr_endline ("error: " ^ msg); exit 1

(* Validation shared by the commands: seed counts, explicit seeds,
   domain counts, tick counts and horizons must be positive — a
   zero-seed campaign would trivially "pass" its gate and a zero-tick
   simulation would print an empty trace, so both are rejected loudly
   instead. *)
let validate_positive what v =
  if v < 1 then begin
    Printf.eprintf "error: %s must be >= 1 (got %d)\n" what v;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Commands                                                           *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let run name ticks csv =
    validate_positive "--ticks" ticks;
    let comp = or_fail (find_model name) in
    let trace =
      match List.assoc_opt name bundled_traces with
      | Some mk -> mk ticks
      | None ->
        (* loaded models run on the empty stimulus *)
        Sim.run ~ticks ~inputs:Sim.no_inputs comp
    in
    print_string (if csv then Trace.to_csv trace else Trace.to_string trace)
  in
  let csv_flag =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the trace as CSV.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Simulate a model (bundled models use their demo stimulus, loaded \
          models the empty stimulus)")
    Term.(const run $ model_arg $ ticks_arg 20 $ csv_flag)

let render_cmd =
  let run name =
    let comp = or_fail (find_model name) in
    print_string (Render.component_to_string comp)
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render a bundled model's diagrams as text")
    Term.(const run $ model_arg)

let causality_cmd =
  let run name =
    let comp = or_fail (find_model name) in
    match Causality.check_recursive comp with
    | [] -> print_endline "causality: no instantaneous loops"
    | loops ->
      List.iter
        (fun (path, loop) ->
          Printf.printf "instantaneous loop in %s: %s\n"
            (String.concat "." path)
            (String.concat " -> " loop))
        loops;
      exit 1
  in
  Cmd.v
    (Cmd.info "causality" ~doc:"Run the causality check on a bundled model")
    Term.(const run $ model_arg)

let rules_cmd =
  let run name =
    let comp = or_fail (find_model name) in
    let model =
      { Model.model_name = name; model_level = Model.Faa; model_root = comp;
        model_enums = [] }
    in
    let findings = Faa_rules.run model in
    print_endline (Faa_rules.summary findings);
    List.iter (fun f -> Format.printf "%a@." Faa_rules.pp_finding f) findings
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"Run the FAA rules on a bundled model")
    Term.(const run $ model_arg)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ascet"
         ~doc:"ASCET-format source file.")

let check_cmd =
  let run path =
    try
      let m = Automode_ascet.Ascet_parser.parse_file path in
      match Automode_ascet.Ascet_ast.check m with
      | [] -> Printf.printf "%s: ok\n" path
      | problems -> List.iter print_endline problems; exit 1
    with
    | Automode_ascet.Ascet_parser.Parse_error (msg, line) ->
      Printf.eprintf "%s:%d: %s\n" path line msg; exit 1
    | Automode_ascet.Ascet_lexer.Lex_error (msg, line) ->
      Printf.eprintf "%s:%d: %s\n" path line msg; exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and check an ASCET source file")
    Term.(const run $ file_arg)

let reengineer_cmd =
  let run path render =
    try
      let m = Automode_ascet.Ascet_parser.parse_file path in
      let model, report = Automode_transform.Reengineer.whitebox m in
      Format.printf "%a@." Automode_transform.Reengineer.pp_report report;
      if render then
        print_string (Render.component_to_string model.Model.model_root)
    with
    | Automode_ascet.Ascet_parser.Parse_error (msg, line) ->
      Printf.eprintf "%s:%d: %s\n" path line msg; exit 1
    | Automode_transform.Reengineer.Unsupported msg ->
      Printf.eprintf "unsupported model: %s\n" msg; exit 1
  in
  let render_flag =
    Arg.(value & flag & info [ "render" ] ~doc:"Render the resulting FDA model.")
  in
  Cmd.v
    (Cmd.info "reengineer"
       ~doc:"White-box reengineer an ASCET source file into an FDA model")
    Term.(const run $ file_arg $ render_flag)

let deploy_cmd =
  let run () =
    let d = Engine_ccd.deployment in
    Format.printf "%a@." Automode_la.Deploy.pp d;
    (match Automode_la.Deploy.check d with
     | [] -> print_endline "deployment checks: ok"
     | ps -> List.iter print_endline ps);
    List.iter
      (fun (ecu, tasks) ->
        if tasks <> [] then begin
          Printf.printf "\nECU %s:\n" ecu;
          Format.printf "%a"
            Automode_osek.Scheduler.pp_result
            (Automode_osek.Scheduler.simulate ~horizon:1_000_000 tasks)
        end)
      (Automode_la.Deploy.task_sets d)
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:"Evaluate the bundled engine-controller deployment")
    Term.(const run $ const ())

let codegen_cmd =
  let run dir redundant =
    let projects =
      if redundant then Replicated.projects ()
      else Automode_codegen.Ascet_project.generate Engine_ccd.deployment
    in
    match dir with
    | Some dir ->
      let paths = Automode_codegen.Ascet_project.write_to_dir ~dir projects in
      List.iter (fun p -> print_endline ("wrote " ^ p)) paths
    | None ->
      List.iter
        (fun (p : Automode_codegen.Ascet_project.project) ->
          Printf.printf "=== %s ===\n%s\n" p.project_ecu p.project_text)
        projects
  in
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"DIR"
             ~doc:"Write projects into $(docv) instead of stdout.")
  in
  let redundant_flag =
    Arg.(value & flag
         & info [ "redundant" ]
             ~doc:"Generate for the replicated engine deployment instead \
                   (four ECUs, pair voter and heartbeat supervision \
                   components included).")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Generate per-ECU ASCET projects for the engine deployment")
    Term.(const run $ dir_arg $ redundant_flag)

let check_model_cmd =
  let run name =
    let comp = or_fail (find_model name) in
    let issues = Static_check.component comp in
    print_endline (Static_check.summary issues);
    List.iter (fun i -> Format.printf "%a@." Static_check.pp_issue i) issues;
    if Static_check.errors issues <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check-model"
       ~doc:"Whole-model static analysis: types, clocks, causality, machines")
    Term.(const run $ model_arg)

let save_cmd =
  let run name path =
    let comp = or_fail (find_model name) in
    let model : Model.model =
      { Model.model_name = comp.Model.comp_name; model_level = Model.Fda;
        model_root = comp; model_enums = [] }
    in
    let oc = open_out path in
    output_string oc (Automode_syntax.Model_printer.to_string model);
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE.amod"
           ~doc:"Destination file.")
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Serialize a model into the textual AutoMoDe format")
    Term.(const run $ model_arg $ path_arg)

let timeline_cmd =
  let run horizon =
    validate_positive "--horizon" horizon;
    List.iter
      (fun (ecu, tasks) ->
        if tasks <> [] then begin
          Printf.printf "ECU %s:\n" ecu;
          Format.printf "%a@."
            (Automode_osek.Scheduler.pp_timeline ~width:64)
            (Automode_osek.Scheduler.timeline ~horizon tasks)
        end)
      (Automode_la.Deploy.task_sets Engine_ccd.deployment)
  in
  let horizon_arg =
    Arg.(value & opt int 200_000
         & info [ "horizon" ] ~docv:"US" ~doc:"Timeline horizon in us.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Gantt timeline of the engine deployment's task schedules")
    Term.(const run $ horizon_arg)

(* Shared arguments of the campaign commands (robustness/guard/redund). *)

let seed_list_arg =
  Arg.(value & opt_all int []
       & info [ "seed"; "s" ] ~docv:"SEED"
           ~doc:"Seed to run (repeatable); default: 1..$(b,--seeds).")

let seed_count_arg =
  Arg.(value & opt int 10
       & info [ "seeds"; "count"; "n" ] ~docv:"N"
           ~doc:"Number of seeds when no explicit $(b,--seed) is given.")

let no_shrink_flag =
  Arg.(value & flag
       & info [ "no-shrink" ] ~doc:"Skip counterexample shrinking.")

let horizon_arg =
  Arg.(value & opt int 200_000
       & info [ "horizon" ] ~docv:"US"
           ~doc:"Deployment campaign horizon in microseconds.")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the report to $(docv) instead of stdout.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains"; "j" ] ~docv:"N"
           ~doc:"Fan the per-seed simulations over $(docv) parallel OCaml \
                 domains (default 1 = serial).  Verdicts are merged back \
                 in seed order, so the report is identical to a serial \
                 run.")

(* A command's whole action runs under one domain budget. *)
let with_domains domains f =
  validate_positive "--domains" domains;
  Automode_robust.Parallel.with_domains domains f

let resolve_seeds seeds count =
  validate_positive "--seeds" count;
  List.iter (validate_positive "--seed values") seeds;
  match seeds with
  | [] -> List.init count (fun i -> i + 1)
  | s -> s

(* Reports go through a buffer so --out writes exactly what stdout would
   have shown — the artifact CI uploads is the gate's evidence. *)
let emit out text =
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path

(* Observability: --metrics/--trace flags shared by the campaign
   commands and the profile command. *)

module Obs = Automode_obs

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write a deterministic metrics CSV to $(docv).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome-trace JSON (open in chrome://tracing or \
                 Perfetto) to $(docv).")

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Run [f] under a standard probe sink when any observability output was
   requested.  Returns [f]'s result plus the deterministic metrics
   appendix destined for the report: counters only, never wall-clock
   data, so reports stay byte-identical across reruns. *)
let with_observability ~metrics ~trace_out f =
  if metrics = None && trace_out = None then (f (), None)
  else begin
    let m = Obs.Metrics.create () in
    let span = Option.map (fun _ -> Obs.Span.create ()) trace_out in
    let sink = Obs.Probe.standard ?span m in
    let result = Obs.Probe.with_sink sink f in
    Option.iter (fun p -> write_file p (Obs.Metrics.to_csv m)) metrics;
    (match span, trace_out with
     | Some sp, Some p -> write_file p (Obs.Span.to_chrome_json sp)
     | _ -> ());
    (result, Some ("\nmetrics appendix:\n" ^ Obs.Metrics.to_text m))
  end

let append_appendix text = function
  | None -> text
  | Some appendix -> text ^ appendix

(* Campaign service: --cache-dir routes the campaign commands through
   the content-addressed verdict cache in lib/serve. *)

module Serve = Automode_serve

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Content-addressed verdict cache: per-seed results are \
                 read from and stored under $(docv), so repeated and \
                 overlapping sweeps recompute only uncached seeds.  The \
                 report is byte-identical with or without the cache.")

let make_cache cache_dir =
  Option.map (fun dir -> Serve.Cache.create ~dir ()) cache_dir

(* Print a catalog outcome as the report; its gate is the exit status. *)
let emit_outcome ~metrics ~trace_out out f =
  let outcome, appendix = with_observability ~metrics ~trace_out f in
  emit out (append_appendix outcome.Serve.Catalog.report appendix);
  if not outcome.Serve.Catalog.gate_ok then exit 1

let robustness_cmd =
  let run seeds count csv no_shrink engine horizon domains out metrics
      trace_out cache_dir =
    with_domains domains @@ fun () ->
    validate_positive "--horizon" horizon;
    let seeds = resolve_seeds seeds count in
    let cache = make_cache cache_dir in
    (* CI gate: any failing scenario makes the run exit non-zero *)
    if csv && not engine then begin
      (* the CSV rendering needs the campaign record itself *)
      let campaign, _ =
        with_observability ~metrics ~trace_out (fun () ->
            Serve.Catalog.robustness ?cache ~shrink:(not no_shrink) ~seeds
              ())
      in
      emit out (Automode_robust.Report.to_csv campaign);
      if campaign.Automode_robust.Scenario.failures <> [] then exit 1
    end
    else
      emit_outcome ~metrics ~trace_out out (fun () ->
          Serve.Catalog.run ?cache ~shrink:(not no_shrink) ~horizon
            ~kind:Serve.Job.Robustness ~engine ~seeds ())
  in
  let csv_flag =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the report as CSV.")
  in
  let engine_flag =
    Arg.(value & flag
         & info [ "engine" ]
             ~doc:"Run the engine deployment campaign (CAN loss + timing \
                   faults) instead of the door-lock stimulus campaign.")
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:
         "Seeded fault-injection campaigns over the case studies \
          (deterministic: the same seeds reproduce the same report)")
    Term.(const run $ seed_list_arg $ seed_count_arg $ csv_flag
          $ no_shrink_flag $ engine_flag $ horizon_arg $ domains_arg
          $ out_arg $ metrics_arg
          $ trace_out_arg $ cache_dir_arg)

let guard_cmd =
  let run seeds count no_shrink engine horizon domains out metrics trace_out
      cache_dir =
    with_domains domains @@ fun () ->
    validate_positive "--horizon" horizon;
    let seeds = resolve_seeds seeds count in
    let cache = make_cache cache_dir in
    (* only the guarded side gates: the unguarded run is the contrast *)
    emit_outcome ~metrics ~trace_out out (fun () ->
        Serve.Catalog.run ?cache ~shrink:(not no_shrink) ~horizon
          ~kind:Serve.Job.Guard ~engine ~seeds ())
  in
  let engine_flag =
    Arg.(value & flag
         & info [ "engine" ]
             ~doc:"Compare the engine deployment unguarded vs. guarded (E2E \
                   frame protection + scheduler watchdog) instead of the \
                   door-lock controller.")
  in
  Cmd.v
    (Cmd.info "guard"
       ~doc:
         "Graceful-degradation campaigns: the same faults against the \
          unguarded and the guarded controller (health qualification, \
          limp-home manager, E2E frames, scheduler watchdog); exits \
          non-zero if the guarded side fails")
    Term.(const run $ seed_list_arg $ seed_count_arg $ no_shrink_flag
          $ engine_flag $ horizon_arg $ domains_arg
          $ out_arg $ metrics_arg $ trace_out_arg
          $ cache_dir_arg)

let redund_cmd =
  let run seeds count no_shrink horizon domains out metrics trace_out
      cache_dir =
    with_domains domains @@ fun () ->
    validate_positive "--horizon" horizon;
    let seeds = resolve_seeds seeds count in
    let cache = make_cache cache_dir in
    (* the protected configurations gate; the simplex and single-channel
       legs are the contrast *)
    emit_outcome ~metrics ~trace_out out (fun () ->
        Serve.Catalog.run ?cache ~shrink:(not no_shrink) ~horizon
          ~kind:Serve.Job.Redund ~engine:false ~seeds ())
  in
  Cmd.v
    (Cmd.info "redund"
       ~doc:
         "Redundancy campaigns: replicated vs. unreplicated engine \
          controller under seeded ECU crashes, replica corruption and \
          channel outages (hot-standby failover, 2oo3 voting, \
          dual-channel TT bus); exits non-zero if a protected \
          configuration fails")
    Term.(const run $ seed_list_arg $ seed_count_arg $ no_shrink_flag
          $ horizon_arg $ domains_arg
          $ out_arg $ metrics_arg $ trace_out_arg $ cache_dir_arg)

let proptest_cmd =
  let module B = Automode_proptest.Builder in
  let run seeds count no_shrink iterations target domains out metrics
      trace_out cache_dir =
    with_domains domains @@ fun () ->
    validate_positive "--iterations" iterations;
    let seeds = resolve_seeds seeds count in
    let shrink = not no_shrink in
    match target with
    | "pair" ->
      (* The paired comparison routes through the serve catalog, so the
         report (and its whole-report cache entry) is byte-identical to
         a daemon-served proptest job with the same parameters. *)
      let cache = make_cache cache_dir in
      emit_outcome ~metrics ~trace_out out (fun () ->
          Serve.Catalog.proptest ?cache ~shrink ~iterations ~seeds ())
    | "unguarded" | "guarded" ->
      (* single-target runs gate on the campaign itself: the unguarded
         door lock is the known-failing target (CI asserts non-zero) *)
      let spec =
        if String.equal target "unguarded" then Propcase.unguarded
        else Propcase.guarded
      in
      let campaign, appendix =
        with_observability ~metrics ~trace_out (fun () ->
            B.run ~shrink (B.with_iterations iterations spec) ~seeds)
      in
      emit out (append_appendix (B.to_text campaign) appendix);
      if not (B.gate campaign) then exit 1
    | t ->
      Printf.eprintf
        "error: unknown proptest target %s (available: pair, unguarded, \
         guarded)\n"
        t;
      exit 1
  in
  let iterations_arg =
    Arg.(value & opt int 2
         & info [ "iterations"; "i" ] ~docv:"N"
             ~doc:"Generated operation sequences per seed.")
  in
  let target_arg =
    Arg.(value & opt string "pair"
         & info [ "target" ] ~docv:"TARGET"
             ~doc:"What to run and gate on: $(b,pair) (default — both \
                   controllers; passes when the unguarded side fails and \
                   the guarded side is clean), $(b,unguarded) (the \
                   known-failing contrast target; exits non-zero) or \
                   $(b,guarded).")
  in
  Cmd.v
    (Cmd.info "proptest"
       ~doc:
         "Property-testing campaigns over the door-lock case study: each \
          (seed, iteration) expands deterministically into a generated \
          sequence of timed operations (mode commands, sensor silences, \
          implausible spikes, crashes, resets); failures shrink to a \
          minimal operation subsequence that replays bit-for-bit.  \
          Reports are byte-identical across reruns, --domains fan-outs \
          and daemon-served execution")
    Term.(const run $ seed_list_arg $ seed_count_arg $ no_shrink_flag
          $ iterations_arg $ target_arg $ domains_arg
          $ out_arg $ metrics_arg $ trace_out_arg
          $ cache_dir_arg)

let litmus_cmd =
  let module Synth = Automode_litmus.Synth in
  let module Suite = Automode_litmus.Suite in
  let module B = Automode_proptest.Builder in
  let resolve_engine = function
    | "indexed" -> B.Indexed
    | "interpreted" -> B.Interpreted
    | e ->
      Printf.eprintf
        "error: unknown engine %s (available: indexed, interpreted)\n" e;
      exit 1
  in
  let run bound max_scenarios engine domains replay suite_out out metrics
      trace_out cache_dir =
    validate_positive "--bound" bound;
    validate_positive "--max-scenarios" max_scenarios;
    with_domains domains @@ fun () ->
    let engine = resolve_engine engine in
    match replay with
    | Some path ->
      if not (Sys.file_exists path) then (
        Printf.eprintf "error: suite file %s does not exist\n" path;
        exit 1);
      (match Suite.load path with
       | Error e ->
         Printf.eprintf "error: %s\n" e;
         exit 1
       | Ok suite ->
         let r, appendix =
           with_observability ~metrics ~trace_out (fun () ->
               Litmus_lock.replay ~model:(Serve.Catalog.litmus_model ())
                 ~engine suite)
         in
         emit out (append_appendix r.Suite.rep_report appendix);
         if not (Suite.ok r) then exit 1)
    | None ->
      (* Synthesis routes through the serve catalog, so the memoized
         per-scenario classifications (and the report) are shared with
         daemon-served litmus jobs. *)
      let cache = make_cache cache_dir in
      let result, appendix =
        with_observability ~metrics ~trace_out (fun () ->
            Serve.Catalog.litmus_result ?cache ~bound ~max_scenarios
              ~engine ())
      in
      emit out (append_appendix (Synth.to_text result) appendix);
      Option.iter
        (fun path ->
          Suite.write ~path
            (Suite.of_result ~model:(Serve.Catalog.litmus_model ()) result))
        suite_out;
      if not (Synth.gate result) then exit 1
  in
  let bound_arg =
    Arg.(value & opt int 2
         & info [ "bound"; "k" ] ~docv:"K"
             ~doc:"Enumerate every fault scenario combining up to $(docv) \
                   alphabet atoms.")
  in
  let max_scenarios_arg =
    Arg.(value & opt int 100_000
         & info [ "max-scenarios" ] ~docv:"N"
             ~doc:"Safety cap on evaluated scenarios; the report flags \
                   when the enumeration was truncated.")
  in
  let engine_arg =
    Arg.(value & opt string "indexed"
         & info [ "sim" ] ~docv:"ENGINE"
             ~doc:"Simulation engine: $(b,indexed) (default) or the \
                   $(b,interpreted) reference oracle.  Both yield \
                   byte-identical reports; CI replays the suite under \
                   each to pin that.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a checked-in suite file instead of \
                   synthesizing: re-evaluate every pinned scenario and \
                   exit non-zero if any hash or classification \
                   regressed.")
  in
  let suite_out_arg =
    Arg.(value & opt (some string) None
         & info [ "suite-out" ] ~docv:"FILE"
             ~doc:"Also write the minimal scenarios as a byte-stable \
                   suite file for later $(b,--replay).")
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Bounded-exhaustive litmus synthesis over the door-lock twin: \
          enumerate every fault scenario up to --bound atoms, \
          deduplicate by trace-divergence hash, classify against the \
          guarded deployment's stated bounds and shrink the survivors to \
          minimal pinned scenarios; exits non-zero unless at least one \
          minimal distinguishing scenario exists and no stated bound is \
          violated.  --replay re-checks a pinned suite and exits \
          non-zero on any regression")
    Term.(const run $ bound_arg $ max_scenarios_arg $ engine_arg
          $ domains_arg $ replay_arg
          $ suite_out_arg $ out_arg $ metrics_arg $ trace_out_arg
          $ cache_dir_arg)

let profile_cmd =
  (* Target registry: a name, a short description, and the action to run
     under the probe sink.  Trace-producing targets feed the guard/redund
     trace observers so health/voter/failover metrics appear too. *)
  let targets : (string * string * (ticks:int -> unit)) list =
    [ ( "pipeline", "full reengineer/cluster/deploy/codegen pipeline (E3)",
        fun ~ticks:_ -> ignore (Pipeline.run ()) );
      ( "guarded",
        "guarded door-lock controller on the lock stimulus (health flows)",
        fun ~ticks ->
          let trace =
            Sim.run ~ticks ~inputs:Robustness.lock_stimulus Guarded.component
          in
          Automode_guard.Health.observe trace );
      ( "replicated",
        "replicated engine cluster on the drive stimulus (voter/failover)",
        fun ~ticks ->
          let trace =
            Sim.run ~ticks ~inputs:Replicated.repl_stimulus
              Replicated.replicated
          in
          Automode_guard.Health.observe trace;
          Automode_redund.Voter.observe trace;
          Automode_redund.Failover.observe trace ) ]
    @ List.map
        (fun (name, mk) ->
          ( name, "bundled model on its demo stimulus",
            fun ~ticks ->
              let trace = mk ticks in
              Automode_guard.Health.observe trace ))
        bundled_traces
  in
  let run name ticks domains metrics trace_out =
    with_domains domains @@ fun () ->
    validate_positive "--ticks" ticks;
    let _, _, action =
      match
        List.find_opt (fun (n, _, _) -> String.equal n name) targets
      with
      | Some t -> t
      | None ->
        prerr_endline
          ("error: unknown profile target " ^ name ^ " (available: "
          ^ String.concat ", " (List.map (fun (n, _, _) -> n) targets)
          ^ ")");
        exit 1
    in
    let m = Obs.Metrics.create () in
    let span = Obs.Span.create () in
    let prof = Obs.Profile.create () in
    let sink = Obs.Probe.standard ~span ~profile:prof m in
    Obs.Profile.time prof ("profile." ^ name) (fun () ->
        Obs.Probe.with_sink sink (fun () ->
            (* stress mode: one run of the target per domain, all
               feeding the same (mutex-guarded) sink; metrics then
               aggregate N runs and are only byte-stable at the
               serial default *)
            ignore
              (Automode_robust.Parallel.map
                 (fun () -> action ~ticks)
                 (List.init domains (fun _ -> ())))));
    (* deterministic artifacts first, wall-clock summary (stdout only,
       never a byte-compared artifact) last *)
    Option.iter (fun p -> write_file p (Obs.Metrics.to_csv m)) metrics;
    Option.iter (fun p -> write_file p (Obs.Span.to_chrome_json span)) trace_out;
    print_string (Obs.Metrics.to_text m);
    print_newline ();
    print_string (Obs.Profile.summary prof)
  in
  let stress_domains_arg =
    Arg.(value & opt int 1
         & info [ "domains"; "j" ] ~docv:"N"
             ~doc:"Stress mode: run $(docv) copies of the target at once, \
                   one per OCaml domain, into the same metrics (default 1; \
                   metrics are byte-stable only at 1).")
  in
  let target_arg =
    let doc =
      "Profile target: pipeline, guarded, replicated, or a bundled model ("
      ^ String.concat ", " model_names ^ ")."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a case study under full instrumentation: deterministic \
          metrics (--metrics CSV, byte-identical across runs), \
          Chrome-trace spans (--trace JSON), and a wall-clock \
          per-component summary on stdout")
    Term.(const run $ target_arg $ ticks_arg 200 $ stress_domains_arg
          $ metrics_arg $ trace_out_arg)

let serve_cmd =
  let run spool results cache_dir workers domains once poll_ms max_jobs
      socket reclaim_s metrics =
    validate_positive "--workers" workers;
    validate_positive "--domains" domains;
    validate_positive "--poll-ms" poll_ms;
    Option.iter (validate_positive "--max-jobs") max_jobs;
    Option.iter
      (fun s ->
        if s <= 0. then (
          Printf.eprintf "error: --reclaim-s must be positive (got %g)\n" s;
          exit 1))
      reclaim_s;
    let cache = make_cache cache_dir in
    let m = Option.map (fun _ -> Obs.Metrics.create ()) metrics in
    let config =
      { Serve.Daemon.spool;
        results =
          (match results with
           | Some r -> r
           | None -> Filename.concat spool "results");
        cache; workers; domains;
        poll_s = float_of_int poll_ms /. 1000.;
        once; max_jobs; socket; reclaim_s }
    in
    let summary = Serve.Daemon.run ?metrics:m config in
    (match (metrics, m) with
     | Some path, Some m -> write_file path (Obs.Metrics.to_csv m)
     | _ -> ());
    Printf.printf "serve: accepted %d, completed %d, failed %d\n"
      summary.Serve.Daemon.accepted summary.Serve.Daemon.completed
      summary.Serve.Daemon.failed;
    if summary.Serve.Daemon.failed > 0 then exit 1
  in
  let spool_arg =
    Arg.(required & opt (some string) None
         & info [ "spool" ] ~docv:"DIR"
             ~doc:"Job inbox: $(docv)/*.json files of newline-delimited \
                   JSON campaign jobs.  Claimed files move to \
                   $(docv)/running and end in $(docv)/done or \
                   $(docv)/failed; a $(docv)/stop file shuts the daemon \
                   down.")
  in
  let results_arg =
    Arg.(value & opt (some string) None
         & info [ "results" ] ~docv:"DIR"
             ~doc:"Where per-job report and status files go (default: \
                   $(b,--spool)/results).")
  in
  let workers_arg =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Concurrent jobs per batch (OCaml domains).")
  in
  let once_flag =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Drain the spool, then exit instead of polling.")
  in
  let poll_ms_arg =
    Arg.(value & opt int 500
         & info [ "poll-ms" ] ~docv:"MS"
             ~doc:"Idle sleep between spool scans, in milliseconds.")
  in
  let max_jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "max-jobs" ] ~docv:"N"
             ~doc:"Exit after $(docv) jobs have finished.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Also accept jobs on a Unix-domain socket at $(docv): \
                   each connection sends newline-delimited jobs and gets \
                   one $(b,queued)/$(b,error) line back per job.")
  in
  let reclaim_arg =
    Arg.(value & opt (some float) None
         & info [ "reclaim-s" ] ~docv:"SECONDS"
             ~doc:"Stale-claim timeout: spool files claimed into \
                   running/ but not finished within $(docv) seconds \
                   (their worker crashed) are put back into the spool \
                   and re-run.  Set it above the worst-case job latency; \
                   omitted, orphaned claims wait for an operator.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Campaign-as-a-service: a job-queue daemon running robustness, \
          guard and redundancy campaigns from a file spool (and \
          optionally a Unix socket), with per-seed verdicts served from \
          the content-addressed cache.  Job reports are byte-identical \
          to the matching one-shot subcommand run")
    Term.(const run $ spool_arg $ results_arg $ cache_dir_arg $ workers_arg
          $ domains_arg $ once_flag $ poll_ms_arg $ max_jobs_arg
          $ socket_arg $ reclaim_arg $ metrics_arg)

let pipeline_cmd =
  let run () =
    let r = Pipeline.run () in
    Format.printf "%a" Pipeline.pp_summary r
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Run the full reengineer/cluster/deploy/codegen pipeline (Fig. 3)")
    Term.(const run $ const ())

let () =
  let default =
    Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))
  in
  let info =
    Cmd.info "automode" ~version:"1.0.0"
      ~doc:"Model-based development of automotive software (AutoMoDe, DATE'05)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ simulate_cmd; render_cmd; causality_cmd; rules_cmd; check_cmd;
            reengineer_cmd; deploy_cmd; codegen_cmd; save_cmd;
            check_model_cmd; timeline_cmd; robustness_cmd; guard_cmd;
            redund_cmd; proptest_cmd; litmus_cmd; serve_cmd; profile_cmd;
            pipeline_cmd ]))
