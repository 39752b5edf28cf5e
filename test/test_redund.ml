(* Redundancy subsystem: voters, heartbeat failover, cluster
   replication, and the replicated-vs-unreplicated capstone campaign. *)

open Automode_core
open Automode_la
open Automode_robust
open Automode_redund
open Automode_casestudy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let msg_at tr flow tick = Trace.get tr ~flow ~tick

(* ------------------------------------------------------------------ *)
(* Voter semantics                                                     *)
(* ------------------------------------------------------------------ *)

(* Hot-standby pair: primary routed while present, standby fills in,
   agreement flag false exactly on a present disagreement. *)
let test_voter_pair () =
  let comp = Voter.pair ~ty:Dtype.Tfloat () in
  let inputs tick =
    match tick with
    | 0 -> [ ("primary", Value.Present (Value.Float 1.)) ]
    | 1 ->
        [ ("primary", Value.Present (Value.Float 2.));
          ("standby", Value.Present (Value.Float 2.)) ]
    | 2 -> [ ("standby", Value.Present (Value.Float 3.)) ]
    | 3 ->
        [ ("primary", Value.Present (Value.Float 4.));
          ("standby", Value.Present (Value.Float 5.)) ]
    | _ -> []
  in
  let tr = Sim.run ~ticks:5 ~inputs comp in
  check "primary routed" true
    (msg_at tr "out" 0 = Value.Present (Value.Float 1.));
  check "standby fills in" true
    (msg_at tr "out" 2 = Value.Present (Value.Float 3.));
  check "standby flag set" true
    (msg_at tr "using_standby" 2 = Value.Present (Value.Bool true));
  check "primary wins on disagreement" true
    (msg_at tr "out" 3 = Value.Present (Value.Float 4.));
  check "disagreement flagged" true
    (msg_at tr "agree" 3 = Value.Present (Value.Bool false));
  check "silent standby cannot disagree" true
    (msg_at tr "agree" 0 = Value.Present (Value.Bool true));
  check "both silent -> absent" true (msg_at tr "out" 4 = Value.Absent)

(* 2oo3 majority: a single faulty or silent replica is outvoted. *)
let test_voter_tmr () =
  let comp = Voter.tmr ~ty:Dtype.Tfloat () in
  let inputs tick =
    match tick with
    | 0 ->
        [ ("in1", Value.Present (Value.Float 7.));
          ("in2", Value.Present (Value.Float 7.));
          ("in3", Value.Present (Value.Float 99.)) ]
    | 1 ->
        [ ("in1", Value.Present (Value.Float 8.));
          ("in3", Value.Present (Value.Float 8.)) ]
    | 2 -> [ ("in2", Value.Present (Value.Float 9.)) ]
    | _ -> []
  in
  let tr = Sim.run ~ticks:3 ~inputs comp in
  check "faulty replica outvoted" true
    (msg_at tr "out" 0 = Value.Present (Value.Float 7.));
  check "agree with spiked third" true
    (msg_at tr "agree" 0 = Value.Present (Value.Bool true));
  check_int "nvalid counts presence"
    3
    (match msg_at tr "nvalid" 0 with
    | Value.Present (Value.Int n) -> n
    | _ -> -1);
  check "silent replica outvoted" true
    (msg_at tr "out" 1 = Value.Present (Value.Float 8.));
  check "lone survivor still routed" true
    (msg_at tr "out" 2 = Value.Present (Value.Float 9.));
  check "lone survivor cannot agree" true
    (msg_at tr "agree" 2 = Value.Present (Value.Bool false))

(* ------------------------------------------------------------------ *)
(* Failover switchover latency                                         *)
(* ------------------------------------------------------------------ *)

(* Crash the primary of the replicated engine at tick 10: the fuel
   stream is absent for exactly timeout_ticks - 1 ticks, then the
   standby serves under mode Standby. *)
let test_failover_latency () =
  let crash_tick = 10 in
  let inputs tick =
    let all = Replicated.repl_stimulus tick in
    if tick < crash_tick then all
    else
      List.filter (fun (f, _) -> f <> "pedal_p" && f <> "hb_p") all
  in
  let tr = Sim.run ~ticks:20 ~inputs Replicated.replicated in
  check "fuel present before crash" true
    (msg_at tr "fuel" (crash_tick - 1) <> Value.Absent);
  check "gap tick 1" true (msg_at tr "fuel" crash_tick = Value.Absent);
  check "gap tick 2" true (msg_at tr "fuel" (crash_tick + 1) = Value.Absent);
  check "standby serves after timeout" true
    (msg_at tr "fuel" (crash_tick + 2) <> Value.Absent);
  check "mode is Standby" true
    (msg_at tr "mode" (crash_tick + 2)
    = Value.Present (Failover.mode_value "Standby"));
  check "primary declared dead" true
    (msg_at tr "p_alive" (crash_tick + 2) = Value.Present (Value.Bool false));
  (* the observed gap is the bounded-recovery claim *)
  check_int "gap = timeout - 1"
    (Replicated.timeout_ticks - 1)
    (let col = Trace.column tr "fuel" in
     let worst, _ =
       List.fold_left
         (fun (worst, cur) m ->
           match m with
           | Value.Absent -> (max worst (cur + 1), cur + 1)
           | Value.Present _ -> (worst, 0))
         (0, 0) col
     in
     worst)

let test_heartbeat_monitor_validation () =
  Alcotest.check_raises "empty heartbeat list"
    (Invalid_argument "Heartbeat.monitor: no heartbeats") (fun () ->
      ignore (Heartbeat.monitor ~timeout_ticks:3 ~heartbeats:[] ()));
  check "flow naming" true (Heartbeat.flow "ecu_p" = "ecu_p_hb")

(* ------------------------------------------------------------------ *)
(* Replication transform                                               *)
(* ------------------------------------------------------------------ *)

let test_replicate_structure () =
  let ccd = Engine_ccd.ccd in
  let r = Replicate.in_ccd ~cluster:"FuelInjection" ~replicas:2 ccd in
  let has name = Ccd.find_cluster r name <> None in
  check "replica 1" true (has "FuelInjection_r1");
  check "replica 2" true (has "FuelInjection_r2");
  check "voter cluster" true (has "FuelInjection_voter");
  check "original cluster gone" false (has "FuelInjection");
  check "ccd still well-formed" true (Ccd.check r = []);
  let chan_names =
    List.map (fun c -> c.Model.ch_name) r.Ccd.channels
  in
  check "fan-in duplicated per replica" true
    (List.mem "air_to_fuel_r1" chan_names
    && List.mem "air_to_fuel_r2" chan_names);
  check "replica-to-voter channels" true
    (List.mem
       (Replicate.voter_input_channel ~cluster:"FuelInjection" ~port:"out" 1)
       chan_names)

let test_replicate_validation () =
  Alcotest.check_raises "unknown cluster"
    (Invalid_argument "Replicate.in_ccd: unknown cluster Nope") (fun () ->
      ignore (Replicate.in_ccd ~cluster:"Nope" ~replicas:2 Engine_ccd.ccd));
  Alcotest.check_raises "bad replica count"
    (Invalid_argument "Replicate.in_ccd: 2 (hot standby) or 3 (TMR) replicas")
    (fun () ->
      ignore (Replicate.in_ccd ~cluster:"FuelInjection" ~replicas:4
                Engine_ccd.ccd))

let test_replicated_deployment_checks () =
  check "replicated deployment passes Deploy.check" true
    (Deploy.check Replicated.replicated_deployment = []);
  check_str "replica on its own ecu" "ecu_p"
    (match
       Deploy.ecu_of_cluster Replicated.replicated_deployment
         "FuelInjection_r1"
     with
    | Some e -> e
    | None -> "?")

(* ------------------------------------------------------------------ *)
(* Capstone campaign                                                   *)
(* ------------------------------------------------------------------ *)

let seeds = [ 1; 2; 3 ]

let campaign = lazy (Replicated.campaign ~shrink:false ~seeds ())

let test_campaign_gate () =
  let r = Lazy.force campaign in
  check "replicated survives every seed" true (Replicated.gate r);
  check "unprotected legs fail as they should" true
    (Replicated.contrast_fails r)

let test_campaign_contrast_detail () =
  let r = Lazy.force campaign in
  check_int "no replicated failures" 0
    (List.length r.Replicated.replicated.Scenario.failures);
  check_int "every simplex seed fails" (List.length seeds)
    (List.length
       (List.sort_uniq compare
          (List.map
             (fun f -> f.Scenario.fail_seed)
             r.Replicated.simplex.Scenario.failures)));
  let failing_single =
    List.filter
      (fun (_, vs) ->
        List.exists
          (fun (m, v) -> m = "ttbus:flexray:delivery" && v <> Monitor.Pass)
          vs)
      r.Replicated.single
  in
  check "single channel loses frames" true (failing_single <> []);
  check "dual channel never does" true
    (List.for_all
       (fun (_, vs) -> List.for_all (fun (_, v) -> v = Monitor.Pass) vs)
       r.Replicated.dual)

let test_campaign_deterministic () =
  let render r = Format.asprintf "%a" Replicated.pp_report r in
  let a = render (Lazy.force campaign) in
  let b = render (Replicated.campaign ~shrink:false ~seeds ()) in
  check_str "byte-identical reports" a b

(* Sharing one TT fault model per seed between the dual and the
   single-channel leg only skips repeated draws: the verdicts, the
   rendered report and every probe counter and gauge equal those of
   per-leg fault models. *)
let test_shared_fault_models () =
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let legs faults =
    let m = Automode_obs.Metrics.create () in
    let legs =
      Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m) (fun () ->
          let dual = Replicated.channel_campaign ?faults ~dual:true ~seeds () in
          let single =
            Replicated.channel_campaign ?faults ~dual:false ~seeds ()
          in
          (dual, single))
    in
    (legs, Automode_obs.Metrics.to_csv m)
  in
  let (dual, single), metrics = legs None in
  let (dual', single'), metrics' =
    legs (Some (Replicated.shared_channel_faults ~seeds))
  in
  check "dual verdicts equal" true (dual = dual');
  check "single verdicts equal" true (single = single');
  check_str "probe counters and gauges equal" metrics metrics';
  check "tt probes fired" true
    (String.length metrics > 0
    && List.exists
         (fun l -> String.length l > 3 && String.sub l 0 3 = "tt.")
         (String.split_on_char '\n' metrics));
  let render r = Format.asprintf "%a" Replicated.pp_report r in
  let shared = Replicated.campaign ~shrink:false ~seeds () in
  check_str "report equals the per-leg report" (render shared)
    (render { shared with Replicated.dual; single })

(* ------------------------------------------------------------------ *)
(* Generated communication components                                  *)
(* ------------------------------------------------------------------ *)

let test_redundancy_codegen () =
  let voters, heartbeats = Replicated.redundancy_specs in
  check_int "one voter spec" 1 (List.length voters);
  check_int "two heartbeat specs" 2 (List.length heartbeats);
  let projects = Replicated.projects () in
  let all =
    String.concat "\n"
      (List.map
         (fun p -> p.Automode_codegen.Ascet_project.project_text)
         projects)
  in
  check "voter comm emitted" true
    (let re = "comm vote" in
     let rec find i =
       i + String.length re <= String.length all
       && (String.sub all i (String.length re) = re || find (i + 1))
     in
     find 0);
  check "heartbeat comm emitted" true
    (let re = "comm heartbeat" in
     let rec find i =
       i + String.length re <= String.length all
       && (String.sub all i (String.length re) = re || find (i + 1))
     in
     find 0)

let () =
  Alcotest.run "automode-redund"
    [ ( "voter",
        [ Alcotest.test_case "hot-standby pair" `Quick test_voter_pair;
          Alcotest.test_case "2oo3 majority" `Quick test_voter_tmr ] );
      ( "failover",
        [ Alcotest.test_case "switchover latency" `Quick
            test_failover_latency;
          Alcotest.test_case "monitor validation" `Quick
            test_heartbeat_monitor_validation ] );
      ( "replicate",
        [ Alcotest.test_case "ccd structure" `Quick test_replicate_structure;
          Alcotest.test_case "validation" `Quick test_replicate_validation;
          Alcotest.test_case "deployment checks" `Quick
            test_replicated_deployment_checks ] );
      ( "campaign",
        [ Alcotest.test_case "gate + contrast" `Quick test_campaign_gate;
          Alcotest.test_case "contrast detail" `Quick
            test_campaign_contrast_detail;
          Alcotest.test_case "deterministic" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "shared TT fault models" `Quick
            test_shared_fault_models ] );
      ( "codegen",
        [ Alcotest.test_case "redundancy comm components" `Quick
            test_redundancy_codegen ] ) ]
