open Automode_core
open Automode_osek
open Automode_robust
open Automode_guard

(* ------------------------------------------------------------------ *)
(* Guarded door lock: health qualification + degradation manager       *)
(* ------------------------------------------------------------------ *)

(* Voltage plausibility mirrors the 5..32 V monitor of the unguarded
   campaign; startup substitute is nominal battery voltage.  Thresholds
   are in base ticks: FZG_V arrives every second tick, so suspect_after=2
   keeps the nominal inter-sample gap silent (transparency). *)
let voltage_cfg =
  Health.config ~suspect_after:2 ~timeout_after:8 ~invalid_after:1
    ~recover_after:1 ~plausible:(5., 32.) ~startup:(Value.Float 24.) ()

let protected_lock =
  Health.protect ~expose_qualified:true
    ~flows:[ ("FZG_V", voltage_cfg) ]
    Door_lock.component

let v_ok_flow = Health.ok_flow "FZG_V"

let manager =
  Degrade.manager ~limp_after:6 ~recover_after:3 ~health_inputs:[ v_ok_flow ] ()

(* The complete guarded controller: the qualified door lock plus the
   limp-home manager listening to the voltage health flag.  Everything
   the unguarded component exposes is forwarded under the same name, so
   the same stimulus and monitors apply to both. *)
let component =
  let inner = protected_lock.Model.comp_name in
  let mgr = manager.Model.comp_name in
  let chan = Model.channel in
  Model.component "DoorLockGuarded"
    ~ports:
      [ Model.in_port ~ty:Door_lock.lock_status "T4S";
        Model.in_port ~ty:Door_lock.crash_status ~clock:(Clock.event "crash")
          "CRSH";
        Model.in_port ~ty:Dtype.Tfloat ~clock:(Clock.every 2 Clock.Base)
          "FZG_V";
        Model.out_port ~ty:Door_lock.lock_command "T1C";
        Model.out_port ~ty:Door_lock.lock_command "T2C";
        Model.out_port ~ty:Door_lock.lock_command "T3C";
        Model.out_port ~ty:Door_lock.lock_command "T4C";
        Model.out_port ~ty:Dtype.Tbool v_ok_flow;
        Model.out_port ~ty:Health.status_type (Health.status_flow "FZG_V");
        Model.out_port ~ty:Dtype.Tfloat (Health.qualified_flow "FZG_V");
        Model.out_port ~ty:Degrade.mode_type "MODE" ]
    ~behavior:
      (Model.B_dfd
         { Model.net_name = "DoorLockGuardedNet";
           net_components = [ protected_lock; manager ];
           net_channels =
             [ chan ~name:"w_t4s" (Model.boundary "T4S") (Model.at inner "T4S");
               chan ~name:"w_crsh" (Model.boundary "CRSH")
                 (Model.at inner "CRSH");
               chan ~name:"w_v" (Model.boundary "FZG_V")
                 (Model.at inner "FZG_V");
               chan ~name:"w_t1c" (Model.at inner "T1C")
                 (Model.boundary "T1C");
               chan ~name:"w_t2c" (Model.at inner "T2C")
                 (Model.boundary "T2C");
               chan ~name:"w_t3c" (Model.at inner "T3C")
                 (Model.boundary "T3C");
               chan ~name:"w_t4c" (Model.at inner "T4C")
                 (Model.boundary "T4C");
               chan ~name:"w_vok" (Model.at inner v_ok_flow)
                 (Model.boundary v_ok_flow);
               chan ~name:"w_vok_mgr" (Model.at inner v_ok_flow)
                 (Model.at mgr v_ok_flow);
               chan ~name:"w_vst" (Model.at inner (Health.status_flow "FZG_V"))
                 (Model.boundary (Health.status_flow "FZG_V"));
               chan ~name:"w_vq"
                 (Model.at inner (Health.qualified_flow "FZG_V"))
                 (Model.boundary (Health.qualified_flow "FZG_V"));
               chan ~name:"w_mode" (Model.at mgr "mode")
                 (Model.boundary "MODE") ] })

(* ------------------------------------------------------------------ *)
(* Protected vs. unprotected campaign                                  *)
(* ------------------------------------------------------------------ *)

(* The guard-layer fault recipe: a heavy voltage-sensor dropout plus an
   implausible 2 V spike storm.  Unguarded, the spikes drive v_ok false
   (2 V < 9 V) and the dropout starves it, so lock requests go
   unanswered; guarded, the qualifier rejects the spikes (outside
   5..32 V) and substitutes last-known-good across the gaps. *)
let guard_faults seed =
  [ Fault.dropout ~flow:"FZG_V"
      (Fault.Random_ticks { probability = 0.5; seed });
    Fault.spike ~flow:"FZG_V" ~value:(Value.Float 2.)
      (Fault.Random_ticks { probability = 0.25; seed = seed + 1000 }) ]

(* Monitors shared by both sides: the functional requirements only. *)
let functional_monitors =
  [ Monitor.bounded_response ~name:"lock-answered" ~stimulus:"T4S"
      ~response:"T4C" ~within:4
      ~stim_pred:(Robustness.is_lit Door_lock.lock_status "Locked")
      ~resp_pred:(Robustness.is_lit Door_lock.lock_command "Lock")
      ();
    Monitor.bounded_response ~name:"crash-answered" ~stimulus:"CRSH"
      ~response:"T4C" ~within:4
      ~stim_pred:(Robustness.is_lit Door_lock.crash_status "Crash")
      ~resp_pred:(Robustness.is_lit Door_lock.lock_command "Unlock")
      () ]

(* Guarded side additionally asserts the substitute stream itself stays
   plausible — the property the raw stream violates under the spikes. *)
let guarded_monitors =
  functional_monitors
  @ [ Monitor.range ~name:"qualified-voltage-plausible"
        ~flow:(Health.qualified_flow "FZG_V") ~lo:5. ~hi:32. ]

let unguarded_scenario =
  Scenario.make ~schedule:Robustness.lock_schedule
    ~events:Robustness.lock_events ~name:"door-lock-unguarded"
    ~component:Door_lock.component ~ticks:Robustness.lock_ticks
    ~inputs:Robustness.lock_stimulus ~faults:guard_faults
    ~monitors:functional_monitors ()

let guarded_scenario =
  Scenario.make ~schedule:Robustness.lock_schedule
    ~events:Robustness.lock_events ~name:"door-lock-guarded"
    ~component ~ticks:Robustness.lock_ticks ~inputs:Robustness.lock_stimulus
    ~faults:guard_faults ~monitors:guarded_monitors ()

type comparison = {
  unguarded : Scenario.campaign;
  guarded : Scenario.campaign;
}

let door_lock_comparison ?shrink ~seeds () =
  { unguarded = Scenario.sweep ?shrink unguarded_scenario ~seeds;
    guarded = Scenario.sweep ?shrink guarded_scenario ~seeds }

let pp_comparison ppf { unguarded; guarded } =
  let count c =
    List.length
      (List.sort_uniq Int.compare
         (List.map (fun (f : Scenario.failure) -> f.Scenario.fail_seed)
            c.Scenario.failures))
  in
  let total c = List.length c.Scenario.seeds in
  Format.fprintf ppf "%-20s %d/%d seeds failing@." unguarded.Scenario.scenario
    (count unguarded) (total unguarded);
  Format.fprintf ppf "%-20s %d/%d seeds failing@." guarded.Scenario.scenario
    (count guarded) (total guarded);
  List.iter
    (fun (f : Scenario.failure) ->
      Format.fprintf ppf "  guarded failure: seed %d, %s: %s@."
        f.Scenario.fail_seed f.Scenario.fail_monitor
        (Monitor.verdict_to_string f.Scenario.verdict))
    guarded.Scenario.failures

(* ------------------------------------------------------------------ *)
(* Recovery: a bounded sensor outage, then the health flag comes back   *)
(* ------------------------------------------------------------------ *)

(* A hard outage window: the sensor is silent and, when it briefly
   speaks, implausible.  After the window ends, [recovers] requires the
   health flag to return within the qualifier's recovery latency. *)
let outage_faults _seed =
  [ Fault.dropout ~flow:"FZG_V" (Fault.Window { from_tick = 8; until_tick = 24 });
    Fault.spike ~flow:"FZG_V" ~value:(Value.Float 2.)
      (Fault.Window { from_tick = 12; until_tick = 16 }) ]

let outage_last_active =
  match Fault.last_active_tick (outage_faults 0) ~horizon:Robustness.lock_ticks with
  | Some t -> t
  | None -> assert false

let recovery_monitors =
  [ Monitor.recovers ~name:"voltage-health-recovers" ~flow:v_ok_flow
      ~pred:(fun v -> Value.equal v (Value.Bool true))
      ~after:outage_last_active ~within:6 () ]

let recovery_scenario =
  Scenario.make ~schedule:Robustness.lock_schedule
    ~events:Robustness.lock_events ~name:"door-lock-recovery"
    ~component ~ticks:Robustness.lock_ticks ~inputs:Robustness.lock_stimulus
    ~faults:outage_faults ~monitors:recovery_monitors ()

let recovery_campaign ?shrink ~seeds () =
  Scenario.sweep ?shrink recovery_scenario ~seeds

(* ------------------------------------------------------------------ *)
(* Guarded engine deployment: E2E frames + scheduler watchdog          *)
(* ------------------------------------------------------------------ *)

let engine_profile = E2e.profile ~data_id:0x2A ()

let guarded_engine_injection ?(loss_rate = 0.35) ?(burst_rate = 0.02)
    ?(burst_len = 4) ?(overrun_rate = 0.05) ?(overrun_factor = 500.) ~seed () =
  Inject_net.nominal Engine_ccd.deployment
  |> Inject_net.with_background ~bus:"can_powertrain" Robustness.chatter
  |> Inject_net.with_can_loss ~seed ~loss_rate ~burst_rate ~burst_len
  |> Inject_net.with_exec
       (Scheduler.exec_model ~jitter_frac:0.2 ~overrun_rate ~overrun_factor
          ~seed ())
  |> Inject_net.with_watchdog (Scheduler.watchdog ~budget_factor:2. Scheduler.Skip)
  |> Inject_net.with_frame_map (fun _bus f -> E2e.protect_frame engine_profile f)

(* Guarded verdicts replace the bare no-frame-loss criterion: losses
   still happen on a faulty bus, but every loss run must stay within the
   alive counter's detectable gap so receivers qualify/substitute
   instead of consuming stale data — and the watchdog must keep the
   ECUs schedulable despite the injected overruns. *)
let guarded_engine_verdicts (report : Inject_net.report) =
  List.map
    (fun (bus, r) -> E2e.bus_verdict engine_profile ~bus r)
    report.Inject_net.buses
  @ List.filter
      (fun (name, _) -> String.length name >= 4 && String.sub name 0 4 = "ecu:")
      (Inject_net.verdicts report)

let guarded_engine_campaign ?(horizon = 200_000) ?loss_rate ?burst_rate
    ?burst_len ?overrun_rate ?overrun_factor ~seeds () =
  Parallel.map
    (fun seed ->
      let inj =
        guarded_engine_injection ?loss_rate ?burst_rate ?burst_len
          ?overrun_rate ?overrun_factor ~seed ()
      in
      (seed, guarded_engine_verdicts (Inject_net.simulate inj ~horizon)))
    seeds
