(* Cached counterparts of the CLI campaigns.  Report strings are
   rendered with the exact format strings bin/automode_cli.ml uses, so
   a daemon job's report file is byte-identical to the one-shot CLI
   run with the same parameters. *)

open Automode_robust
open Automode_casestudy

let robustness ?cache ?shrink ?prefix_share ~seeds () =
  Cached.sweep ?cache ?shrink ?prefix_share
    Robustness.door_lock_scenario ~seeds

let robustness_engine ?cache ~horizon ~seeds () =
  Cached.net_campaign ?cache
    ~leg:(Printf.sprintf "robustness-engine|h=%d" horizon)
    ~run:(fun ~seeds -> Robustness.engine_campaign ~horizon ~seeds ())
    ~seeds ()

let guard ?cache ?shrink ?prefix_share ~seeds () =
  let sweep scn =
    Cached.sweep ?cache ?shrink ?prefix_share scn ~seeds
  in
  ( { Guarded.unguarded = sweep Guarded.unguarded_scenario;
      guarded = sweep Guarded.guarded_scenario },
    sweep Guarded.recovery_scenario )

let guard_engine ?cache ~horizon ~seeds () =
  ( robustness_engine ?cache ~horizon ~seeds (),
    Cached.net_campaign ?cache
      ~leg:(Printf.sprintf "guard-engine|h=%d" horizon)
      ~run:(fun ~seeds ->
        Guarded.guarded_engine_campaign ~horizon ~seeds ())
      ~seeds () )

let redund ?cache ?shrink ?prefix_share ~horizon ~seeds () =
  let sweep scn =
    Cached.sweep ?cache ?shrink ?prefix_share scn ~seeds
  in
  let faults = Replicated.shared_channel_faults ~seeds in
  let channel ~dual =
    Cached.net_campaign ?cache
      ~leg:
        (Printf.sprintf "redund-%s|h=%d"
           (if dual then "dual" else "single")
           horizon)
      ~run:(fun ~seeds ->
        Replicated.channel_campaign ~horizon ~faults ~dual ~seeds ())
      ~seeds ()
  in
  { Replicated.replicated = sweep Replicated.replicated_scenario;
    simplex = sweep Replicated.simplex_scenario;
    reset = sweep Replicated.reset_scenario;
    tmr = sweep Replicated.tmr_scenario;
    tmr_simplex = sweep Replicated.tmr_simplex_scenario;
    dual = channel ~dual:true;
    single = channel ~dual:false }

type outcome = {
  report : string;
  gate_ok : bool;
}

(* Property-testing campaigns cache at whole-report granularity: the
   comparison is a pure function of (components, iterations, shrink,
   seeds, engine revision), and the report already contains everything
   a resubmission needs — so identical jobs are pure cache hits.  The
   payload is "gate=0|1\n" followed by the raw report bytes (no JSON
   escaping to keep byte-identity trivially audit-able on disk). *)
(* [?prefix_share] is deliberately absent from the cache key: the
   executor's plans and the looped reference render byte-identical
   reports, so they share entries. *)
let proptest ?cache ?(shrink = true) ?prefix_share ?(iterations = 2) ~seeds
    () =
  let compute () =
    let c =
      Automode_casestudy.Propcase.run ~shrink ?prefix_share ~iterations
        ~seeds ()
    in
    { report = Automode_casestudy.Propcase.to_text c;
      gate_ok = Automode_casestudy.Propcase.contrast_holds c }
  in
  match cache with
  | None -> compute ()
  | Some cache ->
    let key =
      Printf.sprintf "proptest|%s|%s|it=%d|shrink=%b|seeds=%s|%s"
        (Digest.component Door_lock.component)
        (Digest.component Guarded.component)
        iterations shrink
        (Digest.string (String.concat "," (List.map string_of_int seeds)))
        Digest.engine_rev
    in
    let decode payload =
      match String.index_opt payload '\n' with
      | None -> None
      | Some i ->
        let report =
          String.sub payload (i + 1) (String.length payload - i - 1)
        in
        (match String.sub payload 0 i with
         | "gate=1" -> Some { report; gate_ok = true }
         | "gate=0" -> Some { report; gate_ok = false }
         | _ -> None)
    in
    (match Cache.find cache ~key ~decode with
     | Some o -> o
     | None ->
       let o = compute () in
       Cache.store cache ~key
         ((if o.gate_ok then "gate=1\n" else "gate=0\n") ^ o.report);
       o)

module Synth = Automode_litmus.Synth

(* Litmus synthesis memoizes per-scenario classifications: the key
   prefix binds both component digests and the engine revision, so a
   model edit recomputes only what changed while the canonical-form
   suffix carries the scenario identity. *)
let litmus_model () =
  Digest.string
    (Digest.component Door_lock.component ^ "|"
     ^ Digest.component Guarded.component ^ "|" ^ Digest.engine_rev)

let litmus_hooks cache =
  { Synth.cache_prefix =
      Printf.sprintf "litmus|%s|%s|%s|"
        (Digest.component Door_lock.component)
        (Digest.component Guarded.component)
        Digest.engine_rev;
    cache_find = (fun key -> Cache.find cache ~key ~decode:Option.some);
    cache_store = (fun key payload -> Cache.store cache ~key payload) }

let litmus_result ?cache ?prefix_share
    ?(bound = 2) ?(max_scenarios = 100_000) ?engine () =
  Litmus_lock.synthesize
    ?cache:(Option.map litmus_hooks cache)
    ~config:{ Synth.bound; max_scenarios; shrink = true }
    ?prefix_share ?engine ()

let litmus ?cache ?prefix_share ?bound ?max_scenarios () =
  let r = litmus_result ?cache ?prefix_share ?bound ?max_scenarios () in
  { report = Synth.to_text r; gate_ok = Synth.gate r }

let verdicts_fail vs =
  List.exists
    (fun (_, v) ->
      match v with Monitor.Fail _ -> true | Monitor.Pass -> false)
    vs

let run ?cache ?shrink ?prefix_share ?(horizon = 200_000)
    ?(iterations = 2) ?(bound = 2) ~kind ~engine ~seeds () =
  match (kind, engine) with
  | Job.Litmus, _ -> litmus ?cache ?prefix_share ~bound ()
  | Job.Proptest, _ ->
    proptest ?cache ?shrink ?prefix_share ~iterations ~seeds ()
  | Job.Robustness, true ->
    let results = robustness_engine ?cache ~horizon ~seeds () in
    { report = Format.asprintf "%a" Robustness.pp_engine_campaign results;
      gate_ok = not (List.exists (fun (_, vs) -> verdicts_fail vs) results) }
  | Job.Robustness, false ->
    let campaign =
      robustness ?cache ?shrink ?prefix_share ~seeds ()
    in
    { report = Report.to_text campaign;
      gate_ok = campaign.Scenario.failures = [] }
  | Job.Guard, true ->
    let results, guarded = guard_engine ?cache ~horizon ~seeds () in
    { report =
        Format.asprintf "unguarded engine deployment:@.%a%s%a"
          Robustness.pp_engine_campaign results
          "guarded engine deployment (E2E frames + watchdog):\n"
          Robustness.pp_engine_campaign guarded;
      gate_ok = not (List.exists (fun (_, vs) -> verdicts_fail vs) guarded) }
  | Job.Guard, false ->
    let cmp, recovery =
      guard ?cache ?shrink ?prefix_share ~seeds ()
    in
    { report =
        Format.asprintf "%a%-20s %d/%d seeds failing@." Guarded.pp_comparison
          cmp "door-lock-recovery"
          (List.length recovery.Scenario.failures)
          (List.length seeds);
      gate_ok =
        cmp.Guarded.guarded.Scenario.failures = []
        && recovery.Scenario.failures = [] }
  | Job.Redund, _ ->
    let r = redund ?cache ?shrink ?prefix_share ~horizon ~seeds () in
    { report = Format.asprintf "%a" Replicated.pp_report r;
      gate_ok = Replicated.gate r }
