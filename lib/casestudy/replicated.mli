(** Replicated-vs-unreplicated redundancy campaigns (the PR's
    capstone): the guarded engine deployment replicated across ECUs on
    a dual-channel bus survives any single ECU crash and any single
    channel loss with bounded recovery time, while the unreplicated
    deployment fails the same seeds.

    Three legs, all deterministic in the seed list:
    - {e ECU crash / reset} (model level, ticks): a hot-standby pair of
      the fuel-law cluster behind {!Automode_redund.Failover.manager},
      each replica with its own boundary sensor and heartbeat flows so
      {!Automode_robust.Fault.ecu_crash} can silence one whole ECU; the
      fuel stream's absence gap must stay within the failover timeout.
    - {e Replica corruption} (model level): a sensor triple behind
      {!Automode_redund.Voter.tmr}; one replica spikes and drops out,
      the voted stream must stay plausible.
    - {e Channel loss} (TA level, microseconds): the replicated engine
      deployment's replica streams on a dual-channel
      {!Automode_osek.Tt_bus} schedule survive a seeded outage of
      channel A that kills the single-channel variant. *)

open Automode_core
open Automode_la
open Automode_robust

(** {1 Model-level components} *)

val timeout_ticks : int
(** Heartbeat timeout of the failover manager (3 ticks). *)

val gap_bound : int
(** Maximum tolerated consecutive-absent gap on the fuel stream, in
    ticks — the bounded-recovery assertion ([timeout_ticks]). *)

val repl_ticks : int
(** Horizon of the model-level scenarios, in base ticks. *)

val repl_stimulus : Sim.input_fn
(** Nominal stimulus: identical pedal samples to both replicas plus
    their heartbeat counters, every tick. *)

val simplex : Model.component
(** The unreplicated baseline: one fuel law on one ECU ([pedal_p] in,
    [fuel] out). *)

val replicated : Model.component
(** The hot-standby pair: per-replica sensor and heartbeat flows
    ([pedal_p]/[pedal_s]/[hb_p]/[hb_s]) in, the selected [fuel] stream,
    the failover [mode] and the liveness flags out. *)

(** {1 Scenarios} *)

val crash_site : int -> int * bool
(** Deterministic per-seed crash plan: (crash tick, primary?). *)

val replicated_scenario : Scenario.t
val simplex_scenario : Scenario.t
(** Single-ECU-crash campaigns over the same seeded crash plan. *)

val reset_scenario : Scenario.t
(** Transient primary reset: switchover to the standby and deterministic
    switchback once the primary's heartbeat resumes. *)

val tmr_scenario : Scenario.t
val tmr_simplex_scenario : Scenario.t
(** Replica-corruption campaigns: 2oo3 majority voting vs. consuming
    the faulty replica directly. *)

(** {1 TA-level channel-loss leg} *)

val redundant_ta : Ta.t
(** Four-ECU technical architecture hosting the replicated engine
    controller (main + two replica ECUs + body). *)

val base_deployment : Deploy.t
(** The engine CCD on {!redundant_ta}, unreplicated. *)

val replicated_deployment : Deploy.t
(** {!base_deployment} with the [FuelInjection] cluster replicated as a
    hot-standby pair via {!Automode_redund.Replicate.deploy}. *)

val tt_schedule : dual:bool -> Automode_osek.Tt_bus.schedule
(** The static slot schedule of the replica streams and heartbeats, on
    channels A+B ([dual:true]) or channel A only. *)

val channel_faults : int -> Automode_osek.Tt_bus.fault_model
(** Seeded single-channel fault: a 20 ms outage window plus background
    corruption on channel A; channel B untouched (single-fault
    hypothesis). *)

val shared_channel_faults :
  seeds:int list -> int -> Automode_osek.Tt_bus.fault_model
(** [shared_channel_faults ~seeds] builds {!channel_faults} once per
    listed seed and returns the lookup (other seeds get a fresh model).
    Passing one lookup to the dual and the single leg lets the second
    leg reuse the first leg's memoized channel-A outcomes; verdicts are
    the same as with per-leg models. *)

val channel_campaign :
  ?horizon:int -> ?faults:(int -> Automode_osek.Tt_bus.fault_model) ->
  dual:bool -> seeds:int list -> unit ->
  (int * (string * Monitor.verdict) list) list
(** One {!Automode_robust.Inject_net} run per seed over
    {!replicated_deployment} with {!tt_schedule} attached (default
    horizon 200 ms) under [faults seed] (default {!channel_faults}). *)

(** {1 Generated redundancy communication components} *)

val redundancy_specs :
  Automode_codegen.Comm_components.voter_spec list
  * Automode_codegen.Comm_components.heartbeat_spec list
(** The replication layer of {!replicated_deployment} as comm-component
    specs: the pair voter on the main ECU plus heartbeat supervision of
    both replica ECUs. *)

val projects : unit -> Automode_codegen.Ascet_project.project list
(** Per-ECU ASCET projects of the replicated deployment, including the
    generated voter and heartbeat communication components. *)

(** {1 Campaign report} *)

type report = {
  replicated : Scenario.campaign;
  simplex : Scenario.campaign;
  reset : Scenario.campaign;
  tmr : Scenario.campaign;
  tmr_simplex : Scenario.campaign;
  dual : (int * (string * Monitor.verdict) list) list;
  single : (int * (string * Monitor.verdict) list) list;
}

val campaign :
  ?shrink:bool -> ?horizon:int -> seeds:int list -> unit -> report
(** Run every leg over the seed list.  The scenario sweeps fan out over
    the domain budget (see {!Scenario.sweep}); the report is identical
    to a serial run. *)

val pp_report : Format.formatter -> report -> unit
(** Stable rendering: same seeds, byte-identical output. *)

val gate : report -> bool
(** [true] iff the protected configurations hold everywhere: the
    replicated/reset/TMR campaigns have no failures and every
    dual-channel seed passes every verdict.  The simplex and
    single-channel legs are the contrast and do not gate. *)

val contrast_fails : report -> bool
(** [true] iff the unprotected legs fail as they should: every simplex
    seed fails, every TMR-simplex seed fails, and at least one
    single-channel seed fails — the claim's other half, asserted by the
    tests. *)
