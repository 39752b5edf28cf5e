(** The graceful-degradation case studies: the door lock wrapped in the
    {!Automode_guard} layer (health qualification of the voltage sensor
    plus a limp-home degradation manager), and the engine deployment
    under E2E frame protection and a scheduler watchdog.

    The point of the module is the {e comparison}: the same stimulus,
    fault recipe and functional monitors run against the unguarded and
    the guarded controller, and the guard layer turns failing seeds into
    passing ones — deterministically, seed for seed. *)

open Automode_core
open Automode_robust
open Automode_guard

(** {1 Guarded door lock} *)

val voltage_cfg : Health.config
(** FZG_V qualification: suspect after 2 missed ticks (one nominal gap
    stays silent), timeout after 8, implausible outside 5..32 V enters
    [Invalid] immediately, hold-last substitution, 24 V startup. *)

val protected_lock : Model.component
(** {!Door_lock.component} with FZG_V behind a {!Health} qualifier. *)

val manager : Model.component
(** Limp-home manager on the voltage health flag (limp after 6
    consecutive unhealthy ticks, recover after 3 healthy ones). *)

val component : Model.component
(** [DoorLockGuarded]: the protected lock plus the manager.  Same
    input/output ports as the unguarded controller, plus [FZG_V_ok],
    [FZG_V_status], [FZG_V_q] and [MODE]. *)

(** {1 Protected vs. unprotected campaign} *)

val guard_faults : int -> Fault.t list
(** Heavy FZG_V dropout (p=0.5) plus an implausible 2 V spike storm
    (p=0.25) — the recipe the guard layer is designed to absorb. *)

val functional_monitors : Monitor.t list
(** [lock-answered] and [crash-answered], valid on both controllers. *)

val guarded_monitors : Monitor.t list
(** The functional monitors plus [qualified-voltage-plausible]
    (FZG_V_q within 5..32 V). *)

val unguarded_scenario : Scenario.t
val guarded_scenario : Scenario.t

type comparison = {
  unguarded : Scenario.campaign;
  guarded : Scenario.campaign;
}

val door_lock_comparison :
  ?shrink:bool -> seeds:int list -> unit -> comparison
(** Sweep both scenarios over the same seeds.  Expected shape: the
    unguarded campaign fails on most seeds, the guarded campaign on
    none.  Each sweep fans out over the domain budget (see
    {!Scenario.sweep}). *)

val pp_comparison : Format.formatter -> comparison -> unit

(** {1 Recovery after a bounded outage} *)

val outage_faults : int -> Fault.t list
(** A deterministic outage window (dropout ticks 8..23, implausible
    spikes 12..15) — seed-independent so the recovery deadline is
    fixed. *)

val recovery_scenario : Scenario.t
(** {!Monitor.recovers} on [FZG_V_ok]: after the last fault-active tick
    the health flag must return to [true] within 6 ticks and stay
    there. *)

val recovery_campaign :
  ?shrink:bool -> seeds:int list -> unit -> Scenario.campaign

(** {1 Guarded engine deployment} *)

val engine_profile : E2e.profile
(** Data ID 0x2A, 4-bit alive counter, 8-bit CRC — 20 overhead bits,
    3 bytes on the wire. *)

val guarded_engine_injection :
  ?loss_rate:float -> ?burst_rate:float -> ?burst_len:int ->
  ?overrun_rate:float -> ?overrun_factor:float -> seed:int -> unit ->
  Inject_net.t
(** The {!Robustness.engine_injection} fault load extended with burst
    losses (default p=0.02, length 4), an execution-budget watchdog
    (factor 2, {!Automode_osek.Scheduler.Skip}) and E2E protection
    overhead on every deployed frame. *)

val guarded_engine_verdicts :
  Inject_net.report -> (string * Monitor.verdict) list
(** Per bus, [bus:<name>:e2e-loss-detected] (every consecutive-loss run
    within the alive counter's detectable gap) replacing the bare
    no-frame-loss criterion; ECU schedulability verdicts unchanged. *)

val guarded_engine_campaign :
  ?horizon:int -> ?loss_rate:float -> ?burst_rate:float -> ?burst_len:int ->
  ?overrun_rate:float -> ?overrun_factor:float -> seeds:int list -> unit ->
  (int * (string * Monitor.verdict) list) list
