(** Robustness campaigns for the two case studies: the paper's
    door-lock example under sensor/stimulus faults, and the engine
    pipeline's deployment under CAN loss and execution-time faults.
    Everything is deterministic in the seeds — the same sweep replays
    bit-for-bit. *)

open Automode_core
open Automode_robust

(** {1 Door lock under voltage dropout and crash storms} *)

val lock_ticks : int
val crash_tick : int

val lock_stimulus : Sim.input_fn
(** Extended Fig. 1 stimulus: voltage every second tick, lock requests
    at ticks 2 and 22, an unlock request at tick 12, a crash at
    [crash_tick]. *)

val lock_schedule : Clock.schedule
(** Fires the [crash] event clock at [crash_tick]. *)

val lock_events : (string * string) list
(** [[("crash", "CRSH")]]: the [crash] event clock also fires wherever
    an injected CRSH fault is active ({!Fault.event_schedule}). *)

val is_lit : Dtype.t -> string -> Value.t -> bool
(** [is_lit ty name v]: [v] is the enum literal [name] of [ty]. *)

val lock_faults : int -> Fault.t list
(** Seeded recipe: FZG_V dropout (p=0.4), CRSH spike storm (p=0.03),
    FZG_V noise (±18 V, p=0.2). *)

val lock_monitors : Monitor.t list
(** [lock-answered] (T4S=Locked answered by T4C=Lock within 4 ticks),
    [crash-answered] (CRSH=Crash answered by T4C=Unlock within 4),
    [voltage-plausible] (FZG_V within 5..32 V). *)

val door_lock_scenario : Scenario.t

val door_lock_campaign :
  ?shrink:bool -> ?domains:int -> seeds:int list -> unit -> Scenario.campaign
(** Sweep {!door_lock_scenario} over the seeds.  Expected findings: the
    dropout starves [v_ok] so lock requests go unanswered, and a second
    crash event is never re-acknowledged (the STD has no transition out
    of [CrashUnlocked]).  [?domains] parallelises the per-seed runs
    (see {!Scenario.sweep}); the campaign is identical either way. *)

(** {1 Engine deployment under CAN loss and timing faults} *)

val chatter : Automode_osek.Can_bus.frame list
(** Background body-electronics frames loading the powertrain bus. *)

val engine_injection :
  ?loss_rate:float -> ?overrun_rate:float -> ?overrun_factor:float ->
  seed:int -> unit -> Inject_net.t
(** The engine deployment with bus chatter, CAN corruption
    (default rate 0.35) and execution-time faults (default: 20% jitter,
    5% overruns of factor 500 — a hung job). *)

val engine_campaign :
  ?horizon:int -> ?loss_rate:float -> ?overrun_rate:float ->
  ?overrun_factor:float -> ?domains:int -> seeds:int list -> unit ->
  (int * (string * Monitor.verdict) list) list
(** One {!Inject_net.simulate} per seed (default horizon 200 ms),
    folded to verdicts.  [?domains] fans the seeds over a domain pool;
    results come back in seed order either way. *)

val pp_engine_campaign :
  Format.formatter -> (int * (string * Monitor.verdict) list) list -> unit
