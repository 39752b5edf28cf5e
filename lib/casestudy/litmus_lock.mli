(** The door-lock litmus twin: bounded-exhaustive synthesis over the
    central-locking case study.

    Pairs the raw {!Door_lock.component} with its {!Guarded.component}
    deployment under the shared crash-day stimulus, declares a
    ~13-atom fault alphabet (implausible voltage spikes, silences over
    the request ticks, a deliberate both-fail lock command, sensor
    crash/reset, windowed noise) and the guarded deployment's stated
    bounds, and exposes the synthesis and suite-replay entry points
    the CLI and service layer call. *)

open Automode_proptest
open Automode_litmus

val horizon : int
(** Simulation horizon (the robustness campaign's 40 ticks). *)

val unguarded : Builder.t
(** The raw component under the litmus monitor set. *)

val guarded : Builder.t
(** The guarded deployment under the equivalent monitor set (ranges on
    the qualified voltage flow). *)

val checks : Check.t list
(** Stated bounds: guard-regression contrast, 8-tick detectable gap on
    the voltage health flag, 6-tick recovery, MODE/health-flag
    well-definedness. *)

val twin : ?engine:Builder.engine -> unit -> Eval.twin
(** The synthesis twin (default {!Builder.Indexed}; all engines yield
    byte-identical traces, pinned in the test-suite). *)

val alphabet : Alphabet.t
(** The enumeration alphabet (13 atoms). *)

val synthesize :
  ?cache:Synth.cache -> ?config:Synth.config -> ?domains:int ->
  ?prefix_share:bool -> ?engine:Builder.engine -> unit -> Synth.result
(** {!Automode_litmus.Synth.run} over {!twin} and {!alphabet};
    [~prefix_share:false] forces the looped reference evaluation —
    byte-identical to the executor's default plan. *)

val replay :
  ?domains:int -> ?model:string -> ?engine:Builder.engine ->
  Suite.t -> Suite.replay
(** {!Automode_litmus.Suite.replay} over {!twin} and {!alphabet}. *)
