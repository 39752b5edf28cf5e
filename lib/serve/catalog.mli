(** The campaigns the service can run, routed through the
    content-addressed cache.

    Each function reproduces the corresponding one-shot CLI campaign
    {e exactly}: with no cache it delegates to the very
    [Scenario.sweep]s the case-study modules run, and with a cache it
    splices per-seed verdicts (see {!Cached}) into a structurally
    identical campaign record — so {!run}'s report is byte-identical to
    the CLI's for the same job parameters, cold or warm. *)

open Automode_robust
open Automode_casestudy

val robustness :
  ?cache:Cache.t -> ?shrink:bool -> ?prefix_share:bool ->
  seeds:int list -> unit -> Scenario.campaign
(** The door-lock fault-injection campaign
    ({!Automode_casestudy.Robustness.door_lock_campaign}). *)

val robustness_engine :
  ?cache:Cache.t -> horizon:int -> seeds:int list -> unit ->
  (int * (string * Monitor.verdict) list) list
(** The engine-deployment campaign (CAN loss + timing faults). *)

val guard :
  ?cache:Cache.t -> ?shrink:bool -> ?prefix_share:bool ->
  seeds:int list -> unit -> Guarded.comparison * Scenario.campaign
(** The unguarded/guarded door-lock comparison plus the recovery
    campaign — the two halves of the CLI's [guard] report. *)

val guard_engine :
  ?cache:Cache.t -> horizon:int -> seeds:int list -> unit ->
  (int * (string * Monitor.verdict) list) list
  * (int * (string * Monitor.verdict) list) list
(** [(unguarded, guarded)] engine campaigns of [guard --engine]. *)

val redund :
  ?cache:Cache.t -> ?shrink:bool -> ?prefix_share:bool ->
  horizon:int -> seeds:int list -> unit -> Replicated.report
(** All seven legs of the redundancy campaign
    ({!Automode_casestudy.Replicated.campaign}). *)

type outcome = {
  report : string;   (** byte-identical to the one-shot CLI report *)
  gate_ok : bool;    (** the campaign's CI gate (CLI exit status) *)
}

val proptest :
  ?cache:Cache.t -> ?shrink:bool -> ?prefix_share:bool ->
  ?iterations:int -> seeds:int list -> unit -> outcome
(** The generated-sequence door-lock comparison
    ({!Automode_casestudy.Propcase.run}, [?iterations] sequences per
    seed, default 2), rendered with
    {!Automode_casestudy.Propcase.to_text}; the gate is
    {!Automode_casestudy.Propcase.contrast_holds} (unguarded fails,
    guarded clean).  Cached at whole-report granularity — the report
    is a pure function of (components, iterations, shrink, seeds,
    engine revision), so a resubmitted job is one cache hit. *)

val litmus_model : unit -> string
(** Digest tag binding both door-lock twin components and the engine
    revision — stamped into generated suite files so replay can detect
    a model drift explicitly. *)

val litmus_result :
  ?cache:Cache.t -> ?prefix_share:bool ->
  ?bound:int -> ?max_scenarios:int ->
  ?engine:Automode_proptest.Builder.engine ->
  unit -> Automode_litmus.Synth.result
(** Bounded-exhaustive synthesis over the door-lock twin
    ({!Automode_casestudy.Litmus_lock.synthesize}), memoizing
    per-scenario classifications through the cache under a
    [litmus|<digests>|<engine-rev>|<canonical-form>] key — after a
    model edit only changed scenarios recompute.  Defaults: bound 2,
    max_scenarios 100000, indexed engine. *)

val litmus :
  ?cache:Cache.t -> ?prefix_share:bool ->
  ?bound:int -> ?max_scenarios:int -> unit -> outcome
(** {!litmus_result} rendered with {!Automode_litmus.Synth.to_text};
    the gate is {!Automode_litmus.Synth.gate} (at least one minimal
    distinguishing scenario, no stated-bound violations). *)

val run :
  ?cache:Cache.t -> ?shrink:bool -> ?prefix_share:bool ->
  ?horizon:int -> ?iterations:int -> ?bound:int ->
  kind:Job.kind -> engine:bool -> seeds:int list -> unit -> outcome
(** Render one job's report exactly as the matching CLI subcommand
    would print it ([robustness] / [guard] / [redund] / [proptest] /
    [litmus], [--engine] when [engine]), and evaluate the same
    pass/fail gate the CLI turns into its exit status.  [?iterations]
    only affects the [proptest] kind, [?bound] only [litmus];
    [~prefix_share:false] runs every case through the looped
    reference instead of {!Automode_robust.Exec}'s plan — it does not
    change a byte of any report and is deliberately excluded from
    cache keys. *)
