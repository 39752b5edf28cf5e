(** The unified property-testing builder over the robustness stack.

    Declare a system under test (a component plus an engine choice),
    attach weighted generators of timed operations ({!Opgen}), base
    fault recipes, invariants (hand-written {!Automode_robust.Monitor}s
    plus monitors auto-derived from port types via {!Derive}) and trace
    observers, then sweep (seed, iteration) pairs: every pair expands
    deterministically into an operation sequence, simulates, and is
    judged by every monitor.  Failing cases are shrunk {e at the
    sequence level} — a delta-debugging pass over the operation list
    followed by {!Automode_robust.Shrink.minimize}'s fault-subset and
    horizon-prefix pass — down to a minimal failing trace that replays
    bit-for-bit.

    Everything downstream of (seed, iteration) is pure, so campaigns,
    reports and shrunk counterexamples are byte-identical across
    reruns, engines and domain budgets
    ({!Automode_robust.Parallel.with_domains}). *)

open Automode_core
open Automode_robust

type engine = Interpreted | Indexed

type t
(** A test specification (immutable; the [with_*] combinators return
    extended copies). *)

val spec :
  name:string -> component:Model.component -> ticks:int ->
  ?inputs:Sim.input_fn -> unit -> t
(** A spec over [component] simulated for [ticks] ticks against the
    nominal stimulus [?inputs] (default {!Automode_core.Sim.no_inputs}).
    Defaults: no generators, no monitors, 1 iteration per seed,
    {!Indexed} engine.  @raise Invalid_argument on a negative horizon. *)

val with_ops : ?min_ops:int -> ?max_ops:int -> Opgen.t list -> t -> t
(** Attach the weighted generator set; each case draws between
    [?min_ops] (default 1) and [?max_ops] (default 8) operations.
    @raise Invalid_argument on negative or inverted bounds. *)

val with_base_faults : (int -> Fault.t list) -> t -> t
(** A static per-seed fault recipe injected underneath every generated
    sequence (the classic {!Automode_robust.Scenario} catalog). *)

val with_monitors : Monitor.t list -> t -> t
(** Append hand-written invariants (cumulative). *)

val with_derived_monitors :
  ?ranges:(string * float * float) list ->
  ?staleness:(string * int) list -> t -> t
(** Append {!Derive.monitors} of the spec's component. *)

val with_observers : (Trace.t -> unit) list -> t -> t
(** Attach trace observers (e.g.
    {!Automode_guard.Health.observe},
    {!Automode_redund.Voter.observe},
    {!Automode_redund.Failover.observe}) — run over every case trace
    for their probe side effects; they render no verdicts. *)

val with_event : event:string -> flow:string -> t -> t
(** Declare that input [flow] is clocked by event [event]: the event
    fires whenever an operation or fault is active on the flow (in
    addition to the spec's base schedule), and keeps tracking the fault
    set as shrinking removes operations. *)

val with_schedule : Clock.schedule -> t -> t
(** Replace the fault-independent base schedule (default: no event
    fires); {!with_event} wirings fire on top of it. *)

val with_engine : engine -> t -> t
(** Choose the simulation engine (default {!Indexed});
    {!Interpreted} is the reference oracle.  Both produce identical
    traces, so campaigns and shrunk counterexamples are
    engine-independent — pinned in the test-suite. *)

val with_iterations : int -> t -> t
(** Generated sequences per seed (default 1).
    @raise Invalid_argument on a non-positive count. *)

val name : t -> string
(** The spec's declared name (report header). *)

val ticks : t -> int
(** The simulation horizon. *)

val component : t -> Model.component
(** The system under test. *)

val iterations : t -> int
(** Generated sequences per seed. *)

val monitors : t -> string list
(** Names of every attached monitor, in declaration order. *)

val generators : t -> (string * int) list
(** Declared generator (name, weight) pairs, in declaration order. *)

val prepare : t -> unit
(** Force the engine's lazy runner (for {!Indexed}, the
    {!Automode_core.Sim.index} call) now, so parallel sweeps share the
    immutable form instead of racing on the lazy. *)

val expand : t -> seed:int -> iteration:int -> Op.t list
(** The operation sequence of (seed, iteration) — pure
    ({!Opgen.expand} over the spec's generator set and horizon). *)

val faults_of : t -> seed:int -> ops:Op.t list -> Fault.t list
(** The complete fault list of a case: the base recipe of [seed], then
    every operation compiled in sequence order. *)

val run_ops :
  t -> seed:int -> ops:Op.t list -> ticks:int ->
  (string * Monitor.verdict) list
(** Simulate the case defined by an explicit operation list and
    evaluate every monitor — the replay primitive behind shrinking. *)

val run_faults :
  t -> faults:Fault.t list -> ticks:int ->
  (string * Monitor.verdict) list
(** Simulate an explicit fault list (bypassing the op layer) and
    evaluate every monitor — the runner shape
    {!Automode_robust.Shrink.minimize} expects. *)

val trace_ops : t -> seed:int -> ops:Op.t list -> ticks:int -> Trace.t
(** The raw trace of the case defined by an explicit operation list —
    {!run_ops} without the monitor pass, for callers that canonicalize
    or diff traces themselves (e.g. litmus-scenario deduplication). *)

val trace_cases :
  ?share:bool -> t -> seed:int -> ticks:int ->
  Op.t list array -> Trace.t array
(** {!trace_ops} over many operation lists at once: trace [i] belongs
    to element [i] of the input.  With the {!Indexed} engine the lists
    run through {!Automode_robust.Exec.traces}, which picks the plan
    (solo, batched, prefix-shared) itself and shards it over the
    {!Automode_robust.Parallel.domains} budget; [~share:false] (default
    [true]) is its looped reference.  The {!Interpreted} oracle loops through {!trace_ops}.
    All paths yield byte-identical traces — this is the litmus synthesis
    fan-out primitive. *)

val eval_monitors : t -> Trace.t -> (string * Monitor.verdict) list
(** Judge an already-recorded trace against every attached monitor, in
    declaration order — the oracle half of {!run_ops}. *)

val ddmin_ops :
  fails:(Op.t list -> string option) ->
  Op.t list -> (Op.t list * string) option
(** The sequence-level delta-debugging pass used by shrinking, exposed
    for external minimality certification: [fails ops] returns [Some
    reason] when the candidate still exhibits the failure.  Returns the
    minimal failing subsequence and its reason, or [None] when the full
    list does not fail.  Every kept candidate was re-executed, so the
    result fails by construction. *)

type case = {
  seed : int;
  iteration : int;
  ops : Op.t list;
  verdicts : (string * Monitor.verdict) list;
}

type shrunk = {
  shrunk_ops : Op.t list;     (** minimal failing subsequence *)
  shrunk_faults : Fault.t list;
      (** minimal fault subset of the minimal sequence *)
  shrunk_ticks : int;         (** shortest failing horizon prefix *)
  shrunk_reason : string;     (** failure reason of the minimal replay *)
}

type failure = {
  fail_seed : int;
  fail_iteration : int;
  fail_monitor : string;
  verdict : Monitor.verdict;  (** on the full, unshrunk case *)
  shrunk : shrunk option;
}

type campaign = {
  spec_name : string;
  horizon : int;
  seeds : int list;
  case_iterations : int;
  gens : (string * int) list;
  cases : case list;          (** seed-major, iteration-minor order *)
  failures : failure list;
}

val run_case : t -> seed:int -> iteration:int -> case
(** Expand, simulate, observe, judge — one case of a campaign. *)

val case_failures : ?shrink:bool -> t -> case -> failure list
(** The failing (monitor, verdict) pairs of one case, each shrunk to a
    minimal operation subsequence, fault subset and horizon prefix
    unless [~shrink:false]. *)

val run :
  ?shrink:bool -> ?prefix_share:bool -> t -> seeds:int list -> campaign
(** The full sweep: [iterations] cases per seed, simulated through
    {!trace_cases}'s executor ([?prefix_share], default [true], as its
    [?share]),
    then observed and judged in seed-major case order; shrinking
    always runs serially after the sweep.  The campaign is
    byte-identical for every argument combination. *)

val gate : campaign -> bool
(** [true] iff the campaign has no failures — the CI exit-code gate. *)

val to_text : campaign -> string
(** Byte-stable report: generator table, per-monitor verdict counts
    over all cases, and one block per failure with the original
    sequence, the shrunk minimal sequence, its fault set, prefix length
    and replay reason. *)
