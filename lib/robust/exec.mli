(** The campaign executor: simulates many fault cases of one compiled
    net and picks the execution plan from the cases themselves.

    Campaign cases are byte-identical until their fault catalogs first
    take effect: every fault kind passes the original stimulus through
    while inactive, and schedules derived via
    {!Fault.schedule_of_faults} only add events at active ticks.  So a
    case may resume from the fault-free run at any tick at or before
    its {!Fault.first_effect_tick} (its {e fork}).  The plan exploits
    that:

    - with at most one case, it runs solo through {!Sim.run_indexed}
      (itself a width-1 {!Sim.batch});
    - otherwise one {!Sim.batch} of width [W = min n width] is
      compiled and reused in chunks.  The cases are sorted by fork
      tick, latest first (ties in case order), and cut into
      consecutive chunks of at most [W] cases; a chunk {e starts} at
      its earliest member's fork.  The cut minimizes the sum over
      chunks of [(ticks - start) * (2 + size)] — 2 being the fixed
      cost of one kernel pass, in columns — so cases forking a few
      ticks apart share one wide pass rather than one narrow pass
      each;
    - when some chunk starts above 0, the fault-free {e trunk} runs
      once in column 0, is captured ({!Sim.batch_snapshot}) at every
      distinct chunk start above 0, and each such chunk restores its
      snapshot across the instance axis ({!Sim.batch_restore}) to
      replay only its suffix; a chunk starting at tick 0 runs from
      reset, straight.

    Every plan yields traces byte-identical to running each case
    through the interpreted oracle {!Sim.run} (asserted by the
    test-suite; all five campaign kinds render the same reports under
    every plan, pinned by bench section E22).

    Probe counters (no-ops without a sink, as all probes), counted by
    the batched plan only and independent of the domain budget:
    - [campaign.prefix.groups] — distinct chunk starts above 0
      (snapshots taken);
    - [campaign.prefix.forks] — cases restored from a snapshot (the
      members of chunks starting above 0);
    - [campaign.prefix.shared_ticks] — prefix ticks {e not}
      re-simulated: each restored case's chunk start, summed;
    - [campaign.prefix.replayed_ticks] — ticks actually simulated,
      summed over columns: the trunk up to the latest chunk start,
      plus [ticks - start] for every case. *)

open Automode_core

val width : int
(** [W]: the widest batch the executor compiles (8). *)

val traces :
  ?share:bool ->
  ix:Sim.indexed ->
  ticks:int ->
  base_inputs:Sim.input_fn ->
  base_schedule:Clock.schedule ->
  (Fault.t list * Sim.input_fn * Clock.schedule) array ->
  Trace.t array
(** [traces ~ix ~ticks ~base_inputs ~base_schedule cases] simulates
    every [(faults, inputs, schedule)] case for [ticks] ticks and
    returns its trace, in case order.  [base_inputs] / [base_schedule]
    are the fault-free stimulus and schedule the trunk runs under;
    each case's [inputs] / [schedule] must agree with them strictly
    below the case's {!Fault.first_effect_tick} — automatic when
    [inputs] is [Fault.apply faults base_inputs] and [schedule] is
    [Fault.event_schedule ~base:base_schedule ~events faults].

    The instance axis is sharded over the current {!Parallel.domains}
    budget.  [~share:false] is the looped reference: every case runs
    solo through {!Sim.run_indexed}, fanned out over the same budget —
    the same path shrinking replays use.  The traces are identical
    either way. *)
