(** The campaign executor: simulates many fault cases of one compiled
    net and picks the execution plan from the cases themselves.

    Campaign cases are byte-identical until their fault catalogs first
    take effect: every fault kind passes the original stimulus through
    while inactive, and schedules derived via
    {!Fault.schedule_of_faults} only add events at active ticks.  The
    plan exploits that:

    - with at most one case, it runs solo through {!Sim.run_indexed}
      (itself a width-1 {!Sim.batch});
    - otherwise one {!Sim.batch} of width [min n width] is compiled and
      reused in chunks;
    - when some case's {!Fault.first_effect_tick} is above 0, the
      fault-free {e trunk} runs once in column 0, is captured
      ({!Sim.batch_snapshot}) at every distinct fork tick above 0, and
      each fork group restores its snapshot across the instance axis
      ({!Sim.batch_restore}) to replay only its suffix; cases that fork
      at tick 0 run from reset, straight.

    Every plan yields traces byte-identical to running each case
    through the interpreted oracle {!Sim.run} (asserted by the
    test-suite; all five campaign kinds render the same reports under
    every plan, pinned by bench section E22).

    Probe counters (no-ops without a sink, as all probes), counted by
    the batched plan only and independent of [?domains]:
    - [campaign.prefix.groups] — distinct fork ticks above 0
      (snapshots taken);
    - [campaign.prefix.forks] — cases restored from a snapshot;
    - [campaign.prefix.shared_ticks] — prefix ticks {e not}
      re-simulated, summed over restored cases;
    - [campaign.prefix.replayed_ticks] — ticks actually simulated
      (trunk + all suffixes + full runs of tick-0 cases). *)

open Automode_core

val width : int
(** [W]: the widest batch the executor compiles (8). *)

val traces :
  ?domains:int ->
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

    [?domains] (default 1) shards the instance axis over a
    {!Parallel.map} domain pool.  [~share:false] is the looped
    reference: every case runs solo through {!Sim.run_indexed}, fanned
    out over [domains] — the same path shrinking replays use.  The
    traces are identical either way. *)
