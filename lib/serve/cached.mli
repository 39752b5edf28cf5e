(** Campaign sweeps through the content-addressed cache.

    Verdicts are cached at {e per-seed} granularity: the key of one
    entry is (scenario digest, seed, that seed's fault-catalog digest,
    shrink flag, engine revision), so any overlapping seed range is
    satisfied by splicing cached per-seed verdicts and computing only
    the uncached seeds.  Entries store everything a report renders —
    verdicts, and shrunk counterexamples as {e indices} into the seed's
    (deterministically re-derivable) injected fault list — so a warm
    sweep rebuilds the exact campaign record and every report rendered
    from it is byte-identical to the cold run. *)

open Automode_robust

val sweep :
  ?cache:Cache.t -> ?shrink:bool -> ?domains:int -> ?prefix_share:bool ->
  Scenario.t -> seeds:int list -> Scenario.campaign
(** Like {!Automode_robust.Scenario.sweep}, but seeds present in
    [cache] are spliced from storage and only the missing seeds are
    simulated (through {!Automode_robust.Exec} over [?domains], looped
    with [~prefix_share:false], shrinking serial, exactly like the
    uncached sweep) and then stored.  With no
    cache this {e is} [Scenario.sweep].  [prefix_share] is deliberately
    absent from the cache key — both execution strategies produce
    byte-identical entries.  The resulting campaign — results in seed
    order, failures in (seed, verdict) order — is structurally
    identical to a cold sweep, hence byte-identical reports. *)

val net_campaign :
  ?cache:Cache.t -> leg:string ->
  run:(seeds:int list -> (int * (string * Monitor.verdict) list) list) ->
  seeds:int list -> unit -> (int * (string * Monitor.verdict) list) list
(** Per-seed caching for the network/deployment-level campaign legs
    (engine injection, TT channel loss) that return bare
    [(seed, verdicts)] lists.  [leg] names the campaign {e and its
    parameters} (e.g. ["redund-dual|h=200000"]) — these legs' fault
    recipes are closures, so the leg tag plus {!Digest.engine_rev} is
    their identity.  [run ~seeds:missing] must return the missing seeds
    in order; cached and fresh verdicts are spliced back in seed
    order. *)
