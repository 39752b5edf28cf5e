(** Bounded-exhaustive synthesis: enumerate, deduplicate, classify,
    pin minimal survivors.

    The pipeline: {!Space.enumerate} the scenario space (capped at
    [max_scenarios], with the truncation reported), evaluate every
    scenario on both twins — through the campaign executor
    ({!Automode_robust.Exec}), sharded over the domain budget and merged
    back in enumeration order, optionally memoized through caller-supplied
    cache hooks keyed by canonical form — deduplicate by divergence
    hash (first occurrence in enumeration order wins, TransForm's
    new-hash/total bookkeeping), keep the survivors (distinguishing or
    bound-violating), prune them to the minimal ones (no proper atom
    subset survives), and certify each minimal scenario with the
    sequence-level ddmin plus a {!Automode_robust.Shrink.minimize}
    horizon pin.  Everything downstream of (twin, alphabet, config) is
    pure, so the report is byte-identical across reruns, engines,
    domain counts and cache states. *)

type cache = {
  cache_prefix : string;
      (** prepended to every key — bind the model digest and engine
          revision here so a model edit invalidates cleanly *)
  cache_find : string -> string option;
  cache_store : string -> string -> unit;
}
(** Memoization hooks ({!Automode_serve.Cache} shaped, but any
    string-keyed store works — litmus itself stays service-agnostic). *)

type config = {
  bound : int;           (** max atoms per scenario (k) *)
  max_scenarios : int;   (** evaluation cap, truncation is reported *)
  shrink : bool;         (** certify minimality / pin horizons *)
}

val default_config : config
(** bound 2, max_scenarios 100_000, shrink true. *)

type pinned = {
  pin_id : string;            (** stable suite id, [L001]... *)
  pin_atoms : string list;    (** atom names, alphabet order *)
  pin_class : Eval.classification;
  pin_min_ticks : int;
      (** shortest horizon prefix where the unguarded twin still fails
          (the full horizon for pure bound-violation pins or with
          [shrink = false]) *)
}

type size_row = {
  row_size : int;
  row_enumerated : int;
  row_unique : int;          (** new hashes first seen at this size *)
  row_distinguishing : int;  (** unique and distinguishing *)
  row_minimal : int;
}

type result = {
  res_twin : string;
  res_bound : int;
  res_alphabet : int;
  res_horizon : int;
  res_enumerated : int;   (** size of the full space *)
  res_evaluated : int;    (** after the [max_scenarios] cap *)
  res_capped : bool;
  res_unique : int;       (** distinct divergence hashes *)
  res_duplicates : int;
  res_distinguishing : int;  (** unique scenarios with verdict contrast *)
  res_violations : (string * string * string) list;
      (** (canon, check, detail) over unique scenarios *)
  res_minimal : pinned list;   (** enumeration order *)
  res_rows : size_row list;
  res_cache_hits : int;
  res_cache_misses : int;
}

val run :
  ?cache:cache -> ?config:config -> ?prefix_share:bool ->
  twin:Eval.twin -> alphabet:Alphabet.t -> unit -> result
(** Synthesize.  The cache-missing scenarios' faulty traces run through
    {!Automode_proptest.Builder.trace_cases} on each twin — the
    campaign executor ({!Automode_robust.Exec.traces}) picks the plan
    and shards it over the {!Automode_robust.Parallel.domains} budget —
    and are classified with
    {!Eval.evaluate_traces} in enumeration order.
    [~prefix_share:false] forces the looped reference (every scenario
    solo); the result, the report and the cache contents are
    byte-identical either way.  @raise Invalid_argument on a
    non-positive bound or cap. *)

val gate : result -> bool
(** The CI gate: at least one minimal distinguishing scenario found
    and no stated-bound violations. *)

val to_text : result -> string
(** Byte-stable report: header counts (enumerated vs unique like
    TransForm), the per-size table, violations, and one block per
    pinned minimal scenario.  Cache statistics are deliberately
    excluded so cold and warm runs render identically. *)
