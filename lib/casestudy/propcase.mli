(** The door-lock comparison re-expressed on the property-testing
    builder ({!Automode_proptest.Builder}).

    Instead of the fixed fault recipe of {!Guarded}, each (seed,
    iteration) pair expands into a generated sequence of timed
    operations — mode commands on T4S, FZG_V silences, implausible
    voltage spikes, sensor crashes and resets — and both controllers
    are judged by monitors derived from their port declarations plus a
    voltage-plausibility range.  The unguarded controller fails the raw
    range under the implausible spikes; the guard layer rejects them
    and substitutes last-known-good, so the guarded twin passes every
    seed.  Failures shrink to a minimal operation subsequence that
    replays bit-for-bit. *)

open Automode_proptest

val horizon : int
(** {!Robustness.lock_ticks}. *)

val generators : Opgen.t list
(** The weighted operation alphabet of the door lock: [cmd:T4S] (3),
    [spike:FZG_V] (3, implausible 2 V / 40 V), [silence:FZG_V] (2),
    [reset:FZG_V] (1), [crash:FZG_V] (1). *)

val unguarded : Builder.t
(** {!Door_lock.component} under the generated sequences, judged by
    its derived monitors plus the raw [FZG_V] 5..32 V range — the
    known-failing target. *)

val guarded : Builder.t
(** {!Guarded.component} under the same generator set, judged by its
    derived monitors plus the 5..32 V range on the qualified voltage
    stream, with {!Automode_guard.Health.observe} attached. *)

type comparison = {
  unguarded : Builder.campaign;
  guarded : Builder.campaign;
}

val run :
  ?shrink:bool -> ?domains:int -> ?prefix_share:bool ->
  ?iterations:int -> seeds:int list -> unit -> comparison
(** Run both specs over the same seeds ([?iterations] sequences per
    seed, default 2).  Deterministic: byte-identical across reruns,
    engines, [?domains] and [?prefix_share] (see {!Builder.run}). *)

val contrast_holds : comparison -> bool
(** The expected shape: the unguarded campaign has at least one
    failure and the guarded campaign has none — the paired gate the
    CLI and the daemon exit-code on. *)

val to_text : comparison -> string
(** Byte-stable report of both campaigns plus the contrast verdict —
    shared by the CLI and the daemon catalog, so served results are
    byte-identical to local ones by construction. *)
