(** Campaign jobs: the newline-delimited JSON schema of the job queue.

    One job is one JSON object on one line:

    {v
    {"id":"job-a","kind":"robustness","seeds":{"from":1,"to":4},
     "shrink":false,"engine":false,"horizon":200000}
    v}

    - [id] (required): [A-Za-z0-9._-]+, at most 64 chars — it names the
      result files, so it must be a safe file name;
    - [kind] (required): ["robustness" | "guard" | "redund" |
      "proptest" | "litmus"] — the same campaigns the one-shot CLI
      subcommands run;
    - [seeds] (required except for [litmus], which enumerates instead
      of sweeping): either an explicit array [[1,7,9]] of positive
      seeds or an inclusive range [{"from":1,"to":10}] (at most
      100000 seeds);
    - [shrink] (default [true]): counterexample shrinking;
    - [engine] (default [false]): the TA-level engine campaign variant
      of [robustness]/[guard] (ignored by [redund]);
    - [horizon] (default [200000]): deployment campaign horizon in
      microseconds, for the TA-level legs;
    - [iterations] (default [2]): generated sequences per seed, for
      the [proptest] kind (ignored by the others);
    - [bound] (default [2]): max fault atoms per enumerated scenario,
      for the [litmus] kind (ignored by the others).

    Unknown fields are ignored.  That keeps old spool files running:
    the retired execution knobs [instances] and [prefix_share] never
    changed a report byte, and the campaign executor
    ({!Automode_robust.Exec}) now picks the plan itself. *)

type kind = Robustness | Guard | Redund | Proptest | Litmus

type t = {
  id : string;
  kind : kind;
  seeds : int list;
  shrink : bool;
  engine : bool;
  horizon : int;
  iterations : int;
  bound : int;
}

val kind_to_string : kind -> string
(** ["robustness" | "guard" | "redund" | "proptest" | "litmus"]. *)

val valid_id : string -> bool
(** Non-empty, at most 64 chars, only [A-Za-z0-9._-], not starting
    with a dot. *)

val of_json : Json.t -> (t, string) result
(** Validate and decode one job object; the error string names the
    offending field. *)

val parse_line : string -> (t, string) result
(** [of_json] over a parsed line — the NDJSON entry point. *)

val to_json : t -> Json.t
(** Re-encode (seeds always as an explicit array) — used by the
    daemon's status files. *)
