(** The checked-in litmus regression suite ([suite/litmus/*.scn]).

    A suite pins the minimal scenarios a synthesis run found: each
    entry names its atoms (resolved against the alphabet at replay
    time), the divergence hash, the classification tags and the
    minimal failing horizon.  The file format is line-based, versioned
    and byte-stable — {!write} of {!of_result} of the same synthesis
    always produces identical bytes, which is what CI [cmp]s.  Replay
    re-evaluates every entry and reports any scenario whose hash or
    classification changed — a model edit that silently absorbs or
    alters a pinned failure mode is a regression. *)

type entry = {
  entry_id : string;          (** [L001]... *)
  entry_atoms : string list;  (** atom names, alphabet order *)
  entry_hash : string;        (** pinned divergence hash *)
  entry_tags : string list;   (** pinned classification tags *)
  entry_min_ticks : int;      (** pinned minimal failing horizon *)
}

type t = {
  suite_twin : string;
  suite_model : string;   (** model digest tag; [""] when unbound *)
  suite_bound : int;
  suite_entries : entry list;
}

val of_result : ?model:string -> Synth.result -> t
(** Pin a synthesis result's minimal scenarios (default [model] [""]). *)

val to_text : t -> string
(** The byte-stable file rendering. *)

val parse : string -> (t, string) result
(** Inverse of {!to_text}; the error names the offending line. *)

val write : path:string -> t -> unit
(** {!to_text} to a file (atomic write is the caller's concern). *)

val load : string -> (t, string) result
(** {!parse} a file; IO errors become [Error]. *)

type replay = {
  rep_suite : t;
  rep_regressions : (string * string) list;
      (** (entry id, what changed) — empty means the suite holds *)
  rep_report : string;   (** byte-stable per-entry report *)
}

val replay :
  ?model:string ->
  twin:Eval.twin -> alphabet:Alphabet.t -> t -> replay
(** Re-evaluate every entry (sharded over the
    {!Automode_robust.Parallel.domains} budget, merged back in entry
    order).  Regressions: an atom name the alphabet no longer
    defines, a changed divergence hash, changed tags, or — when both
    [?model] and the suite carry one — a model digest mismatch. *)

val ok : replay -> bool
(** [true] iff no entry regressed — the replay CI gate. *)
