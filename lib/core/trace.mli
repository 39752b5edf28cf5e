(** Simulation traces: per-flow message streams over discrete ticks.

    A trace records, for each named flow and each tick, the message on
    the flow — mirroring the tick tables of the paper's Fig. 1 where
    absent messages show as ["-"]. *)

type t

val make : flows:string list -> t
(** An empty trace over the given flow names (column order preserved). *)

val record : t -> (string * Value.message) list -> t
(** Append one tick.  Flows not mentioned get [Absent]; unknown flow
    names are ignored. *)

val record_ordered : t -> (string * Value.message) list -> t
(** Append one tick whose messages are already listed exactly in flow
    order (one entry per flow) — skips the per-flow projection of
    {!record}.  Used by hot simulation loops; behavior is unspecified
    if the invariant is violated. *)

val length : t -> int
(** The number of recorded ticks. *)

val flows : t -> string list
(** The flow names, in column order. *)

val get : t -> flow:string -> tick:int -> Value.message
(** The message on [flow] at [tick].  Costs O(ticks) per call (a walk
    of the tick list), so a scan over every tick should read the
    flow's {!column} or {!columns} once instead.
    @raise Not_found on unknown flows; [Absent] beyond the last tick. *)

val column : t -> string -> Value.message list
(** The full message stream of one flow.  @raise Not_found. *)

val columns : t -> (string * Value.message array) list
(** Every flow's column at once, in declaration order — one O(ticks *
    flows) walk over the rows instead of a {!column} call per flow.
    Equivalent to [List.map (fun f -> (f, Array.of_list (column t f)))
    (flows t)]. *)

val equal : t -> t -> bool
(** Same flows (in any order), same length, same messages everywhere. *)

val equal_on : flows:string list -> t -> t -> bool
(** Equality restricted to the given flows. *)

val first_divergence :
  t -> t -> (int * string * Value.message * Value.message) option
(** Earliest (tick, flow, left, right) where two traces differ on their
    common flows; [None] when they agree. *)

val restrict : t -> string list -> t
(** Keep only the given flows (in the given order). *)

val rename : t -> (string * string) list -> t
(** Rename flows; names without a mapping are kept. *)

val pp : Format.formatter -> t -> unit
(** Fig. 1-style table: one row per flow, one column per tick. *)

val to_string : t -> string
(** {!pp} rendered to a string. *)

val to_csv : t -> string
(** Comma-separated export: header [tick,<flow>,...], one line per tick,
    absent messages as empty cells — for spreadsheet/plot tooling.
    Cells (and header names) containing commas, double quotes, CR or
    LF are quoted
    per RFC 4180 with embedded quotes doubled, so tuple values such as
    [(1, 2)] round-trip through CSV readers. *)
