(** Deterministic fault catalog over simulation stimuli.

    A fault targets one boundary flow of a component and transforms the
    stimulus ({!Automode_core.Sim.input_fn}) offered to the simulator.
    Faults are composable (a list applies left to right) and fully
    deterministic: activation and noise are drawn from PRNGs seeded per
    (seed, tick, flow), so the same fault list replays the same faulty
    stimulus bit-for-bit — on the interpreted and the indexed engine
    alike.  Draws go through {!Automode_osek.Draw}; a fault with a
    [Random_ticks] activation memoizes its per-tick outcomes (one byte
    per tick), so the sweep, the divergence scan and every shrink
    replay that reuse the fault value draw each tick once. *)

open Automode_core

type activation =
  | Always
  | Window of { from_tick : int; until_tick : int }
      (** active on ticks [from_tick <= t < until_tick] *)
  | From of { from_tick : int }
      (** active on every tick [t >= from_tick] — permanent failures *)
  | Random_ticks of { probability : float; seed : int }
      (** active on each tick independently with [probability] *)

type kind =
  | Stuck_at_last   (** flow repeats the last value delivered before the
                        fault hit; absent until a value was ever seen *)
  | Dropout         (** messages on the flow are suppressed (forced "-") *)
  | Noise of { amplitude : float; noise_seed : int }
      (** additive uniform noise in [-amplitude, +amplitude] on numeric
          values (rounded for ints); non-numeric values pass through *)
  | Spike of { value : Value.t }
      (** the flow carries [value] — out-of-range samples or event
          storms, injected even on ticks where the flow was silent *)
  | Delayed of { by : int }
      (** messages arrive [by] ticks late while the fault is active *)

type t

val stuck_at_last : flow:string -> activation -> t
(** [flow] repeats its last present message while active
    ({!Stuck_at_last}). *)

val dropout : flow:string -> activation -> t
(** [flow] carries no message while active ({!Dropout}). *)

val noise : ?seed:int -> flow:string -> amplitude:float -> activation -> t
(** Additive uniform noise of at most [amplitude] on [flow]'s numeric
    values while active ({!Noise}); [seed] (default 0) keys the draws. *)

val spike : flow:string -> value:Value.t -> activation -> t
(** [flow] carries [value] while active, even on silent ticks
    ({!Spike}). *)

val delayed : flow:string -> by:int -> activation -> t
(** Constructors.  @raise Invalid_argument on negative windows, delays
    or amplitudes, or probabilities outside [0, 1]. *)

val ecu_crash : flows:string list -> at_tick:int -> t list
(** Fail-silent ECU crash: every listed boundary flow (the flows the
    ECU sources — its sensor feeds, heartbeats, published outputs) is
    permanently dropped from [at_tick] on.
    @raise Invalid_argument on an empty flow list. *)

val ecu_reset : flows:string list -> at_tick:int -> down_ticks:int -> t list
(** Transient ECU reset: the listed flows are silent for ticks
    [at_tick <= t < at_tick + down_ticks], then the ECU rejoins.
    @raise Invalid_argument on an empty flow list or a non-positive
    outage. *)

val flow : t -> string
(** The boundary flow the fault perturbs. *)

val activation : t -> activation
(** The fault's activation pattern — lets sequence generators sort and
    describe injected faults without re-deriving when they fire. *)

val active : t -> tick:int -> bool
(** Whether the fault fires at [tick] — pure and deterministic: a
    [Random_ticks] answer is the keyed draw of (seed, tick, flow),
    memoized in the fault for ticks in [0, Draw.bound). *)

val last_active_tick : t list -> horizon:int -> int option
(** The latest tick below [horizon] where any listed fault is active,
    or [None] when none ever fires — the reference point of
    {!Monitor.recovers} obligations. *)

val first_active_tick : t -> horizon:int -> int
(** The first tick below [horizon] where the fault is active, or
    [horizon] when it never activates in range.  Exact: deterministic
    activations read their bounds, [Random_ticks] scans the pure
    {!active} predicate. *)

val first_effect_tick : t list -> horizon:int -> int
(** The first tick below [horizon] where {e any} listed fault is
    active, or [horizon] for a fault-free (or never-active) catalog.
    Every fault kind passes the original stimulus through unchanged
    while inactive, so strictly below this tick the {!apply}-transformed
    stimulus and any {!schedule_of_faults}-derived schedule are
    identical to the fault-free ones — the divergence analysis that
    {!Exec} builds its fork tree from. *)

val apply : t list -> Sim.input_fn -> Sim.input_fn
(** Compose the faults over a stimulus, left to right.  The result
    memoizes per-tick so history-dependent faults (stuck-at-last) stay
    deterministic regardless of the caller's query order. *)

val schedule_of_faults :
  ?base:Clock.schedule -> t list -> event:string -> Clock.schedule
(** A schedule on which the event clock [event] fires exactly when any
    of the listed faults is active (in addition to [base], default
    {!Clock.no_events}) — needed when a spike storm injects messages on
    an event-clocked port. *)

val event_schedule :
  ?base:Clock.schedule -> events:(string * string) list -> t list ->
  Clock.schedule
(** The schedule of a declared event wiring: [base] (default
    {!Clock.no_events}) plus, for every [(event, flow)] pair, the event
    clock [event] firing exactly when a listed fault on [flow] is
    active ({!schedule_of_faults}).  Below a catalog's
    {!first_effect_tick} it equals [base] — what makes prefix-sharing
    execution ({!Exec}) sound for every scenario by construction. *)

val describe : t -> string
(** Stable human-readable one-liner, e.g.
    [dropout@FZG_V[p=0.2 seed=7]] — used in reports and shrunk
    counterexamples. *)

val pp : Format.formatter -> t -> unit
(** Prints {!describe}. *)
