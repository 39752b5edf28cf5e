(** Keyed random draws.

    Every per-event random decision of the fault and timing models
    (CAN corruption and bursts, TT-bus slot corruption, task execution
    jitter and overruns, sporadic arrivals, stimulus-fault activation
    and noise) is a pure function of an integer key: seed the stdlib
    PRNG with the key ([Random.State.make]) and take one draw.  Equal
    keys give equal values on every engine, domain and run, which is
    what makes campaigns replay bit for bit.

    The draw is expensive (seeding digests the key twice), so owners
    that query a key repeatedly keep a {!memo}: a lazily grown byte
    table of boolean outcomes indexed by a small non-negative integer
    (a tick, a cycle).  A memo belongs to the value that owns the keys
    (a fault, a bus fault model) — there is no process-wide cache. *)

val state : int array -> Random.State.t
(** [Random.State.make key]: the keyed stream, for owners that take
    more than one draw from one key. *)

val float : int array -> float -> float
(** [float key bound] is [Random.State.float (state key) bound]. *)

val int : int array -> int -> int
(** [int key bound] is [Random.State.int (state key) bound]. *)

type memo
(** Memoized boolean outcomes over indices [0 <= i < bound].  Each
    entry is one byte (0 = not drawn yet, 1 = false, 2 = true) and is
    written at most once with the value the draw function returns, so
    domains sharing a memo can race only into recomputing the same
    value. *)

val memo : unit -> memo
(** An empty memo.  The table grows by doubling up to {!bound}
    entries; indices outside [0, bound) are not stored and are
    recomputed on every query. *)

val bound : int
(** [65536] entries, one byte each: the most one memo holds. *)

val memoized : memo -> int -> (int -> bool) -> bool
(** [memoized m i f] is [f i], computed on the first query of [i] and
    read back from [m] afterwards.  [f] must be pure. *)
