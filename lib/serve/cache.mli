(** Content-addressed result cache: an in-memory tier over an optional
    persistent on-disk tier.

    Keys are arbitrary strings (the {!Cached} layer builds them from
    {!Digest} values + seed + flags); payloads are opaque strings.  The
    on-disk tier lives under [dir/v1/] — one file per key, named by the
    key's MD5, carrying the full key on its first line and the
    payload's MD5 on its second, so a hash collision, a truncated file
    or a flipped payload byte reads as a miss (the entry is recomputed),
    never as a wrong answer.  Writes go to a temp file in the same
    directory and are [rename]d into place, so concurrent daemons and
    killed runs can never expose a half-written entry.

    Lookups count [serve.cache.hit] / [serve.cache.miss] and memory
    eviction counts [serve.cache.evict] through
    {!Automode_obs.Probe} (no-ops without a sink) and into the local
    {!stats} — a decode rejection counts as a miss, so the counters
    state exactly how many verdicts were served from cache. *)

type t

val mkdir_p : string -> unit
(** Create a directory and its missing parents (existing ones are
    fine) — shared by the cache's disk tier and the daemon's spool and
    results directories. *)

val write_atomic : path:string -> string -> unit
(** Write [content] to a temp file in [path]'s directory and [rename]
    it into place — readers see the old bytes or the new bytes, never a
    torn file.  Used for cache entries, job reports and status files. *)

val create : ?dir:string -> ?capacity:int -> unit -> t
(** A cache whose memory tier holds at most [capacity] entries
    (default 4096, FIFO eviction); [?dir] adds the persistent tier
    (created on demand).  @raise Invalid_argument on [capacity < 1]. *)

val find : t -> key:string -> decode:(string -> 'a option) -> 'a option
(** Probe memory, then disk (promoting a disk hit into memory).  The
    payload is passed through [decode]; a [None] decode is treated —
    and counted — as a miss, so stale or corrupt entries fall back to
    recomputation. *)

val store : t -> key:string -> string -> unit
(** Insert into the memory tier (evicting FIFO at capacity) and, when
    the cache is persistent, atomically into the disk tier. *)

val stats : t -> int * int * int
(** [(hits, misses, evictions)] since creation — the numbers behind the
    per-job cache summary in the daemon's status files. *)

val dir : t -> string option
(** The persistent tier's root directory, if any. *)
