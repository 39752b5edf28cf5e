(** The campaign service loop: a long-running daemon draining a
    file-backed job spool (and, optionally, a Unix-domain socket) into
    per-job report files.

    Protocol: clients drop [*.json] files of newline-delimited
    {!Job} objects into the spool directory (write-then-rename for
    atomicity).  The daemon claims a file by renaming it into
    [spool/running/], runs every job in it through {!Catalog.run}, and
    moves the file to [spool/done/] (or [spool/failed/] if any line
    failed to parse or a job raised).  A {e poison} file — non-empty
    but without a single parseable job line — is instead moved to
    [spool/quarantine/] with a [<file>.quarantine.json] error status
    (the per-line parse errors) in the results directory; the worker
    loop carries on with the surrounding files either way.  Per job
    [id] it writes, into the results directory:

    - [<id>.report.txt] — the campaign report, byte-identical to the
      one-shot CLI run with the same parameters;
    - [<id>.json] — a status object with the gate verdict, the job
      echo, wall-clock latency and the cache hit/miss delta.

    Concurrency: the jobs of one batch run on a [workers]-domain pool
    ({!Automode_robust.Parallel.map}) that splits the loop's budget of
    [domains] ({!Automode_robust.Parallel.with_domains}): each job's
    sweep gets [max 1 (domains / workers)] domains.
    Every shared structure a job touches (cache, probe sink, metrics,
    hash-cons table, compiled-net memo) is mutex-guarded, and result
    files are written atomically, so concurrent jobs interleave
    safely.

    Crash recovery: a claim is stamped with its claim time, and every
    scan first sweeps [spool/running/] for files older than the
    configured [reclaim_s] — jobs orphaned by a worker that died
    mid-run complete on the next live daemon instead of hanging
    forever (counter [serve.jobs.reclaimed]).

    Observability (through {!Automode_obs.Probe}): counters
    [serve.jobs.accepted] / [serve.jobs.completed] /
    [serve.jobs.failed], gauge [serve.queue.depth], histogram
    [serve.job.latency] (milliseconds — the only wall-clock metric, so
    daemon metric dumps are not byte-stable; everything else is), plus
    the [serve.cache.*] counters the cache itself emits. *)

type config = {
  spool : string;        (** job inbox; subdirs created on start *)
  results : string;      (** report/status output directory *)
  cache : Cache.t option;(** shared verdict cache, when enabled *)
  workers : int;         (** concurrent jobs (>= 1) *)
  domains : int;         (** total domain budget shared by the jobs *)
  poll_s : float;        (** idle sleep between spool scans *)
  once : bool;           (** drain what is there, then exit *)
  max_jobs : int option; (** exit after this many jobs, if given *)
  socket : string option;(** Unix-domain socket path, when enabled *)
  reclaim_s : float option;
      (** stale-claim timeout: a spool file claimed into
          [spool/running/] but neither completed nor failed within
          this many seconds (its worker crashed) is renamed back into
          the spool and re-run — at-least-once recovery, so set it
          above the worst-case job latency.  [None] disables
          reclaiming; orphaned claims then wait for an operator. *)
}

type summary = {
  accepted : int;   (** job lines parsed and admitted *)
  completed : int;  (** jobs whose report was written *)
  failed : int;     (** unparsable lines + jobs that raised *)
}

val run : ?metrics:Automode_obs.Metrics.t -> config -> summary
(** Run the service loop until a stop condition: [once] and the spool
    is empty, a [stop] file appears in the spool (it is consumed), or
    [max_jobs] jobs have finished.  When [?metrics] is given a
    {!Automode_obs.Probe.standard} sink over it is installed for the
    loop's duration, so the [serve.*] and engine counters accumulate
    there.  @raise Invalid_argument on [workers < 1] or
    [domains < 1]. *)

val drain_socket : Unix.file_descr -> spool:string -> int
(** Accept every pending connection on the (non-blocking, listening)
    socket, read each client's newline-delimited jobs, materialize one
    spool file per valid job and answer per line with [queued <id>] or
    [error: <reason>].  Returns the number of jobs spooled.  Exposed
    for the daemon's poll loop and the tests; clients must shut down
    their write side after sending. *)
