(** Deterministic fork/join parallelism for campaign sweeps, and the
    domain budget: the one place that knows how many domains a
    computation may use.

    Work items are distributed dynamically over a fixed-size pool of
    OCaml 5 domains, results are returned in input order.  Callers are
    responsible for [f] being safe to run from several domains at once
    (the simulation engines are: an indexed component is immutable, and
    all run-time state is created per call). *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f ()] under a budget of [n] domains for
    the current domain, restoring the previous budget when [f] returns
    or raises.  @raise Invalid_argument when [n < 1]. *)

val domains : unit -> int
(** The current budget: the innermost {!with_domains} in scope, else 1. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f items] is observably [List.map f items], computed by
    [min domains (length items)] domains (the calling domain included;
    [?domains] defaults to the budget, and [domains <= 1] runs serially).
    Each application of [f] runs under a budget of
    [max 1 (budget / domains)], so nested fan-outs split one budget
    instead of multiplying it.  If any application raises, the
    exception of the earliest failing item is re-raised (with its
    backtrace) after all workers joined. *)
