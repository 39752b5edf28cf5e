(** Causality analysis of DFDs (paper Sec. 3.2).

    The default semantics of DFD communication is instantaneous; the tool
    accompanies it with "a causality check for detecting instantaneous
    loops".  We adopt the block-level, conservative discipline (DESIGN.md
    decision 4): every undelayed channel between two sub-components is an
    instantaneous dependency, and feedback must be broken by an explicit
    delay — a [ch_delayed] channel, or SSD composition (whose channels
    are implicitly delayed).  [Pre] inside a block provides local state
    but does not license a feedback loop around the block.

    The same dependency graph yields the deterministic evaluation order
    used by the simulator.

    Both passes build the graph once (dense ids, successor lists in
    channel order) and run in O((n + e) log n) for [n] sub-components
    and [e] channels: Tarjan's algorithm is linear, and Kahn's algorithm
    keeps its ready set in an integer set keyed by declaration index. *)

type loop = string list
(** An instantaneous loop, as the cycle's component names. *)

val instantaneous_edges : Model.network -> (string * string) list
(** Directed edges [src_comp -> dst_comp] induced by undelayed channels
    between sub-components (boundary-touching channels induce none). *)

val check : Model.network -> (unit, loop list) result
(** [Ok ()] when the instantaneous dependency graph is acyclic; otherwise
    every strongly connected component with a cycle, smallest first. *)

val evaluation_order : Model.network -> (string list, loop list) result
(** A topological order of the sub-components along instantaneous
    dependencies; [Error] on instantaneous loops.  Ties are broken by
    declaration order: among the components whose predecessors are all
    placed, the one declared first goes next (a name declared twice
    counts at its first declaration and appears once).  A channel from
    an undeclared component imposes no order ({!Sim.index} rejects
    it). *)

val check_recursive : Model.component -> (string list * loop) list
(** Run {!check} on every DFD network in the hierarchy (including those
    inside MTD modes).  Returns the offending loops with the path of the
    enclosing component.  Empty = causally correct. *)
