"""Minimal Bayesian-network construction and d-separation.

A network is built from a conditional-independence oracle under a
construction order: each node's parents are the smallest predecessor subset
that screens it off from the remaining predecessors, found by asking the
oracle in variable masks.  Separation queries run on one linear-time
reachability scan (Bayes-ball); the definitional enumeration of active
trails it is tested against, and the alarm-story network of the goldens,
live in ``tests/dsep_reference.py``.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidOrder, InvalidSets
from .model_core import Triplet, Universe, _size_lex_submasks, names_from_json

if TYPE_CHECKING:
    import numpy as np

    from .dist_oracle import CiOracle, JointTable


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph with construction-order metadata.

    Every parent set lies among the node's predecessors in the construction
    order, which makes acyclicity structural.
    """

    universe: Universe
    parents: dict[str, frozenset[str]]
    construction_order: tuple[str, ...]

    def __post_init__(self) -> None:
        _validated_order(self.universe, self.construction_order)
        if set(self.parents) != self.universe.names:
            self.universe.require(self.parents.keys())
            raise ValueError("parents must be given for every variable")
        seen: set[str] = set()
        for v in self.construction_order:
            if not self.parents[v] <= seen:
                self.universe.require(frozenset().union(*self.parents.values()))
                raise ValueError(f"parents of {v} must precede it in the construction order")
            seen.add(v)

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.parents.items()), self.construction_order))

    @functools.cached_property
    def children(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.construction_order}
        for child, pars in self.parents.items():
            for p in pars:
                out[p].add(child)
        return {v: frozenset(c) for v, c in out.items()}

    def neighbors(self, v: str) -> frozenset[str]:
        return self.parents[v] | self.children[v]

    def to_json_dict(self) -> dict:
        return {
            "order": list(self.construction_order),
            "parents": {v: sorted(self.parents[v]) for v in self.construction_order},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Dag":
        order = names_from_json(data["order"], "order")
        universe = Universe.binary(*order)
        given = data["parents"]
        if not isinstance(given, dict):
            raise ValueError("parents must be an object mapping variables to parent lists")
        given = {**dict.fromkeys(order, []), **given}  # Dag reports a stranger key
        parents = {v: frozenset(names_from_json(p, f"parents of {v}")) for v, p in given.items()}
        return cls(universe, parents, order)


@dataclass(frozen=True)
class Trail:
    """A simple path in the underlying undirected graph, given by its nodes."""

    nodes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2 or len(set(self.nodes)) != len(self.nodes):
            raise ValueError("a trail is a simple path between distinct nodes")


# A separation query (x_set, y_set | z_set) is an independence triplet read
# off a graph.
SeparationQuery = Triplet


def _mask_ci(oracle: CiOracle) -> Callable[[int, int, int], bool]:
    """The oracle's verdict on disjoint ``(x, y, z)`` masks over its sorted
    names (bit i is the i-th sorted name).

    A ``CiOracle`` answers masks itself (``_holds``).  Any other object with
    ``universe`` and ``ci`` stands in for an oracle through this one adapter,
    which asks ``ci`` the masks' sets of names.
    """
    holds = getattr(oracle, "_holds", None)
    if holds is None:
        set_of = oracle.universe.sets.set_of

        def holds(x: int, y: int, z: int) -> bool:
            return oracle.ci(set_of(x), set_of(y), set_of(z))

    return holds


def _screening_mask(holds: Callable[[int, int, int], bool], node: int, preceding: int) -> int:
    """The first submask of ``preceding`` that screens the ``node`` bit off
    from the rest of ``preceding``.

    Candidates are scanned lazily in ascending cardinality, lexicographically
    over the sorted names within a cardinality, so the first hit has no
    qualifying proper subset and ties break deterministically.
    """
    for candidate in _size_lex_submasks(preceding):
        if holds(node, preceding ^ candidate, candidate):
            return candidate
    raise AssertionError("the full predecessor set always qualifies")


def build_network(oracle: CiOracle, order: Sequence[str] | None = None) -> Dag:
    """Minimal Bayesian network of the oracle's model under ``order``.

    Omitting the order uses the universe listing order.  Each node's parents
    are ``_screening_mask`` of its predecessors, asked in masks.  The parent
    set depends only on the node and the set of its predecessors, so it is
    kept on the oracle (``_screening``) and every later build reuses it; an
    oracle without the memo gets a throwaway dict.
    """
    order = _validated_order(oracle.universe, order)
    sets = oracle.universe.sets
    memo = getattr(oracle, "_screening", None)
    if memo is None:
        memo = {}
    parents, preceding = {}, 0
    for node in order:
        key = (sets.bit[node], preceding)
        found = memo.get(key)
        if found is None:
            screening = _screening_mask(_mask_ci(oracle), *key)
            found = memo[key] = sets.set_of(screening)
        parents[node] = found
        preceding |= key[0]
    return Dag(oracle.universe, parents, order)


def _validated_order(universe: Universe, order: Sequence[str] | None) -> tuple[str, ...]:
    if order is None:
        return universe.variables
    order = tuple(order)
    # ``require`` first, so that a stranger or an unhashable name is reported as such
    if universe.require(order) != universe.names or len(order) != len(universe.variables):
        raise InvalidOrder("order must be a permutation of the universe")
    return order


def _validate_query(dag: Dag, q: Triplet) -> None:
    """A ``Triplet``'s sets are disjoint by construction, so only membership
    and non-empty sides are checked."""
    dag.universe.require(q.x_set | q.y_set | q.z_set)
    if not q.x_set or not q.y_set:
        raise InvalidSets("x_set and y_set must be non-empty")


def d_separated(dag: Dag, q: Triplet) -> bool:
    """Whether no active trail joins x_set and y_set with respect to z_set.

    An edge between the two sides is an active trail under every z_set
    (the sets are disjoint, so neither endpoint is conditioned on), and such
    a query is answered without a scan.  Otherwise a Bayes-ball scan
    (Shachter, UAI 1998) runs over (node, arrival-direction) states: a node
    not in z_set passes the walk to its children, and also to its parents
    when it was entered from a child; a node in z_set entered from a parent
    sends the walk back to its parents.  That bounce is how a conditioned
    descendant opens a collider, so no ancestor set is needed.
    """
    _validate_query(dag, q)
    children = dag.children
    for x in q.x_set:
        if not (q.y_set.isdisjoint(dag.parents[x]) and q.y_set.isdisjoint(children[x])):
            return False
    conditioned = q.z_set
    seen: set[tuple[str, bool]] = set()
    # True means the node was entered from a child (or is a source).
    stack: list[tuple[str, bool]] = [(x, True) for x in sorted(q.x_set)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        node, from_child = state
        if node in q.y_set:
            return False
        if node not in conditioned:
            stack.extend((c, False) for c in children[node])
            if from_child:
                stack.extend((p, True) for p in dag.parents[node])
        elif not from_child:
            stack.extend((p, True) for p in dag.parents[node])
    return True


def _reach(dag: Dag, start: str) -> dict[str, str]:
    """Every node trail-connected to ``start``, mapped to its predecessor on
    a shortest trail from ``start`` (``start`` maps to itself).

    The walk is breadth-first and visits each node's neighbours in name order.
    """
    back = {start: start}
    queue = [start]
    for v in queue:
        for u in sorted(dag.neighbors(v)):
            if u not in back:
                back[u] = v
                queue.append(u)
    return back


def connecting_trail(dag: Dag, start: str, end: str) -> Trail | None:
    """Shortest undirected path between two nodes, or None if disconnected."""
    dag.universe.index(start), dag.universe.index(end)  # a stranger or unhashable name raises
    if start == end:
        return None
    back = _reach(dag, start)
    if end not in back:
        return None
    nodes = [end]
    while nodes[-1] != start:
        nodes.append(back[nodes[-1]])
    return Trail(tuple(reversed(nodes)))


def connected_components(dag: Dag) -> tuple[tuple[str, ...], ...]:
    """Partition into maximal trail-connected node sets.

    Members are sorted by name and components by their least member: each
    walk starts from the least name not yet placed.
    """
    remaining = set(dag.universe.variables)
    comps: list[tuple[str, ...]] = []
    while remaining:
        comp = _reach(dag, min(remaining))
        remaining.difference_update(comp)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def factorization_max_error(table: JointTable, dag: Dag) -> float:
    """Largest gap between the joint and the product of per-node conditionals.

    Conditionals with zero-probability parent assignments contribute a zero
    factor, matching the joint they reconstruct.  Each conditional is laid on
    the table's axes (size 1 where it does not depend on a variable) and
    multiplied in construction order, one array product for all assignments.
    """
    import numpy as np

    if dag.universe.names != table.universe.names:
        raise InvalidSets("table and network must share a universe")
    variables, sizes = table.universe.variables, table.probs.shape

    def on_axes(names: frozenset[str]) -> np.ndarray:
        """The marginal over ``names``, laid on the table's axes."""
        marginal = table.marginal(tuple(v for v in variables if v in names))
        return marginal.reshape([n if v in names else 1 for v, n in zip(variables, sizes)])

    prod = np.ones(sizes)
    for node in dag.construction_order:
        pars = dag.parents[node]
        factor = on_axes(pars | {node})
        if pars:
            den = on_axes(pars)
            factor = np.divide(factor, den, out=np.zeros(factor.shape), where=den > 0.0)
        prod *= factor
    return float(np.abs(prod - table.probs).max())


def random_dag(n_nodes: int, max_edges: int, rng: np.random.Generator) -> Dag:
    """Uniformly seeded DAG over u1..un with at most ``max_edges`` edges."""
    names = tuple(f"u{i + 1}" for i in range(n_nodes))
    pairs = list(itertools.combinations(range(n_nodes), 2))
    cap = min(max_edges, len(pairs))
    n_edges = int(rng.integers(0, cap + 1))
    chosen = rng.choice(len(pairs), size=n_edges, replace=False) if n_edges else []
    parents: dict[str, set[str]] = {v: set() for v in names}
    for k in chosen:
        i, j = pairs[int(k)]
        parents[names[j]].add(names[i])
    return Dag(
        Universe.binary(*names),
        {v: frozenset(p) for v, p in parents.items()},
        names,
    )
