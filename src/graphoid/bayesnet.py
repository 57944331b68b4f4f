"""Minimal Bayesian-network construction and d-separation.

A network is built from a conditional-independence oracle under a
construction order: each node's parents are the smallest predecessor subset
that screens it off from the remaining predecessors, found by asking the
oracle in variable masks.  Every walk reads the parent and child masks a
``Dag`` keeps (``_links``): the Bayes-ball scan ``_separated`` and the
breadth-first ``_reach``.  A built network gets these masks as
construction found them, and an oracle keeps each network it was asked for.
The trail-enumeration reference of the scan, and the alarm-story network of
the goldens, live in ``tests/dsep_reference.py``.
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
    def _links(self) -> tuple[dict[int, int], dict[int, int]]:
        """Each node's parent mask and child mask, keyed by the node's bit
        over the universe's sorted names.  ``build_network`` hands its own
        masks over instead."""
        bit, mask_of = self.universe.sets.bit, self.universe.sets.mask_of
        parents = {bit[v]: mask_of(pars) for v, pars in self.parents.items()}
        children = dict.fromkeys(parents, 0)
        for v, pars in self.parents.items():
            for p in pars:
                children[bit[p]] |= bit[v]
        return parents, children

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

    Candidates are scanned in ascending cardinality, lexicographically over
    the sorted names within a cardinality (``_size_lex_submasks``), so the
    first hit has no qualifying proper subset and ties break
    deterministically.
    """
    for candidate in _size_lex_submasks(preceding):
        if holds(node, preceding ^ candidate, candidate):
            return candidate
    raise AssertionError("the full predecessor set always qualifies")


def build_network(oracle: CiOracle, order: Sequence[str] | None = None) -> Dag:
    """Minimal Bayesian network of the oracle's model under ``order``.

    Omitting the order uses the universe listing order.  Each node's parent
    mask is ``_screening_mask`` of its predecessors, asked in masks.  It
    depends only on the node and the set of its predecessors, so it is kept
    on the oracle (``_screening``) and every later build reuses it.  The
    network gets these parent masks, and the child masks OR-ed from them, as
    its ``_links``.  The oracle keeps the network per order (``_networks``),
    and a later build under that order returns the same ``Dag``: it is
    shared, so it must not be mutated.  An object without these memos gets
    throwaway ones, so a fresh build each time.
    """
    order = _validated_order(oracle.universe, order)
    networks = getattr(oracle, "_networks", {})
    dag = networks.get(order)
    if dag is not None:
        return dag
    bit, set_of = oracle.universe.sets.bit, oracle.universe.sets.set_of
    memo = getattr(oracle, "_screening", {})
    holds = _mask_ci(oracle)
    parents, children, preceding = {}, {}, 0
    for name in order:
        node = bit[name]
        pars = memo.get((node, preceding))
        if pars is None:
            pars = memo[node, preceding] = _screening_mask(holds, node, preceding)
        parents[node], children[node] = pars, 0
        while pars:
            low = pars & -pars
            children[low] |= node
            pars ^= low
        preceding |= node
    dag = networks[order] = Dag(
        oracle.universe, {v: set_of(parents[bit[v]]) for v in order}, order
    )
    object.__setattr__(dag, "_links", (parents, children))
    return dag


def _validated_order(universe: Universe, order: Sequence[str] | None) -> tuple[str, ...]:
    if order is None:
        return universe.variables
    order = tuple(order)
    # ``require`` first, so that a stranger or an unhashable name is reported as such
    if universe.require(order) != universe.names or len(order) != len(universe.variables):
        raise InvalidOrder("order must be a permutation of the universe")
    return order


def _separated(dag: Dag, x: int, y: int, z: int) -> bool:
    """Whether no active trail joins the non-empty masks ``x`` and ``y``
    with respect to ``z``, the three disjoint, over the sorted names.

    A Bayes-ball scan (Shachter, UAI 1998) over (node, arrival-direction)
    states, a frontier of each direction at a time: a node not in z passes
    the walk to its children, and also to its parents when it was entered
    from a child (as x's nodes count); a node in z entered from a parent
    sends the walk back to its parents.  That bounce is how a conditioned
    descendant opens a collider, so no ancestor set is needed.  The walk
    stops at the first node of y it reaches, so its first step answers a
    query with an edge between the two sides.
    """
    parents, children = dag._links
    up = up_seen = x  # entered from a child
    down = down_seen = 0  # entered from a parent
    while up or down:
        to_children = to_parents = 0
        passing = (up | down) & ~z
        while passing:
            node = passing & -passing
            to_children |= children[node]
            passing ^= node
        passing = (up & ~z) | (down & z)
        while passing:
            node = passing & -passing
            to_parents |= parents[node]
            passing ^= node
        if (to_children | to_parents) & y:
            return False
        up, down = to_parents & ~up_seen, to_children & ~down_seen
        up_seen |= up
        down_seen |= down
    return True


def d_separated(dag: Dag, q: Triplet) -> bool:
    """Whether no active trail joins x_set and y_set with respect to z_set:
    ``_separated`` on the masks of the query, whose names are checked once."""
    dag.universe.require(q.x_set | q.y_set | q.z_set)
    if not q.x_set or not q.y_set:
        raise InvalidSets("x_set and y_set must be non-empty")
    return _separated(dag, *map(dag.universe.sets.mask_of, (q.x_set, q.y_set, q.z_set)))


def _reach(dag: Dag, start: int) -> dict[int, int]:
    """Every node trail-connected to the ``start`` bit, mapped to its
    predecessor on a shortest trail from ``start`` (``start`` maps to
    itself), all as bits over the sorted names.

    The walk is breadth-first and visits each node's neighbours lowest bit,
    that is least name, first.
    """
    parents, children = dag._links
    back = {start: start}
    queue, seen = [start], start
    for v in queue:
        fresh = (parents[v] | children[v]) & ~seen
        seen |= fresh
        while fresh:
            u = fresh & -fresh
            back[u] = v
            queue.append(u)
            fresh ^= u
    return back


def connecting_trail(dag: Dag, start: str, end: str) -> Trail | None:
    """Shortest undirected path between two nodes, or None if disconnected."""
    dag.universe.index(start), dag.universe.index(end)  # a stranger or unhashable name raises
    if start == end:
        return None
    sets = dag.universe.sets
    first, last = sets.bit[start], sets.bit[end]
    back = _reach(dag, first)
    if last not in back:
        return None
    nodes = [last]
    while nodes[-1] != first:
        nodes.append(back[nodes[-1]])
    return Trail(tuple(sets.tuple_of(node)[0] for node in reversed(nodes)))


def connected_components(dag: Dag) -> tuple[tuple[str, ...], ...]:
    """Partition into maximal trail-connected node sets.

    Members are sorted by name and components by their least member: each
    walk starts from the least name not yet placed.
    """
    sets = dag.universe.sets
    remaining = (1 << len(sets.names)) - 1
    comps: list[tuple[str, ...]] = []
    while remaining:
        comp = sum(_reach(dag, remaining & -remaining))
        remaining ^= comp
        comps.append(sets.tuple_of(comp))
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
