"""Every labeled DAG on up to four nodes, read through d-separation alone.

d-separation is sound and complete for the independencies a DAG implies
(Geiger, Verma and Pearl, "Identifying independence in Bayesian networks",
*Networks* 20, 1990), so a DAG's d-separation statements form an exact CI
oracle with no tolerance in play.  Over every such oracle the scan must
agree with the trail reference, network construction must give the DAG
back, and the three relevance relations must all mean "different
components of the DAG".
"""

import itertools

import pytest

from graphoid import (
    Dag,
    Triplet,
    Universe,
    bayesnet,
    build_network,
    connected_components,
    is_transitive,
    mutually_irrelevant,
    uncoupled,
    unrelated,
)

from disjoint_triples import iter_disjoint_triples
from dsep_reference import children, d_separated_by_enumeration

# Labeled DAGs on n nodes (OEIS A003024).
DAG_COUNTS = {2: 3, 3: 25, 4: 543}


def topological_order(parents):
    """The topological order that places the least ready name first, or
    None when the parent sets hold a cycle."""
    order = []
    while len(order) < len(parents):
        ready = [v for v in parents if v not in order and parents[v] <= set(order)]
        if not ready:
            return None
        order.append(min(ready))
    return tuple(order)


def labeled_dags(n):
    """Every DAG over u1..un: each pair of nodes unlinked or joined one way,
    keeping the acyclic choices."""
    names = tuple(f"u{i + 1}" for i in range(n))
    pairs = list(itertools.combinations(names, 2))
    for links in itertools.product((None, "->", "<-"), repeat=len(pairs)):
        parents = {v: set() for v in names}
        for (a, b), link in zip(pairs, links):
            if link == "->":
                parents[b].add(a)
            elif link == "<-":
                parents[a].add(b)
        order = topological_order(parents)
        if order is not None:
            frozen = {v: frozenset(p) for v, p in parents.items()}
            yield Dag(Universe.binary(*names), frozen, order)


class DsepOracle:
    """A DAG's d-separation statements as a CI oracle.

    Network construction and the relations take any object with
    ``universe`` and ``ci``.  An empty side holds trivially, since
    ``d_separated`` rejects one.  The scan is looked up on its module at
    each call, so a test can patch it.
    """

    def __init__(self, dag):
        self.universe = dag.universe
        self.dag = dag

    def ci(self, x, y, z=()):
        return not x or not y or bayesnet.d_separated(self.dag, Triplet.make(x, y, z))


@pytest.fixture(scope="module")
def dags():
    return {n: list(labeled_dags(n)) for n in DAG_COUNTS}


@pytest.fixture(scope="module")
def reference(dags):
    """Each DAG's queries with non-empty sides, with the trail reference's verdicts."""
    out = {}
    for n, group in dags.items():
        out[n] = []
        for dag in group:
            queries = [
                Triplet.make(x, y, z)
                for x, y, z in iter_disjoint_triples(dag.universe.variables)
                if x and y
            ]
            out[n].append([(q, d_separated_by_enumeration(dag, q)) for q in queries])
    return out


def scan_disagreements(dags, verdicts):
    """(dag, query) wherever the scan differs from the trail reference."""
    return [
        (dag, q)
        for dag, answers in zip(dags, verdicts)
        for q, separated in answers
        if bayesnet.d_separated(dag, q) != separated
    ]


def apart(dag, a, b):
    return not any({a, b} <= set(comp) for comp in connected_components(dag))


RELATIONS = (mutually_irrelevant, uncoupled, unrelated)


def relation_failures(dags):
    """(dag, a, b) wherever a relation differs from "different components"."""
    out = []
    for dag in dags:
        oracle = DsepOracle(dag)
        for a, b in itertools.combinations(dag.universe.variables, 2):
            verdicts = {relation(oracle, a, b).holds for relation in RELATIONS}
            if verdicts != {apart(dag, a, b)}:
                out.append((dag, a, b))
    return out


def intransitive(dags):
    return [dag for dag in dags if not is_transitive(DsepOracle(dag)).holds]


def rebuild_failures(dags):
    """DAGs that their own d-separation model, built under their own
    construction order, does not give back."""
    return [dag for dag in dags if build_network(DsepOracle(dag), dag.construction_order) != dag]


def component_failures(dags):
    """DAGs whose components the built network misses under some order."""
    return [
        dag
        for dag in dags
        if any(
            connected_components(build_network(DsepOracle(dag), order)) != connected_components(dag)
            for order in itertools.permutations(dag.universe.variables)
        )
    ]


def test_every_labeled_dag_is_enumerated_once(dags):
    assert {n: len(group) for n, group in dags.items()} == DAG_COUNTS
    for group in dags.values():
        assert len(set(group)) == len(group)


def test_scan_matches_the_trail_reference_on_every_query(dags, reference):
    assert sum(len(answers) for verdicts in reference.values() for answers in verdicts) == 60_186
    for n, group in dags.items():
        assert scan_disagreements(group, reference[n]) == []


def test_own_order_rebuild_gives_the_dag_back(dags):
    for group in dags.values():
        assert rebuild_failures(group) == []


def test_components_are_the_dags_under_every_order(dags):
    for group in dags.values():
        assert component_failures(group) == []
    assert sum(len(connected_components(dag)) > 1 for dag in dags[4]) == 97


def test_relations_all_mean_different_components(dags):
    for group in dags.values():
        assert relation_failures(group) == []
    pairs = [
        (dag, a, b) for dag in dags[4] for a, b in itertools.combinations(dag.universe.variables, 2)
    ]
    assert len(pairs) == 3_258
    assert sum(apart(*pair) for pair in pairs) == 330


def test_every_dag_model_is_transitive(dags):
    for group in dags.values():
        assert intransitive(group) == []


def scan_without_bounce(dag, q):
    """A broken scan: a conditioned node stops the walk instead of sending it
    back to its parents, so a conditioned descendant never opens a collider."""
    kids = children(dag)
    seen = set()
    stack = [(x, True) for x in q.x_set]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        node, from_child = state
        if node in q.y_set:
            return False
        if node not in q.z_set:
            stack.extend((c, False) for c in kids[node])
            if from_child:
                stack.extend((p, True) for p in dag.parents[node])
    return True


def test_a_scan_without_the_bounce_breaks_three_checks(dags, reference, monkeypatch):
    monkeypatch.setattr(bayesnet, "d_separated", scan_without_bounce)
    assert len(scan_disagreements(dags[4], reference[4])) == 1_404
    assert len(relation_failures(dags[4])) == 222
    assert len(intransitive(dags[4])) == 142
