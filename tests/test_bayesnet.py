import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest

from graphoid import (
    CiOracle,
    Dag,
    DependencyModel,
    JointTable,
    SeparationQuery,
    Trail,
    Triplet,
    Universe,
    build_network,
    connected_components,
    d_separated,
    factorization_max_error,
    random_gaussian,
    random_spb,
)
from graphoid.bayesnet import _mask_ci, _screening_mask, connecting_trail, random_dag
from graphoid.errors import InvalidOrder, InvalidSets, UnknownVariable
from graphoid.model_core import subsets

from disjoint_triples import iter_disjoint_triples
from dsep_reference import burglary_network, d_separated_by_enumeration, descendants, neighbors
from test_model_core import lex_submask_sets

Q = SeparationQuery.make


@dataclass(frozen=True)
class MinimalityViolation:
    """A node whose parent set shrinks: the oracle releases ``subset``."""

    node: str
    subset: frozenset


def audit_minimality(dag, oracle):
    """Every node and non-empty parent subset the oracle lets go; empty
    means no recorded parent set is reducible."""
    out = []
    for node in dag.construction_order:
        pars = dag.parents[node]
        for sub in lex_submask_sets(pars):
            if sub and oracle.ci({node}, sub, pars - sub):
                out.append(MinimalityViolation(node, sub))
    return out


def burglary_model():
    """The alarm-story dependency model: two sensors, an alarm, a patrol.

    Sensor outcomes are independent given burglary, the alarm depends on the
    burglary only through the sensors, and the patrol only through the alarm.
    """
    universe = Universe(
        ("burglary", "sensorA", "sensorB", "alarm", "patrol"),
        tuple(("yes", "no") for _ in range(5)),
    )
    return DependencyModel.of(
        universe,
        (
            Triplet.make({"sensorA"}, {"sensorB"}, {"burglary"}),
            Triplet.make({"alarm"}, {"burglary"}, {"sensorA", "sensorB"}),
            Triplet.make({"patrol"}, {"burglary", "sensorA", "sensorB"}, {"alarm"}),
        ),
    )


def brute_force_parent_sets(oracle, order, position):
    """All predecessor subsets satisfying the screening condition."""
    node = order[position - 1]
    preceding = frozenset(order[: position - 1])
    return [
        s for s in subsets(preceding) if oracle.ci({node}, preceding - s, s)
    ]


class TestMinimalParents:
    def test_xor_natural_order(self, xor_oracle):
        assert build_network(xor_oracle, ("x", "y", "z")).parents["z"] == {"x", "y"}

    def test_xor_pair_first_order(self, xor_oracle):
        assert build_network(xor_oracle, ("z", "x", "y")).parents["y"] == {"z"}

    def test_first_position_empty(self, xor_oracle):
        assert build_network(xor_oracle, ("x", "y", "z")).parents["x"] == frozenset()

    def test_matches_brute_force_minimum(self):
        for seed in range(5):
            table = random_spb(4, seed)
            oracle = CiOracle(table)
            order = table.universe.variables
            dag = build_network(oracle, order)
            for i in range(1, 5):
                got = dag.parents[order[i - 1]]
                candidates = brute_force_parent_sets(oracle, order, i)
                smallest = min(len(c) for c in candidates)
                least = min(
                    (c for c in candidates if len(c) == smallest),
                    key=lambda s: tuple(sorted(s)),
                )
                assert got == least
                assert not any(c < got for c in candidates)

    def test_wide_chain_stops_at_the_first_screening_subset(self):
        class ChainOracle:
            """A Markov chain v00 -> v01 -> ...; counts the queries asked."""

            def __init__(self, names):
                self.universe = Universe.binary(*names)
                self.asked = 0

            def ci(self, x, y, z):
                self.asked += 1
                (node,) = x
                before = self.universe.variables[self.universe.index(node) - 1]
                return not y or before in z

        names = [f"v{i:02d}" for i in range(21)]
        oracle = ChainOracle(names)
        sets = oracle.universe.sets
        decoded_before = len(sets._sets), len(sets._tuples)
        # bit i is names[i]: v20 against the mask of v00..v19
        assert _screening_mask(_mask_ci(oracle), 1 << 20, (1 << 20) - 1) == 1 << 19
        # The empty set, then the singletons up to {v19}: 21 of 2^20 candidates.
        assert oracle.asked == 21
        # Only the sets of the 21 asks are decoded, at most three per ask.
        decoded = len(sets._sets) - decoded_before[0], len(sets._tuples) - decoded_before[1]
        assert all(count <= 3 * 21 for count in decoded)


def reference_screening_set(oracle, node, preceding):
    """The first subset of ``preceding`` that screens ``node`` off from the
    rest, scanned as name sets: smallest first, lexicographic within a size."""
    for candidate in subsets(preceding):
        if oracle.ci({node}, preceding - candidate, candidate):
            return candidate
    raise AssertionError("the full predecessor set always qualifies")


def reference_network(oracle, order):
    """``build_network`` as a frozenset scan per node, with no memo."""
    parents = {
        node: reference_screening_set(oracle, node, frozenset(order[:i]))
        for i, node in enumerate(order)
    }
    return Dag(oracle.universe, parents, tuple(order))


def copied_coin_table():
    """A fair coin a, its copy b, c a noisy reading of a and d of c.

    a and b screen c off from each other alike, so a scan must break the tie
    by name order."""
    probs = np.zeros((2, 2, 2, 2))
    for a, c, d in itertools.product((0, 1), repeat=3):
        probs[a, a, c, d] = 0.5 * (0.8 if c == a else 0.2) * (0.7 if d == c else 0.3)
    return JointTable(Universe.binary("a", "b", "c", "d"), probs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_mask_scan_matches_the_frozenset_scan_under_every_order(n):
    backends = [random_spb(n, 40 + n), random_gaussian(n, 40 + n)]
    if n == 4:
        backends.append(copied_coin_table())  # ties between screening sets
    if n == 5:
        backends.append(burglary_model())  # sparse, so scans stop early
    parent_sets = set()
    for backend in backends:
        oracle, reference = CiOracle(backend), CiOracle(backend)
        for order in itertools.permutations(backend.universe.variables):
            dag = build_network(oracle, order)
            assert dag == reference_network(reference, order)
            parent_sets.update(dag.parents.values())
    # the scans stop at parent sets of every size up to n - 1
    assert {len(p) for p in parent_sets} == set(range(n))


class TestBuildNetwork:
    def test_xor_collider(self, xor_oracle):
        dag = build_network(xor_oracle, ("x", "y", "z"))
        assert dag.parents == {"x": frozenset(), "y": frozenset(), "z": {"x", "y"}}

    def test_independent_table_is_edgeless(self):
        probs = np.full((2, 2, 2), 1 / 8)
        from graphoid import JointTable

        table = JointTable(Universe.binary("a", "b", "c"), probs)
        dag = build_network(CiOracle(table))
        assert all(not p for p in dag.parents.values())

    def test_burglary_story_network(self):
        oracle = CiOracle(burglary_model())
        dag = build_network(oracle)
        assert dag.to_json_dict() == burglary_network().to_json_dict()

    def test_order_must_be_permutation(self, xor_oracle):
        with pytest.raises(InvalidOrder):
            build_network(xor_oracle, ("x", "y"))

    def test_a_bad_order_has_one_message(self, xor_oracle):
        message = "^order must be a permutation of the universe$"
        with pytest.raises(InvalidOrder, match=message):
            build_network(xor_oracle, ("x", "y", "y"))
        u = xor_oracle.universe
        with pytest.raises(InvalidOrder, match=message):
            Dag(u, {v: frozenset() for v in u.variables}, ("x", "y", "y"))

    def test_rebuilds_on_one_oracle_equal_fresh_builds(self, blocks_table):
        model = DependencyModel.of(
            Universe.binary("u1", "u2", "u3", "u4"),
            [Triplet.make("u1", "u2"), Triplet.make("u3", {"u1", "u2"}, "u4")],
        )
        for backend in (random_spb(4, 11), blocks_table, model):
            shared = CiOracle(backend)
            for order in itertools.permutations(backend.universe.variables):
                assert build_network(shared, order) == build_network(CiOracle(backend), order)
            # one screening set per node and predecessor set: 4 nodes x 2^3 sets
            assert len(shared._screening) == 32

    def test_a_rebuild_asks_the_kernel_nothing(self, monkeypatch):
        import graphoid.dist_oracle as dist_oracle

        calls, kernel_calls, builds = [], [], []
        real_holds, real_kernel = CiOracle._holds, dist_oracle._discrete_gap
        real_verdicts = dist_oracle._table_verdicts

        def counting_holds(self, x, y, z):
            calls.append((x, y, z))
            return real_holds(self, x, y, z)

        def counting_kernel(*args, **kwargs):
            kernel_calls.append(1)
            return real_kernel(*args, **kwargs)

        def counting_verdicts(*args):
            builds.append(1)
            return real_verdicts(*args)

        monkeypatch.setattr(CiOracle, "_holds", counting_holds)
        monkeypatch.setattr(dist_oracle, "_discrete_gap", counting_kernel)
        monkeypatch.setattr(dist_oracle, "_table_verdicts", counting_verdicts)
        oracle = CiOracle(random_spb(5, 2))
        order = ("u3", "u1", "u5", "u2", "u4")
        first = build_network(oracle, order)
        assert calls
        calls.clear()
        assert build_network(oracle, order) == first
        assert calls == []
        # swapping the first two nodes leaves the predecessor set of the rest
        # as it was, so their screening sets come from the memo
        swapped = build_network(oracle, ("u1", "u3", "u5", "u2", "u4"))
        assert all(swapped.parents[v] == first.parents[v] for v in ("u5", "u2", "u4"))
        asked = {x | y | z for x, y, z in calls}
        assert asked and all(mask.bit_count() <= 2 for mask in asked)
        # every verdict came from the one table built at the first query
        assert builds == [1] and kernel_calls == []


class TestDSeparation:
    def test_sensors_blocked_by_burglary(self):
        dag = burglary_network()
        assert d_separated(dag, Q({"sensorB"}, {"sensorA"}, {"burglary"}))

    def test_patrol_opens_the_collider(self):
        dag = burglary_network()
        assert not d_separated(dag, Q({"sensorB"}, {"sensorA"}, {"burglary", "patrol"}))

    def test_burglary_to_patrol_blocked(self):
        dag = burglary_network()
        assert d_separated(dag, Q({"burglary"}, {"patrol"}, {"sensorB", "alarm"}))
        # the other documented separating set works as well
        assert d_separated(dag, Q({"burglary"}, {"patrol"}, {"sensorB", "sensorA"}))

    def test_invalid_sets_rejected(self):
        dag = burglary_network()
        with pytest.raises(InvalidSets):
            d_separated(dag, Q({"alarm"}, {"alarm"}, set()))

    def test_matches_enumeration_on_random_dags(self):
        rng = np.random.default_rng(4)
        for _ in range(120):
            dag = random_dag(int(rng.integers(2, 7)), 8, rng)
            names = dag.universe.variables
            a, b = rng.choice(len(names), size=2, replace=False)
            a, b = names[int(a)], names[int(b)]
            rest = sorted(set(names) - {a, b})
            for z_codes in itertools.product((0, 1), repeat=len(rest)):
                z = {v for v, c in zip(rest, z_codes) if c}
                q = Q({a}, {b}, z)
                assert d_separated(dag, q) == d_separated_by_enumeration(dag, q)

    def test_matches_enumeration_on_every_query(self):
        rng = np.random.default_rng(11)
        dags = [burglary_network()]
        dags += [random_dag(n, n * (n - 1) // 2, rng) for n in range(2, 6) for _ in range(4)]
        shielded = separated = 0
        for dag in dags:
            for x, y, z in iter_disjoint_triples(dag.universe.variables):
                if not x or not y:
                    continue
                q = Q(x, y, z)
                got = d_separated(dag, q)
                assert got == d_separated_by_enumeration(dag, q)
                separated += got
                # an edge across whose endpoints' other neighbours are all in z
                shielded += any(
                    y & neighbors(dag, a) and neighbors(dag, a) - y <= z for a in x
                )
        assert shielded > 0 and separated > 0


class TestComponents:
    def test_burglary_is_one_component(self):
        assert connected_components(burglary_network()) == (
            ("alarm", "burglary", "patrol", "sensorA", "sensorB"),
        )

    def test_edgeless_dag_singletons(self):
        u = Universe.binary("a", "b", "c")
        dag = Dag(u, {v: frozenset() for v in u.variables}, u.variables)
        assert connected_components(dag) == (("a",), ("b",), ("c",))

    def test_xor_single_component(self, xor_oracle):
        dag = build_network(xor_oracle, ("x", "y", "z"))
        assert connected_components(dag) == (("x", "y", "z"),)


def reference_connected_components(dag):
    """The depth-first walk ``connected_components`` used before it shared
    the breadth-first ``_reach``: unordered neighbours, a final sort."""
    remaining = set(dag.universe.variables)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in neighbors(dag, v):
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        remaining -= comp
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: c[0])
    return tuple(comps)


def reference_connecting_trail(dag, start, end):
    """The layered breadth-first search ``connecting_trail`` used before it
    shared ``_reach``: it stops as soon as ``end`` is reached."""
    if start == end:
        return None
    back = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in sorted(neighbors(dag, v)):
                if u not in back:
                    back[u] = v
                    if u == end:
                        nodes = [end]
                        while nodes[-1] != start:
                            nodes.append(back[nodes[-1]])
                        return Trail(tuple(reversed(nodes)))
                    nxt.append(u)
        frontier = nxt
    return None


def seeded_walk_dags(seed=17):
    """Seeded ``random_dag`` graphs at n=2..8, sparse ones included so that
    many have several components."""
    rng = np.random.default_rng(seed)
    return [
        random_dag(n, max_edges, rng)
        for n in range(2, 9)
        for max_edges in (1, n - 2, n, 2 * n)
        for _ in range(6)
    ]


class TestWalkReferences:
    def test_components_match_the_reference(self):
        several = 0
        for dag in seeded_walk_dags():
            comps = connected_components(dag)
            assert comps == reference_connected_components(dag)
            several += len(comps) > 1
        assert several > 50

    def test_trails_match_the_reference_on_every_ordered_pair(self):
        found = missing = 0
        for dag in seeded_walk_dags():
            for a, b in itertools.permutations(dag.universe.variables, 2):
                trail = connecting_trail(dag, a, b)
                assert trail == reference_connecting_trail(dag, a, b)
                found += trail is not None
                missing += trail is None
        assert found > 0 and missing > 0


class TestAncestry:
    def test_no_self_ancestry(self):
        dag = burglary_network()
        assert "alarm" not in descendants(dag, "alarm")

    def test_burglary_descendants(self):
        dag = burglary_network()
        assert descendants(dag, "burglary") == {"sensorA", "sensorB", "alarm", "patrol"}


class TestAuditMinimality:
    def test_built_network_is_minimal(self):
        for seed in range(5):
            table = random_spb(4, seed)
            oracle = CiOracle(table)
            dag = build_network(oracle)
            assert audit_minimality(dag, oracle) == []

    def test_padded_xor_network_flagged(self, xor_oracle):
        u = xor_oracle.universe
        padded = Dag(
            u,
            {"x": frozenset(), "y": frozenset({"x"}), "z": frozenset({"x", "y"})},
            ("x", "y", "z"),
        )
        violations = audit_minimality(padded, xor_oracle)
        assert [(v.node, set(v.subset)) for v in violations] == [("y", {"x"})]

    def test_edgeless_dag_vacuously_minimal(self, xor_oracle):
        u = xor_oracle.universe
        bare = Dag(u, {v: frozenset() for v in u.variables}, u.variables)
        assert audit_minimality(bare, xor_oracle) == []


class TestNonDescendantScreening:
    def test_parents_screen_non_descendants(self):
        for seed in range(3):
            table = random_spb(4, seed)
            oracle = CiOracle(table)
            dag = build_network(oracle)
            for node in dag.construction_order:
                pars = dag.parents[node]
                non_desc = (
                    set(dag.universe.variables) - {node} - descendants(dag, node) - pars
                )
                assert oracle.ci({node}, non_desc, pars)

    def test_separated_components_marginally_independent(self, blocks_table):
        oracle = CiOracle(blocks_table)
        dag = build_network(oracle)
        comps = connected_components(dag)
        for one, two in itertools.combinations(comps, 2):
            assert oracle.ci(set(one), set(two))


def reference_factorization_max_error(table, dag):
    """The per-assignment loop the array product replaced: every node's
    conditional multiplied in construction order, one assignment at a time."""
    node_margs = {}
    parent_margs = {}
    for node in dag.construction_order:
        pars = tuple(sorted(dag.parents[node]))
        node_margs[node] = (pars, table.marginal((node,) + pars))
        parent_margs[node] = table.marginal(pars) if pars else None
    axis_of = {v: i for i, v in enumerate(table.universe.variables)}
    worst = 0.0
    for assignment in np.ndindex(table.probs.shape):
        prod = 1.0
        for node in dag.construction_order:
            pars, joint_m = node_margs[node]
            idx = (assignment[axis_of[node]],) + tuple(assignment[axis_of[p]] for p in pars)
            num = float(joint_m[idx])
            if pars:
                den = float(parent_margs[node][tuple(assignment[axis_of[p]] for p in pars)])
            else:
                den = 1.0
            prod *= num / den if den > 0.0 else 0.0
        worst = max(worst, abs(prod - float(table.probs[assignment])))
    return worst


def seeded_factorization_pairs(count, seed=16):
    """(table, DAG) pairs over 1..5 variables: binary and ternary domains,
    about 40% zero cells, random construction orders and parent sets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        names = tuple(f"v{i}" for i in range(int(rng.integers(1, 6))))
        domains = tuple(("a", "b", "c")[: int(rng.integers(2, 4))] for _ in names)
        probs = rng.random([len(d) for d in domains])
        probs[rng.random(probs.shape) < 0.4] = 0.0
        if not probs.any():
            probs.flat[0] = 1.0
        table = JointTable(Universe(names, domains), probs / probs.sum())
        order = tuple(names[int(i)] for i in rng.permutation(len(names)))
        parents = {
            v: frozenset(u for u in order[:i] if rng.random() < 0.5)
            for i, v in enumerate(order)
        }
        yield table, Dag(Universe.binary(*names), parents, order)


class TestFactorization:
    def test_array_product_equals_the_per_assignment_loop(self):
        for table, dag in seeded_factorization_pairs(300):
            assert factorization_max_error(table, dag) == reference_factorization_max_error(
                table, dag
            )

    def test_reconstructs_random_tables(self):
        for seed in range(5):
            table = random_spb(4, seed)
            dag = build_network(CiOracle(table))
            assert factorization_max_error(table, dag) <= 1e-9

    def test_reconstructs_xor(self, xor):
        dag = build_network(CiOracle(xor), ("x", "y", "z"))
        assert factorization_max_error(xor, dag) <= 1e-12

    def test_handles_zero_probability_parents(self, xor):
        dag = build_network(CiOracle(xor), ("z", "x", "y"))
        assert factorization_max_error(xor, dag) <= 1e-12


class TestTrails:
    def test_connecting_trail_endpoints(self):
        dag = burglary_network()
        trail = connecting_trail(dag, "burglary", "patrol")
        assert trail.nodes[0] == "burglary"
        assert trail.nodes[-1] == "patrol"

    def test_disconnected_returns_none(self):
        u = Universe.binary("a", "b")
        dag = Dag(u, {"a": frozenset(), "b": frozenset()}, ("a", "b"))
        assert connecting_trail(dag, "a", "b") is None


def test_dag_json_round_trip():
    dag = burglary_network()
    again = Dag.from_json_dict(json.loads(json.dumps(dag.to_json_dict())))
    assert again.parents == dag.parents
    assert again.construction_order == dag.construction_order


def test_dag_json_rejects_parents_of_unknown_variables():
    data = {"order": ["a", "b"], "parents": {"b": ["a"], "zz": ["a"]}}
    with pytest.raises(UnknownVariable, match="zz"):
        Dag.from_json_dict(data)


@pytest.mark.parametrize(
    "parents", [[["a"]], "b", {"b": "a"}, {"b": [["a"]]}, {"b": None}]
)
def test_dag_json_rejects_malformed_parents(parents):
    with pytest.raises(ValueError, match="parents"):
        Dag.from_json_dict({"order": ["a", "b"], "parents": parents})


def test_dsep_soundness_spot_check():
    # any separation read off the network must be an independence of the table
    for seed in range(5):
        table = random_spb(4, seed)
        oracle = CiOracle(table)
        dag = build_network(oracle)
        names = table.universe.variables
        for a, b in itertools.combinations(names, 2):
            for z in subsets(set(names) - {a, b}):
                if d_separated(dag, Q({a}, {b}, z)):
                    assert oracle.ci({a}, {b}, z)
