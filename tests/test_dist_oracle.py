import dataclasses
import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphoid
import graphoid.dist_oracle as dist_oracle
import graphoid.model_core as model_core
from graphoid import (
    CiOracle,
    Dag,
    GaussianModel,
    JointTable,
    PartitionTriple,
    PtBinBlocks,
    Triplet,
    Universe,
    build_network,
    check_clean,
    check_graphoid_axioms,
    check_pt_bin,
    ci_holds_discrete,
    condition_on,
    extract_model,
    marginalize,
    product_table,
    random_gaussian,
    random_spb,
    restrict_to_hypotheses,
    unrelated,
    xor_table,
)
from graphoid.bayesnet import connecting_trail
from graphoid.dist_oracle import (
    CONDITION_LIMIT,
    DISCRETE_TOL,
    GAUSSIAN_TOL,
    ci_discrepancy_discrete,
    ci_residual_gaussian,
)
from graphoid.errors import (
    InvalidSets,
    SingularConditioning,
    UniverseTooLarge,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from graphoid.model_core import DependencyModel, graphoid_closure

from disjoint_triples import iter_disjoint_triples


def ci_holds_gaussian(g, x, y, z=(), tol=GAUSSIAN_TOL):
    """The Gaussian verdict from the residual kernel alone, with no ``CiOracle``."""
    return ci_residual_gaussian(g, x, y, z) <= tol


def factorization_gap(table, x, y, z, tol=1e-9):
    """Independent check: max |P(x,y|z) - P(x|z) P(y|z)| over usable z."""
    xs, ys, zs = tuple(sorted(x)), tuple(sorted(y)), tuple(sorted(z))
    m = table.marginal(xs + ys + zs)
    d_x = int(np.prod([table.domain_size(v) for v in xs])) if xs else 1
    d_y = int(np.prod([table.domain_size(v) for v in ys])) if ys else 1
    d_z = m.size // (d_x * d_y)
    p = m.reshape(d_x, d_y, d_z)
    p_z = p.sum(axis=(0, 1))
    worst = 0.0
    for k in range(d_z):
        if p_z[k] <= tol:
            continue
        joint = p[:, :, k] / p_z[k]
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        worst = max(worst, float(np.abs(joint - np.outer(px, py)).max()))
    return worst


class TestJointTableInvariants:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            JointTable(Universe.binary("x", "y"), np.full(4, 0.3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            JointTable(Universe.binary("x", "y"), [0.5, 0.6, -0.1, 0.0])

    def test_singleton_domain_rejected(self):
        u = Universe(("x",), (("only",),))
        with pytest.raises(ValueError):
            JointTable(u, [1.0])

    def test_strictly_positive_flag(self, xor):
        assert not xor.probs.min() > 0
        assert random_spb(3, 0).probs.min() > 0


class TestDiscreteCi:
    def test_xor_marginal_independence(self, xor):
        assert ci_holds_discrete(xor, {"x"}, {"y"})

    def test_xor_given_pair_variable(self, xor):
        assert ci_holds_discrete(xor, {"x"}, {"y"}, {"z"})

    def test_xor_joint_dependence(self, xor):
        assert not ci_holds_discrete(xor, {"x"}, {"y", "z"})

    def test_empty_y_trivially_holds(self, xor):
        assert ci_holds_discrete(xor, {"x"}, set(), {"z"})
        assert ci_holds_discrete(xor, set(), {"x"}, {"z"})

    def test_overlap_rejected(self, xor):
        with pytest.raises(InvalidSets):
            ci_holds_discrete(xor, {"x"}, {"x", "y"})

    def test_unknown_variable_rejected(self, xor):
        with pytest.raises(InvalidSets):
            ci_holds_discrete(xor, {"x"}, {"q"})

    def test_symmetry_on_samples(self, xor):
        tables = [xor] + [random_spb(4, s) for s in range(3)]
        for table in tables:
            names = table.universe.variables
            for x, y, z in iter_disjoint_triples(names):
                assert ci_holds_discrete(table, x, y, z) == ci_holds_discrete(
                    table, y, x, z
                )

    def test_agrees_with_factorization_check(self, xor):
        tables = [xor] + [random_spb(4, s) for s in range(3)]
        tol = 1e-9
        for table in tables:
            for x, y, z in iter_disjoint_triples(table.universe.variables):
                if not x or not y:
                    continue
                gap = factorization_gap(table, x, y, z, tol)
                if ci_holds_discrete(table, x, y, z, tol):
                    assert gap <= 2 * tol
                else:
                    assert gap > 2 * tol

    def test_decomposition_consistency(self):
        table = random_spb(4, 11)
        names = table.universe.variables
        for x, y, z in iter_disjoint_triples(names):
            if len(y) < 2 or not ci_holds_discrete(table, x, y, z):
                continue
            for part in y:
                assert ci_holds_discrete(table, x, y - {part}, z)


class TestGaussianCi:
    def test_diagonal_always_independent(self):
        g = GaussianModel(Universe.reals("a", "b", "c"), np.zeros(3), np.eye(3))
        assert ci_holds_gaussian(g, {"a"}, {"b"})
        assert ci_holds_gaussian(g, {"a"}, {"b"}, {"c"})

    def test_chain_covariance(self):
        cov = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        g = GaussianModel(Universe.reals("v1", "v2", "v3"), np.zeros(3), cov)
        assert ci_holds_gaussian(g, {"v1"}, {"v3"})
        assert not ci_holds_gaussian(g, {"v1"}, {"v3"}, {"v2"})
        assert ci_residual_gaussian(g, {"v1"}, {"v3"}, {"v2"}) == pytest.approx(0.25)

    def test_empty_block_trivially_holds(self):
        g = random_gaussian(3, 0)
        assert ci_holds_gaussian(g, {"u1"}, set(), {"u2"})

    def test_singular_conditioning_detected(self):
        g = _almost_singular_gaussian()
        # the model keeps the outcome per sorted set, and raises on every call
        for z in ({"a", "b"}, ("b", "a"), {"a", "b"}):
            with pytest.raises(SingularConditioning, match=r"\('a', 'b'\)"):
                ci_holds_gaussian(g, {"c"}, {"d"}, z)
        with pytest.raises(SingularConditioning):
            CiOracle(g).ci({"c"}, {"d"}, {"a", "b"})
        assert ci_residual_gaussian(g, {"c"}, {"d"}, {"a"}) == 0.0

    def test_symmetry_requirement(self):
        cov = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            GaussianModel(Universe.reals("a", "b"), np.zeros(2), cov)

    def test_positive_definite_requirement(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            GaussianModel(Universe.reals("a", "b"), np.zeros(2), cov)

    def test_symmetry_on_samples(self):
        import itertools

        for seed in range(3):
            g = random_gaussian(4, seed)
            names = g.universe.variables
            for codes in itertools.product(range(4), repeat=4):
                x = {n for n, c in zip(names, codes) if c == 1}
                y = {n for n, c in zip(names, codes) if c == 2}
                z = {n for n, c in zip(names, codes) if c == 3}
                assert ci_holds_gaussian(g, x, y, z) == ci_holds_gaussian(g, y, x, z)

    def test_composition_on_samples(self):
        for seed in range(5):
            g = random_gaussian(4, seed)
            names = g.universe.variables
            import itertools

            for codes in itertools.product(range(4), repeat=4):
                x = {n for n, c in zip(names, codes) if c == 1}
                y = {n for n, c in zip(names, codes) if c == 2}
                w = {n for n, c in zip(names, codes) if c == 3}
                if not x or not y or not w:
                    continue
                if ci_holds_gaussian(g, x, y) and ci_holds_gaussian(g, x, w):
                    assert ci_holds_gaussian(g, x, y | w)


class TestExtractModel:
    def test_xor_model_members(self, xor_oracle):
        m = extract_model(xor_oracle)
        assert Triplet.make("x", "y") in m.triplets
        assert Triplet.make("x", "y", "z") in m.triplets
        assert Triplet.make("x", {"y", "z"}) not in m.triplets

    def test_diagonal_gaussian_fully_independent(self):
        g = GaussianModel(Universe.reals("a", "b", "c"), np.zeros(3), np.eye(3))
        m = extract_model(CiOracle(g))
        assert len(m.triplets) == 4 ** 3  # every disjoint triple holds

    def test_extracted_model_passes_axioms(self):
        for seed in range(3):
            m = extract_model(CiOracle(random_spb(3, seed)))
            assert check_graphoid_axioms(m) == []

    def test_bound(self):
        g = random_gaussian(6, 0)
        message = "^6 variables exceed the extraction bound of 5$"
        with pytest.raises(UniverseTooLarge, match=message):
            extract_model(CiOracle(g))


class TestConditionAndMarginal:
    def test_condition_xor_on_pair_value(self, xor):
        point = condition_on(xor, "z", 0)
        assert point.universe.variables == ("x", "y")
        assert point.probs[0, 0] == pytest.approx(1.0)

    def test_condition_requires_mass(self, xor):
        table = condition_on(xor, "x", 0)  # now y=tail,z=(head,head) impossible
        with pytest.raises(ZeroProbabilityEvidence):
            condition_on(table, "z", 2)

    def test_conditional_sums_to_one(self, xor):
        for v in range(4):
            assert condition_on(xor, "z", v).probs.sum() == pytest.approx(1.0)

    def test_marginal_fair_coin(self, xor):
        coin = marginalize(xor, {"x"})
        assert np.allclose(coin.probs, [0.5, 0.5])

    def test_marginal_identity(self, xor):
        assert np.allclose(marginalize(xor, xor.universe.names).probs, xor.probs)

    def test_tower_property(self):
        table = random_spb(5, 3)
        mid = marginalize(table, {"u1", "u2", "u3"})
        assert np.allclose(
            marginalize(mid, {"u1", "u3"}).probs,
            marginalize(table, {"u1", "u3"}).probs,
        )


class TestGenerators:
    def test_spb_deterministic(self):
        a, b = random_spb(3, 7), random_spb(3, 7)
        assert np.array_equal(a.probs, b.probs)

    def test_spb_strictly_positive_and_normalized(self):
        for seed in range(5):
            table = random_spb(4, seed)
            assert table.probs.min() > 0
            assert abs(table.probs.sum() - 1.0) <= 1e-12

    def test_spb_bounds(self):
        with pytest.raises(ValueError):
            random_spb(1, 0)
        with pytest.raises(ValueError):
            random_spb(7, 0)

    def test_gaussian_deterministic(self):
        a, b = random_gaussian(4, 1), random_gaussian(4, 1)
        assert np.array_equal(a.covariance, b.covariance)
        assert np.array_equal(a.mean, b.mean)

    def test_gaussian_valid_and_well_conditioned(self):
        for seed in range(5):
            g = random_gaussian(5, seed)
            eigs = np.linalg.eigvalsh(g.covariance)
            assert eigs.min() >= 1e-2 - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_table_json_round_trip_bit_exact(seed, n):
    table = random_spb(n, seed)
    text = json.dumps(table.to_json_dict())
    again = JointTable.from_json_dict(json.loads(text))
    assert np.array_equal(again.probs, table.probs)
    assert again.universe == table.universe


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_gaussian_json_round_trip_bit_exact(seed, n):
    g = random_gaussian(n, seed)
    text = json.dumps(g.to_json_dict())
    again = GaussianModel.from_json_dict(json.loads(text))
    assert np.array_equal(again.covariance, g.covariance)
    assert np.array_equal(again.mean, g.mean)


def test_product_table_blocks_independent(blocks_table):
    assert ci_holds_discrete(blocks_table, {"x", "w"}, {"y", "v"})
    assert not ci_holds_discrete(blocks_table, {"x"}, {"w"})


def _canonical(x, y, z):
    xs, ys, zs = tuple(sorted(x)), tuple(sorted(y)), tuple(sorted(z))
    return (ys, xs, zs) if ys < xs else (xs, ys, zs)


def _uncached_verdict(backend, closed):
    """The oracle's answer computed without a memo, in canonical orientation."""
    if isinstance(backend, JointTable):
        return lambda x, y, z: ci_holds_discrete(backend, *_canonical(x, y, z))
    if isinstance(backend, GaussianModel):
        return lambda x, y, z: ci_holds_gaussian(backend, *_canonical(x, y, z))
    return lambda x, y, z: Triplet.make(*_canonical(x, y, z)) in closed


@st.composite
def _oracle_backends(draw):
    kind = draw(st.sampled_from(("table", "gaussian", "model")))
    n = draw(st.integers(3, 5) if kind != "model" else st.integers(3, 4))
    seed = draw(st.integers(0, 10_000))
    if kind == "table":
        return random_spb(n, seed)
    if kind == "gaussian":
        return random_gaussian(n, seed)
    universe = Universe.binary(*(f"u{i + 1}" for i in range(n)))
    pool = [t for t in iter_disjoint_triples(universe.variables) if t[0] and t[1]]
    picks = draw(st.lists(st.sampled_from(pool), max_size=4))
    return DependencyModel.of(universe, (Triplet(*t) for t in picks))


@settings(max_examples=30, deadline=None)
@given(_oracle_backends())
def test_memoized_oracle_matches_uncached_verdicts(backend):
    queries = list(iter_disjoint_triples(backend.universe.variables))
    closed = (
        graphoid_closure(backend).triplets if isinstance(backend, DependencyModel) else None
    )
    reference = _uncached_verdict(backend, closed)
    forward, backward = CiOracle(backend), CiOracle(backend)
    asked_forward = [forward.ci(x, y, z) for x, y, z in queries]
    asked_backward = [backward.ci(x, y, z) for x, y, z in reversed(queries)][::-1]
    assert asked_forward == asked_backward
    for (x, y, z), verdict in zip(queries, asked_forward):
        assert verdict == reference(x, y, z)
        assert forward.ci(y, x, z) == verdict
        # String, list and tuple forms key onto the same memo entry.
        x_arg = next(iter(x)) if len(x) == 1 else sorted(x)
        assert backward.ci(x_arg, list(y), tuple(z)) == verdict
        if closed is None:  # the gap is read in the orientation the verdict used
            gap = forward.discrepancy(x, y, z)
            assert gap == forward.discrepancy(y, x, z)
            assert (gap <= forward.tolerance) == verdict

    name = backend.universe.variables[0]
    other = backend.universe.variables[1]
    invalid = [({name}, {name, other}, ()), ({name}, {"nope"}, ()), ({name}, {other}, {other})]
    for oracle in (forward, backward):
        for x, y, z in invalid:
            for _ in range(3):
                with pytest.raises(InvalidSets):
                    oracle.ci(x, y, z)
            if closed is None:  # a gap query is validated as a verdict is
                with pytest.raises(InvalidSets):
                    oracle.discrepancy(x, y, z)


def test_oracle_is_frozen(xor):
    oracle = CiOracle(xor)
    assert oracle.tolerance == 1e-9
    with pytest.raises(dataclasses.FrozenInstanceError):
        oracle.tolerance = 0.5


def test_model_oracle_keeps_no_memo(xor):
    model = DependencyModel.of(xor.universe, [Triplet.make("x", "y")])
    oracle = CiOracle(model)
    for x, y, z in iter_disjoint_triples(xor.universe.variables):
        assert oracle.ci(x, y, z) == oracle.ci(y, x, z)
    assert oracle.ci("x", "y") and oracle.ci("y", "x")
    assert not oracle.ci("x", "z")
    with pytest.raises(InvalidSets):
        oracle.ci("x", "x")
    assert oracle._memo is None
    # a table of at most five variables answers from its verdict table as
    # the model answers from its closure; a Gaussian keeps one dependency
    # row per conditioning mask, and a wider table memoizes each verdict
    table_oracle = CiOracle(xor)
    table_oracle.ci("x", "y")
    assert table_oracle._memo is None
    gaussian_oracle = CiOracle(random_gaussian(3, 0))
    gaussian_oracle.ci("u1", "u2")
    gaussian_oracle.ci("u1", "u2", "u3")
    assert list(gaussian_oracle._memo) == [0, 0b100]
    assert all(len(row) == 3 for row in gaussian_oracle._memo.values())
    wide_oracle = CiOracle(random_spb(6, 0))
    wide_oracle.ci("u1", "u2")
    assert list(wide_oracle._memo) == [(0b1, 0b10, 0)]


def test_model_oracle_past_the_bound_raises_at_every_query():
    big = DependencyModel.of(Universe.binary(*(f"u{i}" for i in range(9))))
    sets = big.universe.sets
    decoded = dict(sets._sets), dict(sets._tuples)
    oracle = CiOracle(big)
    for _ in range(2):
        with pytest.raises(UniverseTooLarge):
            oracle.ci("u0", "u1")
        # a bad query is reported as itself, not as the bound
        with pytest.raises(UnknownVariable, match="^unknown variable: nope$"):
            oracle.ci("u0", "nope")
        with pytest.raises(InvalidSets, match="^overlapping sets"):
            oracle.ci("u0", "u0")
    # the bound is checked before any mask is decoded, let alone 2^n of them
    assert (sets._sets, sets._tuples) == decoded


def test_oracle_is_freed_without_the_cycle_collector(xor):
    # An oracle that refers to itself would hold its memo and closure until
    # the cycle collector ran, raising peak memory over many short-lived oracles.
    model = DependencyModel.of(xor.universe, [Triplet.make("x", "y")])
    gc.disable()
    try:
        for backend in (xor, random_gaussian(3, 0), model):
            oracle = CiOracle(backend)
            first, second, third = backend.universe.variables[:3]
            oracle.ci(first, second)
            if not isinstance(backend, DependencyModel):
                # fills the table oracle's cache of conditioned oracles
                oracle.ci_given_value(first, second, third, 0)
            ref = weakref.ref(oracle)
            del oracle
            assert ref() is None
    finally:
        gc.enable()


def test_marginals_are_exact_in_every_axis_order():
    universe = Universe(
        ("a", "b", "c", "d"),
        (("0", "1"), ("0", "1", "2"), ("0", "1"), ("0", "1", "2", "3")),
    )
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.01, 1.0, size=48)
    table = JointTable(universe, raw / raw.sum())
    names = universe.variables
    for size in range(len(names) + 1):
        for order in itertools.permutations(names, size):
            keep = [names.index(v) for v in order]
            drop = tuple(i for i in range(len(names)) if i not in keep)
            fresh = table.probs.sum(axis=drop) if drop else table.probs
            ordered = sorted(keep)
            fresh = np.transpose(fresh, [ordered.index(k) for k in keep])
            got = table.marginal(order)
            assert np.array_equal(got, fresh)
            assert np.shape(got) == np.shape(fresh)


def test_ci_given_value_zero_mass_value_holds_vacuously():
    # x and y are equal copies of a coin when e = 0; e = 1 never happens
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[1, 1, 0] = 0.5
    table = JointTable(Universe.binary("x", "y", "e"), probs)
    oracle = CiOracle(table)
    assert oracle.ci_given_value("x", "y", "e", 1) is True
    assert oracle.ci_given_value("x", "y", "e", 0) is False


def test_ci_given_value_matches_the_conditioned_table(monkeypatch):
    import graphoid.dist_oracle as dist_oracle

    built = []
    real_condition_on = dist_oracle.condition_on

    def counting_condition_on(table, var, value):
        built.append((var, value))
        return real_condition_on(table, var, value)

    monkeypatch.setattr(dist_oracle, "condition_on", counting_condition_on)
    table = random_spb(4, 7)
    oracle = CiOracle(table)
    for e in table.universe.variables:
        rest = [v for v in table.universe.variables if v != e]
        for x, y, _ in iter_disjoint_triples(rest):
            if not x or not y:
                continue
            for value in (0, 1):
                expected = ci_holds_discrete(real_condition_on(table, e, value), x, y)
                assert oracle.ci_given_value(x, y, e, value) == expected
                assert oracle.ci_given_value(y, x, e, value) == expected
    # one conditioned table per (pivot, value), however often it is asked
    assert sorted(built) == sorted(set(built)) and len(built) == 8


def test_ci_given_value_on_a_gaussian_conditions_on_the_pivot():
    g = random_gaussian(4, 3)
    oracle = CiOracle(g)
    for x, y, _ in iter_disjoint_triples(("u1", "u2", "u3")):
        if x and y:
            for value in (0, 1, 5):
                assert oracle.ci_given_value(x, y, "u4", value) == oracle.ci(x, y, {"u4"})


def test_ci_given_value_rejects_a_model_backend_and_bad_values(xor):
    model = DependencyModel.of(xor.universe, [Triplet.make("x", "y")])
    with pytest.raises(TypeError):
        CiOracle(model).ci_given_value("x", "y", "z", 0)
    oracle = CiOracle(xor)
    for value in (4, -1):  # z has four values
        with pytest.raises(ValueError):
            oracle.ci_given_value("x", "y", "z", value)
    with pytest.raises(InvalidSets):  # the pivot cannot also be a query set
        oracle.ci_given_value("x", {"y", "z"}, "z", 0)


def test_a_value_index_is_an_integer_never_a_bool_or_float():
    table = random_spb(3, 0)
    oracle = CiOracle(table)
    fresh = CiOracle(table).ci_given_value("u1", "u2", "u3", np.int64(1))
    for value in (True, 1.0):  # value 1 not yet cached
        with pytest.raises(ValueError):
            oracle.ci_given_value("u1", "u2", "u3", value)
        with pytest.raises(ValueError):
            condition_on(table, "u3", value)
    assert oracle.ci_given_value("u1", "u2", "u3", 1) == fresh
    for value in (True, 1.0):  # value 1 now cached
        with pytest.raises(ValueError):
            oracle.ci_given_value("u1", "u2", "u3", value)
    assert oracle.ci_given_value("u1", "u2", "u3", np.int64(1)) == fresh
    assert np.array_equal(condition_on(table, "u3", np.int64(1)).probs,
                          condition_on(table, "u3", 1).probs)


def _reference_discrepancy(table, x_set, y_set, z_set, tol):
    """The discrete kernel as it stood before its empty-side return.

    The marginal is summed straight from the table, so neither marginal
    cache takes part.
    """
    xs, ys, zs = tuple(sorted(x_set)), tuple(sorted(y_set)), tuple(sorted(z_set))
    keep = [table.universe.index(n) for n in xs + ys + zs]
    ordered = sorted(keep)
    drop = tuple(i for i in range(table.probs.ndim) if i not in keep)
    m = table.probs.sum(axis=drop) if drop else table.probs
    m = m.transpose([ordered.index(k) for k in keep])
    n_x, n_xy = len(xs), len(xs) + len(ys)
    d_x = math.prod(m.shape[:n_x])
    d_y = math.prod(m.shape[n_x:n_xy])
    d_z = math.prod(m.shape[n_xy:])
    p_xyz = m.reshape(d_x, d_y, d_z)
    p_yz = p_xyz.sum(axis=0)
    p_xz = p_xyz.sum(axis=1)
    p_z = p_yz.sum(axis=0)
    usable = (p_yz > tol) & (p_z > tol)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        left = p_xyz / p_yz[None, :, :]
        right = (p_xz / p_z[None, :])[:, None, :]
        gap = np.abs(left - right)
    gap = np.where(usable[None, :, :], gap, 0.0)
    return float(gap.max())


def _sparse_table(seed):
    """Four variables with two and three values, about 40% of cells zero."""
    universe = Universe(
        ("a", "b", "c", "d"), (("0", "1"), ("0", "1", "2"), ("0", "1"), ("0", "1", "2"))
    )
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.01, 1.0, size=36) * (rng.random(36) >= 0.4)
    return JointTable(universe, raw / raw.sum())


def _tiny_entry_table():
    """Strictly positive over three binary variables, one entry near 1e-12."""
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.01, 1.0, size=8)
    raw[5] = 1e-12 * raw.sum()
    return JointTable(Universe.binary("a", "b", "c"), raw / raw.sum())


@pytest.mark.parametrize("tol", [0.0, DISCRETE_TOL])
def test_discrete_kernel_is_bit_identical_to_the_reference(monkeypatch, tol):
    tiny = _tiny_entry_table()
    assert 0.0 < tiny.probs.min() <= DISCRETE_TOL
    tables = [random_spb(n, 40 + n) for n in range(2, 6)]
    tables += [xor_table(), tiny] + [_sparse_table(seed) for seed in range(3)]
    assert any((t.probs == 0).mean() > 0.3 for t in tables)
    divides = []
    real_divide = np.divide

    def counting_divide(*args, **kwargs):
        divides.append(1)
        return real_divide(*args, **kwargs)

    # Only the masked body calls np.divide; the mask-free one divides with ``/``.
    monkeypatch.setattr(np, "divide", counting_divide)
    masked = []  # per table, whether each non-trivial query ran the masked body
    for table in tables:
        masked.append(set())
        for x, y, z in iter_disjoint_triples(table.universe.variables):
            before = len(divides)
            got = ci_discrepancy_discrete(table, x, y, z, tol)
            assert got == _reference_discrepancy(table, x, y, z, tol)
            if not x or not y:
                assert got == 0.0
            else:
                masked[-1].add(len(divides) > before)
    assert set().union(*masked) == {False, True}  # both branches ran
    # the tiny entry sends its table through the masks at 1e-9 only
    assert masked[tables.index(tiny)] == {tol > 0.0}
    for table in tables:
        names = table.universe.variables
        for derived in (marginalize(table, names[:2]), condition_on(table, names[0], 0)):
            assert derived._floor == derived.probs.min()


def _reference_residual(g, x_set, y_set, z_set):
    """The Gaussian kernel as it stood before the model kept its factors:
    ``np.ix_`` gathers and one eigenvalue check and Cholesky factorization
    per call."""
    xs, ys, zs = tuple(sorted(x_set)), tuple(sorted(y_set)), tuple(sorted(z_set))
    if not xs or not ys:
        return 0.0
    xi = [g.universe.index(n) for n in xs]
    yi = [g.universe.index(n) for n in ys]
    cov = g.covariance
    block = cov[np.ix_(xi, yi)]
    if zs:
        zi = [g.universe.index(n) for n in zs]
        s_zz = cov[np.ix_(zi, zi)]
        eigs = np.linalg.eigvalsh(s_zz)
        if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > CONDITION_LIMIT:
            raise SingularConditioning(f"conditioning block over {zs} is numerically singular")
        chol = np.linalg.cholesky(s_zz)
        w_y = np.linalg.solve(chol, cov[np.ix_(zi, yi)])
        w_x = np.linalg.solve(chol, cov[np.ix_(zi, xi)])
        block = block - w_x.T @ w_y
    return float(np.abs(block).max())


def _answer(kernel, g, x, y, z):
    """The kernel's residual, or the message of the SingularConditioning it raised."""
    try:
        return kernel(g, x, y, z)
    except SingularConditioning as exc:
        return f"singular: {exc}"


def _almost_singular_gaussian():
    """Correlation 1 - 1e-12 between a and b: positive definite, but the (a, b)
    block's condition number is past the 1e12 regularity limit."""
    cov = np.eye(4)
    cov[0, 1] = cov[1, 0] = 1.0 - 1e-12
    return GaussianModel(Universe.reals("a", "b", "c", "d"), np.zeros(4), cov)


def _gaussian_kernel_inputs():
    models = [random_gaussian(n, 60 + n) for n in range(2, 7)]
    models.append(GaussianModel(Universe.reals("a", "b", "c"), np.zeros(3), np.eye(3)))
    with_zeros = np.array(
        [[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, -0.3], [0.0, 0.0, 1.0, 0.0], [0.0, -0.3, 0.0, 1.5]]
    )
    models.append(GaussianModel(Universe.reals("a", "b", "c", "d"), np.zeros(4), with_zeros))
    tiny = random_gaussian(4, 3)
    models.append(GaussianModel(tiny.universe, tiny.mean, tiny.covariance * 1e-8))
    models.append(_almost_singular_gaussian())
    return models


@pytest.mark.parametrize("g", _gaussian_kernel_inputs())
def test_gaussian_kernel_is_bit_identical_to_the_reference(g):
    before = repr(g)
    triples = list(iter_disjoint_triples(g.universe.variables))
    for _ in range(2):  # the second pass reads the factors the first one kept
        for x, y, z in triples:
            got = _answer(ci_residual_gaussian, g, x, y, z)
            want = _answer(_reference_residual, g, x, y, z)
            assert got == want
            assert type(got) is type(want)
    # the kept factors and rows are no fields: equality and repr ignore them
    assert [f.name for f in dataclasses.fields(g)] == ["universe", "mean", "covariance"]
    assert repr(g) == before


def _linear_sem_gaussian(n, seed):
    """The Gaussian of a linear structural equation model with unit noise:
    covariance (I-B)^-1 (I-B)^-T for a strictly lower-triangular B with
    about 40% of its entries set, each of magnitude in [0.5, 1.5], so some
    partial covariances vanish exactly and others only in floating point."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, size=(n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
    b = np.tril(weights * (rng.random((n, n)) < 0.4), -1)
    inv = np.linalg.inv(np.eye(n) - b)
    return GaussianModel(Universe.reals(*(f"v{i}" for i in range(n))), np.zeros(n), inv @ inv.T)


def test_the_dependency_rows_answer_as_the_gaussian_kernel():
    models = _gaussian_kernel_inputs() + [
        _linear_sem_gaussian(n, seed) for n in range(3, 7) for seed in range(4)
    ]
    held = 0
    for tol in (GAUSSIAN_TOL, 0.05):
        for g in models:
            oracle = CiOracle(g, tol)
            for x, y, z in iter_disjoint_triples(g.universe.variables):
                residual = _answer(ci_residual_gaussian, g, x, y, z)
                want = residual if isinstance(residual, str) else residual <= tol
                try:
                    got = oracle.ci(x, y, z)
                except SingularConditioning as exc:
                    got = f"singular: {exc}"
                assert got == want
                held += got is True and bool(x and y and z)
    assert held > 0  # conditional independences with two non-empty sides held


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.integers(0, 10_000), st.permutations(range(n))
)))
def test_gaussian_residuals_do_not_depend_on_variable_order(case):
    seed, perm = case
    g = random_gaussian(len(perm), seed)
    names = [g.universe.variables[i] for i in perm]
    permuted = GaussianModel(
        Universe.reals(*names), g.mean[perm], g.covariance[np.ix_(perm, perm)]
    )
    # Blocks are gathered in sorted-name order, so the arithmetic is the same.
    for x, y, z in iter_disjoint_triples(names):
        assert _answer(ci_residual_gaussian, permuted, x, y, z) == _answer(
            ci_residual_gaussian, g, x, y, z
        )


def test_an_empty_side_never_reads_a_marginal(monkeypatch):
    read = []
    real_marginal = JointTable.marginal

    def counting_marginal(self, names):
        read.append(names)
        return real_marginal(self, names)

    monkeypatch.setattr(JointTable, "marginal", counting_marginal)
    table = random_spb(4, 3)
    oracle = CiOracle(table)
    for x, y, z in iter_disjoint_triples(table.universe.variables):
        if not x or not y:
            assert ci_discrepancy_discrete(table, x, y, z) == 0.0
            assert oracle.ci(x, y, z) and oracle.discrepancy(x, y, z) == 0.0
    assert read == []
    wide = CiOracle(random_spb(6, 3))  # past the verdict-table bound: the kernel path
    assert wide.ci({"u1"}, (), {"u2"}) and wide.ci((), {"u3", "u4"})
    assert read == []
    with pytest.raises(InvalidSets):  # validation still runs first
        ci_discrepancy_discrete(table, {"u1"}, (), {"u1"})
    oracle.ci({"u1"}, {"u2"})  # the verdict table sums the table itself
    assert read == []
    oracle.discrepancy({"u1"}, {"u2"})
    assert read == [("u1", "u2")]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.5])
def test_tolerance_must_be_finite_and_non_negative(xor, tol):
    model = DependencyModel.of(xor.universe, [Triplet.make("x", "y")])
    for backend in (random_spb(3, 0), random_gaussian(3, 0), model):
        with pytest.raises(ValueError):
            CiOracle(backend, tolerance=tol)


@pytest.mark.parametrize("tol", [True, False])
def test_a_bool_tolerance_is_refused(xor, tol):
    # True would read as tolerance 1, at which every discrete statement holds.
    model = DependencyModel.of(xor.universe, [Triplet.make("x", "y")])
    for backend in (random_spb(3, 0), random_gaussian(3, 0), model):
        with pytest.raises(ValueError, match="^tolerance must be finite and non-negative$"):
            CiOracle(backend, tol)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5, 1])
def test_a_model_oracle_takes_no_tolerance(xor, tol):
    # A model's verdicts are closure membership, which no tolerance can move.
    model = DependencyModel.of(xor.universe, [Triplet.make("x", "y")])
    with pytest.raises(ValueError, match="^a dependency model oracle takes no tolerance$"):
        CiOracle(model, tolerance=tol)
    assert CiOracle(model).ci("x", "y")


def test_an_unknown_name_is_reported_alike_everywhere():
    table = random_spb(3, 0)
    known = {"u1": frozenset(), "u2": frozenset(), "u3": frozenset()}
    one, two = frozenset({"u1"}), frozenset({"u2"})
    blocks = PtBinBlocks(one, frozenset(), frozenset(), frozenset(), two, *[frozenset()] * 3)
    asks = [
        lambda: table.universe.index("u9"),
        lambda: table.universe.domain("u9"),
        lambda: table.marginal(("u9",)),
        lambda: table.marginal(("u1", "u9")),
        lambda: condition_on(table, "u9", 0),
        lambda: restrict_to_hypotheses(table, "u9", (0, 1)),
        lambda: build_network(CiOracle(table), ("u1", "u2", "u9")),
        lambda: Dag(table.universe, {**known, "u2": frozenset({"u9"})}, ("u1", "u2", "u3")),
        lambda: Dag.from_json_dict({"order": ["u1", "u2"], "parents": {"u9": []}}),
        lambda: DependencyModel.of(table.universe, [Triplet.make("u1", "u9")]),
        lambda: check_clean(table, PartitionTriple(one, two, one, two, one, two, "u9")),
        lambda: check_pt_bin(table, blocks, "u9"),
        lambda: unrelated(CiOracle(table), "u1", "u9"),
    ]
    for ask in asks:
        with pytest.raises(UnknownVariable) as info:
            ask()
        assert str(info.value) == "unknown variable: u9"


def _with_axes(table, perm):
    """The same distribution with its axes, and its universe, in ``perm`` order."""
    u = table.universe
    return JointTable(
        Universe(tuple(u.variables[i] for i in perm), tuple(u.domains[i] for i in perm)),
        np.transpose(table.probs, perm),
    )


def _with_values_rotated(table, var):
    """The same distribution with ``var``'s values, labels and slices alike,
    rotated by one place."""
    axis = table.universe.index(var)
    order = np.roll(np.arange(table.domain_size(var)), 1)
    domains = list(table.universe.domains)
    domains[axis] = tuple(domains[axis][i] for i in order)
    return JointTable(
        Universe(table.universe.variables, tuple(domains)),
        np.take(table.probs, order, axis=axis),
    )


INVARIANCE_TABLES = {
    **{f"spb-{n}-{seed}": random_spb(n, seed) for n in range(2, 6) for seed in (3, 17, 29)},
    "xor": xor_table(),
    "product-2+3": product_table(random_spb(2, 5), xor_table()),
    "sparse": _sparse_table(7),
}


@pytest.mark.parametrize("table", INVARIANCE_TABLES.values(), ids=INVARIANCE_TABLES.keys())
def test_discrete_verdicts_do_not_depend_on_axis_order_or_value_labels(table):
    names = table.universe.variables
    n = len(names)
    perms = [
        tuple(reversed(range(n))),
        tuple(range(1, n)) + (0,),
        tuple(int(i) for i in np.random.default_rng(n).permutation(n)),
    ]
    variants = [_with_axes(table, p) for p in perms]
    variants += [_with_values_rotated(table, v) for v in names]
    base, oracles = CiOracle(table), [CiOracle(t) for t in variants]
    for x, y, z in iter_disjoint_triples(names):
        expected = base.ci(x, y, z)
        assert [o.ci(x, y, z) for o in oracles] == [expected] * len(oracles), (x, y, z)


def _assert_oracle_answers_as_the_public_kernels(oracle):
    """Every disjoint triple, asked in both orientations, gets the public
    kernel's verdict and gap in the oracle's canonical orientation, and a
    verdict that agrees with the oracle's own gap.  On a verdict table, the
    gap the one pass found for each query is the kernel's up to 1e-12: the
    pass sums its marginals in another order, and in float64 that moves a
    gap, at most 1, by a few units of 2^-52."""
    backend, tol = oracle.backend, oracle.tolerance
    rows = None
    if isinstance(backend, JointTable):

        def holds(*query):
            return ci_holds_discrete(backend, *query, tol=tol)

        def gap(*query):
            return ci_discrepancy_discrete(backend, *query, tol=tol)

        if oracle._memo is None:
            sets = backend.universe.sets
            queries = dist_oracle._table_queries(len(sets.names))[1]
            found = dist_oracle._table_gaps(backend, sets.names, tol).tolist()
            rows = dict(zip(queries, found))
    else:

        def holds(*query):
            return ci_holds_gaussian(backend, *query, tol=tol)

        def gap(*query):
            return ci_residual_gaussian(backend, *query)

    for x, y, z in iter_disjoint_triples(backend.universe.variables):
        for a, b in ((x, y), (y, x)):
            query = _canonical(a, b, z)
            verdict, want = oracle.ci(a, b, z), gap(*query)
            assert verdict == holds(*query)
            assert oracle.discrepancy(a, b, z) == want
            assert verdict == (want <= tol)
            if rows is not None and a and b:
                masks = tuple(sum(sets.bit[v] for v in s) for s in query)
                assert math.isclose(rows[masks], want, rel_tol=0.0, abs_tol=1e-12)


@pytest.mark.parametrize(
    "backend",
    [random_spb(n, 90 + n) for n in range(2, 6)]
    + [xor_table(), _sparse_table(3)]
    + [random_gaussian(n, 90 + n) for n in range(2, 6)],
    ids=lambda b: f"{type(b).__name__}-{len(b.universe.variables)}",
)
def test_the_once_validated_oracle_answers_as_the_public_kernels(backend):
    oracle = CiOracle(backend)
    for _ in range(2):  # the second pass reads the memo and the mask map
        _assert_oracle_answers_as_the_public_kernels(oracle)


VERDICT_TABLES = {
    **{f"spb-{n}": (random_spb(n, 94 + n), DISCRETE_TOL) for n in range(2, 6)},
    "xor": (xor_table(), DISCRETE_TOL),
    "tiny-tol-0": (_tiny_entry_table(), 0.0),
    "tiny-tol-1e-9": (_tiny_entry_table(), DISCRETE_TOL),
    **{f"sparse-{seed}": (_sparse_table(seed), DISCRETE_TOL) for seed in range(3)},
    "sparse-permuted": (_with_axes(_sparse_table(5), (2, 0, 3, 1)), DISCRETE_TOL),
}


@pytest.mark.parametrize("table, tol", VERDICT_TABLES.values(), ids=VERDICT_TABLES.keys())
def test_the_verdict_table_answers_as_the_public_kernels(table, tol):
    oracle = CiOracle(table, tol)
    _assert_oracle_answers_as_the_public_kernels(oracle)
    assert oracle._memo is None  # every verdict came from the verdict table


def _wide_domain_table():
    """Three variables with 3, 40 and 40 values: 4,800 cells, a grid of
    38,400 entries, past VERDICT_GRID_LIMIT."""
    universe = Universe(
        ("a", "b", "c"), tuple(tuple(str(v) for v in range(k)) for k in (3, 40, 40))
    )
    raw = np.random.default_rng(13).uniform(0.01, 1.0, size=4800)
    return JointTable(universe, raw / raw.sum())


@pytest.mark.parametrize(
    "table", [random_spb(6, 96), _wide_domain_table()], ids=["six-variables", "wide-domains"]
)
def test_a_table_past_the_verdict_bound_answers_as_the_public_kernels(table):
    oracle = CiOracle(table)
    _assert_oracle_answers_as_the_public_kernels(oracle)
    assert oracle._memo  # the memo and kernel path


def _gaps_without_the_mask(real_gaps):
    """A broken verdict pass: the mask-free formula on every table, so a
    conditioning mass at or below the tolerance is divided by, not skipped."""

    def gaps(table, names, tol):
        blind = JointTable(table.universe, table.probs)
        object.__setattr__(blind, "_floor", math.inf)  # reads as strictly positive
        with np.errstate(divide="ignore", invalid="ignore"):
            return real_gaps(blind, names, tol)

    return gaps


def test_a_verdict_table_without_the_mask_fails_the_reference(monkeypatch):
    broken = _gaps_without_the_mask(dist_oracle._table_gaps)
    monkeypatch.setattr(dist_oracle, "_table_gaps", broken)
    caught = ["xor", "sparse-0", "sparse-1", "sparse-2", "sparse-permuted"]
    for name, (table, tol) in VERDICT_TABLES.items():
        if name in caught:
            with pytest.raises(AssertionError):
                _assert_oracle_answers_as_the_public_kernels(CiOracle(table, tol))
        else:  # no conditioning mass at or below the tolerance: the mask skips nothing
            _assert_oracle_answers_as_the_public_kernels(CiOracle(table, tol))
    # on xor the verdicts themselves go wrong, not just the gaps
    blind = CiOracle(xor_table())
    assert not blind.ci("x", "y", "z") and ci_holds_discrete(xor_table(), "x", "y", "z")


@pytest.mark.parametrize("table", [random_spb(4, 7), xor_table()], ids=["spb", "xor"])
def test_a_conditioned_oracle_answers_as_the_public_kernels(table):
    base = CiOracle(table)
    pivot = table.universe.variables[-1]
    first, second = table.universe.variables[:2]
    for value in range(table.domain_size(pivot)):
        conditioned = condition_on(table, pivot, value)
        verdict = base.ci_given_value(first, second, pivot, value)
        assert verdict == ci_holds_discrete(conditioned, first, second)
        given = base._given[(pivot, value)]
        assert given.backend.universe == conditioned.universe
        _assert_oracle_answers_as_the_public_kernels(given)


def _rejection(universe, x, y, z):
    """The exception class and text ``_validate_sets`` raises for a query."""
    with pytest.raises(InvalidSets) as info:
        model_core._validate_sets(universe, x, y, z)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind", ["table", "gaussian", "model", "wide-table"])
def test_a_warmed_oracle_rejects_every_bad_query(kind):
    if kind == "table":
        backend = random_spb(4, 5)
    elif kind == "wide-table":  # six variables: the memo and kernel path
        backend = random_spb(6, 5)
    elif kind == "gaussian":
        backend = random_gaussian(4, 5)
    else:
        universe = Universe.binary("u1", "u2", "u3", "u4")
        backend = DependencyModel.of(universe, [Triplet.make("u1", "u2", "u3")])
    oracle = CiOracle(backend)
    for x, y, z in [({"u1"}, {"u2"}, ()), ({"u3"}, {"u1"}, {"u2"}), ({"u2", "u3"}, {"u4"}, ())]:
        oracle.ci(x, y, z)
    memo = None if oracle._memo is None else dict(oracle._memo)
    assert (memo is None) == (kind in ("table", "model"))
    sets = backend.universe.sets
    known = dict(sets.masks)
    # each valid set's mask, whose sorted tuple is the set's
    assert frozenset({"u1"}) in known and frozenset({"u2", "u3"}) in known
    assert all(sets.tuple_of(known[s]) == tuple(sorted(s)) for s in known)
    held = None if memo is not None else set(oracle._verdicts())
    bad = [
        ({"u9"}, {"u2"}, ()),  # unknown in x
        ({"u1"}, {"u9"}, ()),  # unknown in y
        ({"u1"}, {"u2"}, {"u9"}),  # unknown in z
        ({"u8"}, {"u9"}, ()),  # two unknown names
        ({"u9"}, {"u9"}, ()),  # unknown and overlapping
        ({"u1"}, {"u1"}, ()),  # x meets y, every set cached
        ({"u1"}, {"u2"}, {"u1"}),  # x meets z
        ({"u1"}, {"u2"}, {"u2"}),  # y meets z
        ({"u1", "u4"}, {"u4"}, ()),  # a new set meets a cached one
        ({"u1"}, {"u2"}, {"u3", "u9"}),  # cached sets with a new unknown one
        ({"u2", "u3"}, {"u8"}, {"u2"}),  # a cached set, an unknown one and an overlap
    ]
    asks = [oracle.ci] if kind == "model" else [oracle.ci, oracle.discrepancy]
    for x, y, z in bad:
        want = _rejection(backend.universe, x, y, z)
        for ask in asks:
            for _ in range(2):
                with pytest.raises(InvalidSets) as info:
                    ask(x, y, z)
                assert (type(info.value), str(info.value)) == want
    assert sets.masks == known
    assert oracle._memo == memo
    if held is not None:
        assert oracle._verdicts() == held


@pytest.mark.parametrize("bad", [1, None, 2.5], ids=["int", "None", "float"])
def test_a_set_that_is_neither_a_name_nor_an_iterable_raises_invalid_sets(bad):
    want = f"^a variable set must be a name or an iterable of names, not {type(bad).__name__}$"
    for backend in (random_spb(3, 0), random_gaussian(3, 0)):
        oracle = CiOracle(backend)
        for ask in (oracle.ci, oracle.discrepancy):
            for args in ((bad, "u2"), ("u1", bad), ("u1", "u2", bad)):
                with pytest.raises(InvalidSets, match=want):
                    ask(*args)
        # a bare string is still one name
        assert oracle.ci("u1", "u2", "u3") == oracle.ci({"u1"}, ["u2"], ("u3",))


@pytest.mark.parametrize("bad", [[["u1"]], ["u1", {"u3"}], ({},)], ids=["list", "set", "dict"])
def test_a_set_with_an_unhashable_member_raises_invalid_sets(bad):
    want = f"^a variable name must be hashable, not {type(bad[-1]).__name__}$"
    with pytest.raises(InvalidSets, match=want):
        Triplet.make(bad, "u2")
    for backend in (random_spb(3, 0), random_gaussian(3, 0)):
        oracle = CiOracle(backend)
        for ask in (oracle.ci, oracle.discrepancy):
            for args in ((bad, "u2"), ("u2", bad), ("u2", "u3", bad)):
                with pytest.raises(InvalidSets, match=want):
                    ask(*args)


def _pt_bin_blocks():
    """Eight blocks over u1..u3 whose first blocks are non-empty."""
    empty = frozenset()
    return PtBinBlocks({"u1"}, {"u2"}, empty, empty, {"u3"}, empty, empty, empty)


# One call per entry point that takes a single variable name, each given a list.
UNHASHABLE_NAME_CALLS = {
    "mutually_irrelevant": lambda t: graphoid.mutually_irrelevant(CiOracle(t), ["u1"], "u2"),
    "uncoupled": lambda t: graphoid.uncoupled(CiOracle(t), "u1", ["u2"]),
    "unrelated": lambda t: unrelated(CiOracle(t), ["u1"], "u2"),
    "build_network": lambda t: build_network(CiOracle(t), ["u1", "u2", ["u3"], "u4"]),
    "condition_on": lambda t: condition_on(t, ["u1"], 0),
    "ci_given_value": lambda t: CiOracle(t).ci_given_value("u1", "u2", ["u3"], 0),
    "check_pt_bin": lambda t: check_pt_bin(t, _pt_bin_blocks(), ["u4"]),
    "PartitionTriple": lambda t: PartitionTriple(
        {"u1"}, {"u2"}, {"u1"}, {"u2"}, {"u1"}, {"u2"}, ["u4"]
    ),
    "connecting_trail": lambda t: connecting_trail(build_network(CiOracle(t)), ["u1"], "u2"),
    "restrict_to_hypotheses": lambda t: restrict_to_hypotheses(t, ["u1"], (0, 1)),
    "build_local": lambda t: graphoid.build_local(t, ["u1"], (0, 1), 1),
    "build_similarity": lambda t: graphoid.build_similarity(
        t, graphoid.HypothesisCover(["u1"], ((0, 1),)), 1
    ),
    "types_equivalent": lambda t: graphoid.types_equivalent(
        t, graphoid.HypothesisCover(["u1"], ((0, 1),))
    ),
}


@pytest.mark.parametrize("call", UNHASHABLE_NAME_CALLS.values(), ids=UNHASHABLE_NAME_CALLS.keys())
def test_an_unhashable_variable_name_raises_invalid_sets(call):
    with pytest.raises(InvalidSets, match="^a variable name must be hashable, not list$"):
        call(random_spb(4, 0))


@pytest.mark.parametrize(
    "one_shot", [lambda bad: (v for v in bad), iter], ids=["generator", "iterator"]
)
@pytest.mark.parametrize("bad", [[["u1"]], ["u1", {"u3"}], ({},)], ids=["list", "set", "dict"])
def test_a_one_shot_set_with_an_unhashable_member_raises_invalid_sets(one_shot, bad):
    # frozenset consumes the iterator on the way to the bad member, so its
    # type is read from the hash's error, not by scanning the members again.
    want = f"^a variable name must be hashable, not {type(bad[-1]).__name__}$"
    with pytest.raises(InvalidSets, match=want):
        Triplet.make(one_shot(bad), "u2")
    for backend in (random_spb(3, 0), random_gaussian(3, 0)):
        oracle = CiOracle(backend)
        for ask in (oracle.ci, oracle.discrepancy):
            for where in range(3):
                args = ["u2", "u3", ()]
                args[where] = one_shot(bad)
                with pytest.raises(InvalidSets, match=want):
                    ask(*args)


def test_a_type_error_inside_a_one_shot_set_is_its_own():
    def failing():
        yield "u1"
        raise TypeError("raised by the generator")

    with pytest.raises(TypeError, match="^raised by the generator$"):
        Triplet.make(failing(), "u2")
    with pytest.raises(TypeError, match="^raised by the generator$"):
        CiOracle(random_spb(3, 0)).ci(failing(), "u2")


@pytest.mark.parametrize(
    "backend", [random_gaussian(4, 21), random_spb(6, 21)], ids=["gaussian-4", "table-6"]
)
def test_the_kernel_gets_the_validated_tuples_smaller_first(monkeypatch, backend):
    gaussian = isinstance(backend, GaussianModel)
    kernel = "_gaussian_residual" if gaussian else "_discrete_gap"
    real_kernel, received = getattr(dist_oracle, kernel), []

    def recording_kernel(b, xs, ys, zs, *rest):
        received.append((xs, ys, zs))
        return real_kernel(b, xs, ys, zs, *rest)

    monkeypatch.setattr(dist_oracle, kernel, recording_kernel)
    oracle, asked = CiOracle(backend), set()
    for x, y, z in iter_disjoint_triples(backend.universe.variables):
        xs, ys, zs = model_core._validate_sets(backend.universe, x, y, z)
        want = (ys, xs, zs) if ys < xs else (xs, ys, zs)
        received.clear()
        oracle.ci(x, y, z)
        # a Gaussian answers from its dependency rows and asks the kernel
        # nothing; a wide table's memo hit asks nothing
        assert received == ([] if gaussian or want in asked else [want])
        asked.add(want)
        received.clear()
        oracle.discrepancy(x, y, z)
        assert received == [want]


def _model_over_unlisted_order():
    """A dependency model over five names listed out of sorted order, so a
    mask bit (a sorted position) and a listing position disagree."""
    universe = Universe.binary("e", "b", "d", "a", "c")
    return DependencyModel.of(
        universe,
        [
            Triplet.make("e", {"a", "b"}, "c"),
            Triplet.make("d", "a"),
            Triplet.make({"b", "c"}, "d", "e"),
        ],
    )


MASK_BACKENDS = {
    "table-5": random_spb(5, 31),
    "table-6": random_spb(6, 31),  # past the verdict bound: the kernel path
    "gaussian-5": random_gaussian(5, 31),
    "model-5": _model_over_unlisted_order(),
    "xor": xor_table(),
}


@pytest.mark.parametrize("backend", MASK_BACKENDS.values(), ids=MASK_BACKENDS.keys())
def test_the_mask_ask_answers_as_ci_on_every_disjoint_triple(backend):
    names = tuple(sorted(backend.universe.variables))

    def named(mask):
        return {v for i, v in enumerate(names) if mask >> i & 1}

    triples = [
        tuple(sum(1 << i for i, c in enumerate(codes) if c == side) for side in (1, 2, 3))
        for codes in itertools.product(range(4), repeat=len(names))
    ]
    # A universe over these names with a VariableSets no query has used yet.
    model_core._variable_sets.cache_clear()
    universe = Universe(backend.universe.variables, backend.universe.domains)
    backend = dataclasses.replace(backend, universe=universe)
    by_masks = CiOracle(backend)
    verdicts = [by_masks._holds(x, y, z) for x, y, z in triples]
    # The mask path names no set.  A verdict set reads no name tuple; a
    # Gaussian or kernel oracle decodes the tuple of each mask it reads.
    assert universe.sets.masks == {}
    known = universe.sets._tuples
    if by_masks._memo is None:
        assert known == {}
    else:
        assert known and all(value == tuple(sorted(named(mask))) for mask, value in known.items())
    by_names = CiOracle(backend)
    assert verdicts == [by_names.ci(named(x), named(y), named(z)) for x, y, z in triples]
    assert len(triples) == 4 ** len(names) and 0 < sum(verdicts) < len(triples)
