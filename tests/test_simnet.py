import dataclasses

import numpy as np
import pytest

from graphoid import (
    CiOracle,
    HypothesisCover,
    JointTable,
    Universe,
    build_local,
    build_network,
    build_similarity,
    connected_components,
    factorization_max_error,
    marginalize,
    product_table,
    random_spb,
    restrict_to_hypotheses,
    types_equivalent,
)
from graphoid.errors import InvalidPartition, UnknownVariable, ZeroProbabilityEvidence
from graphoid.suites import xor_hypothesis_table

from dsep_reference import burglary_network


def discrimination_table():
    """Five hypotheses, two findings, each finding discriminating one cover half.

    u1 varies only across the last two hypotheses; u2 varies only across the
    first three.  Findings are independent given the hypothesis.
    """
    p_h = np.full(5, 0.2)
    p_u1 = np.array([0.5, 0.5, 0.5, 0.2, 0.8])  # P(u1 = first value | h)
    p_u2 = np.array([0.3, 0.6, 0.9, 0.4, 0.4])
    probs = np.einsum(
        "h,hi,hj->hij",
        p_h,
        np.stack([p_u1, 1 - p_u1], axis=1),
        np.stack([p_u2, 1 - p_u2], axis=1),
    )
    universe = Universe(
        ("h", "u1", "u2"),
        (("h1", "h2", "h3", "h4", "h5"), ("0", "1"), ("0", "1")),
    )
    return JointTable(universe, probs)


class TestHypothesisCover:
    def test_subsets_need_two_values(self):
        with pytest.raises(InvalidPartition):
            HypothesisCover("h", ((0,),))

    def test_union_must_cover_domain(self):
        cover = HypothesisCover("h", ((0, 1),))
        with pytest.raises(InvalidPartition):
            cover.validate_for(discrimination_table().universe)

    def test_valid_cover(self):
        cover = HypothesisCover("h", ((0, 1, 2), (3, 4)))
        cover.validate_for(discrimination_table().universe)

    @pytest.mark.parametrize("odd", [True, 1.0])
    def test_value_indices_must_be_integers(self, odd):
        # {0, odd, 2} equals {0, 1, 2}, so only the index check can refuse it
        cover = HypothesisCover("h", ((0, odd, 2), (3, 4)))
        with pytest.raises(InvalidPartition):
            cover.validate_for(discrimination_table().universe)


class TestRestrictToHypotheses:
    def test_full_domain_is_identity(self, xor):
        table = xor_hypothesis_table()
        same = restrict_to_hypotheses(table, "h", (0, 1))
        assert np.allclose(same.probs, table.probs)

    def test_output_sums_to_one(self):
        table = discrimination_table()
        out = restrict_to_hypotheses(table, "h", (3, 4))
        assert out.probs.sum() == pytest.approx(1.0)
        assert out.universe.domain("h") == ("h4", "h5")

    def test_zero_mass_rejected(self):
        table = discrimination_table()
        zeroed = np.array(table.probs)
        zeroed[3:, :, :] = 0.0
        zeroed /= zeroed.sum()
        zero_table = JointTable(table.universe, zeroed)
        with pytest.raises(ZeroProbabilityEvidence):
            restrict_to_hypotheses(zero_table, "h", (3, 4))

    def test_value_indices_must_be_integers(self):
        table = discrimination_table()
        for odd in (True, 1.0, 5, -1):
            # the variable is known; the value index is the fault, as in
            # HypothesisCover.validate_for
            with pytest.raises(InvalidPartition):
                restrict_to_hypotheses(table, "h", (odd, 3))
        with pytest.raises(UnknownVariable):
            restrict_to_hypotheses(table, "nope", (0, 1))
        numpy_ints = restrict_to_hypotheses(table, "h", (np.int64(3), np.int64(4)))
        assert np.array_equal(numpy_ints.probs, restrict_to_hypotheses(table, "h", (3, 4)).probs)

    def test_singleton_restriction_rejected_downstream(self):
        # a one-value hypothesis domain violates the table invariant
        with pytest.raises(ValueError):
            restrict_to_hypotheses(discrimination_table(), "h", (3,))


class TestBuildLocal:
    def test_discriminating_variable_kept(self):
        table = discrimination_table()
        for net_type in (1, 2):
            local = build_local(table, "h", (3, 4), net_type)
            assert local.included == {"u1"}
            assert local.dag.construction_order == ("h", "u1")

    def test_non_discriminating_variable_dropped(self):
        table = discrimination_table()
        for net_type in (1, 2):
            local = build_local(table, "h", (0, 1, 2), net_type)
            assert local.included == {"u2"}

    def test_type_1_drops_the_block_without_the_hypothesis(self):
        # h and u1 depend on each other, u2 and u3 too, and the two pairs are
        # independent: the network has two components, and only h's is kept.
        pair_h = JointTable(
            Universe(("h", "u1"), (("h1", "h2", "h3"), ("0", "1"))),
            np.array([[0.3, 0.05], [0.05, 0.3], [0.15, 0.15]]),
        )
        pair_u = JointTable(Universe.binary("u2", "u3"), np.array([[0.4, 0.1], [0.1, 0.4]]))
        table = product_table(pair_h, pair_u)
        assert connected_components(build_network(CiOracle(table))) == (
            ("h", "u1"), ("u2", "u3"),
        )
        for net_type in (1, 2):
            local = build_local(table, "h", (0, 1), net_type)
            assert local.included == {"u1"}
            assert local.dag.construction_order == ("h", "u1")

    def test_xor_fixture_divergence(self):
        table = xor_hypothesis_table()
        related = build_local(table, "h", (0, 1), 1)
        relevant = build_local(table, "h", (0, 1), 2)
        assert related.included == {"y", "z"}
        assert relevant.included == {"z"}

    def test_independent_variable_always_dropped(self):
        table = random_spb(3, 5)
        from graphoid import product_table

        coin = JointTable(Universe.binary("free"), np.array([0.5, 0.5]))
        widened = product_table(table, coin)
        for net_type in (1, 2):
            local = build_local(widened, "u1", (0, 1), net_type)
            assert "free" not in local.included


class TestBuildSimilarity:
    def test_one_local_per_cover_subset(self):
        table = discrimination_table()
        cover = HypothesisCover("h", ((0, 1, 2), (3, 4)))
        net = build_similarity(table, cover, 1)
        assert [ln.hypotheses for ln in net.locals] == [(0, 1, 2), (3, 4)]
        assert [ln.included for ln in net.locals] == [{"u2"}, {"u1"}]

    def test_deterministic(self):
        table = discrimination_table()
        cover = HypothesisCover("h", ((0, 1, 2), (3, 4)))
        a = build_similarity(table, cover, 2).to_json_dict()
        b = build_similarity(table, cover, 2).to_json_dict()
        assert a == b

    def test_serialization_shape(self):
        table = discrimination_table()
        cover = HypothesisCover("h", ((0, 1, 2), (3, 4)))
        data = build_similarity(table, cover, 1).to_json_dict()
        assert data["h"] == "h"
        assert data["type"] == 1
        assert {"hypotheses", "included", "dag"} <= set(data["locals"][0])


class TestTypesEquivalent:
    def test_xor_fixture_diverges_on_second_coin(self):
        report = types_equivalent(xor_hypothesis_table(), HypothesisCover("h", ((0, 1),)))
        assert not report.equivalent
        assert [d.only_related for d in report.divergences] == [("y",)]
        assert [d.only_relevant for d in report.divergences] == [()]

    def test_strictly_positive_tables_coincide(self):
        for seed in range(6):
            table = random_spb(4, seed)
            cover = HypothesisCover("u1", ((0, 1),))
            assert types_equivalent(table, cover).equivalent

    def test_discrimination_table_coincides(self):
        cover = HypothesisCover("h", ((0, 1, 2), (3, 4)))
        assert types_equivalent(discrimination_table(), cover).equivalent

    def test_relevant_implies_related(self):
        # type-2 inclusion can never exceed type-1 inclusion
        tables = [xor_hypothesis_table()] + [random_spb(4, s) for s in range(4)]
        for table in tables:
            h = table.universe.variables[0]
            cover = HypothesisCover(h, ((0, 1),))
            report = types_equivalent(table, cover)
            for div in report.divergences:
                assert div.only_relevant == ()


def hypothesis_table(seed, n_hypotheses, position):
    """A seeded positive table: hypothesis ``h`` with ``n_hypotheses`` values
    at ``position`` among three binary findings."""
    rng = np.random.default_rng(seed)
    names = ["u1", "u2", "u3"]
    names.insert(position, "h")
    domains = [("0", "1")] * 3
    domains.insert(position, tuple(f"h{i}" for i in range(n_hypotheses)))
    shape = [len(d) for d in domains]
    raw = rng.uniform(0.05, 1.0, size=shape)
    return JointTable(Universe(tuple(names), tuple(domains)), raw / raw.sum())


@pytest.mark.parametrize("net_type", [1, 2])
@pytest.mark.parametrize(
    "seed, n_hypotheses, position, subsets",
    [
        (0, 3, 0, ((0, 1), (1, 2))),
        (1, 3, 2, ((0, 1, 2), (0, 2))),
        (2, 4, 0, ((0, 1), (1, 2), (2, 3))),
        (3, 4, 1, ((0, 1), (1, 2), (2, 3))),
        (4, 4, 3, ((0, 1, 2), (1, 3))),
    ],
)
def test_each_local_network_keeps_the_table_its_dag_was_built_from(
    seed, n_hypotheses, position, subsets, net_type
):
    table = hypothesis_table(seed, n_hypotheses, position)
    net = build_similarity(table, HypothesisCover("h", subsets), net_type)
    assert len(net.locals) == len(subsets)
    for ln in net.locals:
        assert ln.table.universe == ln.dag.universe
        restricted = restrict_to_hypotheses(table, "h", ln.hypotheses)
        expected = marginalize(restricted, ln.dag.construction_order)
        assert ln.table.universe == expected.universe
        assert (ln.table.probs == expected.probs).all()
        other = dataclasses.replace(ln, table=table)
        assert other == ln
        assert other.to_json_dict() == ln.to_json_dict()
        assert "table" not in repr(ln) and "table" not in ln.to_json_dict()


class TestChainingIdentity:
    def test_local_networks_reconstruct_their_joint(self):
        cases = [
            (xor_hypothesis_table(), HypothesisCover("h", ((0, 1),))),
            (discrimination_table(), HypothesisCover("h", ((0, 1, 2), (3, 4)))),
            (random_spb(4, 9), HypothesisCover("u1", ((0, 1),))),
        ]
        for table, cover in cases:
            for net_type in (1, 2):
                net = build_similarity(table, cover, net_type)
                for ln in net.locals:
                    restricted = restrict_to_hypotheses(table, cover.h, ln.hypotheses)
                    local = marginalize(restricted, ln.dag.construction_order)
                    assert factorization_max_error(local, ln.dag) <= 1e-9


def test_value_types_hash_as_they_compare():
    assert burglary_network() == burglary_network()
    assert hash(burglary_network()) == hash(burglary_network())
    table = random_spb(3, 4)
    first, second = (build_local(table, "u1", (0, 1), 1) for _ in range(2))
    assert first is not second and len({first, second}) == 1
    cover = HypothesisCover("u1", ((0, 1),))
    assert len({build_similarity(table, cover, 2), build_similarity(table, cover, 2)}) == 1
