import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphoid import (
    CheckResult,
    CiOracle,
    DependencyModel,
    GaussianModel,
    JointTable,
    PartitionTriple,
    PtBinBlocks,
    Triplet,
    Universe,
    check_clean,
    check_pt_bin,
    ci_holds_discrete,
    condition_on,
    gaussian_axioms_check,
    is_transitive,
    mutually_irrelevant,
    random_gaussian,
    random_spb,
    marginalize,
    product_table,
    uncoupled,
    unrelated,
    xor_table,
)
import graphoid.dist_oracle as dist_oracle
from graphoid.errors import InvalidPartition, UniverseTooLarge
from graphoid.model_core import label_blocks
from graphoid.relevance import (
    ANTECEDENT_FAILS,
    CONSEQUENT_HOLDS,
    VIOLATION,
    GaussianPropertyViolation,
)

from disjoint_triples import variable_sets


def cells(pt):
    """The two triple-intersection cells of a partition triple."""
    return pt.x1 & pt.y1 & pt.z1, pt.x2 & pt.y2 & pt.z2


def pivot_block_table():
    """Dependent pair (a1, a2), free coin b, pivot e leaning on a1 alone.

    Joint: P(a1,a2) * P(b) * P(e | a1), all entries positive.
    """
    pair = np.array([[0.4, 0.1], [0.1, 0.4]])
    coin = np.array([0.55, 0.45])
    e_given_a1 = np.array([[0.7, 0.3], [0.3, 0.7]])
    probs = np.einsum("ij,k,il->ijkl", pair, coin, e_given_a1)
    return JointTable(Universe.binary("a1", "a2", "b", "e"), probs)


class TestMutuallyIrrelevant:
    def test_xor_coins(self, xor_oracle):
        assert mutually_irrelevant(xor_oracle, "x", "y").holds

    def test_xor_coin_vs_pair(self, xor_oracle):
        verdict = mutually_irrelevant(xor_oracle, "x", "z")
        assert not verdict.holds
        assert verdict.witness == frozenset()

    def test_two_variable_independent_table(self):
        table = JointTable(Universe.binary("x", "y"), np.full((2, 2), 0.25))
        assert mutually_irrelevant(CiOracle(table), "x", "y").holds

    def test_witness_is_least_violating_set(self):
        # e depends on a1 only given nothing, but not given a1 itself, so the
        # least witness for (a2, e) has to be scanned, not assumed empty.
        oracle = CiOracle(pivot_block_table())
        verdict = mutually_irrelevant(oracle, "a2", "e")
        assert not verdict.holds
        assert verdict.witness == frozenset()

    def test_same_variable_rejected(self, xor_oracle):
        with pytest.raises(ValueError):
            mutually_irrelevant(xor_oracle, "x", "x")

    def test_bound(self):
        big = GaussianModel(Universe.reals(*[f"u{i}" for i in range(13)]), np.zeros(13), np.eye(13))
        with pytest.raises(UniverseTooLarge, match="^13 variables exceed the sweep bound of 12$"):
            mutually_irrelevant(CiOracle(big), "u0", "u1")


class TestUncoupled:
    def test_xor_coins_coupled(self, xor_oracle):
        assert not uncoupled(xor_oracle, "x", "y").holds

    def test_fully_independent_table(self):
        table = JointTable(Universe.binary("a", "b", "c"), np.full((2, 2, 2), 1 / 8))
        verdict = uncoupled(CiOracle(table), "a", "b")
        assert verdict.holds
        assert verdict.witness == (frozenset({"a"}), frozenset({"b", "c"}))

    def test_two_block_witness(self, blocks_table):
        verdict = uncoupled(CiOracle(blocks_table), "x", "y")
        assert verdict.holds
        assert verdict.witness == (frozenset({"x", "w"}), frozenset({"y", "v"}))


class TestUnrelated:
    def test_xor_connected_through_pair(self, xor_oracle):
        verdict = unrelated(xor_oracle, "x", "y")
        assert not verdict.holds
        assert verdict.witness.nodes[0] == "x"
        assert verdict.witness.nodes[-1] == "y"

    def test_verdict_is_order_invariant(self, xor_oracle):
        from graphoid import build_network, connected_components

        partitions = {
            connected_components(build_network(xor_oracle, perm))
            for perm in itertools.permutations(("x", "y", "z"))
        }
        assert len(partitions) == 1

    def test_two_block_table(self, blocks_table):
        oracle = CiOracle(blocks_table)
        assert unrelated(oracle, "x", "y").holds
        assert not unrelated(oracle, "x", "w").holds


class TestRelationTheorems:
    def test_uncoupled_equals_unrelated(self):
        sources = [CiOracle(random_spb(4, s)) for s in range(8)]
        sources += [CiOracle(random_gaussian(4, s)) for s in range(4)]
        from graphoid import xor_table

        sources.append(CiOracle(xor_table()))
        for oracle in sources:
            for a, b in itertools.combinations(sorted(oracle.universe.variables), 2):
                assert uncoupled(oracle, a, b).holds == unrelated(oracle, a, b).holds

    def test_uncoupled_implies_mutually_irrelevant(self, blocks_table):
        oracles = [CiOracle(blocks_table)] + [CiOracle(random_spb(4, s)) for s in range(4)]
        for oracle in oracles:
            for a, b in itertools.combinations(sorted(oracle.universe.variables), 2):
                if uncoupled(oracle, a, b).holds:
                    assert mutually_irrelevant(oracle, a, b).holds

    def test_xor_gap(self, xor_oracle):
        assert mutually_irrelevant(xor_oracle, "x", "y").holds
        assert not uncoupled(xor_oracle, "x", "y").holds


class TestTransitivity:
    def test_xor_witness(self, xor_oracle):
        result = is_transitive(xor_oracle)
        assert not result.holds
        assert result.witness == ("x", "z", "y")

    def test_spb_samples_transitive(self):
        for seed in range(10):
            assert is_transitive(CiOracle(random_spb(4, seed))).holds

    def test_gaussian_samples_transitive(self):
        for seed in range(10):
            assert is_transitive(CiOracle(random_gaussian(4, seed))).holds

    def test_coupled_implies_relevant_when_transitive(self):
        oracles = [CiOracle(random_spb(4, s)) for s in range(6)]
        for oracle in oracles:
            if not is_transitive(oracle).holds:
                continue
            for a, b in itertools.combinations(sorted(oracle.universe.variables), 2):
                if not uncoupled(oracle, a, b).holds:
                    assert not mutually_irrelevant(oracle, a, b).holds

    def test_bound(self):
        with pytest.raises(UniverseTooLarge, match="^9 variables exceed the bound of 8$"):
            is_transitive(
                CiOracle(
                    GaussianModel(
                        Universe.reals(*[f"u{i}" for i in range(9)]),
                        np.zeros(9),
                        np.eye(9),
                    )
                )
            )


class TestPartitionTriple:
    def test_nonempty_sides_required(self):
        with pytest.raises(InvalidPartition):
            PartitionTriple(
                frozenset(), frozenset({"a", "b"}),
                frozenset({"a"}), frozenset({"b"}),
                frozenset({"a"}), frozenset({"b"}),
                "e",
            )

    def test_covers_must_match(self):
        with pytest.raises(InvalidPartition):
            PartitionTriple(
                frozenset({"a"}), frozenset({"b"}),
                frozenset({"a"}), frozenset({"c"}),
                frozenset({"a"}), frozenset({"b"}),
                "e",
            )

    def test_distinct_pivot_values(self):
        with pytest.raises(InvalidPartition):
            PartitionTriple(
                frozenset({"a"}), frozenset({"b"}),
                frozenset({"a"}), frozenset({"b"}),
                frozenset({"a"}), frozenset({"b"}),
                "e", (1, 1),
            )

    def test_exactly_two_pivot_values(self):
        # one value used to end in an IndexError, three were accepted silently
        for values in ((0,), (0, 1, 1), ()):
            with pytest.raises(InvalidPartition):
                PartitionTriple(
                    frozenset({"a"}), frozenset({"b"}),
                    frozenset({"a"}), frozenset({"b"}),
                    frozenset({"a"}), frozenset({"b"}),
                    "e", values,
                )

    def test_a_pivot_inside_any_side_is_reported_as_such(self):
        # the pivot is tested before the covers, so a cover it alone widens
        # does not hide it
        sides = [frozenset({"a"}), frozenset({"b"})] * 3
        message = "^the pivot variable cannot be partitioned$"
        for i in range(6):
            with_pivot = sides[:i] + [sides[i] | {"e"}] + sides[i + 1:]
            with pytest.raises(InvalidPartition, match=message):
                PartitionTriple(*with_pivot, "e")

    def test_overlapping_sides_rejected(self):
        with pytest.raises(InvalidPartition):
            PartitionTriple(
                frozenset({"a"}), frozenset({"b"}),
                frozenset({"a", "b"}), frozenset({"b"}),
                frozenset({"a"}), frozenset({"b"}),
                "e",
            )

    def test_intersection_cells(self):
        pt = PartitionTriple(
            frozenset({"a", "c"}), frozenset({"b"}),
            frozenset({"a"}), frozenset({"b", "c"}),
            frozenset({"a", "c"}), frozenset({"b"}),
            "e",
        )
        assert cells(pt) == ({"a"}, {"b"})
        assert pt.ground == {"a", "b", "c"}

    def test_ground_stored_without_changing_equality(self):
        sides = frozenset({"a"}), frozenset({"b"})
        pt = PartitionTriple(*sides, *sides, *sides, "e")
        same = PartitionTriple(*sides, *sides, *sides, "e")
        assert pt == same and hash(pt) == hash(same)
        assert "ground" not in repr(pt)


def identical_partition(table, e="e"):
    ground = table.universe.names - {e}
    one = frozenset({"a1", "a2"})
    two = ground - one
    return PartitionTriple(one, two, one, two, one, two, e)


class TestCheckClean:
    def test_identical_partitions_special_case(self):
        # identical partitions, pivot leaning on the a-block: the b-side
        # disjunct must carry the conclusion
        table = pivot_block_table()
        result = check_clean(table, identical_partition(table))
        assert result.status == CONSEQUENT_HOLDS
        assert result.r1_holds is False
        assert result.r2_holds is True

    def test_antecedent_failure_reported(self, xor_oracle):
        table = pivot_block_table()
        pt = PartitionTriple(
            frozenset({"a1"}), frozenset({"a2", "b"}),
            frozenset({"a1"}), frozenset({"a2", "b"}),
            frozenset({"a1"}), frozenset({"a2", "b"}),
            "e",
        )
        result = check_clean(table, pt)
        assert result.status == ANTECEDENT_FAILS
        assert result.detail == "i1"

    def test_empty_intersection_cell_skipped(self):
        table = pivot_block_table()
        pt = PartitionTriple(
            frozenset({"a1", "a2"}), frozenset({"b"}),
            frozenset({"b", "a2"}), frozenset({"a1"}),
            frozenset({"a1", "a2"}), frozenset({"b"}),
            "e",
        )
        result = check_clean(table, pt)
        assert result.status == ANTECEDENT_FAILS
        assert result.detail in ("empty_r1", "empty_r2")

    def test_never_violated_on_spb_sweep(self):
        for seed in range(10):
            table = random_spb(4, seed)
            names = sorted(table.universe.variables)
            for e in names:
                ground = frozenset(names) - {e}
                sides = [
                    (s, ground - s)
                    for s in map(frozenset, itertools.combinations(sorted(ground), 1))
                ]
                sides += [(b, a) for a, b in sides]
                for (x1, x2), (y1, y2), (z1, z2) in itertools.product(
                    sides, sides, sides
                ):
                    result = check_clean(
                        table, PartitionTriple(x1, x2, y1, y2, z1, z2, e)
                    )
                    assert result.status != VIOLATION

    def test_never_violated_on_gaussian_sweep(self):
        for seed in range(10):
            g = random_gaussian(4, seed)
            names = sorted(g.universe.variables)
            for e in names:
                ground = frozenset(names) - {e}
                sides = [
                    (s, ground - s)
                    for s in map(frozenset, itertools.combinations(sorted(ground), 1))
                ]
                for (x1, x2), (y1, y2), (z1, z2) in itertools.product(
                    sides, sides, sides
                ):
                    result = check_clean(g, PartitionTriple(x1, x2, y1, y2, z1, z2, e))
                    assert result.status != VIOLATION

    def test_non_transitive_fixture_violates_the_implication(self, xor):
        # the paired-coin table sits outside the strictly positive family and
        # is not transitive, so some partition triple must produce a genuine
        # violation (satisfying the implication everywhere forces transitivity)
        coins = frozenset({"x"}), frozenset({"y"})
        pt = PartitionTriple(*coins, *coins, *coins, "z", (0, 1))
        result = check_clean(xor, pt)
        assert result.status == VIOLATION
        assert result.r1_holds is False and result.r2_holds is False

    def test_checks_use_the_tolerance_of_the_oracle_they_are_given(self):
        # b leans on a2 by a 1e-5 tilt: i1 fails at the default tolerance and
        # holds at 1e-3, where the free b-side then carries the conclusion
        base = pivot_block_table()
        tilt = np.multiply.outer([1.0, -1.0], [1.0, -1.0])[None, :, :, None]
        probs = base.probs * (1.0 + 1e-5 * tilt)
        table = JointTable(base.universe, probs / probs.sum())
        pt = identical_partition(table)
        none = frozenset()
        blocks = PtBinBlocks(pt.x1, none, none, none, pt.x2, none, none, none)
        for tol, expected in [
            (None, CheckResult(ANTECEDENT_FAILS, detail="i1")),
            (1e-3, CheckResult(CONSEQUENT_HOLDS, False, True)),
        ]:
            oracle = CiOracle(table, tol)
            assert check_clean(oracle, pt) == expected
            assert check_pt_bin(oracle, blocks, "e") == expected

    def test_pivot_value_out_of_range_rejected_before_empty_cells(self):
        table = pivot_block_table()
        one, two = frozenset({"a1", "a2"}), frozenset({"b"})
        # the third partition leaves the first cell empty, yet the value is
        # checked; a bool or float is no value index
        for values in [(0, 2), (True, 0), (0, 1.0)]:
            pt = PartitionTriple(one, two, one, two, two, one, "e", values)
            with pytest.raises(InvalidPartition):
                check_clean(CiOracle(table), pt)

    def test_gaussian_block_structure_consequent(self):
        # (u1, u2) correlated block independent of u3; pivot u4 tied to u1
        cov = np.array(
            [
                [1.0, 0.6, 0.0, 0.5],
                [0.6, 1.0, 0.0, 0.3],
                [0.0, 0.0, 1.0, 0.0],
                [0.5, 0.3, 0.0, 1.0],
            ]
        )
        g = GaussianModel(Universe.reals("u1", "u2", "u3", "u4"), np.zeros(4), cov)
        one = frozenset({"u1", "u2"})
        two = frozenset({"u3"})
        result = check_clean(g, PartitionTriple(one, two, one, two, one, two, "u4"))
        assert result.status == CONSEQUENT_HOLDS
        assert result.r2_holds is True


class TestCheckPtBin:
    def test_agrees_with_partition_form(self):
        rng = np.random.default_rng(0)
        for seed in range(60):
            table = random_spb(4, seed)
            names = sorted(table.universe.variables)
            e = names[int(rng.integers(len(names)))]
            ground = [v for v in names if v != e]
            while True:
                codes = rng.integers(8, size=len(ground))
                groups = [
                    frozenset(g for g, c in zip(ground, codes) if c == k)
                    for k in range(8)
                ]
                if groups[0] and groups[4]:
                    break
            blocks = PtBinBlocks(*groups)
            by_blocks = check_pt_bin(table, blocks, e)
            by_partitions = check_clean(table, blocks.as_partition_triple(e))
            assert (by_blocks.status, by_blocks.r1_holds, by_blocks.r2_holds) == (
                by_partitions.status,
                by_partitions.r1_holds,
                by_partitions.r2_holds,
            )

    def test_agreement_on_nontrivial_consequent(self):
        table = pivot_block_table()
        blocks = PtBinBlocks(
            frozenset({"a1", "a2"}), frozenset(), frozenset(), frozenset(),
            frozenset({"b"}), frozenset(), frozenset(), frozenset(),
        )
        result = check_pt_bin(table, blocks, "e")
        assert result.status == CONSEQUENT_HOLDS
        assert result.r2_holds is True
        mirrored = check_clean(table, blocks.as_partition_triple("e"))
        assert (mirrored.status, mirrored.r1_holds, mirrored.r2_holds) == (
            result.status,
            result.r1_holds,
            result.r2_holds,
        )

    def test_empty_first_block_makes_disjunct_trivial(self):
        table = pivot_block_table()
        blocks = PtBinBlocks(
            frozenset(), frozenset({"a1", "a2"}), frozenset(), frozenset(),
            frozenset({"b"}), frozenset(), frozenset(), frozenset(),
        )
        result = check_pt_bin(table, blocks, "e")
        assert result.status in (CONSEQUENT_HOLDS, ANTECEDENT_FAILS)
        if result.status == CONSEQUENT_HOLDS:
            assert result.r1_holds is True

    def test_binary_pivot_required(self, xor):
        blocks = PtBinBlocks(
            frozenset({"x"}), frozenset(), frozenset(), frozenset(),
            frozenset({"y"}), frozenset(), frozenset(), frozenset(),
        )
        with pytest.raises(InvalidPartition):
            check_pt_bin(xor, blocks, "z")

    def test_blocks_must_cover(self):
        table = pivot_block_table()
        blocks = PtBinBlocks(
            frozenset({"a1"}), frozenset(), frozenset(), frozenset(),
            frozenset({"b"}), frozenset(), frozenset(), frozenset(),
        )
        with pytest.raises(InvalidPartition):
            check_pt_bin(table, blocks, "e")

    def test_never_violated_on_spb_samples(self):
        rng = np.random.default_rng(1)
        for seed in range(30):
            table = random_spb(4, seed)
            names = sorted(table.universe.variables)
            e = names[int(rng.integers(len(names)))]
            ground = [v for v in names if v != e]
            codes = rng.integers(8, size=len(ground))
            blocks = PtBinBlocks(
                *[
                    frozenset(g for g, c in zip(ground, codes) if c == k)
                    for k in range(8)
                ]
            )
            assert check_pt_bin(table, blocks, e).status != VIOLATION


def _reference_gaussian_axioms_check(g):
    """``gaussian_axioms_check`` as it stood before its mask enumeration:
    one loop over label codes per property, blocks built by ``label_blocks``."""
    names = sorted(g.universe.variables)
    out = []
    ci = CiOracle(g).ci
    table = variable_sets(names)
    for codes in itertools.product(range(5), repeat=len(names)):
        if 1 not in codes or 2 not in codes or 3 not in codes:
            continue
        _, x, y, w, z = label_blocks(table, codes, 5)
        if tuple(sorted(y)) > tuple(sorted(w)):
            continue
        if ci(x, y, z) and ci(x, w, z) and not ci(x, y | w, z):
            out.append(
                GaussianPropertyViolation(
                    "composition",
                    (tuple(sorted(x)), tuple(sorted(y)), tuple(sorted(w)), tuple(sorted(z))),
                )
            )
    for codes in itertools.product(range(3), repeat=len(names)):
        if 1 not in codes or 2 not in codes:
            continue
        _, x, y = label_blocks(table, codes, 3)
        for e in names:
            if e in x or e in y:
                continue
            if ci(x, y, ()) and ci(x, y, {e}) and not (ci(x, {e}, ()) or ci({e}, y, ())):
                out.append(
                    GaussianPropertyViolation(
                        "marginal_weak_transitivity",
                        (tuple(sorted(x)), tuple(sorted(y)), (e,)),
                    )
                )
    out.sort(key=lambda v: (v.prop, v.sets))
    return out


def _with_oracle_queries(monkeypatch, check, g):
    """``check(g)`` and the list of queries it asked ``CiOracle._holds``, the
    path of every ask, in masks or through ``ci``; each as frozensets with
    the side of the smaller sorted tuple first."""
    asked = []
    real_holds = CiOracle._holds

    def recording_holds(self, x, y, z):
        sets = self.universe.sets
        x_names, y_names = sorted((sets.tuple_of(x), sets.tuple_of(y)))
        asked.append((frozenset(x_names), frozenset(y_names), sets.set_of(z)))
        return real_holds(self, x, y, z)

    with monkeypatch.context() as patch:
        patch.setattr(CiOracle, "_holds", recording_holds)
        return check(g), asked


def _planted_gaussians():
    """Block-diagonal Gaussians at n = 3..6, so composition and weak-transitivity
    premises are live."""
    rng = np.random.default_rng(7)
    models = [_block_joint(rng, n, gaussian=True) for n in (3, 4, 4, 5, 5, 6) for _ in range(2)]
    diagonal = GaussianModel(Universe.reals("a", "b", "c", "d"), np.zeros(4), np.eye(4))
    return models + [diagonal]


class TestGaussianAxioms:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_mask_sweep_matches_the_code_loop_on_random_models(self, monkeypatch, n):
        for seed in range(2):
            g = random_gaussian(n, 30 + seed)
            got, asked = _with_oracle_queries(monkeypatch, gaussian_axioms_check, g)
            want, ref_asked = _with_oracle_queries(
                monkeypatch, _reference_gaussian_axioms_check, g
            )
            assert got == want
            # both sides ask the same distinct queries
            assert set(asked) == set(ref_asked)

    def test_mask_sweep_matches_the_code_loop_on_planted_models(self, monkeypatch):
        live = 0
        for g in _planted_gaussians():
            got, asked = _with_oracle_queries(monkeypatch, gaussian_axioms_check, g)
            want, ref_asked = _with_oracle_queries(
                monkeypatch, _reference_gaussian_axioms_check, g
            )
            assert got == want == []
            assert set(asked) == set(ref_asked)
            oracle = CiOracle(g)
            live += sum(1 for x, y, z in set(asked) if x and y and not z and oracle.ci(x, y))
        assert live > 0  # some marginal independence premise held

    def test_a_failing_merged_verdict_is_reported_by_both(self, monkeypatch):
        real_holds = CiOracle._holds

        def merged_sets_fail(self, x, y, z):
            # The second mask has two or more bits exactly when it can be
            # the merged set Y+W of composition.
            return not y & (y - 1) and real_holds(self, x, y, z)

        monkeypatch.setattr(CiOracle, "_holds", merged_sets_fail)
        for g in _planted_gaussians():
            got = gaussian_axioms_check(g)
            assert got == _reference_gaussian_axioms_check(g)
        assert got and {v.prop for v in got} == {"composition"}

    def test_a_weak_transitivity_violation_is_listed_once(self, monkeypatch):
        real_holds = CiOracle._holds

        def last_name_marginally_dependent(self, x, y, z):
            # Every marginal statement with the last name alone on one side
            # fails, so the conclusion fails wherever e is that name.
            last = 1 << (len(self.universe.variables) - 1)  # the last sorted name
            if not z and last in (x, y):
                return False
            return real_holds(self, x, y, z)

        monkeypatch.setattr(CiOracle, "_holds", last_name_marginally_dependent)
        listed = 0
        for g in _planted_gaussians():
            got = gaussian_axioms_check(g)
            assert {v.prop for v in got} <= {"marginal_weak_transitivity"}
            statements = [(frozenset(v.sets[:2]), v.sets[2]) for v in got]
            assert len(set(statements)) == len(statements)
            assert all(v.sets[0] < v.sets[1] for v in got)
            # the code-loop version lists each violation in both orientations
            want = _reference_gaussian_axioms_check(g)
            assert set(statements) == {(frozenset(v.sets[:2]), v.sets[2]) for v in want}
            assert len(want) == 2 * len(got)
            listed += len(got)
        # on the diagonal model a, b, c, d: the six unordered pairs within a, b, c
        assert got == [
            GaussianPropertyViolation("marginal_weak_transitivity", (x, y, ("d",)))
            for x, y in [
                (("a",), ("b",)),
                (("a",), ("b", "c")),
                (("a",), ("c",)),
                (("a", "b"), ("c",)),
                (("a", "c"), ("b",)),
                (("b",), ("c",)),
            ]
        ]
        assert listed > len(got)

    def test_random_models_clean(self):
        for seed in range(10):
            assert gaussian_axioms_check(random_gaussian(4, seed)) == []

    def test_diagonal_clean(self):
        g = GaussianModel(Universe.reals("a", "b", "c"), np.zeros(3), np.eye(3))
        assert gaussian_axioms_check(g) == []

    def test_block_structure_exercises_weak_transitivity(self):
        # (a, b) correlated, c free: premises of marginal weak transitivity
        # hold nontrivially with e = b, and the conclusion must too
        cov = np.array([[1.0, 0.7, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]])
        g = GaussianModel(Universe.reals("a", "b", "c"), np.zeros(3), cov)
        assert gaussian_axioms_check(g) == []

    def test_bound(self):
        with pytest.raises(UniverseTooLarge, match="^7 variables exceed the sweep bound of 6$"):
            gaussian_axioms_check(
                GaussianModel(
                    Universe.reals(*[f"u{i}" for i in range(7)]),
                    np.zeros(7),
                    np.eye(7),
                )
            )


def test_check_result_serialization():
    result = CheckResult(CONSEQUENT_HOLDS, True, False)
    assert result.to_json_dict() == {
        "status": "consequent_holds",
        "r1_holds": True,
        "r2_holds": False,
        "detail": None,
    }


def test_relation_verdict_serialization(xor_oracle):
    verdict = mutually_irrelevant(xor_oracle, "x", "z")
    data = verdict.to_json_dict()
    assert data == {"relation": "mutually_irrelevant", "holds": False, "witness": {"z": []}}
    coupled = uncoupled(xor_oracle, "x", "y").to_json_dict()
    assert coupled == {"relation": "uncoupled", "holds": False, "witness": None}


# ---- differential check against the separate cores the shared one replaced ----


def _reference_validate_ground(dist, pt):
    names = dist.universe.names
    if pt.e_var not in names:
        raise InvalidPartition(f"unknown pivot variable {pt.e_var}")
    ground = names - {pt.e_var}
    if pt.x1 | pt.x2 != ground:
        raise InvalidPartition("partitions must cover the universe minus the pivot")
    return ground


def _reference_ci_given_value(table, a, b, e_var, value, tol):
    axis = table.universe.index(e_var)
    mass = float(table.probs.sum(axis=tuple(i for i in range(table.probs.ndim) if i != axis))[value])
    if mass <= tol:
        return True
    return ci_holds_discrete(condition_on(table, e_var, value), a, b, (), tol)


def reference_check_clean_discrete(table, pt, tol=1e-9):
    """The table core: i1 on the marginal table, i2/i3 on conditioned tables."""
    ground = _reference_validate_ground(table, pt)
    n_values = len(table.universe.domain(pt.e_var))
    for v in pt.e_values:
        if not 0 <= v < n_values:
            raise InvalidPartition(f"pivot value index {v} out of range")
    r1, r2 = cells(pt)
    if not r1:
        return CheckResult(ANTECEDENT_FAILS, detail="empty_r1")
    if not r2:
        return CheckResult(ANTECEDENT_FAILS, detail="empty_r2")
    base = marginalize(table, ground)
    if not ci_holds_discrete(base, pt.x1, pt.x2, (), tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i1")
    if not _reference_ci_given_value(table, pt.y1, pt.y2, pt.e_var, pt.e_values[0], tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i2")
    if not _reference_ci_given_value(table, pt.z1, pt.z2, pt.e_var, pt.e_values[1], tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i3")
    c1 = ci_holds_discrete(table, r1, {pt.e_var} | (ground - r1), (), tol)
    c2 = ci_holds_discrete(table, r2, {pt.e_var} | (ground - r2), (), tol)
    if c1 or c2:
        return CheckResult(CONSEQUENT_HOLDS, c1, c2)
    return CheckResult(VIOLATION, False, False)


def ci_holds_gaussian(g, x, y, z, tol):
    """The Gaussian verdict from the residual kernel alone, with no ``CiOracle``."""
    return dist_oracle.ci_residual_gaussian(g, x, y, z) <= tol


def reference_check_clean_gaussian(g, pt, tol=1e-7):
    """The Gaussian core: value-specific premises condition on the pivot variable."""
    ground = _reference_validate_ground(g, pt)
    r1, r2 = cells(pt)
    if not r1:
        return CheckResult(ANTECEDENT_FAILS, detail="empty_r1")
    if not r2:
        return CheckResult(ANTECEDENT_FAILS, detail="empty_r2")
    if not ci_holds_gaussian(g, pt.x1, pt.x2, (), tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i1")
    if not ci_holds_gaussian(g, pt.y1, pt.y2, {pt.e_var}, tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i2")
    if not ci_holds_gaussian(g, pt.z1, pt.z2, {pt.e_var}, tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i3")
    c1 = ci_holds_gaussian(g, r1, {pt.e_var} | (ground - r1), (), tol)
    c2 = ci_holds_gaussian(g, r2, {pt.e_var} | (ground - r2), (), tol)
    if c1 or c2:
        return CheckResult(CONSEQUENT_HOLDS, c1, c2)
    return CheckResult(VIOLATION, False, False)


def reference_check_pt_bin(table, blocks, e_var, tol=1e-9):
    """The eight-block check with its premises re-derived from the blocks."""
    names = table.universe.names
    if e_var not in names:
        raise InvalidPartition(f"unknown pivot variable {e_var}")
    if len(table.universe.domain(e_var)) != 2:
        raise InvalidPartition("the pivot variable must be binary")
    ground = names - {e_var}
    if blocks.union != ground:
        raise InvalidPartition("blocks must cover the universe minus the pivot")
    a1, a2, a3, a4, b1, b2, b3, b4 = blocks.as_tuple()
    base = marginalize(table, ground)
    if not ci_holds_discrete(base, a1 | a2 | a3 | a4, b1 | b2 | b3 | b4, (), tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i1")
    if not _reference_ci_given_value(table, a1 | a2 | b3 | b4, b1 | b2 | a3 | a4, e_var, 0, tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i2")
    if not _reference_ci_given_value(table, a1 | a3 | b2 | b4, b1 | b3 | a2 | a4, e_var, 1, tol):
        return CheckResult(ANTECEDENT_FAILS, detail="i3")
    c1 = ci_holds_discrete(table, a1, {e_var} | (ground - a1), (), tol)
    c2 = ci_holds_discrete(table, b1, {e_var} | (ground - b1), (), tol)
    if c1 or c2:
        return CheckResult(CONSEQUENT_HOLDS, c1, c2)
    return CheckResult(VIOLATION, False, False)


def _block_joint(rng, n, gaussian):
    """Independent random blocks over u1..un, so premises hold for some triples."""
    names = [f"u{i + 1}" for i in range(n)]
    labels = rng.integers(n, size=n)
    blocks = [[i for i in range(n) if labels[i] == k] for k in sorted(set(labels))]
    if gaussian:
        cov = np.zeros((n, n))
        for members in blocks:
            a = rng.uniform(-1.0, 1.0, size=(len(members), len(members)))
            cov[np.ix_(members, members)] = a @ a.T + 0.01 * np.eye(len(members))
        return GaussianModel(Universe.reals(*names), np.zeros(n), cov)
    probs = np.ones(())
    order = []
    for members in blocks:
        probs = np.multiply.outer(probs, rng.uniform(0.05, 1.0, size=(2,) * len(members)))
        order += members
    probs = np.transpose(probs, [order.index(i) for i in range(n)])
    return JointTable(Universe.binary(*names), probs / probs.sum())


def _zero_mass_table(rng, n):
    """Independent blocks with value 1 of one variable at probability zero."""
    table = _block_joint(rng, n, gaussian=False)
    probs = np.array(table.probs)
    probs[(slice(None),) * int(rng.integers(n)) + (1,)] = 0.0
    return JointTable(table.universe, probs / probs.sum())


@st.composite
def _clean_distributions(draw):
    kind = draw(st.sampled_from(("spb", "gaussian", "blocks", "gaussian-blocks", "zero-mass")))
    n = draw(st.integers(3, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    if kind == "spb":
        return random_spb(n, seed)
    if kind == "gaussian":
        return random_gaussian(n, seed)
    if kind == "zero-mass":
        return _zero_mass_table(rng, n)
    return _block_joint(rng, n, gaussian=kind == "gaussian-blocks")


def _every_partition_triple(dist):
    names = sorted(dist.universe.variables)
    values = [(0, 1)] if isinstance(dist, GaussianModel) else [(0, 1), (1, 0)]
    for e in names:
        ground = frozenset(names) - {e}
        pool = sorted(ground)
        splits = []
        for mask in range(1, 2 ** len(pool) - 1):
            side = frozenset(v for i, v in enumerate(pool) if mask >> i & 1)
            splits.append((side, ground - side))
        for (x1, x2), (y1, y2), (z1, z2) in itertools.product(splits, repeat=3):
            for e_values in values:
                yield PartitionTriple(x1, x2, y1, y2, z1, z2, e, e_values)


def _every_block_assignment(table):
    names = sorted(table.universe.variables)
    for e in names:
        ground = [v for v in names if v != e]
        for codes in itertools.product(range(8), repeat=len(ground)):
            groups = [frozenset(g for g, c in zip(ground, codes) if c == k) for k in range(8)]
            yield PtBinBlocks(*groups), e


def _agree_in_every_calling_form(check, reference, dist, cases):
    expected = [reference(dist, *case) for case in cases]
    shared = CiOracle(dist)
    assert [check(shared, *case) for case in cases] == expected
    reverse = CiOracle(dist)
    assert [check(reverse, *case) for case in reversed(cases)][::-1] == expected
    assert [check(CiOracle(dist), *case) for case in cases] == expected
    assert [check(dist, *case) for case in cases] == expected
    return expected


@settings(max_examples=15, deadline=None)
@given(_clean_distributions())
def test_shared_clean_core_matches_separate_cores(dist):
    # CheckResult equality compares status, detail, r1_holds and r2_holds.
    gaussian = isinstance(dist, GaussianModel)
    reference = reference_check_clean_gaussian if gaussian else reference_check_clean_discrete
    cases = [(pt,) for pt in _every_partition_triple(dist)]
    _agree_in_every_calling_form(check_clean, reference, dist, cases)
    if not gaussian:
        _agree_in_every_calling_form(
            check_pt_bin, reference_check_pt_bin, dist, list(_every_block_assignment(dist))
        )


def test_differential_fixtures_reach_every_outcome():
    # The hypothesis families above are meant to reach past i1; these fixed
    # draws show that the premises, the vacuous pivot value and both
    # consequent outcomes are all exercised.
    rng = np.random.default_rng(3)
    tables = [xor_table(), pivot_block_table(), _zero_mass_table(rng, 4)]
    tables += [_block_joint(np.random.default_rng(s), 4, gaussian=False) for s in range(4)]
    seen = set()
    for table in tables:
        massless = {v for v in table.universe.variables if table.marginal((v,))[1] == 0.0}
        cases = [(pt,) for pt in _every_partition_triple(table)]
        results = _agree_in_every_calling_form(
            check_clean, reference_check_clean_discrete, table, cases
        )
        for (pt,), result in zip(cases, results):
            seen.add((result.status, result.detail, pt.e_var in massless))
    for detail in ("empty_r1", "empty_r2", "i1", "i2", "i3"):
        assert any(s[:2] == (ANTECEDENT_FAILS, detail) for s in seen)
    assert any(s[0] == VIOLATION for s in seen)
    # past both premises with a pivot value of zero mass: the vacuous path
    assert (CONSEQUENT_HOLDS, None, True) in seen


def _lex_name_sets(names):
    """Every subset of ``names``, in lexicographic order of its sorted tuple."""
    pool = sorted(names)
    every = (frozenset(c) for k in range(len(pool) + 1) for c in itertools.combinations(pool, k))
    return sorted(every, key=sorted)


def reference_mutually_irrelevant(oracle, x, y):
    """The definitional subset sweep over name sets: (verdict, least failing Z)."""
    for z in _lex_name_sets(set(oracle.universe.variables) - {x, y}):
        if not oracle.ci({x}, {y}, z):
            return False, z
    return True, None


def reference_uncoupled(oracle, x, y):
    """The definitional partition scan over name sets: (verdict, first split)."""
    rest = frozenset(oracle.universe.variables) - {x, y}
    for with_x in _lex_name_sets(rest):
        side_x, side_y = with_x | {x}, (rest - with_x) | {y}
        if oracle.ci(side_x, side_y):
            return True, (side_x, side_y)
    return False, None


def _parity_table():
    """Fair coins x, c, d and y = x xor c xor d: x and y are independent
    given any proper subset of {c, d}, and dependent given both."""
    probs = np.zeros((2, 2, 2, 2))
    for x, c, d in itertools.product((0, 1), repeat=3):
        probs[x, x ^ c ^ d, c, d] = 1 / 8
    return JointTable(Universe.binary("x", "y", "c", "d"), probs)


def _collider_table(rng):
    """Independent coins a and b with a common child c."""
    a, b = rng.uniform(0.2, 0.8, size=2)
    c_given_ab = rng.uniform(0.1, 0.9, size=(2, 2))
    probs = np.einsum(
        "i,j,ijk->ijk", [a, 1 - a], [b, 1 - b], np.stack([c_given_ab, 1 - c_given_ab], axis=2)
    )
    return JointTable(Universe.binary("a", "b", "c"), probs)


def _relation_backends():
    """Random, planted and structured backends, one with its names listed out
    of sorted order, so both verdicts and non-trivial witnesses occur."""
    rng = np.random.default_rng(5)
    coin = JointTable(Universe.binary("w"), np.array([0.3, 0.7]))
    reversed_blocks = DependencyModel.of(
        Universe.binary("e", "d", "c", "b", "a"),
        [Triplet.make({"a", "b"}, {"c", "d", "e"}), Triplet.make("c", "e", "d")],
    )
    return (
        [random_spb(n, 60 + n) for n in range(2, 6)]
        + [random_gaussian(n, 60 + n) for n in range(2, 6)]
        + [_block_joint(rng, n, gaussian) for n in (4, 5) for gaussian in (False, True)]
        + [xor_table(), product_table(xor_table(), coin), _parity_table(), _collider_table(rng)]
        + [pivot_block_table(), reversed_blocks]
    )


def test_the_mask_sweeps_match_the_name_set_sweeps():
    witnesses = {"irrelevance": set(), "uncoupling": set()}
    for backend in _relation_backends():
        oracle = CiOracle(backend)
        for x, y in itertools.permutations(backend.universe.variables, 2):
            mi, uc = mutually_irrelevant(oracle, x, y), uncoupled(oracle, x, y)
            assert (mi.holds, mi.witness) == reference_mutually_irrelevant(oracle, x, y)
            assert (uc.holds, uc.witness) == reference_uncoupled(oracle, x, y)
            if not mi.holds:
                witnesses["irrelevance"].add(len(mi.witness))
            if uc.holds:
                witnesses["uncoupling"].add(len(uc.witness[0]))
    # failures past the empty Z, and splits with more than x on its side, occur
    assert {0, 1, 2} <= witnesses["irrelevance"]
    assert {1, 2} <= witnesses["uncoupling"]
