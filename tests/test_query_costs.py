"""Pinned query counts of one suite run, so a cache that stops working fails here.

Counts are deterministic for a seed, unlike wall time.  A table oracle of
at most five variables answers from a verdict table built once, at its
first query: a defeated verdict table raises the build count, and a table
query that leaves it reaches the discrete kernel, whose count is 0 for
every suite table.  A defeated screening-set memo raises the
``CiOracle._holds`` count, since every rebuilt network asks its queries
again; rows built per conditioning set rather than per set size raise the
Cholesky count; a Gaussian oracle that stops answering from one dependency
row per conditioning set reaches the Gaussian kernel or raises the solve
count;
a discrete kernel or verdict table that stops taking its mask-free path on
strictly positive tables raises the ``np.divide`` count, which only their
masked body makes; a model oracle that leaves its closure's masks, or a
closure or axiom check that leaves the model's masks, builds ``Triplet``
objects, and a closure kept per oracle, not per model, is computed more
than once; an axiom check that stops certifying a closure by closing its
elementary triplets calls ``_closed_masks`` other than once; an oracle that
stops reading its query sets from the ``VariableSets`` shared by every
universe over the same names validates again, and a witness decoder that
stops building each set once decodes more masks.  Every ask, through
``CiOracle.ci`` or in masks by network construction, the relation sweeps
and the suites, is one ``CiOracle._holds`` call.  The dsep-soundness suite
and the clean sweep hold masks already, so a separation or implication
that goes back through names builds ``Triplet`` or ``PartitionTriple``
objects.  An oracle that stops keeping the network built under each order
builds more ``Dag`` objects.
"""

import itertools
import sys

import numpy as np
import pytest
from test_model_core import dense_model, reference_check, seeded_sparse_models, thinned_closures
from test_suites import _product_spb, reference_suite_clean

import graphoid.dist_oracle as dist_oracle
import graphoid.model_core as model_core
import graphoid.suites as suites
from graphoid.dist_oracle import CiOracle, extract_model, random_gaussian, random_spb, xor_table
from graphoid.errors import SingularConditioning
from graphoid.model_core import Triplet, Universe, check_graphoid_axioms, subsets
from graphoid.bayesnet import Dag
from graphoid.relevance import CONSEQUENT_HOLDS, PartitionTriple, unrelated
from graphoid.simnet import HypothesisCover, types_equivalent
from graphoid.suites import run_suite

from disjoint_triples import forget_variable_sets, iter_disjoint_triples


def _count_kernel_calls(monkeypatch):
    """Lists that grow by one per non-trivial and per empty-side call of the
    discrete kernel's body, which is what an oracle on the kernel path runs
    on a memo miss."""
    kernel_calls, trivial_calls = [], []
    real_kernel = dist_oracle._discrete_gap

    def counting_kernel(table, x_set, y_set, *args, **kwargs):
        (kernel_calls if x_set and y_set else trivial_calls).append(1)
        return real_kernel(table, x_set, y_set, *args, **kwargs)

    monkeypatch.setattr(dist_oracle, "_discrete_gap", counting_kernel)
    return kernel_calls, trivial_calls


def _count_verdict_builds(monkeypatch):
    """A list that grows by one per verdict table a table oracle builds."""
    builds = []
    real_verdicts = dist_oracle._table_verdicts

    def counting_verdicts(*args):
        builds.append(1)
        return real_verdicts(*args)

    monkeypatch.setattr(dist_oracle, "_table_verdicts", counting_verdicts)
    return builds


def test_components_suite_query_counts(monkeypatch):
    kernel_calls, trivial_calls = _count_kernel_calls(monkeypatch)
    builds = _count_verdict_builds(monkeypatch)
    asks = []
    real_holds = CiOracle._holds

    def counting_holds(self, *args):
        asks.append(1)
        return real_holds(self, *args)

    monkeypatch.setattr(CiOracle, "_holds", counting_holds)
    report = run_suite("components", seed=0, samples=3)
    assert report.ok and report.cases == 3
    # 3 tables x 24 orders.  Per table: 4 x 2^3 (node, predecessor set)
    # screening searches, each asked once, from one verdict table; none
    # reaches the kernel (156 non-trivial and 96 empty-side kernel calls
    # when each distinct query ran it).  Every ask, through ``ci`` or in
    # masks, is one ``_holds`` call.
    assert len(builds) == 3
    assert kernel_calls == [] and trivial_calls == []
    assert len(asks) == 324


def test_each_query_set_is_validated_once_per_name_tuple(monkeypatch):
    validated = []
    real_validate = dist_oracle._validate_sets

    def counting_validate(*args):
        validated.append(1)
        return real_validate(*args)

    monkeypatch.setattr(dist_oracle, "_validate_sets", counting_validate)
    forget_variable_sets()  # forget the sets earlier tests asked
    report = run_suite("components", seed=0, samples=3)
    assert report.ok and report.cases == 3
    # Network construction asks its 324 queries in masks, so no set is named
    # and none is validated or stored (12 validations stored the 15 sets
    # when it asked through ``ci``, 36 when each oracle validated its own
    # sets, 252 when every kernel call validated its query).  The three
    # tables over u1..u4 share one VariableSets.
    assert len(validated) == 0
    assert model_core._variable_sets.cache_info().currsize == 1
    assert Universe.binary("u1", "u2", "u3", "u4").sets.masks == {}
    # Over every triple each set is validated at most once, by whichever
    # oracle over those names asks it first; a later oracle over the same
    # names, of any backend, and a second pass validate nothing.
    forget_variable_sets()
    validated.clear()
    oracle = CiOracle(random_gaussian(4, 0))
    triples = list(iter_disjoint_triples(oracle.universe.variables))
    assert all(oracle.ci(x, y, z) == oracle.ci(y, x, z) for x, y, z in triples)
    assert len(validated) == 2**4
    for other in (oracle, CiOracle(random_spb(4, 0)), CiOracle(random_gaussian(4, 1))):
        for x, y, z in triples:
            other.ci(x, y, z)
            other.discrepancy(y, x, z)
    assert len(validated) == 2**4


def test_strictly_positive_tables_skip_the_masked_kernel(monkeypatch):
    divides = []
    real_divide = np.divide

    def counting_divide(*args, **kwargs):
        divides.append(1)
        return real_divide(*args, **kwargs)

    monkeypatch.setattr(np, "divide", counting_divide)
    report = run_suite("components", seed=0, samples=3)
    assert report.ok and report.cases == 3
    # every table is drawn by random_spb, so no entry is at or below 1e-9
    assert divides == []
    # xor_table has zero entries: its queries take the masked body
    assert CiOracle(xor_table()).ci("x", "y")
    assert len(divides) == 2


def test_both_inclusion_rules_share_one_oracle(monkeypatch):
    kernel_calls, _ = _count_kernel_calls(monkeypatch)
    builds = _count_verdict_builds(monkeypatch)
    report = types_equivalent(random_spb(4, 0), HypothesisCover("u1", ((0, 1),)))
    assert report.equivalent
    # The related rule's network and the relevant rule's pair sweeps ask one
    # verdict table, 2 with an oracle per rule; no query reaches the kernel.
    assert len(builds) == 1
    assert kernel_calls == []


def _count_gaussian_linear_algebra(monkeypatch):
    """Lists that grow by one per call of the Gaussian kernel's body, of
    ``np.linalg.cholesky`` and of ``np.linalg.solve``."""
    kernel_calls, cholesky_calls, solve_calls = [], [], []
    real_kernel = dist_oracle._gaussian_residual
    real_cholesky, real_solve = np.linalg.cholesky, np.linalg.solve

    def counting_kernel(*args, **kwargs):
        kernel_calls.append(1)
        return real_kernel(*args, **kwargs)

    def counting_cholesky(*args, **kwargs):
        cholesky_calls.append(1)
        return real_cholesky(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        solve_calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(dist_oracle, "_gaussian_residual", counting_kernel)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return kernel_calls, cholesky_calls, solve_calls


def test_gaussian_props_suite_factorizes_once_per_conditioning_set_size(monkeypatch):
    kernel_calls, cholesky_calls, solve_calls = _count_gaussian_linear_algebra(monkeypatch)
    eigvalsh_calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        eigvalsh_calls.append(1)
        return real_eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    report = run_suite("gaussian-props", seed=0, samples=6)
    assert report.ok and report.cases == 6
    # Six models at n = 3..5.  Every query is answered from one dependency
    # row per conditioning set, so none reaches the kernel (388 distinct
    # queries did when each ran it).  The queries use the 38 sets of sizes
    # 1 (n = 4, 5) and 2 (n = 5), and the rows of all the sets of one size
    # are built together: each model is factorized once when built, and each
    # of its 6 non-empty sizes costs one stacked eigvalsh, one stacked
    # Cholesky and one stacked solve (44 Cholesky and 38 solves with one of
    # each per set; 202 Cholesky when every conditioned query factorized its
    # own block, 392 solves when each query solved its x and y columns apart).
    assert kernel_calls == []
    assert len(cholesky_calls) == 6 + 6
    assert len(solve_calls) == len(eigvalsh_calls) == 6


def test_a_gaussian_oracle_solves_once_per_conditioning_set_size(monkeypatch):
    g = random_gaussian(5, 4)
    factors = []
    real_factor = dist_oracle.GaussianModel._factor

    def counting_factor(model, zs):
        factors.append(zs)
        return real_factor(model, zs)

    monkeypatch.setattr(dist_oracle.GaussianModel, "_factor", counting_factor)
    kernel_calls, cholesky_calls, solve_calls = _count_gaussian_linear_algebra(monkeypatch)
    oracle = CiOracle(g)
    names = g.universe.variables
    triples = list(iter_disjoint_triples(names))
    for _ in range(2):  # the second pass reads the rows the first one kept
        for x, y, z in triples:
            oracle.ci(x, y, z)
    # The 25 non-empty z with two non-empty sides left, those of at most
    # three of the five names, fall in three sizes: one stacked Cholesky and
    # one stacked solve per size (25 of each, one per z, before the rows were
    # stacked), none for the empty z, and no kept factor is read.
    asked = {tuple(sorted(z)) for x, y, z in triples if x and y and z}
    assert len(asked) == 25
    assert factors == []
    assert len(cholesky_calls) == len(solve_calls) == 3
    assert kernel_calls == []
    assert set(oracle._memo) == {0} | {sum(1 << names.index(v) for v in z) for z in asked}
    assert None not in oracle._memo.values()


def test_an_empty_side_builds_no_row(monkeypatch):
    oracle = CiOracle(random_gaussian(4, 2))
    kernel_calls, cholesky_calls, solve_calls = _count_gaussian_linear_algebra(monkeypatch)
    for z in ((), {"u3"}, {"u3", "u4"}):
        assert oracle.ci((), {"u1", "u2"}, z) and oracle.ci({"u1"}, [], z)
    assert oracle._memo == {}
    assert kernel_calls == cholesky_calls == solve_calls == []


def test_a_singular_conditioning_set_is_kept_as_none(monkeypatch):
    cov = np.eye(4)
    cov[0, 1] = cov[1, 0] = 1.0 - 1e-12  # the (a, b) block is past the regularity limit
    g = dist_oracle.GaussianModel(Universe.reals("a", "b", "c", "d"), np.zeros(4), cov)
    oracle = CiOracle(g)
    kernel_calls, cholesky_calls, solve_calls = _count_gaussian_linear_algebra(monkeypatch)
    pairs = [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]  # the six 2-sets
    for x, y in (({"c"}, {"d"}), ({"d"}, {"c"}), ({"c"}, {"d"})):
        with pytest.raises(SingularConditioning, match=r"^conditioning block over \('a', 'b'\)"):
            oracle.ci(x, y, {"a", "b"})
        # the first query builds the rows of all six 2-sets; {a, b} keeps None
        assert sorted(oracle._memo) == pairs and oracle._memo[0b0011] is None
    # The singular block is checked, never factorized: one stacked Cholesky
    # and one stacked solve cover the five regular blocks, and the kept None
    # answers the later queries with no more linear algebra.
    assert kernel_calls == []
    assert len(cholesky_calls) == len(solve_calls) == 1
    assert oracle.ci({"c"}, (), {"a", "b"})  # an empty side still holds
    assert not oracle.ci({"a"}, {"b"})
    assert set(oracle._memo) == {0, *pairs}


def test_model_oracle_answers_from_one_mask_closure(monkeypatch):
    model = dense_model(6)
    built, closures, materialized = [], [], []
    real_post_init, real_masks = Triplet.__post_init__, model_core._closed_masks
    real_closure = model_core.graphoid_closure

    def counting_post_init(self):
        built.append(1)
        real_post_init(self)

    def counting_masks(m):
        closures.append(1)
        return real_masks(m)

    def counting_closure(m):
        materialized.append(1)
        return real_closure(m)

    monkeypatch.setattr(Triplet, "__post_init__", counting_post_init)
    monkeypatch.setattr(model_core, "_closed_masks", counting_masks)
    for name, mod in list(sys.modules.items()):  # every binding, copied names too
        if name == "graphoid" or name.startswith("graphoid."):
            for attr, value in list(vars(mod).items()):
                if value is real_closure:
                    monkeypatch.setattr(mod, attr, counting_closure)
    names = model.universe.variables
    pairs = [({a}, {b}, z) for a, b in itertools.combinations(names, 2)
             for z in subsets(set(names) - {a, b})]
    assert len(pairs) == 240
    oracles = [CiOracle(model), CiOracle(model)]
    assert closures == []  # none yet: the first query pays
    for oracle in oracles:
        assert all(oracle.ci(x, y, z) and oracle.ci(y, x, z) for x, y, z in pairs)
        assert closures == [1]  # once per model, shared by its oracles
    assert built == [] and materialized == []
    # Closing reads the closure the model keeps, and the result holds its
    # masks: neither closing nor checking builds a Triplet.
    closed = real_closure(model)
    assert closures == [1] and len(closed.triplets) == 4**6
    assert check_graphoid_axioms(closed) == []
    assert check_graphoid_axioms(extract_model(CiOracle(random_spb(5, 0)))) == []
    assert built == []


def test_the_axiom_check_certifies_a_closure_before_enumerating(monkeypatch):
    closed = model_core.graphoid_closure(dense_model(7))
    thinned = next(thinned_closures(next(seeded_sparse_models(4, 1))))
    expected = reference_check(thinned)
    built, closures, enumerations = [], [], []
    real_post_init, real_masks = Triplet.__post_init__, model_core._closed_masks
    real_set_of = model_core.VariableSets.set_of

    def counting_post_init(self):
        built.append(1)
        real_post_init(self)

    def counting_masks(m):
        closures.append(1)
        return real_masks(m)

    def counting_set_of(self, mask):  # each set of a reported violation
        enumerations.append(1)
        return real_set_of(self, mask)

    monkeypatch.setattr(Triplet, "__post_init__", counting_post_init)
    monkeypatch.setattr(model_core, "_closed_masks", counting_masks)
    monkeypatch.setattr(model_core.VariableSets, "set_of", counting_set_of)
    # A closure is certified by one closure of its elementary triplets,
    # with no axiom instance enumerated and no Triplet built.
    assert check_graphoid_axioms(closed) == []
    assert closures == [1] and enumerations == [] and built == []
    # A thinned closure fails the certificate, so the enumeration runs,
    # reports every violation the reference finds
    assert expected
    assert check_graphoid_axioms(thinned) == expected
    # and decodes the three sets of each Triplet it builds for them.
    assert closures == [1, 1] and built and len(enumerations) == 3 * len(built)


def test_a_transitivity_run_decodes_each_witness_mask_once(monkeypatch):
    decoded = []
    real_tuple_of = model_core.VariableSets.tuple_of

    def counting_tuple_of(self, mask):
        if mask not in self._tuples:
            decoded.append((self.names, mask))
        return real_tuple_of(self, mask)

    monkeypatch.setattr(model_core.VariableSets, "tuple_of", counting_tuple_of)
    forget_variable_sets()  # no mask over the suite's names is decoded yet
    report = run_suite("transitivity", seed=0)
    assert report.ok
    # ``is_transitive`` reads only ``.holds``, but each failing irrelevance
    # sweep still builds its witness set.  Every pair of a random table or
    # Gaussian is dependent with Z empty, so over the five name tuples (the
    # paired coins' and u1..un for n = 2..5) only the empty mask is decoded;
    # the Gaussians' dependency rows are gathered from masks and decode
    # nothing (they decoded the same empty tuple before).  Decoding each
    # witness afresh, as the unmemoized decoder did, made 1,502 decodes.
    tuples = [("x", "y", "z"), *(tuple(f"u{i}" for i in range(1, n + 1)) for n in range(2, 6))]
    assert sorted(decoded) == sorted((names, 0) for names in tuples)


def _count_builds(monkeypatch, cls):
    """A list that grows by one per ``cls`` object built."""
    built = []
    real_post_init = cls.__post_init__

    def counting_post_init(self):
        built.append(1)
        real_post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    return built


def test_dsep_soundness_asks_the_walk_in_masks(monkeypatch):
    built = _count_builds(monkeypatch, Triplet)
    report = run_suite("dsep-soundness", seed=0, samples=3)
    # Tables at n = 2, 3, 4, three orders each: 3 x (1 + 6 + 24) separations,
    # each asked of the walk and the oracle in masks (one Triplet each when
    # the suite asked ``d_separated``).
    assert report.ok and report.cases == 93
    assert built == []


def test_a_clean_run_past_i1_builds_no_partition_triple(monkeypatch):
    monkeypatch.setattr(suites, "random_spb", _product_spb)
    reference = reference_suite_clean(monkeypatch, seed=0, n_vars=5, samples=3)
    built = _count_builds(monkeypatch, PartitionTriple)
    report = run_suite("clean", seed=0, n_vars=5, samples=3)
    # Product tables meet i1 for some x-splits, so cases reach i2, i3 and
    # the conclusion; each is judged on masks (one PartitionTriple each when
    # the sweep asked ``check_clean``), with the brute force's outcomes.
    assert report.outcomes[CONSEQUENT_HOLDS] > 0
    assert report.to_json() == reference.to_json()
    assert built == []


def test_a_relations_run_builds_each_network_once(monkeypatch):
    built = _count_builds(monkeypatch, Dag)
    report = run_suite("relations", seed=0)
    # Each oracle keeps the network ``unrelated`` builds under its listing
    # order: 126 distinct networks, built once each (751 when every call
    # built its network again).
    assert report.ok and report.cases == 751
    assert len(built) == 126


def test_unrelated_over_every_pair_builds_one_network(monkeypatch):
    built = _count_builds(monkeypatch, Dag)
    oracle = CiOracle(random_spb(5, 3))
    pairs = list(itertools.combinations(oracle.universe.variables, 2))
    verdicts = [unrelated(oracle, a, b).holds for a, b in pairs]
    assert len(verdicts) == 10 and len(built) == 1
