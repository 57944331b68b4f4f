"""Pinned query counts of one suite run, so a memo that stops working fails here.

Counts are deterministic for a seed, unlike wall time.  A defeated verdict
memo raises the kernel count; a defeated screening-set memo raises the
``CiOracle.ci`` count, since every rebuilt network asks its queries again;
a defeated per-conditioning-set factor cache raises the Cholesky count;
a discrete kernel that stops taking its mask-free path on strictly positive
tables raises the ``np.divide`` count, which only its masked body makes;
a model oracle that leaves its closure's masks builds ``Triplet`` objects.
"""

import itertools
import sys

import numpy as np
from test_model_core import dense_model

import graphoid.dist_oracle as dist_oracle
import graphoid.model_core as model_core
from graphoid.dist_oracle import CiOracle, random_spb, xor_table
from graphoid.model_core import Triplet, subsets
from graphoid.simnet import HypothesisCover, types_equivalent
from graphoid.suites import run_suite


def _count_kernel_calls(monkeypatch):
    """Lists that grow by one per non-trivial and per empty-side kernel call."""
    kernel_calls, trivial_calls = [], []
    real_kernel = dist_oracle.ci_discrepancy_discrete

    def counting_kernel(table, x_set, y_set, *args, **kwargs):
        (kernel_calls if x_set and y_set else trivial_calls).append(1)
        return real_kernel(table, x_set, y_set, *args, **kwargs)

    monkeypatch.setattr(dist_oracle, "ci_discrepancy_discrete", counting_kernel)
    return kernel_calls, trivial_calls


def test_components_suite_query_counts(monkeypatch):
    kernel_calls, trivial_calls = _count_kernel_calls(monkeypatch)
    ci_calls = []
    real_ci = CiOracle.ci

    def counting_ci(self, *args, **kwargs):
        ci_calls.append(1)
        return real_ci(self, *args, **kwargs)

    monkeypatch.setattr(CiOracle, "ci", counting_ci)
    report = run_suite("components", seed=0, samples=3)
    assert report.ok and report.cases == 3
    # 3 tables x 24 orders.  Per table: 4 x 2^3 (node, predecessor set)
    # screening searches, each asked once; 84 distinct queries reach the
    # kernel, 32 of them with an empty side.
    assert len(kernel_calls) == 156
    assert len(trivial_calls) == 96
    assert len(ci_calls) == 324


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
    report = types_equivalent(random_spb(4, 0), HypothesisCover("u1", ((0, 1),)))
    assert report.equivalent
    # The related rule's network and the relevant rule's pair sweeps ask one
    # memo: 13 distinct non-trivial queries, 14 with an oracle per rule.
    assert len(kernel_calls) == 13


def test_gaussian_props_suite_factorizes_once_per_conditioning_set(monkeypatch):
    kernel_calls, cholesky_calls = [], []
    real_kernel = dist_oracle.ci_residual_gaussian
    real_cholesky = np.linalg.cholesky

    def counting_kernel(*args, **kwargs):
        kernel_calls.append(1)
        return real_kernel(*args, **kwargs)

    def counting_cholesky(a, *args, **kwargs):
        cholesky_calls.append(1)
        return real_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(dist_oracle, "ci_residual_gaussian", counting_kernel)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    report = run_suite("gaussian-props", seed=0, samples=6)
    assert report.ok and report.cases == 6
    # Six models at n = 3..5.  388 distinct queries reach the kernel; each
    # model is factorized once when built and once per non-empty
    # conditioning set its queries use (202 when every conditioned query
    # factorized its own block).
    assert len(kernel_calls) == 388
    assert len(cholesky_calls) == 44


def test_model_oracle_answers_from_one_mask_closure(monkeypatch):
    model = dense_model(6)
    built, closures, materialized = [], [], []
    real_post_init, real_masks = Triplet.__post_init__, dist_oracle._closed_masks
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
    monkeypatch.setattr(dist_oracle, "_closed_masks", counting_masks)
    for name, mod in list(sys.modules.items()):  # every binding, copied names too
        if name == "graphoid" or name.startswith("graphoid."):
            for attr, value in list(vars(mod).items()):
                if value is real_closure:
                    monkeypatch.setattr(mod, attr, counting_closure)
    names = model.universe.variables
    pairs = [({a}, {b}, z) for a, b in itertools.combinations(names, 2)
             for z in subsets(set(names) - {a, b})]
    assert len(pairs) == 240
    for oracles in (1, 2):
        oracle = CiOracle(model)
        assert closures == [1] * (oracles - 1)  # none yet: the first query pays
        assert all(oracle.ci(x, y, z) and oracle.ci(y, x, z) for x, y, z in pairs)
        assert closures == [1] * oracles  # once per oracle, never shared
    assert built == [] and materialized == []
