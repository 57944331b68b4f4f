"""Pinned query counts of one suite run, so a memo that stops working fails here.

Counts are deterministic for a seed, unlike wall time.  A defeated verdict
memo raises the kernel count; a defeated screening-set memo raises the
``CiOracle.ci`` count, since every rebuilt network asks its queries again;
a defeated per-conditioning-set factor cache raises the Cholesky count;
a discrete kernel that stops taking its mask-free path on strictly positive
tables raises the ``np.divide`` count, which only its masked body makes.
"""

import numpy as np

import graphoid.dist_oracle as dist_oracle
from graphoid.dist_oracle import CiOracle, random_spb, xor_table
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
