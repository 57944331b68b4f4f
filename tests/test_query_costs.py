"""Pinned query counts of one suite run, so a memo that stops working fails here.

Counts are deterministic for a seed, unlike wall time.  A defeated verdict
memo raises the kernel count; a defeated screening-set memo raises the
``CiOracle.ci`` count, since every rebuilt network asks its queries again.
"""

import graphoid.dist_oracle as dist_oracle
from graphoid.dist_oracle import CiOracle
from graphoid.suites import run_suite


def test_components_suite_query_counts(monkeypatch):
    kernel_calls, trivial_calls, ci_calls = [], [], []
    real_kernel, real_ci = dist_oracle.ci_discrepancy_discrete, CiOracle.ci

    def counting_kernel(table, x_set, y_set, *args, **kwargs):
        (kernel_calls if x_set and y_set else trivial_calls).append(1)
        return real_kernel(table, x_set, y_set, *args, **kwargs)

    def counting_ci(self, *args, **kwargs):
        ci_calls.append(1)
        return real_ci(self, *args, **kwargs)

    monkeypatch.setattr(dist_oracle, "ci_discrepancy_discrete", counting_kernel)
    monkeypatch.setattr(CiOracle, "ci", counting_ci)
    report = run_suite("components", seed=0, samples=3)
    assert report.ok and report.cases == 3
    # 3 tables x 24 orders.  Per table: 4 x 2^3 (node, predecessor set)
    # screening searches, each asked once; 84 distinct queries reach the
    # kernel, 32 of them with an empty side.
    assert len(kernel_calls) == 156
    assert len(trivial_calls) == 96
    assert len(ci_calls) == 324
