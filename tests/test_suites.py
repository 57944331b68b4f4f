"""The clean sweep against the per-case reference it replaced."""

import itertools

import pytest

from graphoid import suites
from graphoid.relevance import EMPTY_R1, EMPTY_R2, VIOLATION, CheckResult, PartitionTriple


def reference_ordered_bipartitions(names):
    pool = sorted(names)
    out = []
    for mask in range(1, 2 ** len(pool) - 1):
        side = frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
        out.append((side, names - side))
    return out


def reference_clean_sweep(report, dist, label, rng, sampled_triples=200):
    """The sweep that builds and checks every case, empty cells included.

    It looks ``suites.check_clean`` up at call time, so patching it patches
    both sweeps alike.
    """
    names = sorted(dist.universe.variables)
    exhaustive = len(names) <= 4
    oracle = suites.CiOracle(dist)
    if exhaustive:
        for e_var in names:
            ground = frozenset(names) - {e_var}
            splits = reference_ordered_bipartitions(ground)
            for (x1, x2), (y1, y2), (z1, z2) in itertools.product(splits, splits, splits):
                report.cases += 1
                result = suites.check_clean(
                    oracle, suites.PartitionTriple(x1, x2, y1, y2, z1, z2, e_var)
                )
                if result.status == VIOLATION:
                    suites._fail(report, source=label, e=e_var,
                                 x1=sorted(x1), y1=sorted(y1), z1=sorted(z1))
    else:
        ground_splits = {
            e_var: reference_ordered_bipartitions(frozenset(names) - {e_var})
            for e_var in names
        }
        for _ in range(sampled_triples):
            e_var = names[int(rng.integers(len(names)))]
            splits = ground_splits[e_var]
            picks = rng.integers(len(splits), size=3)
            (x1, x2), (y1, y2), (z1, z2) = (splits[int(k)] for k in picks)
            report.cases += 1
            result = suites.check_clean(
                oracle, suites.PartitionTriple(x1, x2, y1, y2, z1, z2, e_var)
            )
            if result.status == VIOLATION:
                suites._fail(report, source=label, e=e_var,
                             x1=sorted(x1), y1=sorted(y1), z1=sorted(z1))


def reference_suite_clean(monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(suites, "_clean_sweep", reference_clean_sweep)
        return suites.suite_clean(**kwargs)


@pytest.mark.parametrize("ground_size", [2, 3, 4])
def test_live_triples_are_exactly_those_with_both_cells_non_empty(ground_size):
    ground = frozenset("abcd"[:ground_size])
    splits = suites._ordered_bipartitions(ground)
    assert list(splits) == reference_ordered_bipartitions(ground)
    expected = [
        (i, j, k)
        for i, j, k in itertools.product(range(len(splits)), repeat=3)
        if (pt := PartitionTriple(*splits[i], *splits[j], *splits[k], "e")).r1 and pt.r2
    ]
    assert list(suites._live_split_triples(ground_size)) == expected


@pytest.mark.parametrize("n_vars", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 7, 1009])
def test_clean_report_equals_the_reference(monkeypatch, n_vars, seed):
    kwargs = {"seed": seed, "n_vars": n_vars, "samples": 4}
    assert suites.suite_clean(**kwargs).to_json() == (
        reference_suite_clean(monkeypatch, **kwargs).to_json()
    )


def _violated_past_empty_cells(oracle, pt):
    if not pt.r1:
        return EMPTY_R1
    if not pt.r2:
        return EMPTY_R2
    return CheckResult(VIOLATION, False, False)


@pytest.mark.parametrize("n_vars", [3, 4, 5])
def test_failure_records_match_the_reference_in_order(monkeypatch, n_vars):
    monkeypatch.setattr(suites, "check_clean", _violated_past_empty_cells)
    kwargs = {"seed": 7, "n_vars": n_vars, "samples": 3}
    report = suites.suite_clean(**kwargs)
    reference = reference_suite_clean(monkeypatch, **kwargs)
    assert report.failures, "every live case should be recorded"
    assert report.cases == reference.cases
    assert len(report.failures) == len(reference.failures)
    for got, want in zip(report.failures, reference.failures):
        assert got == want
