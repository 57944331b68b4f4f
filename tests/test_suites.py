"""The exhaustive, i1-first clean sweep against a per-case brute force, and
pt-bin's replayed block draws against the per-attempt sampler."""

import itertools

import numpy as np
import pytest

from graphoid import relevance, suites
from graphoid.dist_oracle import JointTable, marginalize, product_table, random_spb
from graphoid.model_core import Universe, label_blocks
from graphoid.relevance import (
    ANTECEDENT_FAILS,
    CONSEQUENT_HOLDS,
    VIOLATION,
    CheckResult,
    PartitionTriple,
    _implication,
)

from disjoint_triples import by_mask, variable_sets
from test_relevance import cells

OUTCOME_KEYS = ("i1", "i2", "i3", CONSEQUENT_HOLDS, VIOLATION)


def reference_ordered_bipartitions(names):
    pool = sorted(names)
    out = []
    for mask in range(1, 2 ** len(pool) - 1):
        side = frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
        out.append((side, names - side))
    return out


def brute_force_clean_sweep(report, dist, label):
    """Build every live partition triple in product order and let
    ``check_clean`` judge each one, i1 included.

    ``check_clean`` runs the implication core ``relevance._implication``,
    which the i1-first sweep calls as ``suites._implication``; a probe that
    patches the core in both modules patches both sweeps alike.
    """
    names = sorted(dist.universe.variables)
    oracle = suites.CiOracle(dist)
    for e_var in names:
        splits = reference_ordered_bipartitions(frozenset(names) - {e_var})
        for (x1, x2), (y1, y2), (z1, z2) in itertools.product(splits, repeat=3):
            pt = PartitionTriple(x1, x2, y1, y2, z1, z2, e_var)
            if not all(cells(pt)):
                continue
            report.cases += 1
            result = suites.check_clean(oracle, pt)
            key = result.detail if result.status == ANTECEDENT_FAILS else result.status
            report.outcomes[key] += 1
            if result.status == VIOLATION:
                suites._fail(report, source=label, e=e_var,
                             x1=sorted(x1), y1=sorted(y1), z1=sorted(z1))


def reference_suite_clean(monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(suites, "_clean_sweep", brute_force_clean_sweep)
        return suites.run_suite("clean", **kwargs)


def empty_clean_report():
    return suites.SuiteReport("clean", 0, {}, outcomes=dict.fromkeys(OUTCOME_KEYS, 0))


def assert_outcomes_cover_cases(report):
    assert tuple(report.outcomes) == OUTCOME_KEYS
    assert sum(report.outcomes.values()) == report.cases


def spb_block(names, seed):
    """A ``random_spb`` table renamed to ``names`` (the first marginal of a
    two-variable one for a single name)."""
    table = random_spb(max(len(names), 2), seed)
    table = marginalize(table, table.universe.variables[: len(names)])
    return JointTable(Universe.binary(*names), table.probs)


def two_block_product(left_size, right_size, seed):
    """Independent product of two ``random_spb`` blocks over u1..un."""
    names = [f"u{k + 1}" for k in range(left_size + right_size)]
    return product_table(
        spb_block(names[:left_size], seed), spb_block(names[left_size:], seed + 1)
    )


PRODUCT_SHAPES = {3: [(1, 2), (2, 1)], 4: [(2, 2), (1, 3)], 5: [(2, 3), (3, 2)]}


def sweep_both(dist, label="case"):
    got, want = empty_clean_report(), empty_clean_report()
    suites._clean_sweep(got, dist, label)
    brute_force_clean_sweep(want, dist, label)
    for report in (got, want):
        assert_outcomes_cover_cases(report)
    return got, want


@pytest.mark.parametrize("ground_size", [2, 3, 4])
def test_live_triples_are_exactly_those_with_both_cells_non_empty(ground_size):
    ground = frozenset("abcd"[:ground_size])
    splits = reference_ordered_bipartitions(ground)
    sets = by_mask(ground)
    full = len(sets) - 1
    # Split i of the reference has first-side mask i + 1.
    assert [(sets[m], sets[full ^ m]) for m in range(1, full)] == splits
    expected = [
        (i + 1, j + 1, k + 1)
        for i, j, k in itertools.product(range(len(splits)), repeat=3)
        if all(cells(PartitionTriple(*splits[i], *splits[j], *splits[k], "e")))
    ]
    grouped = [(a, b, c) for a, live in suites._live_by_x_split(ground_size) for b, c in live]
    assert grouped == expected


@pytest.mark.parametrize("n_vars", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 7, 1009])
def test_clean_report_equals_the_reference(monkeypatch, n_vars, seed):
    # samples=4 runs random_spb and random_gaussian at n = 3 up to n_vars.
    kwargs = {"seed": seed, "n_vars": n_vars, "samples": 4}
    report = suites.run_suite("clean", **kwargs)
    reference = reference_suite_clean(monkeypatch, **kwargs)
    assert_outcomes_cover_cases(report)
    assert report.to_json() == reference.to_json()


@pytest.mark.parametrize("n_vars", [3, 4, 5])
def test_product_tables_reach_the_consequent_as_in_the_reference(n_vars):
    for seed, (left, right) in enumerate(PRODUCT_SHAPES[n_vars]):
        got, want = sweep_both(two_block_product(left, right, seed))
        assert got.failures == want.failures == []
        assert got.outcomes == want.outcomes
        assert got.cases == want.cases
        assert got.outcomes[CONSEQUENT_HOLDS] > 0


def _consequent_as_violation(*masks):
    result = _implication(*masks)
    if result.status == CONSEQUENT_HOLDS:
        return CheckResult(VIOLATION, False, False)
    return result


def _past_i1_as_violation(*masks):
    """Several records per x-split, so their order within one shows."""
    result = _implication(*masks)
    if result.detail in (None, "i2", "i3"):
        return CheckResult(VIOLATION, False, False)
    return result


@pytest.mark.parametrize("n_vars", [3, 4, 5])
def test_failure_records_match_the_reference_in_order(monkeypatch, n_vars):
    for wrapped in (_consequent_as_violation, _past_i1_as_violation):
        # ``check_clean`` reads the core from ``relevance``, the sweep from ``suites``
        monkeypatch.setattr(relevance, "_implication", wrapped)
        monkeypatch.setattr(suites, "_implication", wrapped)
        for seed, (left, right) in enumerate(PRODUCT_SHAPES[n_vars]):
            got, want = sweep_both(two_block_product(left, right, seed), f"product:{seed}")
            assert got.failures, "every case reaching the consequent should be recorded"
            assert len(got.failures) == len(want.failures) == got.outcomes[VIOLATION]
            for got_record, want_record in zip(got.failures, want.failures):
                assert got_record == want_record
            assert got.outcomes == want.outcomes


def _forced_violation(oracle, first, second):
    return CheckResult(VIOLATION, False, False)


def _product_spb(n, seed):
    left = 1 if n == 3 else 2
    return two_block_product(left, n - left, seed)


def test_clean_suite_fails_when_the_conclusion_fails(monkeypatch):
    monkeypatch.setattr(suites, "random_spb", _product_spb)
    monkeypatch.setattr(relevance, "_conclusion", _forced_violation)
    report = suites.run_suite("clean", seed=0, n_vars=5, samples=3)
    assert not report.ok
    assert report.outcomes[VIOLATION] > 0
    assert report.outcomes[CONSEQUENT_HOLDS] == 0
    assert len(report.failures) == report.outcomes[VIOLATION]
    assert_outcomes_cover_cases(report)


def test_pt_bin_suite_fails_when_the_conclusion_fails(monkeypatch):
    # On product tables about a third of the random block assignments meet
    # all three premises; each of those must then be reported as a violation
    # on which both forms agree.
    monkeypatch.setattr(suites, "random_spb", _product_spb)
    monkeypatch.setattr(relevance, "_conclusion", _forced_violation)
    report = suites.run_suite("pt-bin", seed=0, samples=5)
    assert not report.ok
    assert {f["kind"] for f in report.failures} == {"violation"}


def reference_random_blocks(rng, ground, attempts=None):
    """pt-bin's block sampler as it was, one attempt per call: draw a code
    per sorted name until both block 0 and block 4 get a name.  The number
    of attempts is appended to ``attempts`` when one is given."""
    for attempt in itertools.count(1):
        groups = label_blocks(ground, rng.integers(8, size=len(ground.names)), 8)
        if groups[0] and groups[4]:
            if attempts is not None:
                attempts.append(attempt)
            return relevance.PtBinBlocks(*groups)


@pytest.mark.parametrize("ground_size", [2, 3, 4, 5])
def test_replayed_block_draws_equal_the_per_attempt_sampler(ground_size):
    ground = variable_sets([f"g{i}" for i in range(ground_size)])
    attempts = []
    for seed in range(40):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(6):
            # an odd range between draws, as pt-bin's pivot draw is
            assert fast.integers(5) == slow.integers(5)
            want = reference_random_blocks(slow, ground, attempts)
            assert suites._random_blocks(fast, ground) == want
            assert fast.bit_generator.state == slow.bit_generator.state
    # Over two names an attempt is kept one time in 32, so some draws need
    # more than one batch of attempts.
    if ground_size == 2:
        assert max(attempts) > suites.BLOCK_ATTEMPTS


def _pt_bin_draws(monkeypatch, sampler, seed):
    """The report of a default pt-bin run at ``seed`` with ``sampler``
    drawing its blocks, and each call's ground names, blocks and generator
    state after the call."""
    draws = []

    def recording(rng, ground):
        blocks = sampler(rng, ground)
        draws.append((ground.names, blocks, rng.bit_generator.state))
        return blocks

    monkeypatch.setattr(suites, "_random_blocks", recording)
    return suites.run_suite("pt-bin", seed=seed).to_json(), draws


@pytest.mark.parametrize("seed", [0, 1009, 7_000_000])
def test_pt_bin_draws_the_same_cases_as_the_per_attempt_sampler(monkeypatch, seed):
    # A report shows no blocks, so only the draws themselves show that they
    # did not move: the same names and blocks in every case, and the same
    # generator state after each, so every later pivot draw is the same too.
    fast = _pt_bin_draws(monkeypatch, suites._random_blocks, seed)
    slow = _pt_bin_draws(monkeypatch, reference_random_blocks, seed)
    assert len(fast[1]) == 200
    assert fast == slow
