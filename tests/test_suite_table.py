"""The suite table, the seeded case source, and one mutation probe per suite.

``SUITES`` declares each suite's ``n_vars`` range and default scale once, and
``run_suite`` checks them before anything is drawn.  Every random
distribution a suite judges comes from ``suites._draws``.  A probe patches
one generator or one verdict through the ``suites`` module and asserts that
the suite reports the fault.  The ``clean`` and ``pt-bin`` probes live in
``test_suites.py``, beside the product tables they use.
"""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from graphoid import suites
from graphoid.bayesnet import Dag
from graphoid.dist_oracle import JointTable, xor_table
from graphoid.model_core import DependencyModel, Triplet, Universe
from graphoid.relevance import UNRELATED, RelationVerdict
from graphoid.suites import SUITES, run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# name: ((lowest n_vars, highest n_vars), (default n_vars, default samples)).
# The defaults are the acceptance scale of test_acceptance.py; relations runs
# at criterion 5's 100 tables of four variables.
SCALE = {
    "axioms": ((2, 4), (4, 200)),
    "dsep-soundness": ((2, 5), (5, 200)),
    "components": ((2, 6), (4, 100)),
    "relations": ((2, 5), (4, 100)),
    "clean": ((3, 5), (5, 500)),
    "pt-bin": ((3, 5), (5, 200)),
    "gaussian-props": ((3, 6), (5, 100)),
    "transitivity": ((2, 5), (5, 200)),
    "simnet-equiv": ((2, 5), (5, 50)),
}

# Draw seeds of one run lie in [seed, seed + DRAW_SPAN).
DRAW_SPAN = 110_000


def test_every_suite_has_a_scale():
    assert set(SCALE) == set(SUITES)


@pytest.mark.parametrize("name", sorted(SCALE))
def test_a_bad_scale_is_refused_before_anything_is_drawn(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("a distribution was drawn")

    for generator in ("random_spb", "random_gaussian", "xor_table"):
        monkeypatch.setattr(suites, generator, refuse)
    (low, high), _ = SCALE[name]
    for n_vars in (low - 1, high + 1):
        message = f"suite {name} runs at n_vars {low}..{high}, got {n_vars}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_suite(name, n_vars=n_vars, samples=1)
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        run_suite(name, samples=0)


@pytest.mark.parametrize(
    "arg, value, message",
    [
        ("samples", True, "samples must be an integer, got True"),
        ("samples", 2.5, "samples must be an integer, got 2.5"),
        ("n_vars", 3.5, "n_vars must be an integer, got 3.5"),
        ("n_vars", True, "n_vars must be an integer, got True"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", -3, "seed must be a non-negative integer, got -3"),
    ],
)
def test_a_bool_float_or_negative_argument_is_refused_before_anything_is_drawn(
    monkeypatch, arg, value, message
):
    def refuse(*args):
        raise AssertionError("a distribution was drawn")

    for generator in ("random_spb", "random_gaussian", "xor_table"):
        monkeypatch.setattr(suites, generator, refuse)
    for name in sorted(SCALE):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite(name, **{"samples": 2, arg: value})


@pytest.mark.parametrize("name", sorted(SCALE))
def test_both_range_bounds_run_and_are_recorded(name):
    (low, high), _ = SCALE[name]
    for n_vars in (low, high):
        report = run_suite(name, n_vars=n_vars, samples=1)
        assert report.ok, report.failures[:3]
        assert (report.params["n_vars"], report.params["samples"]) == (n_vars, 1)


@pytest.mark.parametrize("name", sorted(SCALE))
def test_the_default_scale_is_the_acceptance_scale(monkeypatch, name):
    monkeypatch.setattr(suites, "_draws", lambda *args: iter(()))
    params = run_suite(name).params
    assert (params["n_vars"], params["samples"]) == SCALE[name][1]


def test_draw_seeds_fit_the_perfbench_seed_stride(monkeypatch):
    """``perfbench`` spaces run seeds ``SUITE_SEED_STRIDE`` apart, so that
    two runs share no draw; within a run no generator repeats a seed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert DRAW_SPAN <= importlib.import_module("workloads").SUITE_SEED_STRIDE
    calls = []

    def record(generator, seed, count, n_max, n_min=2):
        calls.append((generator, seed, count))
        return iter(())

    monkeypatch.setattr(suites, "_draws", record)
    seed = 3_000_000
    for name in SUITES:
        calls.clear()
        run_suite(name, seed=seed)
        assert calls, name
        drawn: dict = {}
        for generator, start, count in calls:
            assert seed <= start and start + count <= seed + DRAW_SPAN, name
            seeds = drawn.setdefault(generator, set())
            assert seeds.isdisjoint(range(start, start + count)), name
            seeds.update(range(start, start + count))


def test_draws_take_consecutive_seeds_and_cycle_n():
    draws = list(suites._draws(lambda n, seed: (n, seed), 10, 5, 4))
    assert draws == [(10, 2, (2, 10)), (11, 3, (3, 11)), (12, 4, (4, 12)),
                     (13, 2, (2, 13)), (14, 3, (3, 14))]


def _xor_spb(n, seed):
    return xor_table()


def test_transitivity_probe(monkeypatch):
    monkeypatch.setattr(suites, "random_spb", _xor_spb)
    report = run_suite("transitivity", samples=4)
    assert [f["kind"] for f in report.failures] == ["spb"] * 4


def test_dsep_soundness_probe(monkeypatch):
    def no_parents(oracle, order):
        return Dag(oracle.universe, {v: frozenset() for v in order}, tuple(order))

    monkeypatch.setattr(suites, "build_network", no_parents)
    assert not run_suite("dsep-soundness", samples=3).ok


def _chain_spb(n, seed):
    """A binary Markov chain u1 -> u2 -> ... -> un with seeded, strictly
    positive transitions, so a network built from it separates some pairs
    only given a conditioning set."""
    rng = np.random.default_rng(seed)
    first = rng.uniform(0.2, 0.8)
    probs = np.array([first, 1 - first])
    for _ in range(n - 1):
        stay = rng.uniform(0.1, 0.9, size=2)
        probs = probs[..., None] * np.stack([stay, 1 - stay], axis=1)
    return JointTable(Universe.binary(*(f"u{i + 1}" for i in range(n))), probs)


def test_dsep_soundness_asks_the_separations_it_reads(monkeypatch):
    separated = []
    real_separated = suites._separated

    def recording(dag, x, y, z):
        verdict = real_separated(dag, x, y, z)
        if verdict:
            separated.append(z)
        return verdict

    monkeypatch.setattr(suites, "random_spb", _chain_spb)
    monkeypatch.setattr(suites, "_separated", recording)
    report = run_suite("dsep-soundness", samples=8)
    # Every separation read off the chains' networks holds in the table,
    # and some of them hold only given a non-empty set.
    assert report.ok and report.cases > 0
    assert any(separated)


def test_components_probe(monkeypatch):
    def singletons_in_order(dag):
        return tuple((v,) for v in dag.construction_order)

    monkeypatch.setattr(suites, "connected_components", singletons_in_order)
    report = run_suite("components", samples=3)
    assert len(report.failures) == report.cases == 3


def test_relations_probe(monkeypatch):
    def always_unrelated(oracle, a, b):
        return RelationVerdict(UNRELATED, True)

    monkeypatch.setattr(suites, "unrelated", always_unrelated)
    kinds = {f["kind"] for f in run_suite("relations", samples=4).failures}
    assert kinds == {"xor_fixture", "uncoupled_vs_unrelated"}


def test_axioms_probe(monkeypatch):
    real_extract = suites.extract_model

    def one_triplet_short(oracle):
        model = real_extract(oracle)
        held = max(model.triplets, key=Triplet.sort_key)
        return DependencyModel(model.universe, model.triplets - {held})

    monkeypatch.setattr(suites, "extract_model", one_triplet_short)
    report = run_suite("axioms", samples=6)
    assert len(report.failures) == report.cases == 6


def test_gaussian_props_probe(monkeypatch):
    def last_name_marginally_dependent(self, x, y, z):
        # Everything holds but a marginal statement with the last name alone
        # on one side, so weak transitivity fails with e the last name.
        alone = 1 << (len(self.universe.variables) - 1)  # the last sorted name
        return bool(z) or alone not in (x, y)

    monkeypatch.setattr(suites.CiOracle, "_holds", last_name_marginally_dependent)
    report = run_suite("gaussian-props", samples=3)
    assert len(report.failures) == report.cases == 3
    assert {v for f in report.failures for v in f["violations"]} == {
        "marginal_weak_transitivity"
    }


def test_simnet_equiv_reports_a_divergence(monkeypatch):
    # Every drawn table is the paired-coin hypothesis table, on which the two
    # inclusion rules diverge.
    monkeypatch.setattr(suites, "random_spb", lambda n, seed: suites.xor_hypothesis_table())
    report = run_suite("simnet-equiv", samples=4)
    assert not report.ok
    divergences = [f for f in report.failures if f["kind"] == "divergence"]
    assert [f["table_seed"] for f in divergences] == [0, 1, 2, 3]
    assert all(f["report"]["equivalent"] is False for f in divergences)
