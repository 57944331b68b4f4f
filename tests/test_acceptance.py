"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one PASS line (visible under ``pytest -s``) with the
measured wall time; the assertions carry the actual contract.
"""

import itertools
import time

import numpy as np

from graphoid import (
    CiOracle,
    SeparationQuery,
    d_separated,
    is_transitive,
    mutually_irrelevant,
    random_gaussian,
    random_spb,
    uncoupled,
    unrelated,
    xor_table,
)
from graphoid.bayesnet import random_dag
from graphoid.suites import run_suite

from dsep_reference import burglary_network, d_separated_by_enumeration

SEED = 0


def _passed(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {number:2d}: {label} ({elapsed:.1f}s)")


def test_criterion_01_graphoid_extraction():
    started = time.perf_counter()
    report = run_suite("axioms", seed=SEED, n_vars=4, samples=200)
    assert report.ok, report.failures[:3]
    _passed(1, "extracted models satisfy the graphoid axioms", started, 60)


def test_criterion_02_dsep_soundness():
    started = time.perf_counter()
    report = run_suite("dsep-soundness", seed=SEED, n_vars=5, samples=200)
    assert report.ok, report.failures[:3]
    _passed(2, "network separation implies table independence", started, 120)


def test_criterion_03_alarm_story_goldens():
    started = time.perf_counter()
    dag = burglary_network()
    q = SeparationQuery.make
    assert d_separated(dag, q({"sensorB"}, {"sensorA"}, {"burglary"}))
    assert not d_separated(dag, q({"sensorB"}, {"sensorA"}, {"burglary", "patrol"}))
    assert d_separated(dag, q({"burglary"}, {"patrol"}, {"sensorB", "alarm"}))
    _passed(3, "alarm-story separation goldens", started, 1)


def test_criterion_04_component_invariance():
    started = time.perf_counter()
    report = run_suite("components", seed=SEED, n_vars=4, samples=100)
    assert report.ok, report.failures[:3]
    _passed(4, "components identical across all 24 orders", started, 120)


def test_criterion_05_uncoupled_equals_unrelated():
    started = time.perf_counter()
    mismatches = []
    for i in range(100):
        oracle = CiOracle(random_spb(4, SEED + i))
        for a, b in itertools.combinations(sorted(oracle.universe.variables), 2):
            if uncoupled(oracle, a, b).holds != unrelated(oracle, a, b).holds:
                mismatches.append((SEED + i, a, b))
    assert mismatches == []
    _passed(5, "brute-force uncoupled matches network unrelated", started, 120)


def test_criterion_06_relevant_implies_coupled_and_strict_gap():
    started = time.perf_counter()
    oracles = [CiOracle(random_spb(4, SEED + i)) for i in range(60)]
    oracles += [CiOracle(random_gaussian(4, SEED + i)) for i in range(30)]
    for oracle in oracles:
        for a, b in itertools.combinations(sorted(oracle.universe.variables), 2):
            if not mutually_irrelevant(oracle, a, b).holds:
                assert not uncoupled(oracle, a, b).holds

    xor_oracle = CiOracle(xor_table())
    assert mutually_irrelevant(xor_oracle, "x", "y").holds
    assert not uncoupled(xor_oracle, "x", "y").holds
    result = is_transitive(xor_oracle)
    assert not result.holds
    assert result.witness == ("x", "z", "y")
    _passed(6, "relevance implies coupling; paired-coin gap exact", started, 120)


def test_criterion_07_partition_implication_never_violated():
    started = time.perf_counter()
    report = run_suite("clean", seed=SEED, n_vars=5, samples=500)
    assert report.ok, report.failures[:3]
    _passed(7, "partition implication clean on tables and Gaussians", started, 600)


def test_criterion_08_block_form_agreement():
    started = time.perf_counter()
    report = run_suite("pt-bin", seed=SEED, n_vars=5, samples=200)
    assert report.ok, report.failures[:3]
    _passed(8, "block form agrees with partition form, no violations", started, 120)


def test_criterion_09_gaussian_properties():
    started = time.perf_counter()
    report = run_suite("gaussian-props", seed=SEED, n_vars=5, samples=100)
    assert report.ok, report.failures[:3]
    _passed(9, "composition and weak transitivity hold for Gaussians", started, 120)


def test_criterion_10_transitivity():
    started = time.perf_counter()
    report = run_suite("transitivity", seed=SEED, n_vars=5, samples=200)
    assert report.ok, report.failures[:3]
    _passed(10, "samples transitive, paired-coin fixture not", started, 300)


def test_criterion_11_similarity_network_equivalence():
    started = time.perf_counter()
    report = run_suite("simnet-equiv", seed=SEED, n_vars=5, samples=50)
    assert report.ok, report.failures[:3]
    _passed(11, "inclusion rules coincide; chain rule reconstructs", started, 300)


def test_criterion_12_dsep_implementations_agree():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    disagreements = []
    for case in range(1000):
        dag = random_dag(int(rng.integers(2, 7)), 8, rng)
        names = dag.universe.variables
        for a, b in itertools.combinations(names, 2):
            rest = sorted(set(names) - {a, b})
            for z_codes in itertools.product((0, 1), repeat=len(rest)):
                z = {v for v, c in zip(rest, z_codes) if c}
                q = SeparationQuery.make({a}, {b}, z)
                if d_separated(dag, q) != d_separated_by_enumeration(dag, q):
                    disagreements.append((case, a, b, sorted(z)))
    assert disagreements == []
    _passed(12, "reachability matches trail enumeration on 1000 dags", started, 60)
