"""Tests of the benchmark's tracer and of its output contract.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import signal
import statistics
import time

import numpy
import pytest

import graphoid
import graphoid.cli  # noqa: F401  (loads every graphoid module)
import run
import workloads
from reference import REFERENCE_S, Reference
from tracer import (ROOT, TARGETS, Tracer, binding_sites, graphoid_modules, repeat_ratio,
                    resolve)

ORIGINALS = {layer: resolve(module, attr)[2] for layer, module, attr in TARGETS}


def bindings() -> dict:
    """Every (module or class, name) -> object binding the tracer may touch."""
    out = {(mod.__name__, name): value
           for mod in graphoid_modules() for name, value in vars(mod).items()}
    for layer, module, attr in TARGETS:
        owner, name, value = resolve(module, attr)
        if isinstance(owner, type):
            out[(owner.__qualname__, name)] = value
    return out


def test_every_target_is_wrapped_while_tracing():
    tracer = Tracer()
    with tracer:
        for layer, original in ORIGINALS.items():
            assert binding_sites(original) == [], layer
            _, module, attr = next(t for t in TARGETS if t[0] == layer)
            owner, name, current = resolve(module, attr)
            assert current is not original and current.__wrapped_original__ is original


def test_uninstall_restores_every_binding():
    before = bindings()
    with Tracer():
        assert bindings() != before
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_binding_sites_include_copied_names():
    sites = {(mod.__name__, name) for mod, name in binding_sites(graphoid.graphoid_closure)}
    assert ("graphoid.model_core", "graphoid_closure") in sites
    assert ("graphoid.dist_oracle", "graphoid_closure") in sites
    assert ("graphoid", "graphoid_closure") in sites


class Probe:
    """A workload whose operation records which closure function it reached."""

    def __init__(self):
        self.seen = []

    def operations(self):
        return [self._close]

    def _close(self, span=workloads._null_span):
        self.seen.append(graphoid.graphoid_closure)
        model = workloads.sparse_model(4, numpy.random.default_rng(0), 3)
        started = time.perf_counter()
        ok, _ = workloads.closure_pipeline(model)
        return workloads.Op("closure.n4", time.perf_counter() - started, ok)


@pytest.mark.parametrize("traced_first", [False, True])
def test_untraced_runs_see_the_original_functions(traced_first):
    probe = Probe()
    plain, spanned, _ = run.run_pairs(probe, seconds=1e-9, traced_first=traced_first)
    assert len(plain) == len(spanned) == 1
    first, second = probe.seen
    untraced, traced = (second, first) if traced_first else (first, second)
    assert untraced is ORIGINALS["model_core.graphoid_closure"]
    assert traced.__wrapped_original__ is untraced
    assert graphoid.graphoid_closure is untraced


def test_untraced_passes_run_every_operation():
    probe = Probe()
    passes = run.run_passes(probe, seconds=1e-9, reference=Reference())
    assert len(passes) == 1 and [op.label for op in passes[0][0]] == ["closure.n4"]
    assert probe.seen == [ORIGINALS["model_core.graphoid_closure"]]


def test_reference_clock_leaves_out_the_samples():
    reference = Reference()
    with reference.timer():
        started, wall = reference.clock(), time.perf_counter()
        while len(reference.samples) < 3:
            pass
        clocked, wall = reference.clock() - started, time.perf_counter() - wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert clocked == pytest.approx(wall - reference.spent_s, abs=1e-3)
    assert reference.spent_s > sum(reference.samples)  # each sample is timed warm
    assert reference.scale() == pytest.approx(REFERENCE_S / statistics.fmean(reference.samples))


def test_reference_mean_leaves_out_the_outer_tenths():
    reference = Reference()
    reference.samples = [0.001] * 18 + [0.0001, 0.05]
    assert reference.mean_s() == pytest.approx(0.001)
    assert reference.scale(first=18) == pytest.approx(REFERENCE_S / 0.02505)


def test_reported_self_times_add_up_to_the_traced_wall():
    plain, spanned, tracer = run.run_pairs(Probe(), seconds=1e-9, traced_first=False)
    out = run.per_layer(plain, spanned, tracer, Probe())
    assert out["model_core.graphoid_closure.calls"] == 2  # direct, then the oracle's
    assert out["model_core.check_graphoid_axioms.calls"] == 1
    parts = [v for k, v in out.items()
             if k.endswith(".self_s") and not k.startswith("model_core.graphoid_closure.n")]
    assert all(v >= 0 for v in parts)
    assert sum(parts) == pytest.approx(out["trace.wall_s"], rel=1e-9)
    assert out["trace.wall_s"] <= spanned[0][1]


def test_bypass_and_repeat_counts():
    table = graphoid.random_spb(3, 0)
    oracle = graphoid.CiOracle(table)
    tracer = Tracer()
    with tracer, tracer.span(ROOT):
        oracle.ci("u1", "u2", "u3")
        graphoid.ci_holds_discrete(table, "u1", "u2")
        oracle.ci({"u2"}, ["u1"], ("u3",))  # the first query with x and y swapped
        graphoid.CiOracle(table).ci("u1", "u2", "u3")
    assert tracer.bypass_calls() == 1
    assert repeat_ratio(tracer.ci_keys) == pytest.approx(1 / 3)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_cold_run_reports_every_metric(trace, section, capsys):
    assert run.main(["--workload", "cli-cold", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    spec = run.load_spec()
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
