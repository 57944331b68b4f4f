"""The four benchmark workloads.

Each workload turns the run's seed into inputs in ``setup`` and then runs
fixed passes over them.  A pass runs the workload's ``operations()`` in
order, each a call into graphoid's public API (a suite run; the closure
pipeline over the models of one size; for ``cli-cold``, one fresh
``graphoid`` process).  Every operation's output is checked, and a failed
check marks the operation failed.  ``span`` opens a traced span; each suite
call gets one, so that a suite's own time is reported apart from the
library's.

Calls that a traced run must see go through the ``graphoid`` package
attributes, which the tracer rebinds; a name imported into this module
would keep pointing at the untraced function.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphoid
from graphoid import (
    CiOracle,
    DependencyModel,
    Triplet,
    Universe,
    build_network,
    check_clean,
    d_separated,
    is_transitive,
    mutually_irrelevant,
    random_spb,
    run_suite,
    types_equivalent,
    uncoupled,
    unrelated,
)
from graphoid.bayesnet import SeparationQuery
from graphoid.model_core import subsets
from graphoid.relevance import VIOLATION, PartitionTriple
from graphoid.simnet import HypothesisCover

# Seeds are spread this far apart so that two run seeds share no suite table
# (suites draw their tables from seed + i for i below 110 000).
SUITE_SEED_STRIDE = 1_000_000

QUERY_SUITES = ("axioms", "dsep-soundness", "components", "relations",
                "transitivity", "simnet-equiv")
SWEEP_SUITES = ("clean", "pt-bin", "gaussian-props")

# Dense closure grows about tenfold per variable; n=7 dense is the costly
# model.  A sparse n=7 model would add 4-5 s a pass whose length varies by
# half with the seed, so sparse models stop at n=6.
CLOSURE_SIZES = (5, 6, 7)
SPARSE_SIZES = (5, 6)
SPARSE_GENERATORS = 3

CLI_COMMANDS = ("randgen", "ci", "relations", "transitive", "build-net", "dsep",
                "clean-check", "simnet", "suite")
CLI_SUITE_SAMPLES = 20


@dataclass
class Op:
    """One timed operation and the outcome of its output checks."""

    label: str
    seconds: float
    ok: bool
    detail: dict = field(default_factory=dict)


def _null_span(name):
    return contextlib.nullcontext()


class SuiteWorkload:
    """Named suites at acceptance scale, one ``run_suite`` call per operation."""

    def __init__(self, suites: tuple[str, ...]) -> None:
        self.suites = suites

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed * SUITE_SEED_STRIDE
        for name in self.suites:  # warm-up: every code path once, tiny scale
            run_suite(name, seed=self.seed, samples=2)

    def operations(self) -> list:
        return [functools.partial(self._suite, name) for name in self.suites]

    def _suite(self, name: str, span=_null_span) -> Op:
        label = f"suites.{name}"
        started = time.perf_counter()
        with span(label):
            report = run_suite(name, seed=self.seed)
        seconds = time.perf_counter() - started
        text = report.to_json()
        return Op(label, seconds, report.ok and report.cases > 0, {
            "cases": report.cases,
            "failures": len(report.failures),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        })


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def dense_model(n: int) -> DependencyModel:
    """Every singleton pair independent under every conditioning set."""
    names = _names(n)
    triplets = [
        Triplet.make({a}, {b}, z)
        for a, b in itertools.combinations(names, 2)
        for z in subsets(set(names) - {a, b})
    ]
    return DependencyModel.of(Universe.binary(*names), triplets)


def sparse_model(n: int, rng: np.random.Generator, count: int) -> DependencyModel:
    """``count`` random triplets with non-empty x and y sets."""
    names = _names(n)
    triplets = []
    while len(triplets) < count:
        codes = rng.integers(4, size=n)
        if (codes == 1).any() and (codes == 2).any():
            x, y, z = ([v for v, c in zip(names, codes) if c == k] for k in (1, 2, 3))
            triplets.append(Triplet.make(x, y, z))
    return DependencyModel.of(Universe.binary(*names), triplets)


def closure_pipeline(model: DependencyModel) -> tuple[bool, dict]:
    """Close, check the axioms, then sweep pair queries through a model oracle.

    The closure must contain the generators and pass the axiom check.  The
    oracle answers from its own closure of the generators (its first query
    pays for it), and every answer must match membership in the closure
    computed first.
    """
    closed = graphoid.graphoid_closure(model)
    violations = graphoid.check_graphoid_axioms(closed)
    oracle = CiOracle(model)
    names = model.universe.variables
    queries = mismatches = 0
    for a, b in itertools.combinations(names, 2):
        for z in subsets(set(names) - {a, b}):
            queries += 1
            mismatches += oracle.ci({a}, {b}, z) != (Triplet.make({a}, {b}, z) in closed.triplets)
    ok = not violations and model.triplets <= closed.triplets and not mismatches
    return ok, {"triplets_in": len(model.triplets), "triplets_out": len(closed.triplets),
                "violations": len(violations), "queries": queries, "mismatches": mismatches}


class ClosureWorkload:
    """Sparse and dense dependency models closed, checked and queried.

    One operation runs the pipeline over every model of one size, so that
    each lasts long enough to be timed as a whole.
    """

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.groups = []
        for n in CLOSURE_SIZES:
            models = [sparse_model(n, rng, SPARSE_GENERATORS)] if n in SPARSE_SIZES else []
            self.groups.append((f"closure.n{n}", models + [dense_model(n)]))
        closure_pipeline(sparse_model(4, rng, SPARSE_GENERATORS))  # warm-up

    def operations(self) -> list:
        return [functools.partial(self._group, label, models) for label, models in self.groups]

    def _group(self, label: str, models: list, span=_null_span) -> Op:
        started = time.perf_counter()
        results = [closure_pipeline(model) for model in models]
        return Op(label, time.perf_counter() - started,
                  all(ok for ok, _ in results), {"models": [d for _, d in results]})


@dataclass
class CliCall:
    """One subcommand, its expected exit code, and what its output must be.

    ``expect`` is either the first word the command prints or the JSON value
    its output must parse to; ``report`` names the file a command writes its
    JSON to instead of stdout.
    """

    command: str
    args: list[str]
    expect_code: int
    expect: object
    report: Path | None = None


def timed_process(argv: list[str], env: dict, stdout_path: Path) -> tuple[float, int, float]:
    """Spawn, wait, and return (seconds from spawn to exit, exit code, maxrss MiB)."""
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


class CliWorkload:
    """A fixed sequence of ``graphoid`` subcommands, each a fresh process."""

    def __init__(self, env: dict) -> None:
        self.env = env  # must put graphoid on the child's path
        self.peak_rss_mb = 0.0

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        table = random_spb(4, seed)
        rng = np.random.default_rng(seed)
        order = [table.universe.variables[k] for k in rng.permutation(4)]
        oracle = CiOracle(table)
        dag = build_network(oracle, order)
        spb, net = workdir / "spb.json", workdir / "net.json"
        spb.write_text(json.dumps(table.to_json_dict()))
        net.write_text(json.dumps(dag.to_json_dict()))
        pt = PartitionTriple(frozenset({"u1"}), frozenset({"u2", "u3"}),
                             frozenset({"u1", "u2"}), frozenset({"u3"}),
                             frozenset({"u1"}), frozenset({"u2", "u3"}), "u4")
        cover = HypothesisCover("u1", ((0, 1),))
        suite_seed = seed * SUITE_SEED_STRIDE
        suite = run_suite("transitivity", seed=suite_seed, samples=CLI_SUITE_SAMPLES)
        equivalence = types_equivalent(table, cover)
        clean = check_clean(table, pt)
        transitive = is_transitive(oracle)
        ci_holds = oracle.ci({"u1"}, {"u2"}, {"u3"})
        separated = d_separated(dag, SeparationQuery.make({"u1"}, {"u4"}, {"u2"}))
        self.calls = [
            CliCall("randgen", ["randgen", "spb", "4", "--seed", str(seed)], 0,
                    table.to_json_dict()),
            CliCall("ci", ["ci", str(spb), "u1", "u2", "--given", "u3"],
                    0 if ci_holds else 1, "holds" if ci_holds else "fails"),
            CliCall("relations", ["relations", str(spb), "u1", "u2"], 0, {
                "mutually_irrelevant": mutually_irrelevant(oracle, "u1", "u2").to_json_dict(),
                "uncoupled": uncoupled(oracle, "u1", "u2").to_json_dict(),
                "unrelated": unrelated(oracle, "u1", "u2").to_json_dict(),
            }),
            CliCall("transitive", ["transitive", str(spb)], 0 if transitive.holds else 1,
                    transitive.to_json_dict()),
            CliCall("build-net", ["build-net", str(spb), "--order", ",".join(order)], 0,
                    dag.to_json_dict()),
            CliCall("dsep", ["dsep", str(net), "u1", "u4", "--given", "u2"],
                    0 if separated else 1, "d-separated" if separated else "connected"),
            CliCall("clean-check", ["clean-check", str(spb), "--e", "u4", "--x1", "u1",
                                    "--y1", "u1,u2", "--z1", "u1"],
                    1 if clean.status == VIOLATION else 0, clean.to_json_dict()),
            CliCall("simnet", ["simnet", str(spb), "--hypothesis", "u1", "--cover", "0,1",
                               "--compare-types"],
                    0 if equivalence.equivalent else 1, equivalence.to_json_dict()),
            CliCall("suite", ["suite", "transitivity", "--seed", str(suite_seed),
                              "--samples", str(CLI_SUITE_SAMPLES),
                              "--report", str(workdir / "suite.json")],
                    0 if suite.ok else 1, suite.to_json_dict(), workdir / "suite.json"),
        ]
        self._run(self.calls[0])  # warm-up: byte-compile and page in the package

    def operations(self) -> list:
        return [functools.partial(self._run, call) for call in self.calls]

    def _run(self, call: CliCall, span=_null_span) -> Op:
        out = self.workdir / f"{call.command}.out"
        argv = [sys.executable, "-m", "graphoid.cli", *call.args]
        seconds, code, rss = timed_process(argv, self.env, out)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        text = (call.report or out).read_text()
        if isinstance(call.expect, str):
            output_ok = text.split()[:1] == [call.expect]
        else:
            try:
                output_ok = json.loads(text) == json.loads(json.dumps(call.expect))
            except json.JSONDecodeError:
                output_ok = False
        return Op(f"cli.{call.command}", seconds, code == call.expect_code and output_ok,
                  {"code": code})


def make(name: str, env: dict):
    """The named workload; ``env`` is the environment for child processes."""
    if name == "suites-query":
        return SuiteWorkload(QUERY_SUITES)
    if name == "suites-sweep":
        return SuiteWorkload(SWEEP_SUITES)
    if name == "closure":
        return ClosureWorkload()
    if name == "cli-cold":
        return CliWorkload(env)
    raise ValueError(f"unknown workload {name!r}")
