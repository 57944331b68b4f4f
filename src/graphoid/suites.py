"""Seeded verification suites exercising the package's theorem-level claims.

Each suite runs a deterministic sweep at desk scale and reports failures as
structured records.  The JSON form of a report depends only on the inputs,
the seed, and the flags; timing lives in the human summary alone so reports
stay byte-identical across runs.

``SUITES`` declares every suite once: its body, the ``n_vars`` range it runs
at and its default scale.  ``run_suite`` checks the scale and builds the
report; a body only judges cases, and every random distribution it judges
comes from ``_draws``.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bayesnet import _separated, build_network, connected_components, factorization_max_error
from .dist_oracle import (
    CiOracle,
    JointTable,
    extract_model,
    random_gaussian,
    random_spb,
    xor_table,
)
from .model_core import (
    Universe,
    VariableSets,
    _size_lex_submasks,
    check_graphoid_axioms,
    label_blocks,
)
from .relevance import (
    ANTECEDENT_FAILS,
    CONSEQUENT_HOLDS,
    VIOLATION,
    PtBinBlocks,
    _implication,
    check_clean,
    check_pt_bin,
    gaussian_axioms_check,
    is_transitive,
    mutually_irrelevant,
    uncoupled,
    unrelated,
)
from .simnet import HypothesisCover, build_similarity, types_equivalent

CHAIN_RULE_TOL = 1e-9


@dataclass
class SuiteReport:
    """Cases run, failures found, and the seed that reproduces them.

    ``outcomes`` optionally counts the cases by how they ended; a suite that
    keeps it makes the counts sum to ``cases``.
    """

    suite: str
    seed: int
    params: dict
    cases: int = 0
    failures: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # wall_time stays out: reports must be byte-identical given the
        # same inputs, seed, and flags.
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
        }
        if self.outcomes:
            out["outcomes"] = self.outcomes
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        line = (
            f"suite {self.suite}: {self.cases} cases, {state}, "
            f"seed {self.seed}, {self.wall_time:.2f}s"
        )
        if self.outcomes:
            line += "; outcomes " + ", ".join(f"{k} {v}" for k, v in self.outcomes.items())
        return line


def _draws(generator, seed: int, count: int, n_max: int, n_min: int = 2):
    """Yield ``(draw seed, n, generator(n, draw seed))`` for draw seeds
    ``seed`` up to ``seed + count - 1``, with n cycling from ``n_min`` to
    ``n_max``."""
    span = range(n_min, n_max + 1)
    for i in range(count):
        n = span[i % len(span)]
        yield seed + i, n, generator(n, seed + i)


def _fail(report: SuiteReport, /, **record) -> None:
    # Positional-only, so that a record may carry a key named "report".
    report.failures.append(dict(sorted(record.items())))


def suite_axioms(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """Models extracted from random tables must satisfy all five axioms."""
    for s, n, table in _draws(random_spb, seed, samples, n_vars):
        violations = check_graphoid_axioms(extract_model(CiOracle(table)))
        report.cases += 1
        if violations:
            _fail(
                report,
                case=s - seed,
                n=n,
                table_seed=s,
                violations=[v.axiom for v in violations[:5]],
            )


def suite_dsep_soundness(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """Every separation read off a constructed network must hold in the table."""
    rng = np.random.default_rng(seed)
    for s, _, table in _draws(random_spb, seed, samples, n_vars):
        oracle = CiOracle(table)
        names = list(table.universe.variables)
        sets = table.universe.sets
        full = (1 << len(names)) - 1
        # Each singleton pair (a, b), by sorted names, under every z in
        # size-then-lex order, as the masks both the walk and the oracle read.
        queries = [
            (a, b, z)
            for a, b in itertools.combinations(sets.bit.values(), 2)
            for z in _size_lex_submasks(full ^ a ^ b)
        ]
        for _ in range(3):
            order = tuple(names[k] for k in rng.permutation(len(names)))
            dag = build_network(oracle, order)
            report.cases += len(queries)
            for a, b, z in queries:
                if _separated(dag, a, b, z) and not oracle._holds(a, b, z):
                    _fail(report, case=s - seed, order=list(order), table_seed=s,
                          pair=[*sets.tuple_of(a | b)], z=list(sets.tuple_of(z)))


def suite_components(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """Component structure must not depend on the construction order."""
    for s, _, table in _draws(random_spb, seed, samples, n_vars, n_vars):
        oracle = CiOracle(table)
        partitions = {
            connected_components(build_network(oracle, perm))
            for perm in itertools.permutations(table.universe.variables)
        }
        report.cases += 1
        if len(partitions) != 1:
            _fail(
                report,
                case=s - seed,
                distinct_partitions=sorted(str(p) for p in partitions),
                table_seed=s,
            )


def _relation_checks(report: SuiteReport, oracle: CiOracle, label: str) -> None:
    for a, b in itertools.combinations(oracle.universe.sets.names, 2):
        mi = mutually_irrelevant(oracle, a, b)
        uc = uncoupled(oracle, a, b)
        ur = unrelated(oracle, a, b)
        report.cases += 1
        if uc.holds != ur.holds:
            _fail(report, kind="uncoupled_vs_unrelated", source=label, pair=[a, b],
                  uncoupled=uc.holds, unrelated=ur.holds)
        if uc.holds and not mi.holds:
            _fail(report, kind="relevant_implies_coupled", source=label, pair=[a, b])


def suite_relations(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """Uncoupled must equal unrelated, and relevance must imply coupling.

    The paired-coin fixture must show the strict gap between irrelevance and
    uncoupling, with the known non-transitivity witness.
    """
    xor = CiOracle(xor_table())
    report.cases += 1
    gap_ok = (
        mutually_irrelevant(xor, "x", "y").holds
        and not uncoupled(xor, "x", "y").holds
        and not unrelated(xor, "x", "y").holds
    )
    trans = is_transitive(xor)
    if not gap_ok or trans.holds or trans.witness != ("x", "z", "y"):
        _fail(report, kind="xor_fixture", gap_ok=gap_ok,
              transitive=trans.holds, witness=list(trans.witness or ()))

    for s, _, table in _draws(random_spb, seed, samples, n_vars, n_vars):
        _relation_checks(report, CiOracle(table), f"spb:{s}")
    gaussians = report.params["gaussian_samples"] = max(1, samples // 4)
    for s, _, g in _draws(random_gaussian, seed + 10_000, gaussians, n_vars, n_vars):
        _relation_checks(report, CiOracle(g), f"gaussian:{s}")


@functools.cache
def _live_by_x_split(ground_size: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """First-side masks ``(a, ((b, c), ...))`` of the x-, y- and z-splits of
    a ground set whose cells a & b & c and ~a & ~b & ~c are both non-empty,
    grouped by x-split in ``itertools.product`` order."""
    full = (1 << ground_size) - 1
    sides = range(1, full)
    groups = []
    for a in sides:
        live = tuple((b, c) for b in sides for c in sides if a & b & c and full & ~(a | b | c))
        if live:
            groups.append((a, live))
    return tuple(groups)


CLEAN_OUTCOMES = ("i1", "i2", "i3", CONSEQUENT_HOLDS, VIOLATION)


def _clean_sweep(report: SuiteReport, dist, label: str) -> None:
    """Run the partition-triple check on every live triple of one distribution.

    A triple with an empty cell x1 & y1 & z1 or x2 & y2 & z2 fails the
    antecedent by structure alone, so it is not counted.  The split masks
    are over the names but the pivot, so each is lifted past the pivot's bit
    into a mask over all the names.  Premise i1 depends only on the pivot
    and the x-split: it is asked once per (pivot, x-split), in those masks,
    and where it fails every live triple sharing that x-split is counted as
    failing i1.  The implication core ``_implication`` judges every other
    triple on its lifted masks; names are decoded only for a violation's
    record.
    """
    sets = dist.universe.sets
    names = sets.names
    oracle = CiOracle(dist)  # one set of verdicts for every case over this distribution
    groups = _live_by_x_split(len(names) - 1)
    outcomes = report.outcomes
    everything = (1 << len(names)) - 1
    for e_var, pivot in sets.bit.items():
        below, ground = pivot - 1, everything ^ pivot
        # each split's first side, lifted
        lifted = [(m & below) | (m & ~below) << 1 for m in range(1 << (len(names) - 1))]
        for a, live in groups:
            report.cases += len(live)
            x1 = lifted[a]
            if not oracle._holds(x1, ground ^ x1, 0):
                outcomes["i1"] += len(live)
                continue
            for b, c in live:
                y1, z1 = lifted[b], lifted[c]
                cells = x1 & y1 & z1, ground ^ (x1 | y1 | z1)
                result = _implication(oracle, pivot, x1, y1, z1, *cells)
                # Live cells leave a failed premise as the only antecedent failure.
                failed = result.status == ANTECEDENT_FAILS
                outcomes[result.detail if failed else result.status] += 1
                if result.status == VIOLATION:
                    tuple_of = sets.tuple_of
                    _fail(report, source=label, e=e_var, x1=list(tuple_of(x1)),
                          y1=list(tuple_of(y1)), z1=list(tuple_of(z1)))


def suite_clean(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """The partition-triple implication must never be violated.

    Exhaustive over every partition triple with both cells non-empty, through
    five variables; run over both random binary tables and random Gaussians.
    ``outcomes`` counts the cases by the first premise that fails, or by the
    conclusion's status when all three hold.
    """
    report.outcomes = dict.fromkeys(CLEAN_OUTCOMES, 0)
    report.params["gaussian_samples"] = samples
    for s, _, table in _draws(random_spb, seed, samples, n_vars, 3):
        _clean_sweep(report, table, f"spb:{s}")
    for s, _, g in _draws(random_gaussian, seed + 100_000, samples, n_vars, 3):
        _clean_sweep(report, g, f"gaussian:{s}")


# Attempts drawn at once by ``_random_blocks``.
BLOCK_ATTEMPTS = 64


def _random_blocks(rng: np.random.Generator, ground: VariableSets) -> PtBinBlocks:
    """Random eight-way block assignment of the names of ``ground`` with both
    first blocks non-empty; one code is drawn per name in sorted order.

    Rejection sampling: an attempt draws ``len(ground.names)`` codes and is
    kept when both block 0 and block 4 get a name.  ``BLOCK_ATTEMPTS``
    attempts are drawn in one call; the generator is then rewound and draws,
    in one more call, exactly the codes up to the first kept attempt.  A
    range of eight takes one 32-bit output per code, so the codes and the
    generator's final state are those of drawing one attempt per call.
    """
    k = len(ground.names)
    while True:
        state = rng.bit_generator.state
        codes = rng.integers(8, size=(BLOCK_ATTEMPTS, k))
        kept = np.flatnonzero((codes == 0).any(axis=1) & (codes == 4).any(axis=1))
        if kept.size:
            j = int(kept[0])
            rng.bit_generator.state = state
            codes = rng.integers(8, size=(j + 1) * k)[j * k:]
            return PtBinBlocks(*label_blocks(ground, codes.tolist(), 8))


def suite_pt_bin(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """The eight-block reformulation must agree with the partition form.

    Agreement is checked on random (table, blocks) pairs whose first blocks
    are non-empty (the partition form requires non-empty intersection cells),
    and no sweep may produce a violation.
    """
    rng = np.random.default_rng(seed)
    for s, _, table in _draws(random_spb, seed, samples, n_vars, 3):
        names = table.universe.sets.names
        e_var = names[int(rng.integers(len(names)))]
        blocks = _random_blocks(rng, table.universe.restricted_to(set(names) - {e_var}).sets)
        report.cases += 1
        oracle = CiOracle(table)
        by_blocks = check_pt_bin(oracle, blocks, e_var)
        by_partitions = check_clean(oracle, blocks.as_partition_triple(e_var))
        if (by_blocks.status, by_blocks.r1_holds, by_blocks.r2_holds) != (
            by_partitions.status,
            by_partitions.r1_holds,
            by_partitions.r2_holds,
        ):
            _fail(report, kind="disagreement", table_seed=s, e=e_var,
                  blocks=[sorted(b) for b in blocks.as_tuple()],
                  block_result=by_blocks.to_json_dict(),
                  partition_result=by_partitions.to_json_dict())
        if by_blocks.status == VIOLATION:
            _fail(report, kind="violation", table_seed=s, e=e_var,
                  blocks=[sorted(b) for b in blocks.as_tuple()])


def suite_gaussian_props(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """Composition and marginal weak transitivity must hold for Gaussians."""
    report.params["unification"] = "structurally_satisfied"
    for s, _, g in _draws(random_gaussian, seed, samples, n_vars, 3):
        violations = gaussian_axioms_check(g)
        report.cases += 1
        if violations:
            _fail(report, case=s - seed, model_seed=s,
                  violations=[v.prop for v in violations[:5]])


def suite_transitivity(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """Random binary tables and Gaussians must be transitive; the paired-coin
    fixture must not be."""
    report.cases += 1
    xor_result = is_transitive(CiOracle(xor_table()))
    if xor_result.holds or xor_result.witness != ("x", "z", "y"):
        _fail(report, kind="xor_fixture", holds=xor_result.holds,
              witness=list(xor_result.witness or ()))

    for s, _, table in _draws(random_spb, seed, samples, n_vars):
        report.cases += 1
        result = is_transitive(CiOracle(table))
        if not result.holds:
            _fail(report, kind="spb", table_seed=s,
                  witness=list(result.witness))
    gaussians = report.params["gaussian_samples"] = max(1, samples // 2)
    for s, _, g in _draws(random_gaussian, seed + 100_000, gaussians, n_vars):
        report.cases += 1
        result = is_transitive(CiOracle(g))
        if not result.holds:
            _fail(report, kind="gaussian", model_seed=s,
                  witness=list(result.witness))


def xor_hypothesis_table() -> JointTable:
    """The paired-coin table with the first coin relabeled as a hypothesis."""
    base = xor_table()
    renamed = Universe(("h", "y", "z"), base.universe.domains)
    return JointTable(renamed, base.probs)


def _chain_rule_errors(table: JointTable, cover: HypothesisCover, net_type: int):
    net = build_similarity(table, cover, net_type)
    for ln in net.locals:
        yield ln, factorization_max_error(ln.table, ln.dag)


def suite_simnet_equiv(report: SuiteReport, seed: int, n_vars: int, samples: int) -> None:
    """The two inclusion rules must coincide on strictly positive tables.

    The paired-coin hypothesis fixture must diverge exactly on the second
    coin, and every local network must reconstruct its restricted joint.
    """
    fixture = xor_hypothesis_table()
    fixture_cover = HypothesisCover("h", ((0, 1),))
    outcome = types_equivalent(fixture, fixture_cover)
    report.cases += 1
    if outcome.equivalent or [d.only_related for d in outcome.divergences] != [("y",)]:
        _fail(report, kind="xor_fixture", report=outcome.to_json_dict())

    for s, _, table in _draws(random_spb, seed, samples, n_vars):
        h = table.universe.variables[0]
        cover = HypothesisCover(h, ((0, 1),))
        report.cases += 1
        outcome = types_equivalent(table, cover)
        if not outcome.equivalent:
            _fail(report, kind="divergence", table_seed=s,
                  report=outcome.to_json_dict())
        for net_type in (1, 2):
            for ln, err in _chain_rule_errors(table, cover, net_type):
                report.cases += 1
                if err > CHAIN_RULE_TOL:
                    _fail(report, kind="chain_rule", table_seed=s,
                          net_type=net_type, hypotheses=list(ln.hypotheses),
                          error=err)


class Suite(NamedTuple):
    """A suite body, the ``n_vars`` range it runs at, and its default scale."""

    run: Callable[[SuiteReport, int, int, int], None]
    low: int
    high: int
    n_vars: int
    samples: int


SUITES = {
    "axioms": Suite(suite_axioms, 2, 4, 4, 200),
    "dsep-soundness": Suite(suite_dsep_soundness, 2, 5, 5, 200),
    "components": Suite(suite_components, 2, 6, 4, 100),
    "relations": Suite(suite_relations, 2, 5, 4, 100),
    "clean": Suite(suite_clean, 3, 5, 5, 500),
    "pt-bin": Suite(suite_pt_bin, 3, 5, 5, 200),
    "gaussian-props": Suite(suite_gaussian_props, 3, 6, 5, 100),
    "transitivity": Suite(suite_transitivity, 2, 5, 5, 200),
    "simnet-equiv": Suite(suite_simnet_equiv, 2, 5, 5, 50),
}


def run_suite(
    name: str,
    seed: int = 0,
    n_vars: int | None = None,
    samples: int | None = None,
) -> SuiteReport:
    """Run a named suite at ``n_vars`` and ``samples``, by default its own scale.

    Unknown names raise KeyError.  A ``seed``, ``n_vars`` or ``samples`` that
    is a bool or not an int, a negative seed, ``samples < 1`` and an
    ``n_vars`` outside the sizes the suite runs at raise ValueError before
    anything is drawn.  The report records the scale that ran and the wall
    time of the run.
    """
    suite = SUITES[name]
    n_vars = suite.n_vars if n_vars is None else n_vars
    samples = suite.samples if samples is None else samples
    for arg, value in (("seed", seed), ("n_vars", n_vars), ("samples", samples)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{arg} must be an integer, got {value!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    # Reject an n_vars the suite would not run at, rather than clamp it.
    if not suite.low <= n_vars <= suite.high:
        raise ValueError(f"suite {name} runs at n_vars {suite.low}..{suite.high}, got {n_vars}")
    report = SuiteReport(name, seed, {"n_vars": n_vars, "samples": samples})
    started = time.perf_counter()
    suite.run(report, seed, n_vars, samples)
    report.wall_time = time.perf_counter() - started
    return report
