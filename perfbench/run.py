#!/usr/bin/env python3
"""Run one graphoid benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suites-query --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
times calibrated against the host's speed by ``reference.py``;
``--trace 1`` runs each operation untraced and traced in turn and reports
the per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(machine, versions, every operation, suite report hashes) is written under
``.perfbench-out/``, and a traced run also leaves its spans there.
"""

import os

# Pin the BLAS thread pools before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Reference  # noqa: E402
from tracer import ROOT as ROOT_SPAN, TARGETS, Tracer, repeat_ratio  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("suites-query", "suites-sweep", "closure", "cli-cold")
SETUP_REPEATS = 15
SETUP_REFERENCE_SAMPLES = 5  # reference samples after each set-up process
PROBE_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_setup(args, reference: Reference) -> list[float]:
    """Spawn-to-exit seconds of fresh processes that only set the workload up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
        for _ in range(SETUP_REFERENCE_SAMPLES):
            reference.sample()
    return samples


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(workload, seconds: float, reference: Reference) -> list:
    """Untraced passes until the next one would end past ``seconds``; at least one.

    Returns (operations, wall seconds) per pass.  The reference loop is
    sampled after each operation, and the wall leaves out its time.
    """
    passes = []
    begun = time.perf_counter()
    while True:
        started = reference.clock()
        ops = []
        for op in workload.operations():
            ops.append(op())
            reference.sample()
        passes.append((ops, reference.clock() - started))
        cost = statistics.median(w for _, w in passes)
        if time.perf_counter() - begun + cost > seconds:
            return passes


def run_pairs(workload, seconds: float, traced_first: bool):
    """Passes in which each operation runs untraced and traced back to back.

    The two runs of an operation are close in time, so a change of host
    speed falls between them less often than between whole passes.  Which
    run goes first alternates from one operation to the next.  A pass's wall
    is the sum of its operations' walls.  Returns the untraced passes, the
    traced passes and the tracer.
    """
    tracer = Tracer()
    plain, spanned = [], []
    begun = time.perf_counter()
    while True:
        ops = {False: [], True: []}
        walls = {False: 0.0, True: 0.0}
        for op in workload.operations():
            for traced in (traced_first, not traced_first):
                started = time.perf_counter()
                if traced:
                    with tracer, tracer.span(ROOT_SPAN):
                        ops[True].append(op(tracer.span))
                else:
                    ops[False].append(op())
                walls[traced] += time.perf_counter() - started
            traced_first = not traced_first
        plain.append((ops[False], walls[False]))
        spanned.append((ops[True], walls[True]))
        cost = statistics.median(a + b for (_, a), (_, b) in zip(plain, spanned))
        if time.perf_counter() - begun + cost > seconds:
            return plain, spanned, tracer


def end_to_end(workload, plain, setup_samples, setup_scale: float, wall_scale: float) -> dict:
    """The end-to-end metrics, times calibrated by the reference loop."""
    import workloads

    if isinstance(workload, workloads.CliWorkload):
        rss = workload.peak_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup_samples) * setup_scale,
        "wall_s": statistics.median(w for _, w in plain) * wall_scale,
        "peak_rss_mb": rss,
    }


def per_layer(plain, spanned, tracer, workload) -> dict:
    """Every per-layer statistic this benchmark knows, zero where unexercised."""
    import workloads as wl
    from graphoid.relevance import CONSEQUENT_HOLDS, VIOLATION

    passes = len(spanned)
    stats = tracer.layer_stats()
    out = {}
    for layer in [t[0] for t in TARGETS]:
        entry = stats.get(layer, {})
        out[f"{layer}.calls"] = entry.get("calls", 0) / passes
        out[f"{layer}.self_s"] = entry.get("self_s", 0.0) / passes
        out[f"{layer}.us_p50"] = entry.get("us_p50", 0.0)
        out[f"{layer}.us_p90"] = entry.get("us_p90", 0.0)
    out["dist_oracle.ci.repeat_ratio"] = repeat_ratio(tracer.ci_keys)
    out["dist_oracle.ci.bypass_calls"] = tracer.bypass_calls() / passes
    out["bayesnet.build_network.repeat_ratio"] = repeat_ratio(tracer.net_keys)
    reached = sum(s in (CONSEQUENT_HOLDS, VIOLATION) for s in tracer.clean_status)
    out["relevance.check_clean.consequent_ratio"] = (
        reached / len(tracer.clean_status) if tracer.clean_status else 0.0
    )
    by_n = tracer.closure_by_n()
    for n in wl.CLOSURE_SIZES:
        entry = by_n.get(n, {"self_s": 0.0, "triplets_out": 0})
        out[f"model_core.graphoid_closure.n{n}.self_s"] = entry["self_s"] / passes
        out[f"model_core.graphoid_closure.n{n}.triplets_out"] = entry["triplets_out"] / passes

    for suite in wl.QUERY_SUITES + wl.SWEEP_SUITES:
        label = f"suites.{suite}"
        walls = [op.seconds for ops, _ in plain for op in ops if op.label == label]
        cases = [op.detail["cases"] for ops, _ in plain for op in ops if op.label == label]
        out[f"{label}.wall_s"] = statistics.median(walls) if walls else 0.0
        out[f"{label}.self_s"] = stats.get(label, {}).get("self_s", 0.0) / passes
        out[f"{label}.cases"] = cases[0] if cases else 0

    for command in wl.CLI_COMMANDS:
        times = [op.seconds * 1e3 for ops, _ in plain for op in ops
                 if op.label == f"cli.{command}"]
        out[f"cli.{command}.ms_p50"] = statistics.median(times) if times else 0.0
    calls = [op.seconds * 1e3 for ops, _ in plain for op in ops if op.label.startswith("cli.")]
    out["cli.call_ms_p50"] = quantile(calls, 50) if calls else 0.0
    out["cli.call_ms_p90"] = quantile(calls, 90) if calls else 0.0
    out["cli.import_ms"] = out["cli.interpreter_ms"] = 0.0
    if isinstance(workload, wl.CliWorkload):
        out["cli.import_ms"], out["cli.interpreter_ms"] = probe_cli_floor(workload)

    out["other.self_s"] = stats[ROOT_SPAN]["self_s"] / passes
    out["trace.wall_s"] = tracer.root_seconds() / passes
    out["trace.overhead_ratio"] = sum(w for _, w in spanned) / sum(w for _, w in plain) - 1.0
    return out


def probe_cli_floor(workload) -> tuple[float, float]:
    """Median in-process import time of graphoid.cli, and of a bare interpreter."""
    from workloads import timed_process

    importing = ("import time; t = time.perf_counter(); import graphoid.cli; "
                 "print(time.perf_counter() - t)")
    out = workload.workdir / "probe.out"
    imports, bare = [], []
    for _ in range(PROBE_REPEATS):
        timed_process([sys.executable, "-c", importing], child_env(), out)
        imports.append(float(out.read_text()) * 1e3)
        bare.append(timed_process([sys.executable, "-c", "pass"], child_env(), out)[0] * 1e3)
    return statistics.median(imports), statistics.median(bare)


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "graphoid" / "__init__.py").is_file():
        print(f"error: no graphoid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, child_env())
        if args.setup_only:
            workload.setup(args.seed, workdir)
            return 0
        if args.trace:
            workload.setup(args.seed, workdir)
            plain, spanned, tracer = run_pairs(workload, args.seconds, args.seed % 2 == 1)
            values = per_layer(plain, spanned, tracer, workload)
            wanted = spec["per_layer"]
            setup_samples, reference, uncalibrated = [], None, {}
        else:
            reference = Reference()
            setup_samples = time_setup(args, reference)
            setup_scale = reference.scale()
            workload.setup(args.seed, workdir)
            # A CLI call runs in a child process, which a timer sample would compete with.
            timer = (contextlib.nullcontext() if isinstance(workload, workloads.CliWorkload)
                     else reference.timer())
            first = len(reference.samples)
            with timer:
                plain = run_passes(workload, args.seconds, reference)
            spanned, tracer = [], None
            values = end_to_end(workload, plain, setup_samples, setup_scale,
                                reference.scale(first))
            wanted = spec["end_to_end"]
            uncalibrated = {"setup_s": statistics.median(setup_samples),
                            "wall_s": statistics.median(w for _, w in plain),
                            "reference_s": reference.mean_s(first)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for ops, _ in plain + spanned for op in ops]
    failed = sum(not op.ok for op in ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup_samples_s": setup_samples,
        "reference_samples_s": reference.samples if reference else [],
        "uncalibrated": uncalibrated,
        "pass_walls_s": [w for _, w in plain],
        "traced_pass_walls_s": [w for _, w in spanned],
        "ops": [vars(op) for op in ops],
        "attempted": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.npz")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for name, value in uncalibrated.items():
        print(f"{args.workload} uncalibrated {name} {value:.6g} s")
    print(f"{args.workload} failed_ratio {failed}/{len(ops)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
