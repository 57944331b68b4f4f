"""Span tracing of graphoid's public functions, installed from outside the package.

``Tracer.install`` replaces each target function at every place it is bound:
module functions are found by scanning the dicts of all loaded ``graphoid``
modules for the original object (``from .dist_oracle import x`` copies the
name into the importing module), and methods are patched on their class.
``Tracer.uninstall`` puts every original back.

Spans are kept in flat arrays while the run lasts: a name id, the index of
the parent span, a start and an end time.  Per-layer statistics are derived
from them afterwards, so the only cost inside the timed section is four
appends and two clock reads per call.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

ROOT = "other"

# (layer name, module, attribute): the attribute is "Class.method" for methods.
TARGETS = (
    ("model_core.graphoid_closure", "graphoid.model_core", "graphoid_closure"),
    ("model_core.check_graphoid_axioms", "graphoid.model_core", "check_graphoid_axioms"),
    ("dist_oracle.ci", "graphoid.dist_oracle", "CiOracle.ci"),
    ("dist_oracle.ci_discrete", "graphoid.dist_oracle", "ci_discrepancy_discrete"),
    ("dist_oracle.ci_gaussian", "graphoid.dist_oracle", "ci_residual_gaussian"),
    ("dist_oracle.marginal", "graphoid.dist_oracle", "JointTable.marginal"),
    ("dist_oracle.marginalize", "graphoid.dist_oracle", "marginalize"),
    ("dist_oracle.condition_on", "graphoid.dist_oracle", "condition_on"),
    ("dist_oracle.table_init", "graphoid.dist_oracle", "JointTable.__post_init__"),
    ("dist_oracle.extract_model", "graphoid.dist_oracle", "extract_model"),
    ("bayesnet.build_network", "graphoid.bayesnet", "build_network"),
    ("bayesnet.d_separated", "graphoid.bayesnet", "d_separated"),
    ("bayesnet.connected_components", "graphoid.bayesnet", "connected_components"),
    ("bayesnet.factorization_max_error", "graphoid.bayesnet", "factorization_max_error"),
    ("relevance.mutually_irrelevant", "graphoid.relevance", "mutually_irrelevant"),
    ("relevance.uncoupled", "graphoid.relevance", "uncoupled"),
    ("relevance.unrelated", "graphoid.relevance", "unrelated"),
    ("relevance.is_transitive", "graphoid.relevance", "is_transitive"),
    ("relevance.check_clean", "graphoid.relevance", "check_clean"),
    ("relevance.check_pt_bin", "graphoid.relevance", "check_pt_bin"),
    ("relevance.gaussian_axioms_check", "graphoid.relevance", "gaussian_axioms_check"),
    ("simnet.types_equivalent", "graphoid.simnet", "types_equivalent"),
    ("simnet.build_similarity", "graphoid.simnet", "build_similarity"),
)

NUMERIC_CI = ("dist_oracle.ci_discrete", "dist_oracle.ci_gaussian")


def resolve(module: str, attr: str):
    """The (owner, name, original) triple a target names."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, owner.__dict__[attr]


def graphoid_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "graphoid" or name.startswith("graphoid."))
    ]


def binding_sites(original) -> list[tuple[object, str]]:
    """Every (module, name) among the graphoid modules bound to ``original``."""
    return [
        (mod, name)
        for mod in graphoid_modules()
        for name, value in list(vars(mod).items())
        if value is original
    ]


def _as_set(names) -> frozenset:
    return frozenset((names,)) if isinstance(names, str) else frozenset(names)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # Per-call observations, recorded after the call's span has closed.
        self.ci_keys: list[tuple] = []
        self.net_keys: list[tuple] = []
        self.clean_status: list[str] = []
        self.closure_sizes: list[tuple[int, int, int]] = []  # (span, n, triplets out)
        # Keys hold id(oracle); keeping each oracle alive keeps its id unique.
        self._alive: dict[int, object] = {}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body, under the innermost open span."""
        idx = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        nid = self.name_index(layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        observe = self._observer(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def _observer(self, layer: str):
        if layer == "dist_oracle.ci":
            def observe(idx, args, kwargs, result):
                oracle, x, y = args[0], args[1], args[2]
                z = args[3] if len(args) > 3 else kwargs.get("z_set", ())
                self._alive[id(oracle)] = oracle
                self.ci_keys.append(
                    (id(oracle), frozenset((_as_set(x), _as_set(y))), _as_set(z))
                )
            return observe
        if layer == "bayesnet.build_network":
            def observe(idx, args, kwargs, result):
                oracle = args[0]
                self._alive[id(oracle)] = oracle
                self.net_keys.append((id(oracle), result.construction_order))
            return observe
        if layer == "relevance.check_clean":
            def observe(idx, args, kwargs, result):
                self.clean_status.append(result.status)
            return observe
        if layer == "model_core.graphoid_closure":
            def observe(idx, args, kwargs, result):
                self.closure_sizes.append(
                    (idx, len(result.universe.variables), len(result.triplets))
                )
            return observe
        return None

    def install(self) -> None:
        """Wrap every target at every binding site; methods on their class."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module, attr in TARGETS:
            owner, name, original = resolve(module, attr)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                sites = [(owner, name)]
            else:
                sites = binding_sites(original)
            for site, site_name in sites:
                self._patches.append((site, site_name, original))
                setattr(site, site_name, wrapper)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- analysis -------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        _, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent."""
        _, parent, start, end = self.arrays()
        top = parent < 0
        return float((end[top] - start[top]).sum())

    def layer_stats(self) -> dict[str, dict]:
        """calls, self seconds and inclusive latency quantiles per span name."""
        names, parent, start, end = self.arrays()
        dur = end - start
        self_t = self.self_times()
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            calls = int(mask.sum())
            entry = {"calls": calls, "self_s": float(self_t[mask].sum())}
            if calls:
                p50, p90 = np.percentile(dur[mask], [50, 90])
                entry["us_p50"] = float(p50) * 1e6
                entry["us_p90"] = float(p90) * 1e6
            out[name] = entry
        return out

    def bypass_calls(self) -> int:
        """Numeric CI evaluations with no CiOracle.ci span above them."""
        names, parent, _, _ = self.arrays()
        ci_id = self._ids.get("dist_oracle.ci", -1)
        numeric = [self._ids[n] for n in NUMERIC_CI if n in self._ids]
        spans = np.flatnonzero(np.isin(names, numeric))
        ancestor = parent[spans]
        inside = np.zeros(len(spans), dtype=bool)
        while (live := ancestor >= 0).any():
            inside[live] |= names[ancestor[live]] == ci_id
            ancestor[live] = parent[ancestor[live]]
        return int((~inside).sum())

    def closure_by_n(self) -> dict[int, dict]:
        self_t = self.self_times()
        out: dict[int, dict] = defaultdict(lambda: {"self_s": 0.0, "triplets_out": 0})
        for idx, n, size in self.closure_sizes:
            out[n]["self_s"] += float(self_t[idx])
            out[n]["triplets_out"] += size
        return dict(out)

    def write(self, path) -> None:
        """Save the spans as arrays, with the name table alongside."""
        names, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=names, parent=parent,
                 start=start, end=end)


def repeat_ratio(keys: list) -> float:
    """Share of keys seen earlier in the same list; 0 for an empty list."""
    if not keys:
        return 0.0
    counts = Counter(keys)
    return (len(keys) - len(counts)) / len(keys)
