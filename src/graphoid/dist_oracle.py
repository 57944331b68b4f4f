"""Concrete probability backends exposing a uniform conditional-independence oracle.

Two families are supported: discrete joint tables (dense arrays over the
Cartesian product of finite domains) and regular Gaussian models (mean vector
plus positive-definite covariance).  An explicit dependency model can also
back the oracle, answering from the variable masks of its graphoid closure;
a small table answers from the same kind of mask set, built from all its
verdicts at once, and a Gaussian from one row of conditional-covariance
dependencies per conditioning set.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSets, SingularConditioning, ZeroProbabilityEvidence
from .model_core import (
    DependencyModel,
    Universe,
    _as_name_set,
    _check_bound,
    _model_of_masks,
    _submasks,
    _validate_sets,
    names_from_json,
)

DISCRETE_TOL = 1e-9
GAUSSIAN_TOL = 1e-7
PROB_SUM_TOL = 1e-12
COV_SYMMETRY_TOL = 1e-12
CONDITION_LIMIT = 1e12
SPB_ENTRY_FLOOR = 1e-3
GAUSSIAN_RIDGE = 1e-2
MAX_EXTRACT_VARS = 5
# Largest grid (2^n variable subsets x table cells) a table oracle decides
# in one pass; a table past it, or past MAX_EXTRACT_VARS, asks the kernel
# per query.  It keeps the pass's arrays within a few megabytes whatever
# the domain sizes.
VERDICT_GRID_LIMIT = 1 << 13


def _numbers_from_json(value: object, what: str) -> object:
    """``value`` itself when it is a JSON number or nested lists of them; a
    bool, string, object or null anywhere in it raises ValueError."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{what} must hold only numbers, not {type(item).__name__}")
    return value


@dataclass(frozen=True, eq=False)
class JointTable:
    """Dense discrete joint distribution over a universe.

    ``probs`` is indexed by the mixed-radix encoding of full assignments with
    the last-listed variable varying fastest (C order).  Entries must be
    non-negative and sum to one within 1e-12.
    """

    universe: Universe
    probs: np.ndarray

    def __post_init__(self) -> None:
        shape = tuple(len(d) for d in self.universe.domains)
        if any(size < 2 for size in shape):
            raise ValueError("every variable of a joint table needs at least two values")
        arr = np.asarray(self.probs, dtype=float).reshape(shape)
        floor = float(arr.min())
        if not np.isfinite(arr).all() or floor < 0.0:
            raise ValueError("probabilities must be finite and non-negative")
        if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {arr.sum()!r}, not 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "_floor", floor)  # smallest entry

    def domain_size(self, name: str) -> int:
        return len(self.universe.domain(name))

    def marginal(self, names: tuple[str, ...]) -> np.ndarray:
        """Marginal array over ``names``, axes in the requested order."""
        keep = [self.universe.index(n) for n in names]
        ordered = sorted(keep)
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        m = self.probs.sum(axis=drop) if drop else self.probs
        return m.transpose([ordered.index(k) for k in keep])

    def to_json_dict(self) -> dict:
        return {
            "variables": [
                {"name": v, "values": list(d)}
                for v, d in zip(self.universe.variables, self.universe.domains)
            ],
            "probs": self.probs.ravel(order="C").tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointTable":
        variables = data["variables"]
        if not isinstance(variables, list) or not all(isinstance(v, dict) for v in variables):
            raise ValueError("variables must be a list of objects with a name and values")
        names = names_from_json([v["name"] for v in variables], "variable names")
        domains = tuple(
            names_from_json(v["values"], f"values of {name}")
            for name, v in zip(names, variables)
        )
        probs = _numbers_from_json(data["probs"], "probs")
        return cls(Universe(names, domains), np.asarray(probs, dtype=float))


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Regular Gaussian distribution: finite mean, positive-definite covariance."""

    universe: Universe
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.universe.variables)
        mean = np.asarray(self.mean, dtype=float).reshape(n)
        cov = np.asarray(self.covariance, dtype=float).reshape(n, n)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if float(np.abs(cov - cov.T).max(initial=0.0)) > COV_SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        # |covariance| as nested Python lists, so an unconditioned block's
        # largest entry is an exact ``max`` with no array built.
        object.__setattr__(self, "_abs_rows", np.abs(cov).tolist())
        object.__setattr__(self, "_factors", {})  # sorted z tuple -> see ``_factor``

    def _factor(self, zs: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor of the covariance block over ``zs`` and the covariance rows of ``zs``.

        ``zs`` is a sorted, non-empty name tuple.  The eigenvalue check and the
        factorization run once per tuple; a numerically singular block raises
        SingularConditioning on every call.
        """
        found = self._factors.get(zs)
        if found is None:
            zi = [self.universe.index(v) for v in zs]
            z_rows = self.covariance[zi]
            s_zz = z_rows[:, zi]
            eigs = np.linalg.eigvalsh(s_zz)
            singular = eigs[0] <= 0.0 or eigs[-1] / eigs[0] > CONDITION_LIMIT
            found = self._factors[zs] = () if singular else (np.linalg.cholesky(s_zz), z_rows)
        if not found:
            raise SingularConditioning(f"conditioning block over {zs} is numerically singular")
        return found

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.universe.variables),
            "mean": self.mean.tolist(),
            "cov": self.covariance.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GaussianModel":
        universe = Universe.reals(*names_from_json(data["variables"], "variables"))
        mean = _numbers_from_json(data["mean"], "mean")
        cov = _numbers_from_json(data["cov"], "cov")
        return cls(universe, np.asarray(mean), np.asarray(cov))


def marginalize(table: JointTable, keep: Iterable[str]) -> JointTable:
    """Sum out every variable not in ``keep``; the output sums to one."""
    kept = table.universe.require(keep)
    if not kept:
        raise ValueError("cannot marginalize away every variable")
    names = tuple(v for v in table.universe.variables if v in kept)
    return JointTable(table.universe.restricted_to(names), table.marginal(names))


def _check_value_index(value: object, n_values: int, var: str, error=ValueError) -> None:
    """Raise ``error`` unless ``value``, a value index of ``var``, is an int or
    numpy integer, not a bool, in [0, n_values)."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and 0 <= value < n_values):
        raise error(f"value index {value} out of range for {var}")


def condition_on(table: JointTable, var: str, value: int) -> JointTable:
    """Conditional distribution given ``var`` equals the value at ``value`` index."""
    axis = table.universe.index(var)
    _check_value_index(value, table.domain_size(var), var)
    slab = np.take(table.probs, value, axis=axis)
    mass = float(slab.sum())
    if mass <= 0.0:
        raise ZeroProbabilityEvidence(f"P({var}={value}) = 0")
    remaining = tuple(v for v in table.universe.variables if v != var)
    return JointTable(table.universe.restricted_to(remaining), slab / mass)


def ci_discrepancy_discrete(
    table: JointTable,
    x_set: Iterable[str] | str,
    y_set: Iterable[str] | str,
    z_set: Iterable[str] | str = (),
    tol: float = DISCRETE_TOL,
) -> float:
    """Largest |P(X|Y,Z) - P(X|Z)| over assignments with usable conditioning mass.

    Assignments whose conditioning event has probability at most ``tol``
    impose no constraint: the conditional is undefined (or the statement holds
    vacuously when P(Z) is zero).  An empty x_set or y_set gives 0.0 after
    validation, by trivial independence; ``ci_residual_gaussian`` does the same.
    When the table's smallest entry exceeds ``tol``, every conditioning event
    is usable, so the gap is taken over all assignments with no mask; the
    same divisions and subtractions run on every entry, so the answer is
    the one the masked computation gives.
    """
    xs, ys, zs = _validate_sets(table.universe, x_set, y_set, z_set)
    return _discrete_gap(table, xs, ys, zs, tol)


def _discrete_gap(
    table: JointTable, xs: tuple[str, ...], ys: tuple[str, ...], zs: tuple[str, ...], tol: float
) -> float:
    """``ci_discrepancy_discrete`` on a query already validated into sorted tuples."""
    if not xs or not ys:
        return 0.0
    m = table.marginal(xs + ys + zs)
    n_x, n_xy = len(xs), len(xs) + len(ys)
    d_x = math.prod(m.shape[:n_x])
    d_y = math.prod(m.shape[n_x:n_xy])
    d_z = math.prod(m.shape[n_xy:])
    p_xyz = m.reshape(d_x, d_y, d_z)
    p_yz = np.add.reduce(p_xyz, axis=0)
    p_xz = np.add.reduce(p_xyz, axis=1)
    p_z = np.add.reduce(p_yz, axis=0)
    gap = _abs_gap(p_xyz, p_yz, p_xz[:, None, :], p_z, tol, table._floor > tol)
    return float(np.maximum.reduce(gap, axis=None))


def _abs_gap(
    p_xyz: np.ndarray,
    p_yz: np.ndarray,
    p_xz: np.ndarray,
    p_z: np.ndarray,
    tol: float,
    positive: bool,
) -> np.ndarray:
    """|P(X|Y,Z) - P(X|Z)| entry by entry over the broadcast marginals, 0
    where P(Y,Z) or P(Z) is at most ``tol``; a new array.

    ``positive`` says the table's smallest entry exceeds ``tol``: a float sum
    of non-negative terms is at least each term, so every entry of p_yz and
    p_z exceeds tol too, and no mask is built.
    """
    if positive:
        gap = p_xyz / p_yz
        gap -= p_xz / p_z
        return np.abs(gap, out=gap)
    z_usable = p_z > tol
    usable = (p_yz > tol) & z_usable
    # Unusable entries are never divided and stay 0, so no warning can arise.
    right = np.divide(p_xz, p_z, out=np.zeros(p_xz.shape), where=z_usable)
    gap = np.divide(p_xyz, p_yz, out=np.zeros(p_xyz.shape), where=usable)
    np.subtract(gap, right, out=gap, where=usable)
    return np.abs(gap, out=gap)


def ci_holds_discrete(
    table: JointTable,
    x_set: Iterable[str] | str,
    y_set: Iterable[str] | str,
    z_set: Iterable[str] | str = (),
    tol: float = DISCRETE_TOL,
) -> bool:
    """Whether (x_set, y_set | z_set) holds for the table at tolerance ``tol``."""
    return ci_discrepancy_discrete(table, x_set, y_set, z_set, tol) <= tol


@functools.cache
def _table_queries(n: int) -> tuple[np.ndarray, list, list, tuple]:
    """Every query over ``n`` sorted variables, as masks (bit i is the i-th name).

    Returns the gather rows ``(x|y|z, y|z, x|z, z)`` of each query with two
    non-empty sides, as a (4, queries) index array; those queries as
    ``(x, y, z)`` in the orientation the oracle answers them in, and again
    with x and y swapped; and every trivially holding triple.  For disjoint
    sets the smaller sorted tuple is the side that holds the lowest variable
    of x|y.
    """
    full = (1 << n) - 1
    queries, trivial = [], []
    for z in range(full + 1):
        free = full ^ z
        for x in _submasks(free):
            trivial += ((x, 0, z), (0, x, z))
            if x:
                low = x & -x
                queries += ((x, y, z) for y in _submasks(free ^ x) if y & -y > low)
    rows = np.array([(x | y | z, y | z, x | z, z) for x, y, z in queries], dtype=np.intp)
    swapped = [(y, x, z) for x, y, z in queries]
    return rows.reshape(-1, 4).T, queries, swapped, tuple(trivial)


def _held_masks(n: int, holds: list[bool]) -> set[tuple[int, int, int]]:
    """The held ``(x, y, z)`` masks over ``n`` variables, given the verdict of
    each query of ``_table_queries(n)`` in its order: both orientations and
    every trivial triple included."""
    _, queries, swapped, trivial = _table_queries(n)
    held = set(trivial)
    held.update(itertools.compress(queries, holds))
    held.update(itertools.compress(swapped, holds))
    return held


def _table_gaps(table: JointTable, names: tuple[str, ...], tol: float) -> np.ndarray:
    """``_discrete_gap`` of every query of ``_table_queries`` over ``names``, in one pass.

    Row m of the grid is the marginal over the names at the set bits of m,
    broadcast back to every cell of the table.  The full row is the table;
    step i fills every row with bit i clear and all higher bits set from the
    row with bit i set too, by one sum over names[i].  Each query gathers its
    four marginals from the grid; the largest gap over all cells is the
    largest over the marginal's cells, each of which the broadcast repeats.
    """
    n, shape = len(names), table.probs.shape
    grid = np.empty((1 << n,) + shape)
    bits = grid.reshape((2,) * n + shape)  # axis k is bit n-1-k of the row
    bits[(1,) * n] = table.probs
    for i, name in enumerate(names):
        higher = (1,) * (n - 1 - i)
        axis = i + table.universe.index(name)
        bits[higher + (0,)] = bits[higher + (1,)].sum(axis=axis, keepdims=True)
    rows = _table_queries(n)[0]
    p_xyz, p_yz, p_xz, p_z = grid.reshape(1 << n, -1).take(rows, axis=0)
    gap = _abs_gap(p_xyz, p_yz, p_xz, p_z, tol, table._floor > tol)
    return np.maximum.reduce(gap, axis=1)


def _table_verdicts(table: JointTable, tol: float) -> set[tuple[int, int, int]]:
    """Every verdict of ``table`` at ``tol``, as the held ``(x, y, z)`` masks
    of ``_held_masks``."""
    names = table.universe.sets.names
    return _held_masks(len(names), (_table_gaps(table, names, tol) <= tol).tolist())


def ci_residual_gaussian(
    g: GaussianModel,
    x_set: Iterable[str] | str,
    y_set: Iterable[str] | str,
    z_set: Iterable[str] | str = (),
) -> float:
    """Largest |entry| of the X-Y block of the covariance conditioned on Z.

    The conditional block is the Schur complement S_XY - S_XZ S_ZZ^-1 S_ZY,
    computed through the Cholesky factor of S_ZZ that the model keeps per Z;
    with Z empty it is S_XY itself, read from the model's |covariance| rows.
    Values given to the conditioning variables never enter: the answer is a
    covariance property.  An empty x_set or y_set gives 0.0 after
    validation, as in the discrete kernel.
    """
    xs, ys, zs = _validate_sets(g.universe, x_set, y_set, z_set)
    return _gaussian_residual(g, xs, ys, zs)


def _gaussian_residual(
    g: GaussianModel, xs: tuple[str, ...], ys: tuple[str, ...], zs: tuple[str, ...]
) -> float:
    """``ci_residual_gaussian`` on a query already validated into sorted tuples."""
    if not xs or not ys:
        return 0.0
    index = g.universe.index
    xi = [index(v) for v in xs]
    yi = [index(v) for v in ys]
    if not zs:
        abs_rows = g._abs_rows
        return max(abs_rows[i][j] for i in xi for j in yi)
    chol, z_rows = g._factor(zs)
    w_y = np.linalg.solve(chol, z_rows[:, yi])
    w_x = np.linalg.solve(chol, z_rows[:, xi])
    block = g.covariance[xi][:, yi] - w_x.T @ w_y
    return float(np.abs(block).max())


def _dependency_row(g: GaussianModel, zs: tuple[str, ...], tol: float) -> list[int]:
    """For each variable, bit i being the i-th sorted name, the mask of the
    variables j outside ``zs`` with |Σ_ij·zs| > ``tol``; 0 for a variable in ``zs``.

    ``(X, Y | zs)`` holds exactly when no member of X has a bit in Y, the
    kernel's "largest |entry| of the X-Y block at most tol".  With ``zs``
    empty the entries are the model's |covariance| rows, the kernel's own
    floats; otherwise one solve against the kept factor covers every free
    column, and a singular block raises as the kernel does.
    """
    names = g.universe.sets.names
    free = [i for i, v in enumerate(names) if v not in zs]
    cols = [g.universe.index(names[i]) for i in free]
    if zs:
        chol, z_rows = g._factor(zs)
        w = np.linalg.solve(chol, z_rows[:, cols])
        entries = np.abs(g.covariance[cols][:, cols] - w.T @ w).tolist()
    else:
        abs_rows = g._abs_rows
        entries = [[abs_rows[i][j] for j in cols] for i in cols]
    row = [0] * len(names)
    for i, dependent in zip(free, entries):
        row[i] = sum(1 << j for j, entry in zip(free, dependent) if entry > tol)
    return row


@dataclass(frozen=True)
class CiOracle:
    """Uniform conditional-independence query surface over any backend.

    The backend is a JointTable, a GaussianModel, or a DependencyModel.
    ``ci``, the one public ask, reads its three sets as variable masks
    (bit i is the i-th sorted name) with ``_query_masks``, from the
    ``masks`` of the universe's ``sets``, which every oracle over the same
    names shares.  A set not yet there, or masks that overlap, send the query
    to ``_validate_sets``, which raises its own error; only the sets of a
    valid query are stored.
    It then answers ``_holds`` on those masks, the one decision path; the
    package's network construction, relation sweeps and suites, which hold
    masks already, ask ``_holds`` directly with disjoint masks.  ``_holds``
    puts the masks in one canonical orientation, the side with the lower
    lowest bit (or the empty side) first, which is the smaller sorted tuple
    first; so ``ci(x, y, z) == ci(y, x, z)`` whichever was asked first.
    Tables of at most MAX_EXTRACT_VARS variables (and a grid within
    VERDICT_GRID_LIMIT) and models answer by one membership test in
    ``_verdicts()``, the set of held ``(x, y, z)`` masks, both orientations
    and the trivial triples included.  A model's set is its graphoid
    closure, computed once per model and kept on it (a model past the
    closure bound raises UniverseTooLarge at every valid query).  A table
    oracle builds its set on its first query, in one vectorized pass over
    every query at its tolerance (``_table_verdicts``), and keeps it.  Every
    other oracle answers through ``_decide``, given the canonical masks, and
    keeps what it learns in ``_memo`` (None on the membership path); it
    reads a mask's sorted tuple with the universe's ``sets.tuple_of``.  A
    Gaussian holds trivially when a side is empty; otherwise its memo keeps
    one ``_dependency_row`` per conditioning mask, built at the first such
    query on it, and the query holds when no member of x has a dependency
    bit in y.  A singular conditioning block stores nothing and raises
    SingularConditioning at every such query.  A table past those bounds
    asks its kernel (``_gap``, given the sets' sorted tuples) and memoizes
    the verdict, gap at most the tolerance, on the canonical masks.
    ``discrepancy`` always runs ``_gap``.  The oracle and its backends are
    immutable, which keeps the verdicts valid for the oracle's lifetime.
    An oracle also keeps ``_given``, the conditioned oracles through which
    ``ci_given_value`` answers value-specific statements about a table, and
    ``_screening``, the minimal screening set found by network construction
    for each node and predecessor mask, so a network rebuilt on the same
    oracle asks nothing.
    The tolerance must be a finite, non-negative number, never a bool; None
    picks the backend's default.  It is the only tolerance the checks in
    ``relevance`` use.  A model oracle takes none: its verdicts are exact.
    """

    backend: JointTable | GaussianModel | DependencyModel
    tolerance: float | None = None

    def __post_init__(self) -> None:
        backend, tol = self.backend, self.tolerance
        if tol is not None and (isinstance(tol, bool) or not (math.isfinite(tol) and tol >= 0.0)):
            raise ValueError("tolerance must be finite and non-negative")
        tuple_of = backend.universe.sets.tuple_of
        verdicts = decide = memo = None

        if isinstance(backend, JointTable):
            tol = DISCRETE_TOL if tol is None else tol

            def gap(xs, ys, zs) -> float:
                return _discrete_gap(backend, xs, ys, zs, tol)

            n = len(backend.universe.variables)
            if n <= MAX_EXTRACT_VARS and backend.probs.size << n <= VERDICT_GRID_LIMIT:

                @functools.cache  # a table's verdicts, built at the first query
                def verdicts() -> set[tuple[int, int, int]]:
                    return _table_verdicts(backend, tol)

            else:
                memo = {}  # canonical (x, y, z) masks -> verdict

                def decide(query: tuple[int, int, int]) -> bool:
                    verdict = memo.get(query)
                    if verdict is None:
                        verdict = memo[query] = gap(*map(tuple_of, query)) <= tol
                    return verdict

        elif isinstance(backend, GaussianModel):
            tol = GAUSSIAN_TOL if tol is None else tol
            memo = {}  # z mask -> its ``_dependency_row``

            def gap(xs, ys, zs) -> float:
                return _gaussian_residual(backend, xs, ys, zs)

            def decide(query: tuple[int, int, int]) -> bool:
                x, y, z = query
                if not x or not y:
                    return True
                row = memo.get(z)
                if row is None:
                    row = memo[z] = _dependency_row(backend, tuple_of(z), tol)
                while x:
                    low = x & -x
                    if row[low.bit_length() - 1] & y:
                        return False
                    x ^= low
                return True

        elif isinstance(backend, DependencyModel):
            if tol is not None:
                raise ValueError("a dependency model oracle takes no tolerance")
            tol, gap = 0.0, None

            def verdicts() -> set[tuple[int, int, int]]:
                return backend._closure

        else:
            raise TypeError(f"unsupported backend {type(backend).__name__}")
        object.__setattr__(self, "tolerance", tol)
        object.__setattr__(self, "_gap", gap)
        object.__setattr__(self, "_verdicts", verdicts)
        object.__setattr__(self, "_decide", decide)
        object.__setattr__(self, "_memo", memo)
        # (pivot, value index) -> oracle over the table conditioned on that
        # value, or None when the value has no usable mass; tables only.
        object.__setattr__(self, "_given", {})
        # (node bit, mask of its predecessors) -> minimal screening set;
        # read and written by ``bayesnet.build_network`` only.
        object.__setattr__(self, "_screening", {})

    @property
    def universe(self) -> Universe:
        return self.backend.universe

    def _query_masks(
        self,
        x_set: Iterable[str] | str,
        y_set: Iterable[str] | str,
        z_set: Iterable[str] | str,
    ) -> tuple[int, int, int]:
        """The masks of the query's sets, in the order given, read from the
        universe's ``sets.masks``."""
        x, y, z = _as_name_set(x_set), _as_name_set(y_set), _as_name_set(z_set)
        sets = self.backend.universe.sets
        known = sets.masks
        mx, my, mz = known.get(x), known.get(y), known.get(z)
        if mx is None or my is None or mz is None or mx & my or mx & mz or my & mz:
            _validate_sets(self.universe, x, y, z)  # raises the query's own error
            mx, my, mz = map(sets.mask_of, (x, y, z))
            known.update(((x, mx), (y, my), (z, mz)))
        return mx, my, mz

    def _holds(self, x: int, y: int, z: int) -> bool:
        """The verdict on disjoint masks over the sorted names, asked in the
        canonical orientation."""
        query = (y, x, z) if y & -y < x & -x else (x, y, z)
        verdicts = self._verdicts
        return self._decide(query) if verdicts is None else query in verdicts()

    def ci(
        self,
        x_set: Iterable[str] | str,
        y_set: Iterable[str] | str,
        z_set: Iterable[str] | str = (),
    ) -> bool:
        return self._holds(*self._query_masks(x_set, y_set, z_set))

    def ci_given_value(
        self,
        x_set: Iterable[str] | str,
        y_set: Iterable[str] | str,
        e_var: str,
        value: int,
    ) -> bool:
        """Whether (x_set, y_set) holds given the pivot ``e_var`` at one value index.

        On a table ``value`` must be an int or numpy integer (not a bool)
        inside the pivot's domain, else ValueError.  A table answers through
        one memoized oracle per (pivot, value) over the conditioned table, at
        this oracle's tolerance; the statement holds vacuously when the value
        has probability at most the tolerance.
        Conditioning a Gaussian on a pivot value shifts only the mean, so its
        answer is ``ci(x_set, y_set, {e_var})`` for every value.  Undefined for
        a dependency-model backend.
        """
        backend = self.backend
        if isinstance(backend, GaussianModel):
            return self.ci(x_set, y_set, (e_var,))
        if not isinstance(backend, JointTable):
            raise TypeError("value-specific independence needs a table or Gaussian backend")
        _check_value_index(value, backend.domain_size(e_var), e_var)
        key = (e_var, value)
        if key not in self._given:
            mass = float(backend.marginal((e_var,))[value])
            self._given[key] = (
                None if mass <= self.tolerance
                else CiOracle(condition_on(backend, e_var, value), self.tolerance)
            )
        given = self._given[key]
        return given is None or given.ci(x_set, y_set)

    def discrepancy(
        self,
        x_set: Iterable[str] | str,
        y_set: Iterable[str] | str,
        z_set: Iterable[str] | str = (),
    ) -> float:
        """Numeric gap behind the verdict, taken in the orientation ``ci`` answers in.

        Defined for table and Gaussian backends.
        """
        if self._gap is None:
            raise TypeError("discrepancy is undefined for a dependency-model backend")
        x, y, z = self._query_masks(x_set, y_set, z_set)
        if y & -y < x & -x:  # the orientation ``_holds`` asks in
            x, y = y, x
        tuple_of = self.universe.sets.tuple_of
        return self._gap(tuple_of(x), tuple_of(y), tuple_of(z))


def extract_model(oracle: CiOracle) -> DependencyModel:
    """Dependency model holding exactly the triplets the oracle affirms.

    Each query of ``_table_queries`` (both sides non-empty, in the canonical
    orientation) is asked once, in masks.  The oracle's contract supplies the
    rest: ``ci(y, x, z) == ci(x, y, z)``, and a triple with an empty side holds.
    """
    _check_bound(oracle.universe, MAX_EXTRACT_VARS, "extraction bound")
    n = len(oracle.universe.variables)
    holds = list(itertools.starmap(oracle._holds, _table_queries(n)[1]))
    return _model_of_masks(oracle.universe, _held_masks(n, holds))


def random_spb(n: int, seed: int) -> JointTable:
    """Strictly positive binary distribution over ``n`` variables, seeded.

    Entries are drawn uniformly from [1e-3, 1) and normalized, keeping every
    configuration bounded away from zero.
    """
    if not 2 <= n <= 6:
        raise ValueError("random_spb supports 2..6 variables")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(SPB_ENTRY_FLOOR, 1.0, size=2**n)
    universe = Universe.binary(*(f"u{i + 1}" for i in range(n)))
    return JointTable(universe, raw / raw.sum())


def random_gaussian(n: int, seed: int) -> GaussianModel:
    """Regular Gaussian over ``n`` variables: covariance A @ A.T + 0.01 I, seeded."""
    if not 2 <= n <= 8:
        raise ValueError("random_gaussian supports 2..8 variables")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    mean = rng.uniform(-1.0, 1.0, size=n)
    cov = a @ a.T + GAUSSIAN_RIDGE * np.eye(n)
    universe = Universe.reals(*(f"u{i + 1}" for i in range(n)))
    return GaussianModel(universe, mean, cov)


def xor_table() -> JointTable:
    """Two independent fair coins x, y plus z recording the joint outcome.

    x and y stay independent both marginally and given z, yet each is
    dependent on z; the distribution is the stock example of pairwise
    relevance failing to chain.
    """
    coin = ("head", "tail")
    pair = tuple(f"{a},{b}" for a in coin for b in coin)
    universe = Universe(("x", "y", "z"), (coin, coin, pair))
    probs = np.zeros((2, 2, 4))
    for i in range(2):
        for j in range(2):
            probs[i, j, 2 * i + j] = 0.25
    return JointTable(universe, probs)


def product_table(left: JointTable, right: JointTable) -> JointTable:
    """Independent product of two tables over disjoint variable sets."""
    if left.universe.names & right.universe.names:
        raise InvalidSets("product requires disjoint universes")
    universe = Universe(
        left.universe.variables + right.universe.variables,
        left.universe.domains + right.universe.domains,
    )
    return JointTable(universe, np.multiply.outer(left.probs, right.probs))
