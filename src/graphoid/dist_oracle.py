"""Concrete probability backends exposing a uniform conditional-independence oracle.

Two families are supported: discrete joint tables (dense arrays over the
Cartesian product of finite domains) and regular Gaussian models (mean vector
plus positive-definite covariance).  An explicit dependency model can also
back the oracle, answering from the variable masks of its graphoid closure.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSets,
    SingularConditioning,
    UniverseTooLarge,
    ZeroProbabilityEvidence,
)
from .model_core import (
    DependencyModel,
    Triplet,
    Universe,
    _as_name_set,
    _closed_masks,
    _validate_sets,
    iter_disjoint_triples,
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
        object.__setattr__(self, "_marginals", {})  # sorted axis tuple -> summed array
        object.__setattr__(self, "_views", {})  # requested name tuple -> transposed view
        object.__setattr__(self, "_floor", floor)  # smallest entry

    @property
    def strictly_positive(self) -> bool:
        return self._floor > 0.0

    def domain_size(self, name: str) -> int:
        return len(self.universe.domain(name))

    def marginal(self, names: tuple[str, ...]) -> np.ndarray:
        """Read-only marginal array over ``names``, axes in the requested order.

        The sum over the dropped axes is computed once per variable subset and
        kept on the table; the transposed view of it is kept per name tuple.
        """
        names = tuple(names)
        view = self._views.get(names)
        if view is None:
            keep = [self.universe.index(n) for n in names]
            ordered = tuple(sorted(keep))
            m = self._marginals.get(ordered)
            if m is None:
                drop = tuple(i for i in range(self.probs.ndim) if i not in ordered)
                m = self.probs.sum(axis=drop) if drop else self.probs
                m.setflags(write=False)
                self._marginals[ordered] = m
            view = self._views[names] = m.transpose([ordered.index(k) for k in keep])
        return view

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
        if float(np.abs(cov - cov.T).max()) > COV_SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.universe.variables)})
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
            zi = [self._index[v] for v in zs]
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


def is_value_index(value: object, n_values: int) -> bool:
    """Whether ``value`` is an int or numpy integer, not a bool, in [0, n_values)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return False
    return 0 <= value < n_values


def condition_on(table: JointTable, var: str, value: int) -> JointTable:
    """Conditional distribution given ``var`` equals the value at ``value`` index."""
    axis = table.universe.index(var)
    if not is_value_index(value, table.domain_size(var)):
        raise ValueError(f"value index {value} out of range for {var}")
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
    if table._floor > tol:
        # A float sum of non-negative terms is at least each term, so every
        # entry of p_yz and p_z exceeds tol too.
        gap = p_xyz / p_yz
        gap -= (p_xz / p_z)[:, None, :]
        return float(np.maximum.reduce(np.abs(gap, out=gap), axis=None))
    z_usable = p_z > tol
    usable = (p_yz > tol) & z_usable
    # Unusable entries are never divided and stay 0, so no warning can arise.
    right = np.divide(p_xz, p_z, out=np.zeros(p_xz.shape), where=z_usable)
    gap = np.divide(p_xyz, p_yz, out=np.zeros(p_xyz.shape), where=usable)
    np.subtract(gap, right[:, None, :], out=gap, where=usable)
    return float(np.maximum.reduce(np.abs(gap, out=gap), axis=None))


def ci_holds_discrete(
    table: JointTable,
    x_set: Iterable[str] | str,
    y_set: Iterable[str] | str,
    z_set: Iterable[str] | str = (),
    tol: float = DISCRETE_TOL,
) -> bool:
    """Whether (x_set, y_set | z_set) holds for the table at tolerance ``tol``."""
    return ci_discrepancy_discrete(table, x_set, y_set, z_set, tol) <= tol


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
    if not xs or not ys:
        return 0.0
    index = g._index
    xi = [index[v] for v in xs]
    yi = [index[v] for v in ys]
    if not zs:
        abs_rows = g._abs_rows
        return max(abs_rows[i][j] for i in xi for j in yi)
    chol, z_rows = g._factor(zs)
    w_y = np.linalg.solve(chol, z_rows[:, yi])
    w_x = np.linalg.solve(chol, z_rows[:, xi])
    block = g.covariance[xi][:, yi] - w_x.T @ w_y
    return float(np.abs(block).max())


def ci_holds_gaussian(
    g: GaussianModel,
    x_set: Iterable[str] | str,
    y_set: Iterable[str] | str,
    z_set: Iterable[str] | str = (),
    tol: float = GAUSSIAN_TOL,
) -> bool:
    return ci_residual_gaussian(g, x_set, y_set, z_set) <= tol


def _oriented(x: frozenset[str], y: frozenset[str], z: frozenset[str]):
    """The query with x and y as sorted tuples, the smaller first."""
    xs, ys = tuple(sorted(x)), tuple(sorted(y))
    return (ys, xs, z) if ys < xs else (xs, ys, z)


@dataclass(frozen=True)
class CiOracle:
    """Uniform conditional-independence query surface over any backend.

    The backend is a JointTable, a GaussianModel, or a DependencyModel.  A
    model backend answers from the closure's masks: its first query computes
    the graphoid closure once as a set of ``(x, y, z)`` variable masks, and
    every query is one membership test of its three masks in that set, with
    no ``Triplet`` built (a model past the closure bound raises
    UniverseTooLarge at every query).  A table or Gaussian oracle memoizes
    its verdicts, keyed on the unordered pair {x_set, y_set} and z_set; a
    model oracle keeps no memo, since its answer is already one lookup.
    Every query is answered in one canonical orientation (the smaller
    sorted tuple first), so ``ci(x, y, z) == ci(y, x, z)`` whichever was
    asked first.  The oracle and its backends are immutable, which keeps
    the memo valid for the oracle's lifetime.  Besides the verdict memo
    ``_memo``, an oracle keeps ``_given``, the conditioned oracles through
    which ``ci_given_value`` answers value-specific statements about a
    table, and ``_screening``, the minimal screening set found by network
    construction for each node and predecessor set, so a network rebuilt
    on the same oracle asks nothing.
    The tolerance must be finite and non-negative; None picks the backend's
    default.  It is the only tolerance the checks in ``relevance`` use.
    """

    backend: JointTable | GaussianModel | DependencyModel
    tolerance: float | None = None

    def __post_init__(self) -> None:
        backend, tol = self.backend, self.tolerance
        if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError("tolerance must be finite and non-negative")
        if isinstance(backend, JointTable):
            tol = DISCRETE_TOL if tol is None else tol
            holds = functools.partial(ci_holds_discrete, backend, tol=tol)
            gap = functools.partial(ci_discrepancy_discrete, backend, tol=tol)
            memo = {}
        elif isinstance(backend, GaussianModel):
            tol = GAUSSIAN_TOL if tol is None else tol
            holds = functools.partial(ci_holds_gaussian, backend, tol=tol)
            gap = functools.partial(ci_residual_gaussian, backend)
            memo = {}
        elif isinstance(backend, DependencyModel):
            tol = 0.0 if tol is None else tol
            universe = backend.universe

            # Neither callable refers back to the oracle: a cycle would keep
            # the oracle and its closure alive until the cycle collector runs.
            @functools.cache
            def closed() -> tuple[set[tuple[int, int, int]], dict[frozenset[str], int]]:
                held, table = _closed_masks(backend)  # checks the bound first
                return held, table.mask_of

            def holds(xs, ys, zs) -> bool:
                _validate_sets(universe, xs, ys, zs)
                held, mask_of = closed()
                return (mask_of[frozenset(xs)], mask_of[frozenset(ys)],
                        mask_of[frozenset(zs)]) in held

            gap = None
            # One closure lookup answers a query; a memo would only keep a
            # second copy of the answers.
            memo = None
        else:
            raise TypeError(f"unsupported backend {type(backend).__name__}")
        object.__setattr__(self, "tolerance", tol)
        object.__setattr__(self, "_holds", holds)
        object.__setattr__(self, "_gap", gap)
        object.__setattr__(self, "_memo", memo)
        # (pivot, value index) -> oracle over the table conditioned on that
        # value, or None when the value has no usable mass; tables only.
        object.__setattr__(self, "_given", {})
        # (node, frozenset of its predecessors) -> minimal screening set;
        # read and written by ``bayesnet._screening_set`` only.
        object.__setattr__(self, "_screening", {})

    @property
    def universe(self) -> Universe:
        return self.backend.universe

    def ci(
        self,
        x_set: Iterable[str] | str,
        y_set: Iterable[str] | str,
        z_set: Iterable[str] | str = (),
    ) -> bool:
        x, y, z = _as_name_set(x_set), _as_name_set(y_set), _as_name_set(z_set)
        memo = self._memo
        if memo is None:
            return self._holds(*_oriented(x, y, z))
        key = (frozenset((x, y)), z)
        verdict = memo.get(key)
        if verdict is None:
            # The backend validates the query and raises before the store, so
            # only valid queries enter the memo and a hit needs no check.
            verdict = memo[key] = self._holds(*_oriented(x, y, z))
        return verdict

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
        if not is_value_index(value, backend.domain_size(e_var)):
            raise ValueError(f"value index {value} out of range for {e_var}")
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
        x, y, z = _as_name_set(x_set), _as_name_set(y_set), _as_name_set(z_set)
        return self._gap(*_oriented(x, y, z))


def extract_model(oracle: CiOracle) -> DependencyModel:
    """Dependency model holding exactly the triplets the oracle affirms."""
    names = oracle.universe.variables
    if len(names) > MAX_EXTRACT_VARS:
        raise UniverseTooLarge(
            f"{len(names)} variables exceed the extraction bound of {MAX_EXTRACT_VARS}"
        )
    held = (
        Triplet(x, y, z)
        for x, y, z in iter_disjoint_triples(names)
        if oracle.ci(x, y, z)
    )
    return DependencyModel.of(oracle.universe, held)


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
