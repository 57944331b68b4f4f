"""Variable universes, independence triplets, and dependency models.

A dependency model is an explicit finite set of triplets ``(X, Y | Z)`` over
a universe of variables, read as "X is independent of Y given Z".  The model
is a *graphoid* when it is closed under five axioms: trivial independence,
symmetry, decomposition, weak union, and contraction.  This module computes
and checks that closure by exhaustive enumeration at desk scale.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import InvalidSets, InvalidTriplet, UniverseTooLarge, UnknownVariable

VariableId = str

# Enumeration bound for closure and axiom checking: candidate triplets grow
# as 4^n, so anything past 8 variables is out of desk range.  The dense model
# (every singleton pair under every Z) closes in about 0.05-0.09 s at n=7 and
# 0.25-0.4 s at n=8, most of it building the Triplet objects, and its closure
# checks in 0.04-0.08 s and 0.5-0.8 s (2-vCPU Xeon, CPython 3.11; medians of
# repeated runs on a shared host).
MAX_CLOSURE_VARS = 8

AXIOM_TRIVIAL = "trivial_independence"
AXIOM_SYMMETRY = "symmetry"
AXIOM_DECOMPOSITION = "decomposition"
AXIOM_WEAK_UNION = "weak_union"
AXIOM_CONTRACTION = "contraction"


def _as_name_set(value: Iterable[str] | str) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset((value,))
    return frozenset(value)


def names_from_json(value: object, what: str) -> tuple[str, ...]:
    """``value`` as a tuple of names; it must be a JSON list of distinct,
    non-empty strings (a bare string is not split into letters)."""
    if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
        raise ValueError(f"{what} must be a list of non-empty strings")
    if len(set(value)) != len(value):
        raise ValueError(f"{what} must not repeat a name")
    return tuple(value)


@dataclass(frozen=True)
class Universe:
    """An ordered collection of named variables with finite value domains."""

    variables: tuple[VariableId, ...]
    domains: tuple[tuple[str, ...], ...]
    # The variables as a set, built once; it takes no part in equality,
    # hashing or repr.
    names: frozenset[VariableId] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = frozenset(self.variables)
        if len(names) != len(self.variables):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "names", names)
        if any(not name for name in self.variables):
            raise ValueError("variable names must be non-empty")
        if len(self.domains) != len(self.variables):
            raise ValueError("one domain per variable required")
        if any(len(dom) == 0 for dom in self.domains):
            raise ValueError("every domain must be non-empty")

    @classmethod
    def binary(cls, *names: str) -> "Universe":
        """Universe of two-valued variables with domains ('0', '1')."""
        return cls(tuple(names), tuple(("0", "1") for _ in names))

    @classmethod
    def reals(cls, *names: str) -> "Universe":
        """Universe for real-valued variables; the domain label is a placeholder."""
        return cls(tuple(names), tuple(("real",) for _ in names))

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def domain(self, name: str) -> tuple[str, ...]:
        return self.domains[self.index(name)]

    def require(self, names: Iterable[str]) -> frozenset[str]:
        """Return ``names`` as a set, raising UnknownVariable on strangers."""
        wanted = _as_name_set(names)
        missing = wanted - self.names
        if missing:
            raise UnknownVariable(", ".join(sorted(missing)))
        return wanted

    def restricted_to(self, keep: Iterable[str]) -> "Universe":
        kept = self.require(keep)
        pairs = [(v, d) for v, d in zip(self.variables, self.domains) if v in kept]
        return Universe(tuple(v for v, _ in pairs), tuple(d for _, d in pairs))


def _validate_sets(
    universe: Universe,
    x_set: Iterable[str] | str,
    y_set: Iterable[str] | str,
    z_set: Iterable[str] | str,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Check disjointness and membership; return the sets as sorted tuples."""
    try:
        xs = universe.require(x_set)
        ys = universe.require(y_set)
        zs = universe.require(z_set)
    except UnknownVariable as exc:
        raise InvalidSets(f"unknown variable: {exc}") from None
    if xs & ys or xs & zs or ys & zs:
        raise InvalidSets("query sets must be pairwise disjoint")
    return tuple(sorted(xs)), tuple(sorted(ys)), tuple(sorted(zs))


@dataclass(frozen=True)
class Triplet:
    """An ordered independence statement (x_set, y_set | z_set).

    The three sets must be pairwise disjoint.  Empty x or y sets are
    representable; they are required for the trivial-independence axiom.
    """

    x_set: frozenset[str]
    y_set: frozenset[str]
    z_set: frozenset[str]

    def __post_init__(self) -> None:
        x, y, z = self.x_set, self.y_set, self.z_set
        if not (x.isdisjoint(y) and x.isdisjoint(z) and y.isdisjoint(z)):
            raise InvalidTriplet(f"overlapping sets in {self.sort_key()}")

    @classmethod
    def make(
        cls,
        x_set: Iterable[str] | str,
        y_set: Iterable[str] | str,
        z_set: Iterable[str] | str = (),
    ) -> "Triplet":
        return cls(_as_name_set(x_set), _as_name_set(y_set), _as_name_set(z_set))

    def mentioned(self) -> frozenset[str]:
        return self.x_set | self.y_set | self.z_set

    def symmetric(self) -> "Triplet":
        return Triplet(self.y_set, self.x_set, self.z_set)

    def sort_key(self) -> tuple[tuple[str, ...], ...]:
        return (tuple(sorted(self.x_set)), tuple(sorted(self.y_set)), tuple(sorted(self.z_set)))

    def to_json_dict(self) -> dict:
        return {"x": sorted(self.x_set), "y": sorted(self.y_set), "z": sorted(self.z_set)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Triplet":
        return cls.make(
            names_from_json(data["x"], "x"),
            names_from_json(data["y"], "y"),
            names_from_json(data.get("z", []), "z"),
        )


@dataclass(frozen=True)
class DependencyModel:
    """An explicit set of triplets over a universe."""

    universe: Universe
    triplets: frozenset[Triplet]

    def __post_init__(self) -> None:
        known = self.universe.names
        for t in self.triplets:
            if not (t.x_set <= known and t.y_set <= known and t.z_set <= known):
                raise InvalidTriplet(
                    f"triplet {t.sort_key()} mentions variables outside the universe"
                )

    @classmethod
    def of(cls, universe: Universe, triplets: Iterable[Triplet] = ()) -> "DependencyModel":
        return cls(universe, frozenset(triplets))

    def contains(self, t: Triplet) -> bool:
        """Exact set membership; no axiom inference is performed."""
        known = self.universe.names
        if not (t.x_set <= known and t.y_set <= known and t.z_set <= known):
            raise InvalidTriplet(
                f"triplet {t.sort_key()} mentions variables outside the universe"
            )
        return t in self.triplets

    def __contains__(self, t: Triplet) -> bool:
        return self.contains(t)

    def sorted_triplets(self) -> list[Triplet]:
        return sorted(self.triplets, key=Triplet.sort_key)

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.universe.variables),
            "triplets": [t.to_json_dict() for t in self.sorted_triplets()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DependencyModel":
        universe = Universe.binary(*names_from_json(data["variables"], "variables"))
        triplets = data["triplets"]
        if not isinstance(triplets, list) or not all(isinstance(d, dict) for d in triplets):
            raise ValueError("triplets must be a list of objects")
        return cls.of(universe, (Triplet.from_json_dict(d) for d in triplets))


@dataclass(frozen=True)
class AxiomViolation:
    """One failed axiom instance: the premises present and the member missing."""

    axiom: str
    premises: tuple[Triplet, ...]
    missing: Triplet

    def sort_key(self):
        return (self.axiom, self.missing.sort_key(), tuple(p.sort_key() for p in self.premises))


@dataclass(frozen=True)
class SubsetTable:
    """Every subset of a sorted name tuple; cached, shared and read-only.

    ``by_mask[m]`` holds the names at the set bits of ``m`` (bit i is
    ``names[i]``) and ``mask_of`` inverts it.  Building it costs 2^n sets, so
    only callers bounded to desk-scale universes use it.
    """

    names: tuple[str, ...]
    by_mask: tuple[frozenset[str], ...]
    mask_of: dict[frozenset[str], int]


@functools.cache
def _subset_table(names: tuple[str, ...]) -> SubsetTable:
    by_mask = tuple(
        frozenset(v for i, v in enumerate(names) if mask >> i & 1)
        for mask in range(1 << len(names))
    )
    return SubsetTable(names, by_mask, {s: mask for mask, s in enumerate(by_mask)})


def subset_table(names: Iterable[str]) -> SubsetTable:
    """The subset table of ``names``, built once per sorted name tuple."""
    return _subset_table(tuple(sorted(names)))


def label_blocks(table: SubsetTable, codes: Iterable[int], k: int) -> list[frozenset[str]]:
    """The ``k`` blocks of ``table.names`` labelled 0..k-1 by ``codes``, one
    code per name in that (sorted) order."""
    masks = [0] * k
    for i, code in enumerate(codes):
        masks[code] |= 1 << i
    return [table.by_mask[mask] for mask in masks]


def subsets(names: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets of ``names``, smallest first, lexicographic within a size."""
    pool = sorted(names)
    for size in range(len(pool) + 1):
        yield from map(frozenset, itertools.combinations(pool, size))


def subsets_lex(names: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets of ``names`` in lexicographic order of their sorted tuples."""
    pool = sorted(names)

    def gen(prefix: list[str], start: int) -> Iterator[frozenset[str]]:
        yield frozenset(prefix)
        for i in range(start, len(pool)):
            prefix.append(pool[i])
            yield from gen(prefix, i + 1)
            prefix.pop()

    return gen([], 0)


def iter_disjoint_triples(
    names: Iterable[str],
) -> Iterator[tuple[frozenset[str], frozenset[str], frozenset[str]]]:
    """All ordered triples of pairwise-disjoint subsets (4^n of them)."""
    table = subset_table(names)
    for codes in itertools.product(range(4), repeat=len(table.names)):
        _, x, y, z = label_blocks(table, codes, 4)
        yield x, y, z


def _check_bound(universe: Universe) -> None:
    if len(universe.variables) > MAX_CLOSURE_VARS:
        raise UniverseTooLarge(
            f"{len(universe.variables)} variables exceed the bound of {MAX_CLOSURE_VARS}"
        )


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, ``mask`` itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _closed_masks(model: DependencyModel) -> tuple[set[tuple[int, int, int]], SubsetTable]:
    """The graphoid closure of ``model`` as a set of ``(x, y, z)`` masks,
    both orientations included, and the subset table that reads them.

    The table is ``subset_table(model.universe.variables)``, built only after
    the bound check; callers map masks to sets through it and nothing else.

    The five axioms are the semi-graphoid axioms, and a semi-graphoid is
    determined by its elementary triplets (a, b | K) (Matus, "Ascending and
    descending conditional independence relations", 1992; Studeny,
    "Probabilistic Conditional Independence Structures", 2005, sec. 2.2):
    (X, Y | Z) holds iff (a, b | K) does for every a in X, b in Y and K with
    Z <= K <= XYZ - ab.  The closure is built in two steps:

    1. each generator is expanded into its elementary triplets, which follow
       by decomposition and weak union, and a work stack closes them under
       symmetry and the elementary rule
       (a,b|Kc) & (a,c|K) => (a,c|Kb) & (a,b|K);
    2. z walks down from the full set, so that every other triplet is decided
       from two settled ones: (X, Y | Z) holds iff (a, Y | Z) and
       (X-a, Y | Z+a) do, a the lowest variable of X, and for a single x
       variable the same split is made on Y.  Y is only drawn from the
       variables that every x variable is elementarily independent of under Z.
    """
    _check_bound(model.universe)
    table = subset_table(model.universe.variables)
    mask_of = table.mask_of
    full = len(table.by_mask) - 1
    bits = [1 << i for i in range(len(table.names))]

    # Every verdict that holds: the elementary closure first, then the walk's.
    held: set[tuple[int, int, int]] = set()
    stack: list[tuple[int, int, int]] = []

    def add(a: int, b: int, k: int) -> None:  # (a, b | k), both orientations
        if (a, b, k) not in held:
            held.add((a, b, k))
            held.add((b, a, k))
            stack.append((a, b, k))

    # Sorted, so that the derivation order does not depend on string hashing.
    for x, y, z in sorted((mask_of[t.x_set], mask_of[t.y_set], mask_of[t.z_set])
                          for t in model.triplets):
        for a in bits:
            if a & x:
                for b in bits:
                    if b & y:
                        for sub in _submasks((x | y) ^ a ^ b):
                            add(a, b, z | sub)

    # A new (a, u | k) is tried, in each orientation, as (a,b|Kc) with
    # partner (a,c|K) and as (a,c|K) with partner (a,b|Kc).
    while stack:
        p, q, k = stack.pop()
        for a, u in ((p, q), (q, p)):
            for c in bits:
                if c & k:
                    if (a, c, k ^ c) in held:
                        add(a, c, k ^ c | u)
                        add(a, u, k ^ c)
                elif not c & (a | u) and (a, c, k | u) in held:
                    add(a, u, k | c)
                    add(a, c, k)

    # (a, k) -> the variables b with (a, b | k) held.
    partners: dict[tuple[int, int], int] = {}
    for a, b, k in held:
        partners[a, k] = partners.get((a, k), 0) | b

    # cand[x]: the variables every member of x is elementarily independent
    # of under the current z; y is drawn from its submasks.
    cand = [0] * (full + 1)
    for z in range(full, -1, -1):
        free = cand[0] = full ^ z
        x = 0
        while True:  # x through the submasks of free, increasing
            held.add((x, 0, z))  # trivial independence
            held.add((0, x, z))
            x = (x - free) & free
            if not x:
                break
            a = x & -x
            c = cand[x] = cand[x ^ a] & partners.get((a, z), 0)
            y = 0
            while c:
                y = (y - c) & c
                if not y:
                    break
                if x == a:  # (a, b | z) is held for every b in c
                    b = y & -y
                    if y != b and (a, y ^ b, z | b) in held:
                        held.add((a, y, z))
                elif (a, y, z) in held and (x ^ a, y, z | a) in held:
                    held.add((x, y, z))
    return held, table


def graphoid_closure(model: DependencyModel) -> DependencyModel:
    """Least superset of ``model`` closed under the five graphoid axioms.

    ``_closed_masks`` decides every triplet on variable masks; the held ones
    are materialized here, once.
    """
    held, table = _closed_masks(model)
    sets = table.by_mask
    return DependencyModel(
        model.universe, frozenset(Triplet(sets[x], sets[y], sets[z]) for x, y, z in held)
    )


def check_graphoid_axioms(model: DependencyModel) -> list[AxiomViolation]:
    """Exhaustively instantiate the five axioms; empty result means graphoid.

    Each violated axiom instance is reported once, with the instantiating
    triplets as premises and the absent member as the witness.  The list is
    sorted for reproducible output.  Contraction pairs each first premise
    with the second premises found under its (x, y|z) in a mask index.
    """
    _check_bound(model.universe)
    table = subset_table(model.universe.variables)
    sets, mask_of = table.by_mask, table.mask_of
    full = len(sets) - 1
    present = {(mask_of[t.x_set], mask_of[t.y_set], mask_of[t.z_set]): t for t in model.triplets}
    out: list[AxiomViolation] = []

    def violation(axiom: str, premises: tuple[Triplet, ...], x: int, y: int, z: int) -> None:
        out.append(AxiomViolation(axiom, premises, Triplet(sets[x], sets[y], sets[z])))

    for z in range(full + 1):
        for x in _submasks(full ^ z):
            if (x, 0, z) not in present:
                violation(AXIOM_TRIVIAL, (), x, 0, z)

    as_second: dict[tuple[int, int], list[tuple[int, Triplet]]] = {}
    for (x, y, z), t in present.items():
        if y:
            as_second.setdefault((x, z), []).append((y, t))

    for (x, y, z), t in present.items():
        if (y, x, z) not in present:
            violation(AXIOM_SYMMETRY, (t,), y, x, z)
        if not y:
            continue
        sub = (y - 1) & y
        while sub:
            if (x, sub, z) not in present:
                violation(AXIOM_DECOMPOSITION, (t,), x, sub, z)
            if (x, sub, z | (y ^ sub)) not in present:
                violation(AXIOM_WEAK_UNION, (t,), x, sub, z | (y ^ sub))
            sub = (sub - 1) & y
        for w, second in as_second.get((x, z | y), ()):
            if (x, y | w, z) not in present:
                violation(AXIOM_CONTRACTION, (t, second), x, y | w, z)

    out.sort(key=AxiomViolation.sort_key)
    return out


def restrict(model: DependencyModel, keep: Iterable[str]) -> DependencyModel:
    """Model over the reduced universe with exactly the triplets inside ``keep``."""
    kept = model.universe.require(keep)
    reduced = model.universe.restricted_to(kept)
    return DependencyModel.of(reduced, (t for t in model.triplets if t.mentioned() <= kept))
