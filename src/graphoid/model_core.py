"""Variable universes, independence triplets, and dependency models.

A dependency model is an explicit finite set of triplets ``(X, Y | Z)`` over
a universe of variables, read as "X is independent of Y given Z".  The model
is a *semi-graphoid* when it is closed under five axioms: trivial
independence, symmetry, decomposition, weak union, and contraction; Pearl
(1988, ch. 3) calls it a *graphoid* only when it is also closed under
intersection, which nothing here checks.  The names ``graphoid_closure`` and
``check_graphoid_axioms`` refer to the five.  This module computes that
closure from the model's elementary triplets and checks a model by closing
its elementary members, enumerating axiom instances only when that closure
differs from the model; both work at desk scale.

Every variable set inside the package is a mask over a universe's sorted
names, bit i the i-th name; ``VariableSets``, one per sorted name tuple and
kept on each ``Universe`` as ``sets``, is the one place names and bits meet.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Collection, Iterable, Iterator, Set
from dataclasses import dataclass, field

from .errors import InvalidSets, UniverseTooLarge, UnknownVariable

VariableId = str

# Enumeration bound for closure and axiom checking: candidate triplets grow
# as 4^n, so anything past 8 variables is out of desk range.  The dense model
# (every singleton pair under every Z) closes in about 0.01 s at n=7 and
# 0.04-0.07 s at n=8, and its closure checks in 0.013-0.019 s and
# 0.05-0.06 s, mostly in closing the elementary triplets again; neither
# builds a Triplet (2-vCPU Xeon, CPython 3.11; repeated runs on a shared host).
MAX_CLOSURE_VARS = 8

AXIOM_TRIVIAL = "trivial_independence"
AXIOM_SYMMETRY = "symmetry"
AXIOM_DECOMPOSITION = "decomposition"
AXIOM_WEAK_UNION = "weak_union"
AXIOM_CONTRACTION = "contraction"


def _unhashable(name: object) -> InvalidSets:
    """The error for a variable name that cannot be hashed."""
    return InvalidSets(f"a variable name must be hashable, not {type(name).__name__}")


def _as_name_set(value: Iterable[str] | str) -> frozenset[str]:
    """``value`` as a set of names: a string is one name, an iterable its
    members; anything else, such as ``1`` or ``None``, and an iterable with an
    unhashable member, such as ``[["u1"]]`` or ``iter([["u1"]])``, raises
    InvalidSets."""
    if isinstance(value, str):
        return frozenset((value,))
    try:
        return frozenset(value)
    except TypeError as error:
        if not isinstance(value, Iterable):
            raise InvalidSets(
                f"a variable set must be a name or an iterable of names, not {type(value).__name__}"
            ) from None
        if iter(value) is value:
            # A one-shot iterator: frozenset has consumed the member, so only
            # the message of the hash's TypeError still names its type.
            unhashable = re.fullmatch(r"unhashable type: '(.+)'", str(error))
            if unhashable is None:
                raise
            raise InvalidSets(f"a variable name must be hashable, not {unhashable[1]}") from None
        for member in value:
            try:
                hash(member)
            except TypeError:
                raise _unhashable(member) from None
        raise


def names_from_json(value: object, what: str) -> tuple[str, ...]:
    """``value`` as a tuple of names; it must be a JSON list of distinct,
    non-empty strings (a bare string is not split into letters)."""
    if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
        raise ValueError(f"{what} must be a list of non-empty strings")
    if len(set(value)) != len(value):
        raise ValueError(f"{what} must not repeat a name")
    return tuple(value)


class VariableSets:
    """The variable sets over one sorted name tuple ``names``, as masks: bit
    i is ``names[i]``.

    ``bit`` maps each name to its bit, and ``masks`` each set of a valid
    ``CiOracle`` query seen so far to its mask.  ``set_of`` and ``tuple_of``
    decode a mask, building each frozenset and sorted tuple once.  One
    instance per tuple (``_variable_sets``), shared by every universe over
    those names, so whatever one caller learns every other reuses.
    """

    __slots__ = ("names", "bit", "masks", "_sets", "_tuples")

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self.bit = {v: 1 << i for i, v in enumerate(names)}
        self.masks: dict[frozenset[str], int] = {}
        self._sets: dict[int, frozenset[str]] = {}
        self._tuples: dict[int, tuple[str, ...]] = {}

    def mask_of(self, names: Iterable[str]) -> int:
        """The mask of ``names``; KeyError for a name not in ``self.names``."""
        return sum(map(self.bit.__getitem__, names))

    def set_of(self, mask: int) -> frozenset[str]:
        """The names at the set bits of ``mask``."""
        found = self._sets.get(mask)
        if found is None:
            found = self._sets[mask] = frozenset(self.tuple_of(mask))
        return found

    def tuple_of(self, mask: int) -> tuple[str, ...]:
        """The names at the set bits of ``mask``, in sorted order."""
        found = self._tuples.get(mask)
        if found is None:
            found = self._tuples[mask] = tuple(
                v for i, v in enumerate(self.names) if mask >> i & 1
            )
        return found


@functools.cache
def _variable_sets(names: tuple[str, ...]) -> VariableSets:
    """The one VariableSets of the sorted name tuple ``names``."""
    return VariableSets(names)


@dataclass(frozen=True)
class Universe:
    """An ordered collection of named variables with finite value domains."""

    variables: tuple[VariableId, ...]
    domains: tuple[tuple[str, ...], ...]
    # The variables as a set, each variable's position and the shared
    # VariableSets of the sorted names, built once; they take no part in
    # equality, hashing or repr.
    names: frozenset[VariableId] = field(init=False, repr=False, compare=False)
    _positions: dict[VariableId, int] = field(init=False, repr=False, compare=False)
    sets: VariableSets = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # First, so that sorting or hashing a name cannot raise a bare TypeError.
        for name in self.variables:
            if not isinstance(name, str):
                raise ValueError(f"variable names must be strings, not {type(name).__name__}")
        names = frozenset(self.variables)
        if len(names) != len(self.variables):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_positions", {v: i for i, v in enumerate(self.variables)})
        if any(not name for name in self.variables):
            raise ValueError("variable names must be non-empty")
        if len(self.domains) != len(self.variables):
            raise ValueError("one domain per variable required")
        if any(len(dom) == 0 for dom in self.domains):
            raise ValueError("every domain must be non-empty")
        object.__setattr__(self, "sets", _variable_sets(tuple(sorted(self.variables))))

    @classmethod
    def binary(cls, *names: str) -> "Universe":
        """Universe of two-valued variables with domains ('0', '1')."""
        return cls(tuple(names), tuple(("0", "1") for _ in names))

    @classmethod
    def reals(cls, *names: str) -> "Universe":
        """Universe for real-valued variables; the domain label is a placeholder."""
        return cls(tuple(names), tuple(("real",) for _ in names))

    def index(self, name: str) -> int:
        """The position of ``name``; UnknownVariable for a stranger and
        InvalidSets for a name that cannot be hashed."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable: {name}") from None
        except TypeError:
            raise _unhashable(name) from None

    def domain(self, name: str) -> tuple[str, ...]:
        return self.domains[self.index(name)]

    def require(self, names: Iterable[str]) -> frozenset[str]:
        """Return ``names`` as a set, raising UnknownVariable on strangers."""
        wanted = _as_name_set(names)
        missing = wanted - self.names
        if missing:
            raise UnknownVariable("unknown variable: " + ", ".join(sorted(map(str, missing))))
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
    """Check membership over all three sets, then disjointness; return the
    sets as sorted tuples.  An overlap is reported as ``Triplet`` reports it."""
    xs, ys, zs = _as_name_set(x_set), _as_name_set(y_set), _as_name_set(z_set)
    universe.require(xs | ys | zs)
    key = tuple(sorted(xs)), tuple(sorted(ys)), tuple(sorted(zs))
    if xs & ys or xs & zs or ys & zs:
        raise InvalidSets(f"overlapping sets in {key}")
    return key


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
            raise InvalidSets(f"overlapping sets in {self.sort_key()}")

    @classmethod
    def make(
        cls,
        x_set: Iterable[str] | str,
        y_set: Iterable[str] | str,
        z_set: Iterable[str] | str = (),
    ) -> "Triplet":
        return cls(_as_name_set(x_set), _as_name_set(y_set), _as_name_set(z_set))

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


def _triplet_masks(sets: VariableSets, t: object) -> tuple[int, int, int] | None:
    """The ``(x, y, z)`` masks of ``t`` over ``sets``, or None when ``t`` is
    not a Triplet or names a variable that ``sets`` lacks."""
    if not isinstance(t, Triplet):
        return None
    try:
        return sets.mask_of(t.x_set), sets.mask_of(t.y_set), sets.mask_of(t.z_set)
    except KeyError:  # a stranger has no bit
        return None


class _Hashed:
    """Stands in a frozenset for an element whose hash is ``value``."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


class TripletSet(Set):
    """The triplets of a dependency model, held as ``(x, y, z)`` masks of
    the VariableSets ``sets``.

    Membership, size, comparison with another set and hashing are answered
    on the masks; a Triplet is built only by iterating.  Anything that is
    not a Triplet over these names is not a member.  ``-``, ``|`` and ``&``
    return plain frozensets of Triplet, and the hash is the one a frozenset
    of the same triplets has, so the two stay interchangeable.
    """

    __slots__ = ("sets", "masks", "_hash")

    def __init__(self, sets: VariableSets, masks: frozenset[tuple[int, int, int]]) -> None:
        self.sets = sets
        self.masks = masks
        self._hash: int | None = None

    @classmethod
    def _from_iterable(cls, it: Iterable[Triplet]) -> frozenset[Triplet]:
        return frozenset(it)

    def __contains__(self, t: object) -> bool:
        return _triplet_masks(self.sets, t) in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Triplet]:
        set_of = self.sets.set_of
        for x, y, z in self.masks:
            yield Triplet(set_of(x), set_of(y), set_of(z))

    def __le__(self, other: object) -> bool:
        if isinstance(other, TripletSet) and other.sets is self.sets:
            return self.masks <= other.masks
        if not isinstance(other, Set):
            return NotImplemented
        sets = self.sets
        return len(self) <= len(other) and self.masks <= {_triplet_masks(sets, t) for t in other}

    def __ge__(self, other: object) -> bool:
        if isinstance(other, TripletSet) and other.sets is self.sets:
            return self.masks >= other.masks
        if not isinstance(other, Set):
            return NotImplemented
        return len(self) >= len(other) and all(map(self.__contains__, other))

    def __hash__(self) -> int:
        if self._hash is None:
            set_of = self.sets.set_of
            self._hash = hash(frozenset(
                _Hashed(hash((set_of(x), set_of(y), set_of(z)))) for x, y, z in self.masks
            ))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({sorted(self, key=Triplet.sort_key)!r})"


@dataclass(frozen=True)
class DependencyModel:
    """An explicit set of triplets over a universe.

    ``triplets`` may be given as any collection of Triplet; the model keeps
    it as a TripletSet, the ``(x, y, z)`` masks of the universe's
    ``sets``, and every closure, check and query reads those masks.  A name
    outside the universe raises UnknownVariable.
    """

    universe: Universe
    triplets: TripletSet

    def __post_init__(self) -> None:
        sets = self.universe.sets
        given = self.triplets
        if isinstance(given, TripletSet) and given.sets is sets:
            return
        masks = frozenset(_triplet_masks(sets, t) for t in given)
        if None in masks:
            # every name of the model, so the message does not hang on set order
            self.universe.require(set().union(*(t.x_set | t.y_set | t.z_set for t in given)))
            raise TypeError("a dependency model holds Triplets only")
        object.__setattr__(self, "triplets", TripletSet(sets, masks))

    def __hash__(self) -> int:
        return hash((self.universe, self.triplets.masks))

    @functools.cached_property
    def _closure(self) -> frozenset[tuple[int, int, int]]:
        """``_closed_masks(self)``, computed once per model (a raise caches nothing)."""
        return _closed_masks(self)

    @classmethod
    def of(cls, universe: Universe, triplets: Iterable[Triplet] = ()) -> "DependencyModel":
        return cls(universe, triplets if isinstance(triplets, Collection) else tuple(triplets))

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.universe.variables),
            "triplets": [t.to_json_dict() for t in sorted(self.triplets, key=Triplet.sort_key)],
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


def label_blocks(sets: VariableSets, codes: Iterable[int], k: int) -> list[frozenset[str]]:
    """The ``k`` blocks of ``sets.names`` labelled 0..k-1 by ``codes``, one
    code per name in that (sorted) order."""
    masks = [0] * k
    for i, code in enumerate(codes):
        masks[code] |= 1 << i
    return [sets.set_of(mask) for mask in masks]


def subsets(names: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets of ``names``, smallest first, lexicographic within a size."""
    pool = sorted(names)
    for size in range(len(pool) + 1):
        yield from map(frozenset, itertools.combinations(pool, size))


def _bits_of(mask: int) -> Iterator[int]:
    """Each set bit of ``mask`` as a one-bit mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _size_lex_submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, fewest bits first, and within a size in
    lexicographic order of its sorted names (bit i is the i-th sorted name).
    Generated lazily, one at a time."""
    bits = list(_bits_of(mask))
    for size in range(len(bits) + 1):
        yield from map(sum, itertools.combinations(bits, size))


def _check_bound(
    universe: Universe, limit: int = MAX_CLOSURE_VARS, bound: str = "bound"
) -> None:
    """Raise UniverseTooLarge past ``limit`` variables; ``bound`` names the limit."""
    if len(universe.variables) > limit:
        n = len(universe.variables)
        raise UniverseTooLarge(f"{n} variables exceed the {bound} of {limit}")


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, ``mask`` itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@functools.cache
def _lex_submasks(mask: int) -> tuple[int, ...]:
    """Every submask of ``mask`` in lexicographic order of its sorted names,
    bit i being the i-th sorted name: 0 first, and each submask followed by
    its extensions by higher bits.  Built once per mask."""
    order = [0]
    for low in reversed(list(_bits_of(mask))):
        # Over ``low`` and the higher bits: the empty set, then the sets
        # holding ``low``, then the non-empty sets without it.
        order = [0, *(low | sub for sub in order), *order[1:]]
    return tuple(order)


def _closed_masks(model: DependencyModel) -> frozenset[tuple[int, int, int]]:
    """The graphoid closure of ``model`` as a set of ``(x, y, z)`` masks over
    its sorted names, both orientations included.

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
    n = len(model.universe.variables)
    full = (1 << n) - 1
    bits = [1 << i for i in range(n)]

    # Every verdict that holds: the elementary closure first, then the walk's.
    held: set[tuple[int, int, int]] = set()
    stack: list[tuple[int, int, int]] = []

    def add(a: int, b: int, k: int) -> None:  # (a, b | k), both orientations
        if (a, b, k) not in held:
            held.add((a, b, k))
            held.add((b, a, k))
            stack.append((a, b, k))

    # Sorted, so that the derivation order does not depend on string hashing.
    for x, y, z in sorted(model.triplets.masks):
        for a in _bits_of(x):
            for b in _bits_of(y):
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
    return frozenset(held)


def _model_of_masks(universe: Universe, held: Iterable[tuple[int, int, int]]) -> DependencyModel:
    """The model over ``universe`` of the ``(x, y, z)`` masks in ``held``,
    bit i the i-th sorted name."""
    return DependencyModel(universe, TripletSet(universe.sets, frozenset(held)))


def graphoid_closure(model: DependencyModel) -> DependencyModel:
    """Least superset of ``model`` closed under the five semi-graphoid axioms.

    ``_closed_masks`` decides every triplet on variable masks, computed once
    per model; the result holds the same masks, so closing builds no Triplet.
    """
    return _model_of_masks(model.universe, model._closure)


def check_graphoid_axioms(model: DependencyModel) -> list[AxiomViolation]:
    """Every violated instance of the five axioms; empty means semi-graphoid.

    The check first tries to certify the model: a semi-graphoid is the
    closure of its elementary triplets (a, b | K), and a closure is a
    semi-graphoid (Studeny, "Probabilistic Conditional Independence
    Structures", 2005, sec. 2.2).  So when ``_closed_masks`` of the model's
    elementary members gives back the model's masks, nothing is violated.
    Only otherwise are the axioms instantiated exhaustively: each violated
    instance is reported once, with the instantiating triplets as premises
    and the absent member as the witness, in a list sorted for reproducible
    output.  Both steps read the model's masks, and Triplets are built only
    for the violations reported.  Contraction pairs each first premise with
    the second premises found under its (x, y|z) in a mask index.
    """
    _check_bound(model.universe)
    present = model.triplets.masks
    elementary = [
        (x, y, z) for x, y, z in present if x and y and not (x & (x - 1) or y & (y - 1))
    ]
    if _closed_masks(_model_of_masks(model.universe, elementary)) == present:
        return []
    sets = model.universe.sets
    set_of = sets.set_of
    full = (1 << len(sets.names)) - 1
    out: list[AxiomViolation] = []

    def triplet(x: int, y: int, z: int) -> Triplet:
        return Triplet(set_of(x), set_of(y), set_of(z))

    def violation(axiom: str, premises: tuple[tuple[int, int, int], ...], *missing: int) -> None:
        out.append(AxiomViolation(axiom, tuple(triplet(*p) for p in premises), triplet(*missing)))

    for z in range(full + 1):
        for x in _submasks(full ^ z):
            if (x, 0, z) not in present:
                violation(AXIOM_TRIVIAL, (), x, 0, z)

    as_second: dict[tuple[int, int], list[tuple[int, tuple[int, int, int]]]] = {}
    for t in present:
        x, y, z = t
        if y:
            as_second.setdefault((x, z), []).append((y, t))

    for t in present:
        x, y, z = t
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

