"""Relevance relations between variables and transitivity of relevance.

Three relations are computed independently so their theoretical coincidences
can be cross-validated rather than assumed:

* mutually irrelevant -- (x, y | Z) holds for every conditioning set Z;
* uncoupled -- the universe splits into two marginally independent halves
  separating x from y (found by brute-force partition scan);
* unrelated -- x and y land in different components of a minimal network.

The subset sweep, the partition scan and the partition-triple implication
ask the oracle in variable masks over the sorted names, as network
construction does.

The module also checks the partition-triple implication that makes a
distribution family transitive, its eight-block reformulation for binary
tables, and the covariance properties that settle the Gaussian case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bayesnet import _mask_ci, build_network, connecting_trail
from .dist_oracle import CiOracle, GaussianModel, JointTable, _check_value_index
from .errors import InvalidPartition
from .model_core import _bits_of, _check_bound, _lex_submasks, _submasks, _unhashable

MAX_PAIR_SWEEP_VARS = 12
MAX_TRANSITIVITY_VARS = 8
MAX_GAUSSIAN_SWEEP_VARS = 6

MUTUALLY_IRRELEVANT = "mutually_irrelevant"
UNCOUPLED = "uncoupled"
UNRELATED = "unrelated"

ANTECEDENT_FAILS = "antecedent_fails"
CONSEQUENT_HOLDS = "consequent_holds"
VIOLATION = "violation"

@dataclass(frozen=True)
class RelationVerdict:
    """Outcome of one relation query, with substantiating evidence.

    The witness is present exactly when it proves something: a conditioning
    set for a failed irrelevance claim, the separating partition for a
    successful uncoupling, a connecting trail for a failed unrelatedness.
    """

    relation: str
    holds: bool
    witness: object | None = None

    def to_json_dict(self) -> dict:
        witness: object | None = None
        if self.relation == MUTUALLY_IRRELEVANT and not self.holds:
            witness = {"z": sorted(self.witness)}
        elif self.relation == UNCOUPLED and self.holds:
            first, second = self.witness
            witness = {"u1": sorted(first), "u2": sorted(second)}
        elif self.relation == UNRELATED and not self.holds:
            witness = {"trail": list(self.witness.nodes)}
        return {"relation": self.relation, "holds": self.holds, "witness": witness}


def _pair_masks(oracle: CiOracle, x: str, y: str) -> tuple[int, int, int]:
    """The bits of x and y and the mask of the rest of the universe, over its
    sorted names; x and y must be two different variables of it."""
    if x == y:
        raise ValueError("x and y must differ")
    universe = oracle.universe
    bit = universe.sets.bit
    try:
        bx, by = bit[x], bit[y]
    except (KeyError, TypeError):
        # InvalidSets for an unhashable name, else UnknownVariable naming every stranger
        universe.require((x, y))
    return bx, by, ((1 << len(bit)) - 1) ^ bx ^ by


def mutually_irrelevant(oracle: CiOracle, x: str, y: str) -> RelationVerdict:
    """Whether ({x}, {y} | Z) holds for every Z avoiding x and y.

    The sweep asks the oracle in masks, Z in lexicographic order of its
    sorted names; on failure the witness is the least violating Z.
    """
    _check_bound(oracle.universe, MAX_PAIR_SWEEP_VARS, "sweep bound")
    bx, by, rest = _pair_masks(oracle, x, y)
    holds = _mask_ci(oracle)
    for z in _lex_submasks(rest):
        if not holds(bx, by, z):
            return RelationVerdict(MUTUALLY_IRRELEVANT, False, oracle.universe.sets.set_of(z))
    return RelationVerdict(MUTUALLY_IRRELEVANT, True)


def uncoupled(oracle: CiOracle, x: str, y: str) -> RelationVerdict:
    """Scan every partition with x on one side and y on the other.

    This is the definitional brute-force oracle; it never consults a network,
    so network-based answers can be validated against it.  The scan asks the
    oracle in masks, x's side in lexicographic order of its sorted names
    besides x, and the witness is the first qualifying partition.
    """
    _check_bound(oracle.universe, MAX_PAIR_SWEEP_VARS, "sweep bound")
    bx, by, rest = _pair_masks(oracle, x, y)
    holds = _mask_ci(oracle)
    for with_x in _lex_submasks(rest):
        side_x, side_y = with_x | bx, (rest ^ with_x) | by
        if holds(side_x, side_y, 0):
            set_of = oracle.universe.sets.set_of
            return RelationVerdict(UNCOUPLED, True, (set_of(side_x), set_of(side_y)))
    return RelationVerdict(UNCOUPLED, False)


def unrelated(oracle: CiOracle, x: str, y: str) -> RelationVerdict:
    """Disconnectedness in one minimal network under the listing order.

    Component structure is the same for every construction order, so a single
    network suffices.  A connecting trail witnesses failure.
    """
    _pair_masks(oracle, x, y)
    dag = build_network(oracle)
    trail = connecting_trail(dag, x, y)
    if trail is None:
        return RelationVerdict(UNRELATED, True)
    return RelationVerdict(UNRELATED, False, trail)


@dataclass(frozen=True)
class TransitivityResult:
    holds: bool
    witness: tuple[str, str, str] | None = None

    def to_json_dict(self) -> dict:
        return {"holds": self.holds, "witness": list(self.witness) if self.witness else None}


def is_transitive(oracle: CiOracle) -> TransitivityResult:
    """Whether pairwise relevance chains across every ordered variable triple.

    Relevance is the negation of mutual irrelevance, computed by the subset
    sweep rather than through network connectivity.  On failure the least
    triple (a, b, c) with relevant(a,b), relevant(b,c), irrelevant(a,c)
    is returned.
    """
    _check_bound(oracle.universe, MAX_TRANSITIVITY_VARS)
    names = oracle.universe.sets.names
    relevant: dict[tuple[str, str], bool] = {}
    for a, b in itertools.combinations(names, 2):
        r = not mutually_irrelevant(oracle, a, b).holds
        relevant[(a, b)] = relevant[(b, a)] = r
    for a, b, c in itertools.permutations(names, 3):
        if relevant[(a, b)] and relevant[(b, c)] and not relevant[(a, c)]:
            return TransitivityResult(False, (a, b, c))
    return TransitivityResult(True)


@dataclass(frozen=True)
class PartitionTriple:
    """Three two-way partitions of the same variable set, plus a pivot variable.

    Each side must be non-empty, the pivot is excluded from the partitioned
    set, and there are exactly two pivot values, which must differ.
    """

    x1: frozenset[str]
    x2: frozenset[str]
    y1: frozenset[str]
    y2: frozenset[str]
    z1: frozenset[str]
    z2: frozenset[str]
    e_var: str
    e_values: tuple[int, int] = (0, 1)
    # The partitioned set, built once; it takes no part in equality or repr.
    ground: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x1, x2, y1, y2, z1, z2 = self.x1, self.x2, self.y1, self.y2, self.z1, self.z2
        ground, y_cover, z_cover = x1 | x2, y1 | y2, z1 | z2
        try:
            partitioned = self.e_var in ground or self.e_var in y_cover or self.e_var in z_cover
        except TypeError:
            raise _unhashable(self.e_var) from None
        if partitioned:
            raise InvalidPartition("the pivot variable cannot be partitioned")
        if not (x1 and x2 and y1 and y2 and z1 and z2):
            raise InvalidPartition("partition sides must be non-empty")
        if x1 & x2 or y1 & y2 or z1 & z2:
            raise InvalidPartition("partition sides must be disjoint")
        if y_cover != ground or z_cover != ground:
            raise InvalidPartition("all three partitions must cover the same set")
        if len(self.e_values) != 2:
            raise InvalidPartition("exactly two pivot values are required")
        if self.e_values[0] == self.e_values[1]:
            raise InvalidPartition("the two pivot values must differ")
        object.__setattr__(self, "ground", ground)


@dataclass(frozen=True)
class CheckResult:
    """Outcome lattice of a partition-implication check.

    ``antecedent_fails`` when a premise is unmet (including an empty
    intersection cell), ``consequent_holds`` with the side flags when at
    least one disjunct holds, ``violation`` when the premises hold and both
    disjuncts fail.
    """

    status: str
    r1_holds: bool | None = None
    r2_holds: bool | None = None
    detail: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "r1_holds": self.r1_holds,
            "r2_holds": self.r2_holds,
            "detail": self.detail,
        }


def _as_oracle(dist_or_oracle: CiOracle | JointTable | GaussianModel) -> CiOracle:
    return dist_or_oracle if isinstance(dist_or_oracle, CiOracle) else CiOracle(dist_or_oracle)


def _pivot_ground(oracle: CiOracle, e_var: str) -> frozenset[str]:
    """The universe minus the pivot; ``Universe.index`` rejects a stranger."""
    oracle.universe.index(e_var)
    return oracle.universe.names - {e_var}


def _conclusion(oracle: CiOracle, first: int, second: int) -> CheckResult:
    """Whether the mask ``first`` or ``second`` is independent of all other names."""
    full = (1 << len(oracle.universe.sets.names)) - 1
    c1 = oracle._holds(first, full ^ first, 0)
    c2 = oracle._holds(second, full ^ second, 0)
    if c1 or c2:
        return CheckResult(CONSEQUENT_HOLDS, c1, c2)
    return CheckResult(VIOLATION, False, False)


def _implication(
    oracle: CiOracle, pivot: int, x1: int, y1: int, z1: int, first: int, second: int,
    e_values: tuple[int, int] = (0, 1),
) -> CheckResult:
    """The implication core of both forms: premises i1, i2, i3, then the conclusion.

    Every set is a mask over the sorted names: ``pivot`` is the pivot's bit,
    ``x1``, ``y1`` and ``z1`` the first sides of the three partitions of the
    other names, and ``first`` and ``second`` the two cells.  i1 asks the
    first partition with the pivot summed out, i2 the second given the first
    pivot value, i3 the third given the other; the first unmet premise is
    reported, and when all hold ``_conclusion`` decides.  Only i2 and i3
    name their sets, since a conditioned table has its own universe.
    """
    sets = oracle.universe.sets
    ground = ((1 << len(sets.names)) - 1) ^ pivot
    if not oracle._holds(x1, ground ^ x1, 0):
        return CheckResult(ANTECEDENT_FAILS, detail="i1")
    set_of, (e_var,) = sets.set_of, sets.tuple_of(pivot)
    if not oracle.ci_given_value(set_of(y1), set_of(ground ^ y1), e_var, e_values[0]):
        return CheckResult(ANTECEDENT_FAILS, detail="i2")
    if not oracle.ci_given_value(set_of(z1), set_of(ground ^ z1), e_var, e_values[1]):
        return CheckResult(ANTECEDENT_FAILS, detail="i3")
    return _conclusion(oracle, first, second)


def check_clean(
    dist_or_oracle: CiOracle | JointTable | GaussianModel, pt: PartitionTriple
) -> CheckResult:
    """Partition-triple implication behind transitivity of the distribution family.

    Premises: the first partition is independent with the pivot summed out,
    the second given one pivot value, the third given the other.  Conclusion:
    one of the two triple-intersection cells is independent of everything
    else including the pivot.

    A table or Gaussian is wrapped in ``CiOracle(dist)`` at the default
    tolerance; pass an oracle to choose the tolerance or to share its verdicts
    across many checks.  On a table each pivot value must be an integer
    index into the pivot's domain.
    """
    oracle = _as_oracle(dist_or_oracle)
    ground = _pivot_ground(oracle, pt.e_var)
    if pt.ground != ground:
        raise InvalidPartition("partitions must cover the universe minus the pivot")
    if isinstance(oracle.backend, JointTable):
        n_values = oracle.backend.domain_size(pt.e_var)
        for v in pt.e_values:
            _check_value_index(v, n_values, pt.e_var, InvalidPartition)

    mask_of = oracle.universe.sets.mask_of
    x1, y1, z1 = map(mask_of, (pt.x1, pt.y1, pt.z1))
    first, second = x1 & y1 & z1, mask_of(ground) ^ (x1 | y1 | z1)
    if not (first and second):
        return CheckResult(ANTECEDENT_FAILS, detail="empty_r2" if first else "empty_r1")
    return _implication(oracle, mask_of((pt.e_var,)), x1, y1, z1, first, second, pt.e_values)


@dataclass(frozen=True)
class PtBinBlocks:
    """Eight pairwise-disjoint blocks; any block may be empty."""

    a1: frozenset[str]
    a2: frozenset[str]
    a3: frozenset[str]
    a4: frozenset[str]
    b1: frozenset[str]
    b2: frozenset[str]
    b3: frozenset[str]
    b4: frozenset[str]

    def __post_init__(self) -> None:
        if sum(map(len, self.as_tuple())) != len(self.union):
            raise InvalidPartition("blocks must be pairwise disjoint")

    def as_tuple(self) -> tuple[frozenset[str], ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.b1, self.b2, self.b3, self.b4)

    @property
    def union(self) -> frozenset[str]:
        return frozenset().union(*self.as_tuple())

    def sides(self) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
        """The three two-way partitions (x, y, z) the blocks regroup into."""
        a1, a2, a3, a4, b1, b2, b3, b4 = self.as_tuple()
        return (
            (a1 | a2 | a3 | a4, b1 | b2 | b3 | b4),
            (a1 | a2 | b3 | b4, b1 | b2 | a3 | a4),
            (a1 | a3 | b2 | b4, b1 | b3 | a2 | a4),
        )

    def as_partition_triple(self, e_var: str) -> PartitionTriple:
        """``sides()`` as a partition triple at pivot values 0 and 1; no side may be empty."""
        x, y, z = self.sides()
        return PartitionTriple(*x, *y, *z, e_var)


def check_pt_bin(
    table_or_oracle: CiOracle | JointTable, blocks: PtBinBlocks, e_var: str
) -> CheckResult:
    """Eight-block reformulation of the partition implication for binary pivots.

    Empty blocks are allowed: an empty first block makes its consequent
    disjunct trivially true.  The premises are asked of ``blocks.sides()``,
    the same regrouping ``as_partition_triple`` builds, so this check agrees
    with ``check_clean`` whenever both first blocks are non-empty.  A table
    is wrapped in ``CiOracle(table)``; pass an oracle to choose the
    tolerance, as in ``check_clean``.
    """
    oracle = _as_oracle(table_or_oracle)
    ground = _pivot_ground(oracle, e_var)
    if len(oracle.universe.domain(e_var)) != 2:
        raise InvalidPartition("the pivot variable must be binary")
    if blocks.union != ground:
        raise InvalidPartition("blocks must cover the universe minus the pivot")
    mask_of = oracle.universe.sets.mask_of
    sides = (mask_of(side) for side, _ in blocks.sides())
    return _implication(oracle, mask_of((e_var,)), *sides, mask_of(blocks.a1), mask_of(blocks.b1))


@dataclass(frozen=True)
class GaussianPropertyViolation:
    prop: str
    sets: tuple[tuple[str, ...], ...]


def gaussian_axioms_check(g: GaussianModel) -> list[GaussianPropertyViolation]:
    """Sweep composition and marginal weak transitivity over small set triples.

    Composition: I(X,Y|Z) and I(X,W|Z) must give I(X, Y+W | Z).  Marginal
    weak transitivity: I(X,Y) and I(X,Y|e) must give I(X,e) or I(e,Y).  The
    unification property (value-specific independence lifting to the
    variable level) is structurally satisfied because the oracle never takes
    conditioning values, so it is not sweepable and never reported.  Every
    query is asked at the default Gaussian tolerance of ``CiOracle``, in
    masks over the sorted names, and a premise is asked only where a
    conclusion could follow from it.  Both properties are symmetric in a pair
    of sets (Y and W; X and Y), so a violation is listed once, with the
    pair's smaller sorted tuple first.
    """
    _check_bound(g.universe, MAX_GAUSSIAN_SWEEP_VARS, "sweep bound")
    out: list[GaussianPropertyViolation] = []
    holds = CiOracle(g)._holds
    tuple_of = g.universe.sets.tuple_of
    full = (1 << len(g.universe.variables)) - 1

    # Composition is symmetric in the two merged sets, so each unordered pair
    # is asked once, as (Y, W) with Y's sorted tuple the smaller.  The names
    # are sorted, so between disjoint sets that is the set with the lower
    # lowest bit: W ranges over the rest above Y's lowest bit, and I(X,Y|Z)
    # is asked only when such a W exists.
    for z in range(full + 1):
        for x in _submasks(full ^ z):
            if not x:
                continue
            rest_x = full ^ z ^ x
            for y in _submasks(rest_x):
                above = (rest_x ^ y) & -((y & -y) << 1)
                if not above or not holds(x, y, z):
                    continue
                for w in _submasks(above):
                    if w and holds(x, w, z) and not holds(x, y | w, z):
                        sets = tuple(map(tuple_of, (x, y, w, z)))
                        out.append(GaussianPropertyViolation("composition", sets))

    # Marginal weak transitivity is symmetric in X and Y, so each unordered
    # pair is asked once, with X the set of the lower lowest bit.
    for x in range(1, full + 1):
        x_low = x & -x
        for y in _submasks(full ^ x):
            rest = full ^ x ^ y
            if y & -y < x_low or not rest or not holds(x, y, 0):
                continue
            for e in _bits_of(rest):  # each variable e of the rest, lowest first
                if holds(x, y, e) and not (holds(x, e, 0) or holds(e, y, 0)):
                    sets = tuple(map(tuple_of, (x, y, e)))
                    out.append(GaussianPropertyViolation("marginal_weak_transitivity", sets))

    out.sort(key=lambda v: (v.prop, v.sets))
    return out

