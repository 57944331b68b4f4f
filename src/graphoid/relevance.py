"""Relevance relations between variables and transitivity of relevance.

Three relations are computed independently so their theoretical coincidences
can be cross-validated rather than assumed:

* mutually irrelevant -- (x, y | Z) holds for every conditioning set Z;
* uncoupled -- the universe splits into two marginally independent halves
  separating x from y (found by brute-force partition scan);
* unrelated -- x and y land in different components of a minimal network.

The module also checks the partition-triple implication that makes a
distribution family transitive, its eight-block reformulation for binary
tables, and the covariance properties that settle the Gaussian case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bayesnet import build_network, connecting_trail
from .dist_oracle import CiOracle, GaussianModel, JointTable, is_value_index
from .errors import InvalidPartition, UniverseTooLarge
from .model_core import label_blocks, subset_table, subsets_lex

MAX_PAIR_SWEEP_VARS = 12
MAX_TRANSITIVITY_VARS = 8
MAX_GAUSSIAN_SWEEP_VARS = 6

MUTUALLY_IRRELEVANT = "mutually_irrelevant"
UNCOUPLED = "uncoupled"
UNRELATED = "unrelated"

ANTECEDENT_FAILS = "antecedent_fails"
CONSEQUENT_HOLDS = "consequent_holds"
VIOLATION = "violation"

# One two-way partition of a variable set, as its (first, second) sides.
Split = tuple[frozenset[str], frozenset[str]]


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


def _pair_rest(oracle: CiOracle, x: str, y: str) -> frozenset[str]:
    """The variables a pair sweep ranges over: the universe minus x and y."""
    names = oracle.universe.names
    if len(names) > MAX_PAIR_SWEEP_VARS:
        raise UniverseTooLarge(
            f"{len(names)} variables exceed the sweep bound of {MAX_PAIR_SWEEP_VARS}"
        )
    if x == y:
        raise ValueError("x and y must differ")
    return names - oracle.universe.require({x, y})


def mutually_irrelevant(oracle: CiOracle, x: str, y: str) -> RelationVerdict:
    """Whether ({x}, {y} | Z) holds for every Z avoiding x and y.

    On failure the witness is the lexicographically least violating Z.
    """
    rest = _pair_rest(oracle, x, y)
    for z_set in subsets_lex(rest):
        if not oracle.ci({x}, {y}, z_set):
            return RelationVerdict(MUTUALLY_IRRELEVANT, False, z_set)
    return RelationVerdict(MUTUALLY_IRRELEVANT, True)


def uncoupled(oracle: CiOracle, x: str, y: str) -> RelationVerdict:
    """Scan every partition with x on one side and y on the other.

    This is the definitional brute-force oracle; it never consults a network,
    so network-based answers can be validated against it.  The witness is the
    first qualifying partition in lexicographic scan order.
    """
    rest = _pair_rest(oracle, x, y)
    for with_x in subsets_lex(rest):
        side_x = with_x | {x}
        side_y = (rest - with_x) | {y}
        if oracle.ci(side_x, side_y, ()):
            return RelationVerdict(UNCOUPLED, True, (side_x, side_y))
    return RelationVerdict(UNCOUPLED, False)


def unrelated(oracle: CiOracle, x: str, y: str) -> RelationVerdict:
    """Disconnectedness in one minimal network under the listing order.

    Component structure is the same for every construction order, so a single
    network suffices.  A connecting trail witnesses failure.
    """
    if x == y:
        raise ValueError("x and y must differ")
    oracle.universe.require({x, y})
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
    names = sorted(oracle.universe.variables)
    if len(names) > MAX_TRANSITIVITY_VARS:
        raise UniverseTooLarge(
            f"{len(names)} variables exceed the bound of {MAX_TRANSITIVITY_VARS}"
        )
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
        if not (x1 and x2 and y1 and y2 and z1 and z2):
            raise InvalidPartition("partition sides must be non-empty")
        if x1 & x2 or y1 & y2 or z1 & z2:
            raise InvalidPartition("partition sides must be disjoint")
        ground = x1 | x2
        if y1 | y2 != ground or z1 | z2 != ground:
            raise InvalidPartition("all three partitions must cover the same set")
        if self.e_var in ground:
            raise InvalidPartition("the pivot variable cannot be partitioned")
        if len(self.e_values) != 2:
            raise InvalidPartition("exactly two pivot values are required")
        if self.e_values[0] == self.e_values[1]:
            raise InvalidPartition("the two pivot values must differ")
        object.__setattr__(self, "ground", ground)

    @property
    def r1(self) -> frozenset[str]:
        return self.x1 & self.y1 & self.z1

    @property
    def r2(self) -> frozenset[str]:
        return self.x2 & self.y2 & self.z2


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
    """The universe minus the pivot, which must be one of its variables."""
    if e_var not in oracle.universe.names:
        raise InvalidPartition(f"unknown pivot variable {e_var}")
    return oracle.universe.names - {e_var}


def _conclusion(
    oracle: CiOracle, first: frozenset[str], second: frozenset[str], e_var: str,
    ground: frozenset[str],
) -> CheckResult:
    """Whether ``first`` or ``second`` is independent of everything else and the pivot."""
    c1 = oracle.ci(first, {e_var} | (ground - first))
    c2 = oracle.ci(second, {e_var} | (ground - second))
    if c1 or c2:
        return CheckResult(CONSEQUENT_HOLDS, c1, c2)
    return CheckResult(VIOLATION, False, False)


def _implication(
    oracle: CiOracle, x: Split, y: Split, z: Split, first: frozenset[str],
    second: frozenset[str], e_var: str, e_values: tuple[int, int], ground: frozenset[str],
) -> CheckResult:
    """The implication core of both forms: premises i1, i2, i3, then the conclusion.

    i1 asks the first partition with the pivot summed out, i2 the second given
    the first pivot value, i3 the third given the other; the first unmet
    premise is reported, and when all hold ``_conclusion`` decides.
    """
    if not oracle.ci(*x):
        return CheckResult(ANTECEDENT_FAILS, detail="i1")
    if not oracle.ci_given_value(*y, e_var, e_values[0]):
        return CheckResult(ANTECEDENT_FAILS, detail="i2")
    if not oracle.ci_given_value(*z, e_var, e_values[1]):
        return CheckResult(ANTECEDENT_FAILS, detail="i3")
    return _conclusion(oracle, first, second, e_var, ground)


def check_clean(
    dist_or_oracle: CiOracle | JointTable | GaussianModel, pt: PartitionTriple
) -> CheckResult:
    """Partition-triple implication behind transitivity of the distribution family.

    Premises: the first partition is independent with the pivot summed out,
    the second given one pivot value, the third given the other.  Conclusion:
    one of the two triple-intersection cells is independent of everything
    else including the pivot.

    A table or Gaussian is wrapped in ``CiOracle(dist)`` at the default
    tolerance; pass an oracle to choose the tolerance or to share its memo
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
            if not is_value_index(v, n_values):
                raise InvalidPartition(f"pivot value index {v} out of range")

    r1, r2 = pt.r1, pt.r2
    if not (r1 and r2):
        return CheckResult(ANTECEDENT_FAILS, detail="empty_r2" if r1 else "empty_r1")
    return _implication(
        oracle, (pt.x1, pt.x2), (pt.y1, pt.y2), (pt.z1, pt.z2), r1, r2,
        pt.e_var, pt.e_values, ground,
    )


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

    def sides(self) -> tuple[Split, Split, Split]:
        """The three two-way partitions (x, y, z) the blocks regroup into."""
        a1, a2, a3, a4, b1, b2, b3, b4 = self.as_tuple()
        return (
            (a1 | a2 | a3 | a4, b1 | b2 | b3 | b4),
            (a1 | a2 | b3 | b4, b1 | b2 | a3 | a4),
            (a1 | a3 | b2 | b4, b1 | b3 | a2 | a4),
        )

    def as_partition_triple(
        self, e_var: str, e_values: tuple[int, int] = (0, 1)
    ) -> PartitionTriple:
        """The three-partition form of ``sides()``; every side must be non-empty."""
        x, y, z = self.sides()
        return PartitionTriple(*x, *y, *z, e_var, e_values)


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
    return _implication(oracle, *blocks.sides(), blocks.a1, blocks.b1, e_var, (0, 1), ground)


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
    query is asked at the default Gaussian tolerance of ``CiOracle``.
    """
    names = sorted(g.universe.variables)
    if len(names) > MAX_GAUSSIAN_SWEEP_VARS:
        raise UniverseTooLarge(
            f"{len(names)} variables exceed the sweep bound of {MAX_GAUSSIAN_SWEEP_VARS}"
        )
    out: list[GaussianPropertyViolation] = []
    ci = CiOracle(g).ci
    table = subset_table(names)

    for codes in itertools.product(range(5), repeat=len(names)):
        if 1 not in codes or 2 not in codes or 3 not in codes:
            continue
        _, x, y, w, z = label_blocks(table, codes, 5)
        if tuple(sorted(y)) > tuple(sorted(w)):
            continue  # composition is symmetric in the two merged sets
        if ci(x, y, z) and ci(x, w, z) and not ci(x, y | w, z):
            out.append(
                GaussianPropertyViolation(
                    "composition",
                    (tuple(sorted(x)), tuple(sorted(y)), tuple(sorted(w)), tuple(sorted(z))),
                )
            )

    for codes in itertools.product(range(3), repeat=len(names)):
        if 1 not in codes or 2 not in codes:
            continue
        _, x, y = label_blocks(table, codes, 3)
        for e in names:
            if e in x or e in y:
                continue
            if ci(x, y, ()) and ci(x, y, {e}) and not (ci(x, {e}, ()) or ci({e}, y, ())):
                out.append(
                    GaussianPropertyViolation(
                        "marginal_weak_transitivity",
                        (tuple(sorted(x)), tuple(sorted(y)), (e,)),
                    )
                )

    out.sort(key=lambda v: (v.prop, v.sets))
    return out

