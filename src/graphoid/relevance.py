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
from .dist_oracle import CiOracle, GaussianModel, JointTable
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


def _pair_sweep_guard(oracle: CiOracle) -> tuple[str, ...]:
    names = oracle.universe.variables
    if len(names) > MAX_PAIR_SWEEP_VARS:
        raise UniverseTooLarge(
            f"{len(names)} variables exceed the sweep bound of {MAX_PAIR_SWEEP_VARS}"
        )
    return names


def mutually_irrelevant(oracle: CiOracle, x: str, y: str) -> RelationVerdict:
    """Whether ({x}, {y} | Z) holds for every Z avoiding x and y.

    On failure the witness is the lexicographically least violating Z.
    """
    names = _pair_sweep_guard(oracle)
    if x == y:
        raise ValueError("x and y must differ")
    oracle.universe.require({x, y})
    rest = frozenset(names) - {x, y}
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
    names = _pair_sweep_guard(oracle)
    if x == y:
        raise ValueError("x and y must differ")
    oracle.universe.require({x, y})
    rest = frozenset(names) - {x, y}
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


EMPTY_R1 = CheckResult(ANTECEDENT_FAILS, detail="empty_r1")
EMPTY_R2 = CheckResult(ANTECEDENT_FAILS, detail="empty_r2")


def _as_oracle(
    dist_or_oracle: CiOracle | JointTable | GaussianModel, tol: float | None
) -> CiOracle:
    if isinstance(dist_or_oracle, CiOracle):
        if tol is not None:
            raise ValueError("give the tolerance to the oracle, not alongside it")
        return dist_or_oracle
    return CiOracle(dist_or_oracle, tol)


def _unmet_premise(
    oracle: CiOracle,
    x: tuple[frozenset[str], frozenset[str]],
    y: tuple[frozenset[str], frozenset[str]],
    z: tuple[frozenset[str], frozenset[str]],
    e_var: str,
    e_values: tuple[int, int],
) -> str | None:
    """Name of the first premise that fails, or None when all three hold.

    i1 asks the first partition with the pivot summed out, i2 the second
    given the first pivot value, i3 the third given the other.
    """
    if not oracle.ci(*x):
        return "i1"
    if not oracle.ci_given_value(*y, e_var, e_values[0]):
        return "i2"
    if not oracle.ci_given_value(*z, e_var, e_values[1]):
        return "i3"
    return None


def _conclusion(
    oracle: CiOracle,
    first: frozenset[str],
    second: frozenset[str],
    e_var: str,
    ground: frozenset[str],
) -> CheckResult:
    """Whether ``first`` or ``second`` is independent of everything else and the pivot."""
    c1 = oracle.ci(first, {e_var} | (ground - first))
    c2 = oracle.ci(second, {e_var} | (ground - second))
    if c1 or c2:
        return CheckResult(CONSEQUENT_HOLDS, c1, c2)
    return CheckResult(VIOLATION, False, False)


def check_clean(
    dist_or_oracle: CiOracle | JointTable | GaussianModel,
    pt: PartitionTriple,
    tol: float | None = None,
) -> CheckResult:
    """Partition-triple implication behind transitivity of the distribution family.

    Premises: the first partition is independent with the pivot summed out,
    the second given one pivot value, the third given the other.  Conclusion:
    one of the two triple-intersection cells is independent of everything
    else including the pivot.

    A table or Gaussian is wrapped in ``CiOracle(dist, tol)``; pass one oracle
    (and no ``tol``) to share its memo across many checks.
    """
    oracle = _as_oracle(dist_or_oracle, tol)
    universe = oracle.universe
    if pt.e_var not in universe.names:
        raise InvalidPartition(f"unknown pivot variable {pt.e_var}")
    ground = universe.names - {pt.e_var}
    if pt.ground != ground:
        raise InvalidPartition("partitions must cover the universe minus the pivot")
    if isinstance(oracle.backend, JointTable):
        n_values = len(universe.domain(pt.e_var))
        for v in pt.e_values:
            if not 0 <= v < n_values:
                raise InvalidPartition(f"pivot value index {v} out of range")

    r1 = pt.r1
    if not r1:
        return EMPTY_R1
    r2 = pt.r2
    if not r2:
        return EMPTY_R2

    premise = _unmet_premise(
        oracle, (pt.x1, pt.x2), (pt.y1, pt.y2), (pt.z1, pt.z2), pt.e_var, pt.e_values
    )
    if premise is not None:
        return CheckResult(ANTECEDENT_FAILS, detail=premise)
    return _conclusion(oracle, r1, r2, pt.e_var, ground)


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
        blocks = self.as_tuple()
        total = sum(len(b) for b in blocks)
        union = frozenset().union(*blocks)
        if total != len(union):
            raise InvalidPartition("blocks must be pairwise disjoint")

    def as_tuple(self) -> tuple[frozenset[str], ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.b1, self.b2, self.b3, self.b4)

    @property
    def union(self) -> frozenset[str]:
        return frozenset().union(*self.as_tuple())

    def as_partition_triple(self, e_var: str, e_values: tuple[int, int] = (0, 1)) -> PartitionTriple:
        """Regroup the blocks into the three-partition form.

        Requires every resulting partition side to be non-empty.
        """
        return PartitionTriple(
            x1=self.a1 | self.a2 | self.a3 | self.a4,
            x2=self.b1 | self.b2 | self.b3 | self.b4,
            y1=self.a1 | self.a2 | self.b3 | self.b4,
            y2=self.b1 | self.b2 | self.a3 | self.a4,
            z1=self.a1 | self.a3 | self.b2 | self.b4,
            z2=self.b1 | self.b3 | self.a2 | self.a4,
            e_var=e_var,
            e_values=e_values,
        )


def check_pt_bin(
    table_or_oracle: CiOracle | JointTable,
    blocks: PtBinBlocks,
    e_var: str,
    tol: float | None = None,
) -> CheckResult:
    """Eight-block reformulation of the partition implication for binary pivots.

    Empty blocks are allowed: an empty first block makes its consequent
    disjunct trivially true.  Under the block-to-partition regrouping this
    check agrees with ``check_clean`` whenever both first blocks are
    non-empty.  A table is wrapped in ``CiOracle(table, tol)``, as in
    ``check_clean``.
    """
    oracle = _as_oracle(table_or_oracle, tol)
    universe = oracle.universe
    if e_var not in universe.names:
        raise InvalidPartition(f"unknown pivot variable {e_var}")
    if len(universe.domain(e_var)) != 2:
        raise InvalidPartition("the pivot variable must be binary")
    ground = universe.names - {e_var}
    if blocks.union != ground:
        raise InvalidPartition("blocks must cover the universe minus the pivot")

    a1, a2, a3, a4, b1, b2, b3, b4 = blocks.as_tuple()
    premise = _unmet_premise(
        oracle,
        (a1 | a2 | a3 | a4, b1 | b2 | b3 | b4),
        (a1 | a2 | b3 | b4, b1 | b2 | a3 | a4),
        (a1 | a3 | b2 | b4, b1 | b3 | a2 | a4),
        e_var,
        (0, 1),
    )
    if premise is not None:
        return CheckResult(ANTECEDENT_FAILS, detail=premise)
    return _conclusion(oracle, a1, b1, e_var, ground)


@dataclass(frozen=True)
class GaussianPropertyViolation:
    prop: str
    sets: tuple[tuple[str, ...], ...]


def gaussian_axioms_check(
    g: GaussianModel, tol: float | None = None
) -> list[GaussianPropertyViolation]:
    """Sweep composition and marginal weak transitivity over small set triples.

    Composition: I(X,Y|Z) and I(X,W|Z) must give I(X, Y+W | Z).  Marginal
    weak transitivity: I(X,Y) and I(X,Y|e) must give I(X,e) or I(e,Y).  The
    unification property (value-specific independence lifting to the
    variable level) is structurally satisfied because the oracle never takes
    conditioning values, so it is not sweepable and never reported.
    """
    names = sorted(g.universe.variables)
    if len(names) > MAX_GAUSSIAN_SWEEP_VARS:
        raise UniverseTooLarge(
            f"{len(names)} variables exceed the sweep bound of {MAX_GAUSSIAN_SWEEP_VARS}"
        )
    out: list[GaussianPropertyViolation] = []
    ci = CiOracle(g, tol).ci
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

