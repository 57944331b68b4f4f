"""Similarity networks over a distinguished hypothesis variable.

A similarity network is a set of small local Bayesian networks, one per
subset of hypothesis values, each holding only the variables that help tell
those hypotheses apart.  Two inclusion rules exist: type 1 keeps a variable
when it is *related* to the hypothesis (connected in the minimal network of
the restricted distribution); type 2 keeps it when it is *relevant* (not
mutually irrelevant).  For transitive distributions the two coincide.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .bayesnet import Dag, build_network, connected_components
from .dist_oracle import CiOracle, JointTable, is_value_index, marginalize
from .errors import InvalidPartition, UnknownVariable, ZeroProbabilityEvidence
from .model_core import Universe
from .relevance import mutually_irrelevant


@dataclass(frozen=True)
class HypothesisCover:
    """A family of hypothesis-value subsets whose union is the full domain."""

    h: str
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for sub in self.subsets:
            values = tuple(sorted(set(sub)))
            if len(values) < 2:
                raise InvalidPartition("every cover subset needs at least two values")
            cleaned.append(values)
        object.__setattr__(self, "subsets", tuple(cleaned))

    def validate_for(self, universe: Universe) -> None:
        domain = universe.domain(self.h)
        covered: set[int] = set()
        for sub in self.subsets:
            if not all(is_value_index(v, len(domain)) for v in sub):
                raise InvalidPartition(f"value index out of range for {self.h}")
            covered.update(sub)
        if covered != set(range(len(domain))):
            raise InvalidPartition("cover subsets must union to the full domain")


@dataclass(frozen=True)
class LocalNetwork:
    """One local network: the hypotheses it serves, the kept variables, the dag."""

    hypotheses: tuple[int, ...]
    included: frozenset[str]
    dag: Dag

    def to_json_dict(self) -> dict:
        return {
            "hypotheses": list(self.hypotheses),
            "included": sorted(self.included),
            "dag": self.dag.to_json_dict(),
        }


@dataclass(frozen=True)
class SimilarityNetwork:
    cover: HypothesisCover
    locals: tuple[LocalNetwork, ...]
    net_type: int

    def to_json_dict(self) -> dict:
        return {
            "h": self.cover.h,
            "type": self.net_type,
            "locals": [ln.to_json_dict() for ln in self.locals],
        }


def restrict_to_hypotheses(table: JointTable, h: str, hypotheses) -> JointTable:
    """Condition the table on the hypothesis drawing its value from ``hypotheses``.

    The hypothesis domain shrinks to the selected values (in index order) and
    the table renormalizes.
    """
    axis = table.universe.index(h)
    domain = table.universe.domain(h)
    values = tuple(sorted(set(hypotheses)))
    if not all(is_value_index(v, len(domain)) for v in values):
        raise UnknownVariable(f"value index out of range for {h}")
    slab = np.take(table.probs, values, axis=axis)
    mass = float(slab.sum())
    if mass <= 0.0:
        raise ZeroProbabilityEvidence(f"P({h} in {list(values)}) = 0")
    variables = table.universe.variables
    domains = tuple(
        tuple(domain[v] for v in values) if name == h else table.universe.domain(name)
        for name in variables
    )
    return JointTable(Universe(variables, domains), slab / mass)


def _included_variables(oracle: CiOracle, h: str, net_type: int) -> frozenset[str]:
    """Variables of the oracle's universe that type ``net_type`` keeps beside ``h``."""
    others = [v for v in oracle.universe.variables if v != h]
    if net_type == 1:
        dag = build_network(oracle)
        for comp in connected_components(dag):
            if h in comp:
                return frozenset(comp) - {h}
        raise AssertionError("h always lands in some component")
    if net_type == 2:
        return frozenset(v for v in others if not mutually_irrelevant(oracle, v, h).holds)
    raise ValueError(f"net_type must be 1 or 2, got {net_type}")


def build_local(table: JointTable, h: str, hypotheses, net_type: int) -> LocalNetwork:
    """Local network for one cover subset.

    Inclusion is decided over the restricted distribution; the local dag is
    then built over the hypothesis plus the kept variables, hypothesis first,
    remaining variables in universe order.
    """
    restricted = restrict_to_hypotheses(table, h, hypotheses)
    included = _included_variables(CiOracle(restricted), h, net_type)
    local_names = (h,) + tuple(v for v in table.universe.variables if v in included)
    local_table = marginalize(restricted, local_names)
    dag = build_network(CiOracle(local_table), local_names)
    return LocalNetwork(tuple(sorted(set(hypotheses))), included, dag)


def build_similarity(table: JointTable, cover: HypothesisCover, net_type: int) -> SimilarityNetwork:
    """One local network per cover subset; subsets are handled independently."""
    cover.validate_for(table.universe)
    locals_ = tuple(build_local(table, cover.h, sub, net_type) for sub in cover.subsets)
    return SimilarityNetwork(cover, locals_, net_type)


@dataclass(frozen=True)
class SubsetDivergence:
    """Variables the two inclusion rules disagree on for one cover subset."""

    hypotheses: tuple[int, ...]
    only_related: tuple[str, ...]
    only_relevant: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "hypotheses": list(self.hypotheses),
            "only_related": list(self.only_related),
            "only_relevant": list(self.only_relevant),
        }


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    divergences: tuple[SubsetDivergence, ...]

    def to_json_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "divergences": [d.to_json_dict() for d in self.divergences],
        }


def types_equivalent(table: JointTable, cover: HypothesisCover) -> EquivalenceReport:
    """Whether the related-based and relevant-based inclusion rules coincide."""
    cover.validate_for(table.universe)
    divergences = []
    for sub in cover.subsets:
        # Both rules ask one oracle, so they share its verdict memo.
        oracle = CiOracle(restrict_to_hypotheses(table, cover.h, sub))
        related = _included_variables(oracle, cover.h, 1)
        relevant = _included_variables(oracle, cover.h, 2)
        if related != relevant:
            divergences.append(
                SubsetDivergence(
                    tuple(sub),
                    tuple(sorted(related - relevant)),
                    tuple(sorted(relevant - related)),
                )
            )
    return EquivalenceReport(not divergences, tuple(divergences))
