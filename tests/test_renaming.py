"""Renaming invariance: every verdict survives a renaming of the variables
whose sorted order differs from the axis order.

Every mask the package builds has bit i at the i-th *sorted* name, while a
table's axes and a Gaussian's covariance rows come in the *listed* order.
The seeded generators name their variables u1..un, whose sorted order is
the listed order, so a gather that read axes in mask order would pass every
suite.  Here each model is copied with u1..un renamed to f, c, a, e, b
(the first n of them), the same axes under names sorted otherwise, and the
copy must give the same answers: ``ci`` on every disjoint triple, and
``.holds`` of the three relations on every pair and of ``is_transitive``.
Witnesses may differ legitimately, since the sweeps run in sorted-name
order, so they are not compared.
"""

import itertools

import numpy as np
import pytest

from graphoid.dist_oracle import CiOracle, GaussianModel, JointTable, random_gaussian, random_spb
from graphoid.model_core import Universe
from graphoid.relevance import is_transitive, mutually_irrelevant, uncoupled, unrelated

from disjoint_triples import iter_disjoint_triples

RENAMED = ("f", "c", "a", "e", "b")


def _interleaved_product_table(n, seed):
    """A random binary table over u1..un that is the product of one random
    table over the odd-listed variables and one over the even-listed ones,
    so that two-sided independences hold across the two halves."""
    rng = np.random.default_rng(seed)
    odd, even = (n + 1) // 2, n // 2
    left = rng.uniform(0.1, 1.0, size=(2,) * odd)
    right = rng.uniform(0.1, 1.0, size=(2,) * even)
    probs = np.multiply.outer(left / left.sum(), right / right.sum())
    # axis k of the product is listed variable 2k (k < odd), else 2(k - odd) + 1
    order = [2 * k for k in range(odd)] + [2 * k + 1 for k in range(even)]
    probs = np.moveaxis(probs, range(n), order)
    return JointTable(Universe.binary(*(f"u{i + 1}" for i in range(n))), probs / probs.sum())


def _chain_gaussian(n, seed):
    """The Gaussian of a linear Markov chain through u1..un in a seeded
    order, with unit noise and weights of magnitude in [0.5, 1.5], so that
    each pair two apart on the chain is independent given the one between."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    b = np.zeros((n, n))
    b[order[1:], order[:-1]] = rng.uniform(0.5, 1.5, size=n - 1) * rng.choice([-1, 1], size=n - 1)
    inv = np.linalg.inv(np.eye(n) - b)
    return GaussianModel(
        Universe.reals(*(f"u{i + 1}" for i in range(n))), np.zeros(n), inv @ inv.T
    )


def _renamed(backend):
    """``backend`` with its i-th listed variable named ``RENAMED[i]``, the
    axes and numbers untouched, and the map from old names to new ones."""
    old = backend.universe.variables
    mapping = dict(zip(old, RENAMED))
    universe = Universe(tuple(mapping[v] for v in old), backend.universe.domains)
    if isinstance(backend, JointTable):
        return JointTable(universe, backend.probs), mapping
    return GaussianModel(universe, backend.mean, backend.covariance), mapping


SOURCES = {
    "spb": random_spb,
    "gaussian": random_gaussian,
    "product": _interleaved_product_table,
    "chain": _chain_gaussian,
}

CASES = [(source, n, seed) for source in SOURCES for n in range(2, 6) for seed in (0, 1)]


@pytest.mark.parametrize("source, n, seed", CASES)
def test_renaming_changes_no_verdict(source, n, seed):
    backend = SOURCES[source](n, seed)
    renamed, mapping = _renamed(backend)
    assert list(renamed.universe.sets.names) != [mapping[v] for v in backend.universe.variables]
    before, after = CiOracle(backend), CiOracle(renamed)

    def new(names):
        return {mapping[v] for v in names}

    held = 0
    for x, y, z in iter_disjoint_triples(backend.universe.variables):
        verdict = before.ci(x, y, z)
        assert after.ci(new(x), new(y), new(z)) == verdict
        held += verdict and bool(x and y)
    for a, b in itertools.combinations(backend.universe.variables, 2):
        for relation in (mutually_irrelevant, uncoupled, unrelated):
            assert relation(after, mapping[a], mapping[b]).holds == relation(before, a, b).holds
    assert is_transitive(after).holds == is_transitive(before).holds
    if source in ("product", "chain") and n >= 3:
        assert held > 0  # the comparison covers two-sided independences that hold
