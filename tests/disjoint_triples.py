"""Every ordered triple of pairwise-disjoint variable sets, for tests that
sweep all queries over a universe, every subset listed at its mask, and a
reset of the package's shared ``VariableSets``.

The package asks its queries as masks (``dist_oracle._table_queries``);
this generator yields the same statements as sets, 4^n of them with both
orientations and the empty sides, in the order the reference generator of
``test_model_core`` pins.
"""

import itertools

from graphoid.dist_oracle import _drawn_universe
from graphoid.model_core import _variable_sets, label_blocks


def variable_sets(names):
    """The package's shared ``VariableSets`` of ``names``, in any order."""
    return _variable_sets(tuple(sorted(names)))


def forget_variable_sets():
    """Drop every shared ``VariableSets``, and the seeded generators'
    universes that hold one, so the next universe over any names starts with
    nothing learnt."""
    _variable_sets.cache_clear()
    _drawn_universe.cache_clear()


def by_mask(names):
    """Every subset of ``names`` at its mask: bit i is the i-th sorted name."""
    sets = variable_sets(names)
    return [sets.set_of(mask) for mask in range(1 << len(sets.names))]


def iter_disjoint_triples(names):
    """All ordered triples of pairwise-disjoint subsets of ``names`` (4^n of them)."""
    sets = variable_sets(names)
    for codes in itertools.product(range(4), repeat=len(sets.names)):
        _, x, y, z = label_blocks(sets, codes, 4)
        yield x, y, z
