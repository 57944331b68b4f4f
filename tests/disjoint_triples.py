"""Every ordered triple of pairwise-disjoint variable sets, for tests that
sweep all queries over a universe.

The package asks its queries as masks (``dist_oracle._table_queries``);
this generator yields the same statements as sets, 4^n of them with both
orientations and the empty sides, in the order the reference generator of
``test_model_core`` pins.
"""

import itertools

from graphoid.model_core import label_blocks, subset_table


def iter_disjoint_triples(names):
    """All ordered triples of pairwise-disjoint subsets of ``names`` (4^n of them)."""
    table = subset_table(names)
    for codes in itertools.product(range(4), repeat=len(table.names)):
        _, x, y, z = label_blocks(table, codes, 4)
        yield x, y, z
