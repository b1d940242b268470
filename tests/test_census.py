"""The census of every small graph (``census.py``) up to five half-edges."""
from __future__ import annotations

from census import Counts, census


def test_every_graph_on_at_most_five_half_edges_passes_every_verdict():
    """The counts pin what ``validate`` accepts and the domain of the move:
    a change to either shows here.  In all, 32 maps, 105 graphs and 753
    moves."""
    expected = {
        1: Counts(1, 0, 0, 0),
        2: Counts(3, 7, 11, 2),
        3: Counts(3, 8, 32, 8),
        4: Counts(10, 34, 174, 14),
        5: Counts(15, 56, 536, 56),
    }
    for n, counts in expected.items():
        assert census(n) == (counts, []), n
