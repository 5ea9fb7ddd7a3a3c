"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from navsynth.graph import ClickstreamTable, pair_keys, unpack_pairs


@pytest.fixture(scope="session")
def click_table():
    """Build a ClickstreamTable from a {(source id, target id): count} dict."""
    def build(interner, counts: dict) -> ClickstreamTable:
        pairs = np.array(list(counts), dtype=np.int64).reshape(-1, 2)
        keys = pair_keys(pairs[:, 0], pairs[:, 1])
        order = np.argsort(keys)
        return ClickstreamTable(interner, keys[order],
                                np.array(list(counts.values()), dtype=np.int64)[order])
    return build


@pytest.fixture(scope="session")
def click_counts():
    """The {(source id, target id): count} dict of a ClickstreamTable."""
    def counts(table: ClickstreamTable) -> dict:
        pairs = zip(*(ids.tolist() for ids in unpack_pairs(table.entries)))
        return dict(zip(pairs, table.counts.tolist()))
    return counts
