import pytest
from hypothesis import given, strategies as st

from repro.util.blocks import block_count, block_range


class TestBlockCount:
    def test_exact_division(self):
        assert block_count(12, 4) == 3

    def test_ragged_last_block(self):
        assert block_count(13, 4) == 4

    def test_zero_items(self):
        assert block_count(0, 4) == 0

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError):
            block_count(8, 0)


class TestBlockRange:
    def test_interior(self):
        assert block_range(1, 4, 13) == (4, 8)

    def test_short_tail(self):
        assert block_range(3, 4, 13) == (12, 13)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            block_range(4, 4, 13)


class TestSplitBlocks:
    def test_covers_everything(self):
        ranges = [block_range(k, 5, 13) for k in range(block_count(13, 5))]
        assert ranges == [(0, 5), (5, 10), (10, 13)]


@given(n=st.integers(1, 500), b=st.integers(1, 64))
def test_blocks_tile_range_exactly(n, b):
    """Property: blocks are disjoint, ordered, and cover [0, n)."""
    ranges = [block_range(k, b, n) for k in range(block_count(n, b))]
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n
    for (lo1, hi1), (lo2, _) in zip(ranges, ranges[1:]):
        assert hi1 == lo2
        assert hi1 - lo1 == b  # only the last block may be short
    lo, hi = ranges[-1]
    assert 0 < hi - lo <= b


@given(i=st.integers(0, 10_000), b=st.integers(1, 64))
def test_block_of_inverts_range(i, b):
    lo, hi = block_range(i // b, b, i + 1)
    assert lo <= i < hi
