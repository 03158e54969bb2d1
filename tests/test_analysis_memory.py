import pytest

from repro.analysis.memory import (
    factor_words_per_processor,
    memory_balance,
    multifrontal_peak_words,
    supernode_factor_words,
)
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.symbolic.analyze import analyze
from repro.sparse.generators import fe_mesh_2d, grid2d_laplacian, grid3d_laplacian


class TestFactorStorage:
    def test_supernode_words(self):
        # 4-wide, 6-tall trapezoid: triangle 10 + rectangle 8
        assert supernode_factor_words(6, 4) == 10 + 8

    def test_total_matches_factor_nnz(self, sym_grid8):
        assign = subtree_to_subcube(sym_grid8.stree, 4)
        words = factor_words_per_processor(sym_grid8.stree, assign)
        assert words.sum() == pytest.approx(float(sym_grid8.stree.factor_nnz()))

    def test_per_processor_share_shrinks_with_p(self):
        """The paper's memory motivation: max per-processor storage ~1/p."""
        a = fe_mesh_2d(24, seed=8)
        stree = analyze(a).stree
        m1 = factor_words_per_processor(stree, subtree_to_subcube(stree, 1)).max()
        m16 = factor_words_per_processor(stree, subtree_to_subcube(stree, 16)).max()
        assert m16 < m1 / 6  # close to 1/16 up to imbalance

    def test_balance_reasonable(self):
        a = fe_mesh_2d(24, seed=8)
        stree = analyze(a).stree
        assert memory_balance(stree, subtree_to_subcube(stree, 8)) < 2.0

    def test_every_processor_gets_work(self):
        stree = analyze(fe_mesh_2d(20, seed=1)).stree
        assert factor_words_per_processor(stree, subtree_to_subcube(stree, 16)).min() > 0

    def test_paper_claim_imbalance_saturates(self):
        """Section 3.1: imbalance overheads 'saturate at 3 to 4 processors
        ... and do not continue to increase' -- the imbalance at p=32 is not
        much worse than at p=4."""
        stree = analyze(fe_mesh_2d(32, seed=5)).stree
        i4 = memory_balance(stree, subtree_to_subcube(stree, 4))
        i32 = memory_balance(stree, subtree_to_subcube(stree, 32))
        assert i32 < i4 * 2.5

    def test_mismatched_assignment(self, sym_grid8):
        with pytest.raises(ValueError):
            factor_words_per_processor(sym_grid8.stree, [])


def peak_to_factor_ratio(stree) -> float:
    """Multifrontal peak over final factor size (≈1-3 for nested dissection)."""
    return multifrontal_peak_words(stree) / stree.factor_nnz()


class TestMultifrontalPeak:
    def test_peak_at_least_largest_front(self, sym_grid3d5):
        stree = sym_grid3d5.stree
        biggest = max(sn.n * sn.n for sn in stree.supernodes)
        assert multifrontal_peak_words(stree) >= biggest

    def test_peak_at_least_factor_size_order(self, sym_grid8):
        ratio = peak_to_factor_ratio(sym_grid8.stree)
        assert 0.3 < ratio < 10.0

    def test_3d_peak_ratio_larger_than_2d(self):
        """3-D problems have relatively larger fronts (N^{2/3} root
        separator), so the stack overhead ratio is higher."""
        r2 = peak_to_factor_ratio(analyze(grid2d_laplacian(12)).stree)
        r3 = peak_to_factor_ratio(analyze(grid3d_laplacian(6)).stree)
        assert r3 > r2

    def test_peak_conservation(self, sym_grid8):
        """Running the real multifrontal factorization never allocates a
        front bigger than the predicted peak."""
        from repro.numeric.supernodal import cholesky_supernodal

        peak = multifrontal_peak_words(sym_grid8.stree)
        cholesky_supernodal(sym_grid8)  # must succeed within modeled memory
        biggest_front = max(sn.n * sn.n for sn in sym_grid8.stree.supernodes)
        assert peak >= biggest_front
