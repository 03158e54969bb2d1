import numpy as np
import pytest

from repro.machine.presets import cray_t3d
from repro.mapping.layouts import BlockCyclic1D, BlockCyclic2D
from repro.mapping.redistribution import (
    redistribute_supernode,
    redistribution_time,
    total_redistribution_time,
)
from repro.mapping.subtree_subcube import ProcSet, subtree_to_subcube


class TestProcSet:
    def test_basic(self):
        ps = ProcSet(4, 4)
        assert ps.stop == 8
        assert list(ps.ranks()) == [4, 5, 6, 7]
        assert 5 in ps and 8 not in ps

    def test_halves(self):
        lo, hi = ProcSet(0, 8).halves()
        assert (lo.start, lo.size) == (0, 4)
        assert (hi.start, hi.size) == (4, 4)

    def test_halve_singleton_rejected(self):
        with pytest.raises(ValueError):
            ProcSet(0, 1).halves()

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ProcSet(0, 3)


class TestSubtreeToSubcube:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_every_supernode_assigned(self, sym_grid8, p):
        assign = subtree_to_subcube(sym_grid8.stree, p)
        assert len(assign) == sym_grid8.stree.nsuper
        for ps in assign:
            assert 0 <= ps.start and ps.stop <= p

    def test_root_gets_all_processors(self, sym_grid8):
        assign = subtree_to_subcube(sym_grid8.stree, 8)
        for root in sym_grid8.stree.roots():
            assert assign[root] == ProcSet(0, 8)

    def test_child_subcube_within_parent(self, sym_grid8):
        assign = subtree_to_subcube(sym_grid8.stree, 8)
        stree = sym_grid8.stree
        for s in range(stree.nsuper):
            for c in stree.children[s]:
                child, parent = assign[c], assign[s]
                assert parent.start <= child.start and child.stop <= parent.stop

    def test_sibling_subcubes_disjoint_when_split(self, sym_grid3d5):
        assign = subtree_to_subcube(sym_grid3d5.stree, 16)
        stree = sym_grid3d5.stree
        for s in range(stree.nsuper):
            kids = stree.children[s]
            if assign[s].size >= 2 and len(kids) >= 2:
                # two heaviest children land on disjoint halves
                ranges = [(assign[c].start, assign[c].stop) for c in kids]
                # at least two children must not share the same subcube
                assert len(set(ranges)) >= 2

    def test_sequential_subtree_stays_on_one_proc(self, sym_grid8):
        assign = subtree_to_subcube(sym_grid8.stree, 4)
        stree = sym_grid8.stree
        for s in range(stree.nsuper):
            if assign[s].size == 1:
                for c in stree.children[s]:
                    assert assign[c] == assign[s]

    def test_p1_all_on_proc_zero(self, sym_grid8):
        assign = subtree_to_subcube(sym_grid8.stree, 1)
        assert all(ps == ProcSet(0, 1) for ps in assign)

    def test_level_q_matches_paper(self, sym_grid8):
        """A supernode at tree level l gets about p / 2^l processors
        (exactly, for a balanced binary tree)."""
        p = 8
        assign = subtree_to_subcube(sym_grid8.stree, p)
        stree = sym_grid8.stree
        for s in range(stree.nsuper):
            q = assign[s].size
            lvl = int(stree.level[s])
            assert q <= max(p >> lvl, 1) * 2  # allow slack for imbalance

    def test_rejects_non_power_of_two(self, sym_grid8):
        with pytest.raises(ValueError):
            subtree_to_subcube(sym_grid8.stree, 6)


class TestBlockCyclic1D:
    def test_owner_round_robin(self):
        lay = BlockCyclic1D(n=20, b=4, procs=ProcSet(0, 2))
        assert [lay.owner_of_block(k) for k in range(5)] == [0, 1, 0, 1, 0]

    def test_offset_proc_set(self):
        lay = BlockCyclic1D(n=8, b=4, procs=ProcSet(4, 2))
        assert lay.owner_of_block(0) == 4
        assert lay.owner_of_block(1) == 5

    def test_items_partition(self):
        lay = BlockCyclic1D(n=13, b=3, procs=ProcSet(0, 4))
        all_items = sorted(i for r in range(4) for i in lay.items_of(r))
        assert all_items == list(range(13))

    def test_owner_of_item_consistent(self):
        lay = BlockCyclic1D(n=13, b=3, procs=ProcSet(0, 4))
        for i in range(13):
            assert i in lay.items_of(lay.owner_of_item(i))


class TestBlockCyclic2D:
    def test_grid_square_for_even_log(self):
        assert BlockCyclic2D(n=8, t=8, b=2, procs=ProcSet(0, 16)).grid == (4, 4)

    def test_grid_tall_for_odd_log(self):
        assert BlockCyclic2D(n=8, t=8, b=2, procs=ProcSet(0, 8)).grid == (4, 2)

    def test_owner_in_range(self):
        lay = BlockCyclic2D(n=16, t=8, b=2, procs=ProcSet(0, 8))
        owners = {
            lay.owner_of_block(i, j)
            for i in range(lay.nrow_blocks)
            for j in range(lay.ncol_blocks)
        }
        assert owners <= set(range(8))
        assert len(owners) == 8  # all procs used for a big enough block grid


class TestRedistribution:
    def test_data_movement_correct(self, rng):
        n, t, q = 16, 8, 4
        block = rng.normal(size=(n, t))
        l2 = BlockCyclic2D(n=n, t=t, b=2, procs=ProcSet(0, q))
        l1 = BlockCyclic1D(n=n, b=2, procs=ProcSet(0, q))
        pieces, traffic = redistribute_supernode(block, l2, l1)
        for rank in range(q):
            np.testing.assert_allclose(pieces[rank], block[l1.items_of(rank), :])
        assert sum(traffic.values()) == n * t  # every element moved or kept

    def test_traffic_has_offdiagonal(self, rng):
        block = rng.normal(size=(8, 8))
        l2 = BlockCyclic2D(n=8, t=8, b=2, procs=ProcSet(0, 4))
        l1 = BlockCyclic1D(n=8, b=2, procs=ProcSet(0, 4))
        _, traffic = redistribute_supernode(block, l2, l1)
        assert any(src != dst for src, dst in traffic)

    def test_time_zero_for_single_proc(self):
        assert redistribution_time(cray_t3d(), 64, 16, ProcSet(0, 1)) == 0.0

    def test_time_scales_with_data(self):
        spec = cray_t3d()
        t1 = redistribution_time(spec, 64, 16, ProcSet(0, 16))
        t2 = redistribution_time(spec, 128, 32, ProcSet(0, 16))
        assert t2 > 2 * t1

    def test_time_decreases_with_more_procs(self):
        """More processors -> less data per processor -> cheaper exchange
        (for fixed supernode size, in the bandwidth-dominated regime)."""
        spec = cray_t3d().with_(t_s=0.0)
        t4 = redistribution_time(spec, 256, 64, ProcSet(0, 4))
        t64 = redistribution_time(spec, 256, 64, ProcSet(0, 64))
        assert t64 < t4

    def test_total_redistribution_reasonable(self, sym_grid8):
        spec = cray_t3d()
        assign = subtree_to_subcube(sym_grid8.stree, 8)
        total = total_redistribution_time(spec, sym_grid8.stree, assign)
        assert total > 0.0

    def test_paper_claim_redistribution_below_solve(self):
        """Section 4 / Figure 7: redistribution costs at most ~0.9x the
        FBsolve time for one right-hand side (average ~0.5x on the T3D)."""
        import numpy as np

        from repro.core.solver import ParallelSparseSolver
        from repro.sparse.generators import grid2d_laplacian

        a = grid2d_laplacian(20)
        solver = ParallelSparseSolver(a, p=16).prepare()
        x, rep = solver.solve(np.ones(a.n), check=False)
        assert rep.redistribution_ratio <= 0.9
