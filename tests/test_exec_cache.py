"""Eviction behaviour of the weakref-keyed exec caches (plans, programs,
factors, certificates), and which paths fill them."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.exec import (
    certificate_for,
    clear_exec_caches,
    exec_cache_stats,
    plan_for,
    prepare_factor,
)
from repro.exec.plan import build_plan
from repro.numeric.supernodal import SupernodalFactor, cholesky_supernodal
from repro.sparse.generators import grid2d_laplacian
from repro.symbolic.analyze import analyze
from repro.verify.schedule import certify_plan


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_exec_caches()
    yield
    clear_exec_caches()


def _counts():
    stats = exec_cache_stats()
    return stats["plan_entries"], stats["factor_entries"], stats["cert_entries"]


def test_plan_cache_releases_when_structure_dies():
    sym = analyze(grid2d_laplacian(6))
    plan = plan_for(sym.stree)
    assert _counts() == (1, 0, 0)
    # The plan itself must not keep the structure alive: entries are
    # keyed by the structure's identity, and holding the *value* after
    # the anchor dies would resurrect stale schedules on id() reuse.
    del sym
    gc.collect()
    assert _counts() == (0, 0, 0)
    assert plan.ntasks > 0  # the evicted value stays usable for holders


def test_prepared_factor_evicted_with_factor():
    sym = analyze(grid2d_laplacian(6))
    factor = cholesky_supernodal(sym)
    prepare_factor(factor)
    assert exec_cache_stats()["factor_entries"] == 1
    del factor
    gc.collect()
    assert exec_cache_stats()["factor_entries"] == 0


def test_certificates_cached_alongside_plan_and_evicted_together():
    sym = analyze(grid2d_laplacian(6))
    assert certificate_for(sym.stree).ok
    assert _counts() == (1, 0, 1)

    stats = exec_cache_stats()
    assert stats["cert_misses"] == 1
    certificate_for(sym.stree)
    certificate_for(sym.stree)
    stats = exec_cache_stats()
    assert stats["cert_misses"] == 1  # memoized: the proof ran exactly once
    assert stats["cert_hits"] >= 2

    del sym
    gc.collect()
    assert _counts() == (0, 0, 0)


def test_uncertified_plan_does_not_pay_for_certification():
    sym = analyze(grid2d_laplacian(6))
    plan_for(sym.stree)
    assert exec_cache_stats()["cert_entries"] == 0


def test_distinct_grains_get_distinct_certificates():
    sym = analyze(grid2d_laplacian(6))
    c0 = certify_plan(build_plan(sym.stree, grain=0), sym.stree)
    c1 = certify_plan(build_plan(sym.stree, grain=4096), sym.stree)
    assert c0.ok and c1.ok
    assert c0.digest != c1.digest
    # The cache keys on the structure alone: one certificate, the default grain's.
    assert certificate_for(sym.stree).digest == c1.digest
    assert exec_cache_stats()["cert_entries"] == 1


def test_program_and_panels_cached_and_evicted():
    from repro.exec import fused_panels_for, program_for

    sym = analyze(grid2d_laplacian(6))
    factor = cholesky_supernodal(sym)
    assert program_for(sym.stree) is program_for(sym.stree)
    assert fused_panels_for(factor) is fused_panels_for(factor)
    stats = exec_cache_stats()
    assert stats["program_misses"] == 1 and stats["program_hits"] >= 1
    # the panels live in the factor's arena, in the cached program's entry
    arena = prepare_factor(factor).arena
    assert arena.stats()["owners"] == 1
    arena = weakref.ref(arena)
    del sym, factor
    gc.collect()
    stats = exec_cache_stats()
    assert stats["program_entries"] == 0 and stats["factor_entries"] == 0
    assert arena() is None


def test_racing_first_uses_share_one_value():
    # Two threads miss on one anchor at once and both build: both must get
    # the value filed first, or each would lease from an arena of its own.
    from repro.exec.cache import _IdentityCache

    cache, anchor, both_in = _IdentityCache(), analyze(grid2d_laplacian(3)).stree, threading.Barrier(2)
    got = []

    def build():
        both_in.wait(timeout=10)
        return object()

    threads = [threading.Thread(target=lambda: got.append(cache.get(anchor, build)))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(got) == 2 and got[0] is got[1] and cache.get(anchor, object) is got[0]
    assert len(cache) == 1


def test_fused_certificate_memoized_and_evicted():
    from repro.exec import fused_certificate_for, program_for

    sym = analyze(grid2d_laplacian(6))
    program_for(sym.stree, certify=True)
    program_for(sym.stree, certify=True)
    fused_certificate_for(sym.stree)
    stats = exec_cache_stats()
    assert stats["fused_cert_misses"] == 1  # the program proof ran once
    assert stats["fused_cert_hits"] >= 2
    del sym
    gc.collect()
    assert exec_cache_stats()["fused_cert_entries"] == 0


def test_no_product_path_builds_a_plan():
    # The fused solve, its certification, and the serving layer's
    # registration stand on the tree: the engine's plan cache stays cold.
    import numpy as np

    from repro.core.solver import ParallelSparseSolver
    from repro.exec import fused_certificate_for
    from repro.serve import FakeClock, SolveService

    a = grid2d_laplacian(6)
    solver = ParallelSparseSolver(a, p=1).prepare()
    _, rep = solver.solve(np.ones(a.n), backend="fused")
    assert rep.schedule_certificate is not None
    with SolveService(clock=FakeClock()) as service:
        service.register("grid", solver)
    assert fused_certificate_for(analyze(grid2d_laplacian(5)).stree).ok
    stats = exec_cache_stats()
    assert stats["fused_cert_misses"] == 2
    assert stats["plan_misses"] == 0 and stats["cert_misses"] == 0


@pytest.mark.parametrize("bad", [0.0, float("nan")], ids=["zero", "nan"])
def test_screen_names_the_first_bad_pivot_of_a_middle_supernode(bad):
    # The one-pass screen must report what a node-by-node screen would:
    # the first bad supernode and the global column of its first bad pivot.
    base = cholesky_supernodal(analyze(grid2d_laplacian(8)))
    stree = base.stree
    wide = [s for s, sn in enumerate(stree.supernodes) if sn.t >= 3]
    s = wide[len(wide) // 2]
    blocks = [blk.copy() for blk in base.blocks]
    blocks[s][2, 2] = bad  # its third pivot ...
    blocks[s + 1][0, 0] = bad  # ... ahead of a later supernode's first
    broken = SupernodalFactor(stree=stree, blocks=blocks)
    col = stree.supernodes[s].col_lo + 2
    message = (
        f"singular or non-finite diagonal in supernode {s} (global column {col}): "
        "triangular solve is undefined for this factor"
    )
    with pytest.raises(ValueError) as info:
        prepare_factor(broken)
    assert str(info.value) == message
    assert 0 < s < stree.nsuper - 1
