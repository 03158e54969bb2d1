"""Workload generators.

The paper's analysis (Section 3) covers coefficient matrices whose graphs
are two- or three-dimensional *neighbourhood graphs* — finite-difference and
finite-element discretisations.  These generators produce exactly that
class, plus synthetic stand-ins for the Harwell-Boeing matrices the paper
benchmarks (see ``repro.experiments.matrices``):

* :func:`grid2d_laplacian` — 5-point stencil on a k x k grid (model 2-D).
* :func:`grid3d_laplacian` — 7-point stencil on a k x k x k grid (model 3-D,
  the CUBE35 analogue).
* :func:`fe_mesh_2d` / :func:`fe_mesh_3d` — 9- / 27-point stencils with
  jittered vertex coordinates and randomised element weights, which mimic
  the denser connectivity and irregularity of structural FE matrices
  (the BCSSTK / HSCT / COPTER analogues).
* :func:`random_spd` — an algebraic (non-geometric) control workload.

All matrices are made symmetric positive definite by strict diagonal
dominance, so Cholesky factorization never needs pivoting (matching the
paper's SPD setting).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.build import from_triplets
from repro.sparse.csc import SymCSC
from repro.util.validation import check_positive


def _assemble_spd(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    coords: np.ndarray | None,
    *,
    shift: float = 1.0,
) -> SymCSC:
    """Assemble off-diagonal triplets and add a dominance-enforcing diagonal."""
    absrow = np.zeros(n)
    np.add.at(absrow, rows, np.abs(vals))
    np.add.at(absrow, cols, np.abs(vals))
    diag = absrow + shift
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])
    return from_triplets(n, rows, cols, vals, coords=coords)


def grid2d_laplacian(k: int) -> SymCSC:
    """5-point Laplacian on a k x k grid: N = k^2, SPD, with coordinates."""
    check_positive(k, "grid dimension k")
    idx = np.arange(k * k).reshape(k, k)
    right = (idx[:, :-1].ravel(), idx[:, 1:].ravel())
    down = (idx[:-1, :].ravel(), idx[1:, :].ravel())
    rows = np.concatenate([right[0], down[0]])
    cols = np.concatenate([right[1], down[1]])
    vals = -np.ones(rows.shape[0])
    xx, yy = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()]).astype(np.float64)
    return _assemble_spd(k * k, rows, cols, vals, coords)


def grid3d_laplacian(k: int) -> SymCSC:
    """7-point Laplacian on a k x k x k grid: N = k^3, SPD, with coordinates."""
    check_positive(k, "grid dimension k")
    idx = np.arange(k**3).reshape(k, k, k)
    pairs = [
        (idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()),
        (idx[:, :-1, :].ravel(), idx[:, 1:, :].ravel()),
        (idx[:-1, :, :].ravel(), idx[1:, :, :].ravel()),
    ]
    rows = np.concatenate([p[0] for p in pairs])
    cols = np.concatenate([p[1] for p in pairs])
    vals = -np.ones(rows.shape[0])
    xx, yy, zz = np.meshgrid(np.arange(k), np.arange(k), np.arange(k), indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]).astype(np.float64)
    return _assemble_spd(k**3, rows, cols, vals, coords)


def fe_mesh_2d(k: int, *, seed: int = 0) -> SymCSC:
    """9-point (Moore-neighbourhood) FE-like mesh on a k x k grid.

    Randomised negative element weights and coordinates jittered by up to
    0.25 give the irregular, denser-per-row structure typical of 2-D
    structural matrices such as BCSSTK15 while staying in the 2-D
    neighbourhood-graph class.
    """
    check_positive(k, "grid dimension k")
    rng = np.random.default_rng(seed)
    idx = np.arange(k * k).reshape(k, k)
    pairs = [
        (idx[:, :-1].ravel(), idx[:, 1:].ravel()),
        (idx[:-1, :].ravel(), idx[1:, :].ravel()),
        (idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()),
        (idx[:-1, 1:].ravel(), idx[1:, :-1].ravel()),
    ]
    rows = np.concatenate([p[0] for p in pairs])
    cols = np.concatenate([p[1] for p in pairs])
    vals = -rng.uniform(0.5, 1.5, rows.shape[0])
    xx, yy = np.meshgrid(np.arange(k, dtype=float), np.arange(k, dtype=float), indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    coords += rng.uniform(-0.25, 0.25, coords.shape)
    return _assemble_spd(k * k, rows, cols, vals, coords)


def fe_mesh_3d(k: int, *, seed: int = 0) -> SymCSC:
    """Denser 3-D FE-like mesh: 7-point plus in-plane diagonals, randomised.

    The 3-D analogue of :func:`fe_mesh_2d` (coordinates jittered by up to
    0.2); a stand-in for irregular 3-D structural matrices such as
    COPTER2 / HSCT21954.
    """
    check_positive(k, "grid dimension k")
    rng = np.random.default_rng(seed)
    idx = np.arange(k**3).reshape(k, k, k)
    pairs = [
        (idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()),
        (idx[:, :-1, :].ravel(), idx[:, 1:, :].ravel()),
        (idx[:-1, :, :].ravel(), idx[1:, :, :].ravel()),
        (idx[:, :-1, :-1].ravel(), idx[:, 1:, 1:].ravel()),
        (idx[:-1, :, :-1].ravel(), idx[1:, :, 1:].ravel()),
        (idx[:-1, :-1, :].ravel(), idx[1:, 1:, :].ravel()),
    ]
    rows = np.concatenate([p[0] for p in pairs])
    cols = np.concatenate([p[1] for p in pairs])
    vals = -rng.uniform(0.5, 1.5, rows.shape[0])
    xx, yy, zz = np.meshgrid(
        np.arange(k, dtype=float), np.arange(k, dtype=float), np.arange(k, dtype=float),
        indexing="ij",
    )
    coords = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    coords += rng.uniform(-0.2, 0.2, coords.shape)
    return _assemble_spd(k**3, rows, cols, vals, coords)


def anisotropic_laplacian(k: int, *, epsilon: float = 0.01) -> SymCSC:
    """5-point Laplacian with strong coupling in x and weak in y.

    The classic anisotropic model problem: separators aligned with the
    weak direction are much "cheaper" numerically, which exercises the
    orderings' robustness to non-uniform edge weights (structure — and
    hence the parallel algorithms — is identical to the isotropic grid).
    """
    check_positive(k, "grid dimension k")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    idx = np.arange(k * k).reshape(k, k)
    right = (idx[:, :-1].ravel(), idx[:, 1:].ravel())
    down = (idx[:-1, :].ravel(), idx[1:, :].ravel())
    rows = np.concatenate([right[0], down[0]])
    cols = np.concatenate([right[1], down[1]])
    vals = np.concatenate(
        [-np.ones(right[0].shape[0]), -np.full(down[0].shape[0], epsilon)]
    )
    xx, yy = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()]).astype(np.float64)
    return _assemble_spd(k * k, rows, cols, vals, coords)


def graded_mesh_2d(k: int, *, grading: float = 2.0, seed: int = 0) -> SymCSC:
    """2-D mesh with vertices geometrically concentrated toward one corner.

    Models adaptive-refinement meshes: the coordinate distribution is
    x -> x^grading, which makes geometric median cuts produce unbalanced
    vertex counts per side — a stress test for the separator balance the
    subtree-to-subcube mapping relies on.
    """
    check_positive(k, "grid dimension k")
    if grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading}")
    # fe_mesh_2d draws its weights before its coordinate jitter, so only the
    # coordinates differ from the jittered mesh: here the plain lattice, graded.
    base = fe_mesh_2d(k, seed=seed)
    xx, yy = np.meshgrid(np.arange(k, dtype=float), np.arange(k, dtype=float), indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()]) / max(k - 1, 1)
    graded = coords**grading * max(k - 1, 1)
    return SymCSC(
        n=base.n,
        indptr=base.indptr,
        indices=base.indices,
        data=base.data,
        coords=graded,
    )


def random_spd(n: int, *, density: float = 0.01, seed: int = 0) -> SymCSC:
    """Random symmetric positive definite matrix with ~density off-diag fill.

    Purely algebraic (no coordinates): exercises the non-geometric ordering
    paths (minimum degree, BFS-separator nested dissection).
    """
    check_positive(n, "n")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    m = max(n - 1, int(density * n * (n - 1) / 2))
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    # A random spanning path keeps the graph connected.
    path = np.arange(n - 1)
    rows = np.concatenate([rows, path])
    cols = np.concatenate([cols, path + 1])
    vals = -rng.uniform(0.1, 1.0, rows.shape[0])
    return _assemble_spd(n, rows, cols, vals, None)


def model_problem(name: str, size: int, *, seed: int = 0) -> SymCSC:
    """Dispatch a named model problem.

    ``name`` is one of ``grid2d``, ``grid3d``, ``fe2d``, ``fe3d``,
    ``random``; ``size`` is the grid edge (grids/meshes) or n (random).
    """
    dispatch = {
        "grid2d": lambda: grid2d_laplacian(size),
        "aniso2d": lambda: anisotropic_laplacian(size),
        "graded2d": lambda: graded_mesh_2d(size, seed=seed),
        "grid3d": lambda: grid3d_laplacian(size),
        "fe2d": lambda: fe_mesh_2d(size, seed=seed),
        "fe3d": lambda: fe_mesh_3d(size, seed=seed),
        "random": lambda: random_spd(size, seed=seed),
    }
    try:
        return dispatch[name]()
    except KeyError:
        raise ValueError(f"unknown model problem {name!r}; options: {sorted(dispatch)}") from None
