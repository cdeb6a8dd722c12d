"""Matrix-free Poisson solves on the staggered lattices.

Every linear system of the three stray-field routes is a 7-point operator
on a rectangular lattice: ``laplace_apply`` (zero ghost values, exactly
``div(grad u)`` on cells or on one edge component array),
``neumann_laplace_apply`` (mirrored, no-flux ends: ``div(grad_node p)`` on
nodes), or per edge component the edge vector Laplacian
``curl curl - grad_node div``, which mixes both kinds of ends.  Each is
diagonal in a separable basis: per axis, type-I sines for zero ghosts and
type-II cosines for mirrored ends.  ``transform_solve`` inverts any of
them directly, and ``checked_solve`` confirms each such solve with one
apply of the operator (the true residual ``||b - A x|| / ||b||``).  Plain
conjugate gradients (``pcg``) and the dense LU factorization remain as
independent oracles.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft
from scipy import sparse
from scipy.sparse.linalg import factorized

from .errors import ConvergenceError

CELL_KINDS = ("dst", "dst", "dst")
NODE_KINDS = ("dct", "dct", "dct")


def laplace_apply(x: np.ndarray, h: float) -> np.ndarray:
    """y = -Laplacian(x) with zero ghosts: SPD on any lattice shape."""
    y = 6.0 * x.copy()
    y[:-1] -= x[1:]
    y[1:] -= x[:-1]
    y[:, :-1] -= x[:, 1:]
    y[:, 1:] -= x[:, :-1]
    y[:, :, :-1] -= x[:, :, 1:]
    y[:, :, 1:] -= x[:, :, :-1]
    y /= h * h
    return y


def neumann_laplace_apply(x: np.ndarray, h: float) -> np.ndarray:
    """y = -Laplacian(x) with mirrored (no-flux) boundary on the lattice.

    This is div(grad_node(.)) on the node lattice, whose boundary stencils
    drop the missing-neighbor terms entirely.  Singular: constants map to 0.
    """
    y = 6.0 * x.copy()
    y[0] -= x[0]
    y[-1] -= x[-1]
    y[:, 0] -= x[:, 0]
    y[:, -1] -= x[:, -1]
    y[:, :, 0] -= x[:, :, 0]
    y[:, :, -1] -= x[:, :, -1]
    y[:-1] -= x[1:]
    y[1:] -= x[:-1]
    y[:, :-1] -= x[:, 1:]
    y[:, 1:] -= x[:, :-1]
    y[:, :, :-1] -= x[:, :, 1:]
    y[:, :, 1:] -= x[:, :, :-1]
    y /= h * h
    return y


def _axis_eigenvalues(n: int, h: float, kind: str) -> np.ndarray:
    """Eigenvalues of the 1-D second difference: DST-I (Dirichlet) or DCT-II (Neumann)."""
    if kind == "dst":
        return 4.0 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2 / (h * h)
    if kind == "dct":
        return 4.0 * np.sin(np.pi * np.arange(n) / (2.0 * n)) ** 2 / (h * h)
    raise ValueError(f"unknown transform kind {kind!r}")


_EIG_CACHE: dict[tuple, tuple] = {}


def transform_solve(b: np.ndarray, h: float, kinds: tuple[str, str, str]) -> np.ndarray:
    """Direct solve of the separable 7-point operator with per-axis ends.

    ``kinds[axis]`` is ``"dst"`` for zero ghosts (the stencil of
    ``laplace_apply``) or ``"dct"`` for mirrored ends (the stencil of
    ``neumann_laplace_apply``).  With at least one ``"dst"`` axis the
    operator is nonsingular; with none, constants are its kernel and the
    zero-mean solution is returned.  ``b`` is not modified.  Only the 1-D
    eigenvalues are cached; the division runs slab by slab, so no
    full-grid array is kept.
    """
    key = (b.shape, float(h), kinds)
    if key not in _EIG_CACHE:
        _EIG_CACHE[key] = tuple(_axis_eigenvalues(n, h, k) for n, k in zip(b.shape, kinds))
    lam0, lam1, lam2 = _EIG_CACHE[key]
    dst_axes = tuple(ax for ax, k in enumerate(kinds) if k == "dst")
    dct_axes = tuple(ax for ax, k in enumerate(kinds) if k == "dct")
    # dstn over no axes returns b itself: then the DCT must not overwrite it
    coef = sfft.dstn(b, type=1, axes=dst_axes) if dst_axes else b
    if dct_axes:
        coef = sfft.dctn(coef, type=2, axes=dct_axes, overwrite_x=coef is not b)
    lam12 = lam1[:, None] + lam2[None, :]
    for i, lam in enumerate(lam0):
        denom = lam + lam12
        if denom[0, 0] == 0.0:
            denom[0, 0] = 1.0  # all-cosine constant mode, set to zero below
        coef[i] /= denom
    if not dst_axes:
        coef[0, 0, 0] = 0.0
    if dct_axes:
        coef = sfft.idctn(coef, type=2, axes=dct_axes, overwrite_x=True)
    if dst_axes:
        coef = sfft.idstn(coef, type=1, axes=dst_axes, overwrite_x=True)
    return coef


def _rhs_norm(b: np.ndarray) -> float:
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise ConvergenceError("right-hand side is not finite",
                               residual=float("nan"), iterations=0)
    return bnorm


def _residual(apply_op, x: np.ndarray, b: np.ndarray, bnorm: float) -> float:
    """True relative residual ||b - A x|| / ||b||."""
    return float(np.linalg.norm(b - apply_op(x))) / bnorm


def checked_solve(apply_op, b: np.ndarray, inverse, tol: float, max_iter: int,
                  preconditioner: str):
    """Solve  A x = b  to true relative residual ``tol``.

    ``preconditioner = "dst"`` applies the direct ``inverse`` once and
    checks the true residual; ``"none"`` runs plain CG, the independent
    oracle.  Returns (x, residual, iterations); raises ConvergenceError
    with the residual and the iteration count if ``tol`` is not met.
    """
    if preconditioner == "none":
        return pcg(apply_op, b, tol=tol, max_iter=max_iter)
    if preconditioner != "dst":
        raise ValueError(f"unknown preconditioner {preconditioner!r}")
    bnorm = _rhs_norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    x = inverse(b)
    res = _residual(apply_op, x, b, bnorm)
    if not res <= tol:
        raise ConvergenceError(
            f"transform solve missed relative residual {tol:.1e}: got {res:.3e}",
            residual=res, iterations=1)
    return x, res, 1


def solve_poisson_neumann(b: np.ndarray, h: float, tol: float, max_iter: int,
                          preconditioner: str = "dst"):
    """Zero-mean solve of the no-flux node Poisson problem.

    The right-hand side must have (numerically) zero sum; this is exact for
    divergences of edge fields.
    """
    return checked_solve(lambda x: neumann_laplace_apply(x, h), b - b.mean(),
                         lambda r: transform_solve(r, h, NODE_KINDS),
                         tol, max_iter, preconditioner)


def solve_poisson(b: np.ndarray, h: float, tol: float, max_iter: int,
                  preconditioner: str = "dst"):
    """Solve  -Laplacian(u) = b  to true relative residual ``tol``.

    Returns (u, residual, iterations).  Raises ConvergenceError if the
    residual target is not met.
    """
    return checked_solve(lambda x: laplace_apply(x, h), b,
                         lambda r: transform_solve(r, h, CELL_KINDS),
                         tol, max_iter, preconditioner)


def pcg(apply_op, b: np.ndarray, tol: float, max_iter: int):
    """Plain conjugate gradients for an SPD (or consistent SPSD) system.

    Convergence is declared on the true relative residual ||b - A x|| / ||b||:
    when the recursively updated residual meets ``tol`` the true one is
    recomputed, and if it misses, the iteration restarts from it.
    """
    bnorm = _rhs_norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(np.vdot(r, r))
    for k in range(1, max_iter + 1):
        Ap = apply_op(p)
        pAp = float(np.vdot(p, Ap))
        if not pAp > 0.0:
            res = _residual(apply_op, x, b, bnorm)
            raise ConvergenceError(
                f"conjugate gradients broke down at iteration {k}: p.Ap = {pAp:.3e} "
                f"(operator not positive definite on the search direction), "
                f"relative residual {res:.3e}", residual=res, iterations=k)
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = float(np.vdot(r, r))
        if rr_new <= (tol * bnorm) ** 2:
            r = b - apply_op(x)
            res = float(np.linalg.norm(r)) / bnorm
            if res <= tol:
                return x, res, k
            p = r.copy()  # recursive residual drifted: restart from the true one
            rr = float(np.vdot(r, r))
            continue
        p = r + (rr_new / rr) * p
        rr = rr_new
    res = _residual(apply_op, x, b, bnorm)
    raise ConvergenceError(
        f"conjugate gradients stalled at relative residual {res:.3e} "
        f"(target {tol:.1e}) after {max_iter} iterations",
        residual=res, iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# dense route: explicit assembly and direct factorization
# ---------------------------------------------------------------------------

def assemble_laplacian(shape, h: float) -> sparse.csr_matrix:
    """Explicit sparse matrix of the Dirichlet 7-point operator."""
    n1, n2, n3 = shape

    def lap1(n):
        return sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                            offsets=[-1, 0, 1], format="csr")

    eye = [sparse.identity(n, format="csr") for n in shape]
    A = (sparse.kron(sparse.kron(lap1(n1), eye[1]), eye[2])
         + sparse.kron(sparse.kron(eye[0], lap1(n2)), eye[2])
         + sparse.kron(sparse.kron(eye[0], eye[1]), lap1(n3)))
    return (A / (h * h)).tocsr()


_DENSE_CACHE: dict[tuple, object] = {}  # the latest factor only


def dense_poisson_solver(shape, h: float):
    """LU-factorized direct solver for small lattices (independent oracle)."""
    key = (tuple(shape), float(h))
    if key not in _DENSE_CACHE:
        _DENSE_CACHE.clear()
        _DENSE_CACHE[key] = factorized(assemble_laplacian(shape, h).tocsc())
    return _DENSE_CACHE[key]
