"""Matrix-free Poisson solves on the staggered lattices.

Every linear system of the three stray-field routes is a 7-point operator
on a rectangular lattice: ``laplace_apply`` (zero ghost values, exactly
``div(grad u)`` on cells or on one edge component array),
``neumann_laplace_apply`` (mirrored, no-flux ends: ``div(grad_node p)`` on
nodes), or per edge component the edge vector Laplacian
``curl curl - grad_node div``, which mixes both kinds of ends.  Each is
diagonal in a separable basis: per axis, type-I sines for zero ghosts and
type-II cosines for mirrored ends.  ``transform_solve`` inverts any of
them directly with one cached dense orthonormal eigenbasis per axis
length and end condition, built from its closed-form sines or cosines and
applied by matrix products (box-restricted forward, in-place inverse), and
``checked_solve`` confirms each such solve with one apply of the operator
(the true residual ``||b - A x|| / ||b||``).  Plain conjugate gradients
(``pcg``) and the dense LU factorization remain as independent oracles;
the LU oracle is the only code here that needs SciPy, and it imports it
on first use, so the fast path runs on numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

CELL_KINDS = ("dst", "dst", "dst")
NODE_KINDS = ("dct", "dct", "dct")


def __getattr__(name: str):
    # ``poisson.sfft`` exists only for the counting proxy of
    # ``perfbench/tracing.py``, which reads and replaces it; scipy.fft is
    # imported on first access.  It goes at the next change to the benchmark.
    if name == "sfft":
        from scipy import fft
        return fft
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


_BASIS_CACHE: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}

_COLUMN_BLOCK = 256  # columns per block of the in-place axis-0 products


def _axis_basis(n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors ``Q`` (columns) and eigenvalues at unit spacing
    of the 1-D second difference with zero ghosts (``"dst"``: type-I sines)
    or mirrored ends (``"dct"``: type-II cosines); built once per (n, kind).

    ``Q`` is the closed form of the orthonormal DST-I / DCT-II matrix:
    ``Q[j, k] = sqrt(2/(n+1)) sin(pi (j+1)(k+1) / (n+1))`` and
    ``Q[j, k] = sqrt(2/n) cos(pi (2j+1) k / (2n))`` with column 0 equal to
    ``sqrt(1/n)``.  The integer phases are reduced modulo the period before
    the trig call, so every entry is accurate to a few ulps at any ``n``.
    """
    key = (n, kind)
    if key not in _BASIS_CACHE:
        k = np.arange(n)
        if kind == "dst":
            phase = np.outer(k + 1, k + 1) % (2 * (n + 1))
            q = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1))
            lam = 4.0 * np.sin(np.pi * (k + 1) / (2.0 * (n + 1))) ** 2
        elif kind == "dct":
            phase = np.outer(2 * k + 1, k) % (4 * n)
            q = np.sqrt(2.0 / n) * np.cos(np.pi * phase / (2.0 * n))
            q[:, 0] = np.sqrt(1.0 / n)
            lam = 4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2
        else:
            raise ValueError(f"unknown transform kind {kind!r}")
        q.setflags(write=False)
        lam.setflags(write=False)
        _BASIS_CACHE[key] = (q, lam)
    return _BASIS_CACHE[key]


def _nonzero_span(present: np.ndarray) -> slice:
    hit = np.flatnonzero(present)
    return slice(int(hit[0]), int(hit[-1]) + 1)


def transform_solve(b: np.ndarray, h: float, kinds: tuple[str, str, str]) -> np.ndarray:
    """Direct solve of the separable 7-point operator with per-axis ends.

    ``kinds[axis]`` is ``"dst"`` for zero ghosts (the stencil of
    ``laplace_apply``) or ``"dct"`` for mirrored ends (the stencil of
    ``neumann_laplace_apply``).  With at least one ``"dst"`` axis the
    operator is nonsingular; with none, constants are its kernel and the
    zero-mean solution is returned.  ``b`` is not modified.

    The operator is the Kronecker sum of 1-D second differences, so it is
    diagonal in the product of their cached dense orthonormal eigenbases
    (the fast diagonalization method: Lynch, Rice & Thomas, Numer. Math.
    6:185, 1964); each axis costs matrix products whose speed does not
    depend on whether its length has large prime factors.  The forward
    products read only the index box that holds ``b``'s nonzeros (for
    ``-div m`` or ``curl m`` of a mask-supported ``m``, about the mask's
    box): axis 0 first, written into the result, then slab by slab axes 2
    and 1, the division by the eigenvalues and the inverse along axes 1
    and 2; last, the inverse along axis 0 runs in place on blocks of
    ``_COLUMN_BLOCK`` columns.  The result is the only full-grid array
    allocated.
    """
    present12 = np.any(b, axis=0)
    if not present12.any():
        return np.zeros(b.shape)
    s0 = _nonzero_span(np.any(b, axis=(1, 2)))
    s1 = _nonzero_span(present12.any(axis=1))
    s2 = _nonzero_span(present12.any(axis=0))
    hh = h * h
    (q0, lam0), (q1, lam1), (q2, lam2) = (_axis_basis(n, k) for n, k in zip(b.shape, kinds))
    coef = np.empty(b.shape)
    q0_in, q1_in, q2_in, q2_out = q0[s0].T, q1[s1].T, q2[s2], q2.T
    for j in range(s1.start, s1.stop):
        np.matmul(q0_in, b[s0, j, s2], out=coef[:, j, s2])
    lam12 = (lam1[:, None] + lam2[None, :]) / hh
    for i, lam in enumerate(lam0 / hh):
        slab = q1_in @ (coef[i, s1, s2] @ q2_in)
        denom = lam + lam12
        if denom[0, 0] == 0.0:
            denom[0, 0] = np.inf  # all-cosine constant mode: zero-mean solution
        slab /= denom
        np.matmul(q1 @ slab, q2_out, out=coef[i])
    flat = coef.reshape(b.shape[0], -1)
    for start in range(0, flat.shape[1], _COLUMN_BLOCK):
        cols = flat[:, start:start + _COLUMN_BLOCK]
        cols[...] = q0 @ cols
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

def assemble_laplacian(shape, h: float):
    """Explicit sparse (CSR) matrix of the Dirichlet 7-point operator."""
    from scipy import sparse

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
    from scipy.sparse.linalg import factorized

    key = (tuple(shape), float(h))
    if key not in _DENSE_CACHE:
        _DENSE_CACHE.clear()
        _DENSE_CACHE[key] = factorized(assemble_laplacian(shape, h).tocsc())
    return _DENSE_CACHE[key]
