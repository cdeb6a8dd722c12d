"""Matrix-free Poisson solves on the staggered lattices.

Every linear system of the three stray-field routes is a 7-point operator
on a rectangular lattice whose ends are, per axis, zero ghost values
(``"dst"``) or mirrored, no-flux ends (``"dct"``).  ``laplace_apply(x, h,
kinds)`` is that operator: with ``CELL_KINDS`` exactly ``div(grad u)`` on
cells or on one edge component array, with ``NODE_KINDS``
``div(grad_node p)`` on nodes, and with ``EDGE_KINDS[c]`` component ``c``
of the edge vector Laplacian ``curl curl - grad_node div``.  Each is
diagonal in a separable basis: per axis, type-I sines for zero ghosts and
type-II cosines for mirrored ends.  ``transform_solve`` inverts any of
them directly with one cached dense orthonormal eigenbasis per axis
length and end condition, built from its closed-form sines or cosines and
applied by matrix products.

A right-hand side is passed as its array on an index box of the lattice,
with the lattice's shape, and is zero off the box; by default the box is
the whole lattice.  The forward products read the box array, the
axis-1/2 ones run on slabs of axis-0 planes and the inverse along axis 0
runs in place on blocks of columns.  One budget sizes both: 1/16 of the
result, and at least ``_TRANSFORM_SLAB_BYTES``.  The temporaries are a few
budgets, so the result is the solve's only full-grid array.
``solve_poisson`` confirms each such solve with one apply of
``laplace_apply`` with the same ends (the true residual
``||b - A x|| / ||b||`` over the full grid).  The apply runs slab by slab
along axis 0, each slab with a one-plane halo, so every slab of ``A x`` is
the full apply's bit for bit; ``b`` is subtracted where the slab meets its
box.  The check's temporaries are one slab of ``_SLAB_BYTES``, not arrays
of the grid's size.  A solve's ``method`` picks its inverse: ``"direct"``
the transform solve, ``"cg"`` plain conjugate gradients (``cg``) or
``"dense"`` a block factorization of the zero-ghost operator
(``dense_poisson_solver``); the last two are independent oracles and read
the source embedded in zeros of the lattice, made once in
``solve_poisson``.  All of it runs on numpy alone.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np

from .errors import ConvergenceError, GridError
from .grid import embed

CELL_KINDS = ("dst", "dst", "dst")
NODE_KINDS = ("dct", "dct", "dct")
# edge component c: zero ghosts along its own axis, mirrored ends across it
EDGE_KINDS = tuple(tuple("dst" if axis == c else "dct" for axis in range(3))
                   for c in range(3))
METHODS = ("direct", "cg", "dense")

# The dense factorization's size cap.  It sweeps the longest axis, so at the
# cap a plane holds at most 32768^(2/3) = 1024 unknowns in four parity blocks
# of at most 256, and it stores n/2 + 1 inverses per block for n planes:
# 4 x 17 of 0.5 MB each, 34 MB, on a 32^3 lattice.
DENSE_UNKNOWN_CAP = 32768


def __getattr__(name: str):
    # ``poisson.sfft`` exists only for the counting proxy of
    # ``perfbench/tracing.py``, which reads and replaces it; scipy.fft is
    # imported on first access.  It goes at the next change to the benchmark.
    if name == "sfft":
        from scipy import fft
        return fft
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def laplace_apply(x: np.ndarray, h: float,
                  kinds: tuple[str, str, str] = CELL_KINDS) -> np.ndarray:
    """y = -Laplacian(x) on the lattice of ``x`` with per-axis ends:
    ``kinds[axis]`` is ``"dst"`` for zero ghosts or ``"dct"`` for mirrored
    (no-flux) ends, whose boundary stencils drop the missing neighbour.
    SPD with a ``"dst"`` axis; with none it is singular, constants map to 0.
    """
    y = 6.0 * x
    for axis, kind in enumerate(kinds):
        at = (slice(None),) * axis
        if kind == "dct":
            y[at + (0,)] -= x[at + (0,)]
            y[at + (-1,)] -= x[at + (-1,)]
        elif kind != "dst":
            raise ValueError(f"unknown transform kind {kind!r}")
    y[:-1] -= x[1:]
    y[1:] -= x[:-1]
    y[:, :-1] -= x[:, 1:]
    y[:, 1:] -= x[:, :-1]
    y[:, :, :-1] -= x[:, :, 1:]
    y[:, :, 1:] -= x[:, :, :-1]
    y /= h * h
    return y


_BASIS_CACHE: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}

_SLAB_BYTES = 1 << 20  # bytes of b per slab of a residual check
# The floor of a transform solve's budget: the bytes of the result per slab
# of its axis-1/2 products and per column block of its axis-0 inverse.  The
# budget is 1/16 of the result above 1 MiB, so the products of large lattices
# are tall enough for every BLAS thread.  Timed from 16 KiB to 1 MiB on 24^3
# to 48^3 grids, 64 KiB slabs were the best or within 12 % of it on each;
# 1 MiB took 1.7 times as long on 36^3, where its temporaries leave the cache.
_TRANSFORM_SLAB_BYTES = 1 << 16


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


def _whole_box(shape: tuple[int, ...]) -> tuple[slice, ...]:
    """The index box of the whole lattice of ``shape``."""
    return tuple(slice(0, n) for n in shape)


def _placed(b: np.ndarray, shape, box) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """(shape, box) of a right-hand side ``b`` given on the index ``box`` of a
    lattice of ``shape``: by default the lattice of ``b``'s shape and its
    whole box.  ValueError if ``b`` does not fill a box inside the lattice."""
    shape = b.shape if shape is None else tuple(shape)
    box = _whole_box(shape) if box is None else tuple(box)
    if (len(box) != len(shape) or b.shape != tuple(s.stop - s.start for s in box)
            or not all(0 <= s.start <= s.stop <= n for s, n in zip(box, shape))):
        raise ValueError(f"a source of shape {b.shape} does not fill the box {box} "
                         f"of a lattice of shape {shape}")
    return shape, box


def transform_solve(b: np.ndarray, h: float, kinds: tuple[str, str, str],
                    shape: tuple[int, int, int] | None = None,
                    box: tuple[slice, slice, slice] | None = None) -> np.ndarray:
    """Direct solve of the separable 7-point operator with per-axis ends.

    The operator is ``laplace_apply(., h, kinds)``: ``kinds[axis]`` is
    ``"dst"`` for zero ghosts or ``"dct"`` for mirrored ends.  With at
    least one ``"dst"`` axis it is nonsingular; with none, constants are
    its kernel and the zero-mean solution is returned.  The right-hand
    side is ``b`` on the index ``box`` of a lattice of ``shape`` and zero
    off it (by default the box is the whole lattice of ``b``'s shape); the
    solution is returned on the whole lattice.  ``b`` is not modified.

    The operator is the Kronecker sum of 1-D second differences, so it is
    diagonal in the product of their cached dense orthonormal eigenbases
    (the fast diagonalization method: Lynch, Rice & Thomas, Numer. Math.
    6:185, 1964); each axis costs matrix products whose speed does not
    depend on whether its length has large prime factors.  The forward
    products read the box array only, with the rows of the bases on the
    box.  Axis 0 goes first, as one product written into the result's
    memory (row ``i`` holds plane ``i``'s box).  One budget sizes the rest:
    1/16 of the result's bytes, and at least ``_TRANSFORM_SLAB_BYTES``.
    Slabs of axis-0 planes, each of about one budget of the result, run
    axis 2 as one 2-D product, axis 1 as a stacked product, the division by
    the eigenvalues, and the inverse along axis 1 (stacked) and axis 2 (one
    2-D product written into their planes of the result); the temporaries
    are a few slabs.  Last, the inverse along axis 0 runs in place on
    column blocks of one budget.  The result is the only full-grid array
    allocated.
    """
    shape, (s0, s1, s2) = _placed(b, shape, box)
    n0, _, n2 = shape
    k1, k2 = b.shape[1:]
    hh = h * h
    (q0, lam0), (q1, lam1), (q2, lam2) = (_axis_basis(n, k) for n, k in zip(shape, kinds))
    coef = np.empty(shape)
    flat = coef.reshape(n0, -1)
    fwd = flat[:, :k1 * k2]  # axis 0 done: plane i's box, row i
    np.matmul(q0[s0].T, b.reshape(b.shape[0], fwd.shape[1]), out=fwd)
    q1_in, q2_in, q2_out = q1[s1].T, q2[s2], q2.T
    lam12 = (lam1[:, None] + lam2[None, :]) / hh
    budget = max(_TRANSFORM_SLAB_BYTES, coef.nbytes // 16)
    planes = max(1, budget // coef[0].nbytes)
    for lo in range(0, n0, planes):
        hi = min(lo + planes, n0)
        slab = fwd[lo:hi].reshape((hi - lo) * k1, k2) @ q2_in
        slab = q1_in @ slab.reshape(hi - lo, k1, n2)
        denom = (lam0[lo:hi] / hh)[:, None, None] + lam12
        if denom[0, 0, 0] == 0.0:
            denom[0, 0, 0] = np.inf  # all-cosine constant mode: zero-mean solution
        slab /= denom
        slab = (q1 @ slab).reshape(-1, n2)
        np.matmul(slab, q2_out, out=coef[lo:hi].reshape(-1, n2))
    columns = max(1, budget // (8 * n0))
    for start in range(0, flat.shape[1], columns):
        cols = flat[:, start:start + columns]
        cols[...] = q0 @ cols
    return coef


def rhs_norm(*parts: np.ndarray) -> float:
    """||b|| for ``b`` the concatenation of ``parts`` (a source's box arrays:
    off its box it is zero); raises ConvergenceError if it is not finite."""
    bnorm = float(np.sqrt(sum(float(np.vdot(p, p)) for p in parts)))
    if not np.isfinite(bnorm):
        raise ConvergenceError("right-hand side is not finite",
                               residual=float("nan"), iterations=0)
    return bnorm


def _residual(apply_op, x: np.ndarray, b: np.ndarray, bnorm: float) -> float:
    """True relative residual ||b - A x|| / ||b||."""
    return float(np.linalg.norm(b - apply_op(x))) / bnorm


def stencil_residual_norm(apply_op, x: np.ndarray, b: np.ndarray,
                          box: tuple[slice, slice, slice] | None = None) -> float:
    """||b - A x|| over the full grid of ``x``, summed slab by slab along axis 0;
    ``b`` is given on the index ``box`` of that grid (by default the whole
    grid) and is zero off it.

    ``apply_op`` is a 7-point stencil such as ``laplace_apply`` with any
    ends: its value on a plane reads ``x`` on that plane and its two
    neighbours only, and it treats the ends of the array it is given as
    the lattice's ends.  Each slab is applied with a one-plane halo
    on each side that has a neighbour, so every slab of ``A x`` equals the
    full apply's bit for bit.  ``b`` is subtracted in place where the slab
    meets its box, which leaves ``A x - b = -(b - A x)`` exactly: the same
    squares.  A slab holds ``_SLAB_BYTES`` of planes of the grid, at least
    one plane, so a grid that fits is one slab and its norm is
    ``np.linalg.norm(b - apply_op(x))`` exactly.
    """
    _, (s0, s1, s2) = _placed(b, x.shape, box)
    n0 = x.shape[0]
    planes = max(1, _SLAB_BYTES // x[0].nbytes)
    total = 0.0
    for lo in range(0, n0, planes):
        hi = min(lo + planes, n0)
        start = max(lo - 1, 0)
        r = apply_op(x[start:hi + 1])[lo - start:hi - start]
        first, last = max(lo, s0.start), min(hi, s0.stop)
        if first < last:
            r[first - lo:last - lo, s1, s2] -= b[first - s0.start:last - s0.start]
        total += float(np.vdot(r, r))
    return float(np.sqrt(total))


def confirm_direct(res: float, tol: float) -> float:
    """Return the relative residual ``res`` of a direct solve, or raise
    ConvergenceError if it misses ``tol``."""
    if not res <= tol:
        raise ConvergenceError(
            f"direct solve missed relative residual {tol:.1e}: got {res:.3e}",
            residual=res, iterations=1)
    return res


def refuse_dense(method: str, solve: str):
    """Raise GridError if ``method`` is ``"dense"``: the dense factorization
    inverts the zero-ghost cell operator only, so solves with mirrored ends
    (the no-flux node and the curl-curl solves) have no dense inverse.
    ``solve`` names the refused one."""
    if method == "dense":
        raise GridError(f"solver method 'dense' has no {solve} solve")


def solve_poisson(b: np.ndarray, h: float, tol: float, max_iter: int,
                  method: str = "direct", shape: tuple[int, int, int] | None = None,
                  box: tuple[slice, slice, slice] | None = None,
                  kinds: tuple[str, str, str] = CELL_KINDS):
    """Solve  ``laplace_apply(u, h, kinds) = b``  by ``method`` to true
    relative residual ``tol``; ``b`` is given on the index ``box`` of a grid
    of ``shape`` and is zero off it (by default the whole grid of ``b``'s
    shape).  With no ``"dst"`` axis ``b`` must have zero sum.

    ``method = "direct"`` applies ``transform_solve`` to the box array.  The
    oracles read ``b`` embedded in zeros of the grid: ``"cg"`` runs plain CG
    on it, and ``"dense"`` applies the dense factorization to it; only the
    zero-ghost ``CELL_KINDS`` operator has one, so other ends raise
    GridError before any factoring.  A direct or dense solve is applied once
    and its true residual checked over the full grid, slab by slab
    (``stencil_residual_norm``).  Returns (u, residual, iterations), ``u`` on
    the whole grid; raises ConvergenceError with the residual and the
    iteration count if ``tol`` is not met.
    """
    if method not in METHODS:
        raise ValueError(f"unknown solve method {method!r}")
    shape, box = _placed(b, shape, box)
    if kinds != CELL_KINDS:
        refuse_dense(method, "mirrored-end")
    dense = dense_poisson_solver(shape, h) if method == "dense" else None
    apply_op = partial(laplace_apply, h=h, kinds=kinds)
    if method != "direct":
        b, box = embed(b, shape, box), _whole_box(shape)
        if method == "cg":
            return cg(apply_op, b, tol=tol, max_iter=max_iter)
    bnorm = rhs_norm(b)
    if bnorm == 0.0:
        return np.zeros(shape), 0.0, 0
    x = transform_solve(b, h, kinds, shape, box) if dense is None else dense(b)
    return x, confirm_direct(stencil_residual_norm(apply_op, x, b, box) / bnorm, tol), 1


def cg(apply_op, b: np.ndarray, tol: float, max_iter: int):
    """Plain conjugate gradients for an SPD (or consistent SPSD) system.

    Convergence is declared on the true relative residual ||b - A x|| / ||b||:
    when the recursively updated residual meets ``tol`` the true one is
    recomputed, and if it misses, the iteration restarts from it.
    """
    bnorm = rhs_norm(b)
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
# dense route: block factorization of the assembled operator
# ---------------------------------------------------------------------------

def _second_difference(n: int) -> np.ndarray:
    """The 1-D second difference with zero ghosts, tridiag(-1, 2, -1)."""
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


_DENSE_CACHE: dict[tuple, object] = {}  # the latest factor only


def dense_poisson_solver(shape, h: float):
    """Direct solver of ``laplace_apply`` by block factorization (independent
    oracle): ``solve(b) -> x`` on C-contiguous arrays of ``shape``; GridError,
    before any factoring, above ``DENSE_UNKNOWN_CAP`` unknowns.

    The operator is block tridiagonal along the longest axis: every plane
    has the same block ``D = kron(T1, I) + kron(I, T2) + 2 I`` (``T`` the
    1-D second differences of the two shorter axes) and neighbouring planes
    couple by ``-I``.  Block elimination from an end (Meurant, SIAM J.
    Matrix Anal. Appl. 13:707, 1992) has the pivots ``S_0 = D``,
    ``S_k = D - S_{k-1}^{-1}``; the box is mirror-symmetric, so elimination
    from the other end has the same pivots.  The factorization runs from
    both ends to the middle plane ``c = n // 2`` of the ``n`` planes and
    keeps ``c`` pivot inverses and the inverse of the middle plane's Schur
    complement; a solve runs forward from both ends to the middle plane,
    then back out to both ends.

    ``T`` is persymmetric, so ``D`` and every pivot commute with reversing
    either plane axis: in the orthogonal mirror basis of each plane axis
    (``_mirror_basis``) ``D`` splits exactly into at most four parity blocks
    ``kron(T_a, I) + kron(I, T_b) + 2 I`` of about a quarter of the plane
    (Bossavit, Comput. Methods Appl. Mech. Eng. 56:167, 1986), and each
    block is eliminated alone; a solve maps the planes into the basis and
    back by 1-D products.  The basis holds only pair sums and differences,
    and the blocks are still inverted by ``np.linalg.inv``: no sines,
    cosines or eigensolver, nothing shared with the transform solve.
    """
    unknowns = int(np.prod(shape))
    if unknowns > DENSE_UNKNOWN_CAP:
        raise GridError(f"solver method 'dense': {unknowns} unknowns exceed {DENSE_UNKNOWN_CAP}")
    key = (tuple(shape), float(h))
    if key not in _DENSE_CACHE:
        _DENSE_CACHE.clear()
        _DENSE_CACHE[key] = _block_factor(*key)
    return _DENSE_CACHE[key]


def _mirror_basis(n: int) -> tuple[np.ndarray, np.ndarray, tuple[slice, slice]]:
    """The orthogonal mirror basis of a line of ``n`` points (rows: pair sums
    over sqrt(2) and, for odd ``n``, the middle point alone, then pair
    differences over sqrt(2)), the second difference in it and the slices of
    its even and odd rows.  The second difference is formed on the unscaled
    +-1 rows, in integers, so it has exact zeros between the parities."""
    m = n // 2
    j = np.arange(m)
    signs = np.zeros((n, n))
    signs[j, j] = signs[j, n - 1 - j] = signs[n - m + j, j] = 1.0
    signs[n - m + j, n - 1 - j] = -1.0
    if n % 2:
        signs[m, m] = 1.0
    scale = np.sqrt(1.0 / np.count_nonzero(signs, axis=1))[:, None]
    t = signs @ _second_difference(n) @ signs.T
    return scale * signs, scale * t * scale.T, (slice(0, n - m), slice(n - m, n))


def _block_factor(shape: tuple[int, int, int], h: float):
    axis = int(np.argmax(shape))
    n = shape[axis]
    p, q = (shape[a] for a in range(3) if a != axis)
    (bp, tp, halves_p), (bq, tq, halves_q) = _mirror_basis(p), _mirror_basis(q)
    c = n // 2
    blocks = []  # per parity block: its rows, columns, pivot inverses, middle inverse
    for rows, cols in itertools.product(halves_p, halves_q):
        ta, tb = tp[rows, rows], tq[cols, cols]
        if not (ta.size and tb.size):
            continue
        d = np.kron(ta, np.eye(len(tb))) + np.kron(np.eye(len(ta)), tb)
        d.flat[::d.shape[0] + 1] += 2.0
        inv: list[np.ndarray] = []
        for _ in range(c):
            inv.append(np.linalg.inv(d - inv[-1] if inv else d))
        for length in (c, n - 1 - c):  # planes eliminated from each end
            if length:
                d -= inv[length - 1]
        blocks.append((rows, cols, inv, np.linalg.inv(d)))

    def solve(b: np.ndarray) -> np.ndarray:
        y = bp @ np.moveaxis(b * (h * h), axis, 0) @ bq.T  # planes in the mirror basis
        for rows, cols, inv, mid in blocks:
            x = y[:, rows, cols].reshape(n, -1)
            ends = (x[:c], x[:c:-1])  # each ordered from its end toward plane c
            for side in ends:
                for k in range(1, len(side)):
                    side[k] += inv[k - 1] @ side[k - 1]
                if len(side):
                    x[c] += inv[len(side) - 1] @ side[-1]
            x[c] = mid @ x[c]
            for side in ends:
                nxt = x[c]
                for k in reversed(range(len(side))):
                    side[k] = inv[k] @ (side[k] + nxt)
                    nxt = side[k]
            y[:, rows, cols] = x.reshape(n, rows.stop - rows.start, -1)
        return np.ascontiguousarray(np.moveaxis(bp.T @ y @ bq, 0, axis))

    return solve
