"""Linear-solve kernels: spectral, plain CG, and dense routes agree."""

import itertools
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetovar import poisson
from magnetovar.errors import ConvergenceError
from magnetovar.grid import EDGE, GridSpec, VectorField
from magnetovar.operators import curl, div, grad_node


def random_rhs(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.mark.parametrize("kinds, apply_op", [(poisson.CELL_KINDS, poisson.laplace_apply),
                                              (poisson.NODE_KINDS, poisson.neumann_laplace_apply)])
@pytest.mark.parametrize("shape", [(9, 10, 11), (2, 5, 7), (6, 2, 3)])
def test_transform_solve_inverts_cell_and_node_operators(kinds, apply_op, shape):
    b = random_rhs(shape, 1)
    if kinds == poisson.NODE_KINDS:
        b -= b.mean()  # the no-flux operator maps onto zero-mean fields
    b_in = b.copy()
    u = poisson.transform_solve(b, 0.2, kinds)
    assert np.array_equal(b, b_in)
    assert np.abs(apply_op(u, 0.2) - b).max() <= 1e-12 * np.abs(b).max() / 0.04
    if kinds == poisson.NODE_KINDS:
        assert abs(u.mean()) <= 1e-14 * np.abs(u).max()


@pytest.mark.parametrize("grid", [GridSpec(2, 5, 7, 0.3),
                                  GridSpec(6, 2, 3, 0.25, pad=1),
                                  GridSpec(3, 4, 2, 1.0)])
def test_transform_solve_inverts_edge_vector_laplacian(grid):
    # per edge component: sines along its own axis, cosines along the node axes
    rng = np.random.default_rng(6)
    b = VectorField.zeros(grid, EDGE)
    for c in b.components:
        c[:] = rng.standard_normal(c.shape)
    kinds = [tuple("dst" if ax == c else "dct" for ax in range(3)) for c in range(3)]
    b_in = b.copy()
    x = VectorField(grid, *(poisson.transform_solve(bc, grid.h, k)
                            for bc, k in zip(b.components, kinds)), staggering=EDGE)
    for got, want in zip(b.components, b_in.components):
        assert np.array_equal(got, want)
    lx = curl(curl(x)) - grad_node(div(x))
    for got, want in zip(lx.components, b.components):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def second_difference(n, kind):
    """The 1-D operator -d^2 at unit spacing with zero ghosts ("dst") or
    mirrored ends ("dct"), as a dense matrix."""
    t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if kind == "dct":
        t[0, 0] -= 1.0
        t[-1, -1] -= 1.0
    return t


def apply_from_1d_ends(u, h, kinds):
    """-Laplacian(u) summed axis by axis from 1-D second differences."""
    y = np.zeros_like(u)
    for axis, kind in enumerate(kinds):
        t = second_difference(u.shape[axis], kind)
        y += np.moveaxis(np.tensordot(t, u, axes=(1, axis)), 0, axis)
    return y / (h * h)


@pytest.mark.parametrize("kind", ["dst", "dct"])
@pytest.mark.parametrize("n", [*range(1, 41), 83, 107, 108, 109])
def test_axis_basis_is_orthonormal_eigenbasis(kind, n):
    q, lam = poisson._axis_basis(n, kind)
    assert q.shape == (n, n) and lam.shape == (n,)
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
    assert np.abs(q.T @ second_difference(n, kind) @ q - np.diag(lam)).max() <= 1e-13
    assert poisson._axis_basis(n, kind)[0] is q and not q.flags.writeable
    if kind == "dst":
        assert lam.min() > 0.0
    else:
        assert lam[0] == 0.0 and np.all(lam[1:] > 0.0)


@pytest.mark.parametrize("kind", ["dst", "dct"])
@pytest.mark.parametrize("n", [*range(1, 41), 83, 107, 108, 109, 213])
def test_axis_basis_matches_scipy_transforms(kind, n):
    # the closed-form bases against SciPy's orthonormal DST-I / DCT-II of the
    # identity; an unreduced phase or a wrong DC column misses this bound
    from scipy import fft
    transform = fft.dst if kind == "dst" else fft.dct
    ref = transform(np.eye(n), type=1 if kind == "dst" else 2, norm="ortho", axis=0).T
    assert np.abs(poisson._axis_basis(n, kind)[0] - ref).max() <= 2e-15
    # no annotation may name a SciPy module, which poisson imports only lazily
    typing.get_type_hints(poisson.assemble_laplacian)


def test_axis_basis_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown transform kind"):
        poisson._axis_basis(4, "fft")


def supported_rhs(shape, seed, support, zero_mean):
    """Random right-hand side that vanishes outside an index box: the whole
    lattice ("full", touching every face), a random sub-box, one cell, or
    no cell at all ("zero"); with ``zero_mean`` its values sum to zero."""
    rng = np.random.default_rng(seed)
    b = np.zeros(shape)
    if support == "full":
        box = tuple(slice(0, n) for n in shape)
    elif support == "sub-box":
        box = tuple(slice(lo, rng.integers(lo + 1, n + 1))
                    for lo, n in zip(rng.integers(0, shape), shape))
    elif support == "cell":
        box = tuple(slice(i, i + 1) for i in rng.integers(0, shape))
    else:
        return b
    values = rng.standard_normal(b[box].shape)
    b[box] = values - values.mean() if zero_mean else values
    return b


@pytest.mark.parametrize("kinds", list(itertools.product(("dst", "dct"), repeat=3)),
                         ids="-".join)
@settings(derandomize=True, deadline=None, max_examples=24, database=None)
@given(shape=st.tuples(*[st.integers(2, 9)] * 3), h=st.floats(0.05, 2.0),
       seed=st.integers(0, 2 ** 32 - 1),
       support=st.sampled_from(["full", "sub-box", "cell", "zero"]))
def test_transform_solve_property(kinds, shape, h, seed, support):
    # the all-cosine operator maps onto zero-mean fields
    b = supported_rhs(shape, seed, support, zero_mean="dst" not in kinds)
    b_in = b.copy()
    u = poisson.transform_solve(b, h, kinds)
    assert b.tobytes() == b_in.tobytes()
    assert u.shape == b.shape and u.dtype == np.float64
    if not b.any():
        assert not u.any()
    resid = np.linalg.norm(apply_from_1d_ends(u, h, kinds) - b)
    assert resid <= 1e-12 * np.linalg.norm(b)
    if "dst" not in kinds:
        assert abs(u.sum()) <= 1e-12 * np.abs(u).sum()


@pytest.mark.parametrize("kinds", [poisson.CELL_KINDS, poisson.NODE_KINDS, ("dst", "dct", "dct")],
                         ids="-".join)
def test_transform_solve_allocates_about_one_output(kinds):
    # the forward products write into the result and the inverse runs in
    # place, so no second full-grid temporary appears
    b = random_rhs((60, 50, 40), 9)
    poisson.transform_solve(b, 0.1, kinds)  # builds the cached bases
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        u = poisson.transform_solve(b, 0.1, kinds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes == b.nbytes
    assert peak < 1.5 * b.nbytes


def test_dense_cache_keeps_latest_factor_only():
    for shape in ((4, 5, 6), (5, 4, 3)):
        poisson.dense_poisson_solver(shape, 0.2)
    assert list(poisson._DENSE_CACHE) == [((5, 4, 3), 0.2)]


def test_pcg_routes_agree():
    b = random_rhs((8, 8, 8), 2)
    h = 0.15
    u_dst, r1, _ = poisson.solve_poisson(b, h, 1e-10, 100, "dst")
    u_cg, r2, _ = poisson.solve_poisson(b, h, 1e-10, 5000, "none")
    dense = poisson.dense_poisson_solver(b.shape, h)
    u_dense = dense(b.ravel()).reshape(b.shape)
    assert r1 <= 1e-10 and r2 <= 1e-10
    scale = np.abs(u_dense).max()
    assert np.abs(u_dst - u_dense).max() < 1e-8 * scale
    assert np.abs(u_cg - u_dense).max() < 1e-8 * scale


def test_pcg_zero_rhs():
    u, res, it = poisson.solve_poisson(np.zeros((5, 5, 5)), 0.1, 1e-8, 10)
    assert np.all(u == 0) and res == 0.0 and it == 0


def test_pcg_raises_on_iteration_cap():
    b = random_rhs((12, 12, 12), 3)
    with pytest.raises(ConvergenceError) as info:
        poisson.solve_poisson(b, 0.1, 1e-12, 2, "none")
    assert info.value.residual is not None


def test_neumann_solver_kills_mean_free_rhs():
    b = random_rhs((7, 8, 9), 4)
    b -= b.mean()
    p, res, _ = poisson.solve_poisson_neumann(b, 0.12, 1e-10, 100)
    assert np.allclose(poisson.neumann_laplace_apply(p, 0.12), b, atol=1e-9)
    assert res <= 1e-10


@pytest.mark.parametrize("neumann", [False, True])
@pytest.mark.parametrize("preconditioner", ["dst", "none"])
def test_returned_residual_is_true_residual(neumann, preconditioner):
    b = random_rhs((10, 6, 8), 5)
    if neumann:
        b -= b.mean()
        solve, apply_op = poisson.solve_poisson_neumann, poisson.neumann_laplace_apply
    else:
        solve, apply_op = poisson.solve_poisson, poisson.laplace_apply
    u, res, _ = solve(b, 0.1, 1e-13, 5000, preconditioner)
    if neumann:
        b = b - b.mean()  # the solve removes the (rounding) mean again
    true = np.linalg.norm(b - apply_op(u, 0.1)) / np.linalg.norm(b)
    assert res == true and res <= 1e-13


def test_pcg_declares_convergence_on_true_residual():
    # the recursively updated residual drifts below the attainable accuracy
    b = random_rhs((40, 20, 30), 6)
    apply_op = lambda x: poisson.laplace_apply(x, 0.1)
    with pytest.raises(ConvergenceError) as info:
        poisson.pcg(apply_op, b, tol=1e-18, max_iter=400)
    true = info.value.residual
    assert 1e-17 < true < 1e-13 and info.value.iterations == 400


def test_pcg_rejects_non_finite_rhs_at_once():
    calls = []
    b = random_rhs((6, 6, 6), 7)
    b[2, 3, 1] = np.nan
    with pytest.raises(ConvergenceError, match="not finite") as info:
        poisson.pcg(lambda x: calls.append(1) or x, b, tol=1e-8, max_iter=20000)
    assert info.value.iterations == 0 and not calls
    with pytest.raises(ConvergenceError, match="not finite"):
        poisson.solve_poisson(b, 0.1, 1e-8, 20000, "dst")


def test_pcg_breakdown_reports_iteration_and_cause():
    b = random_rhs((4, 4, 4), 8)
    with pytest.raises(ConvergenceError, match="broke down") as info:
        poisson.pcg(lambda x: -x, b, tol=1e-8, max_iter=20000)
    assert info.value.iterations == 1 and info.value.residual == 1.0
