"""Linear-solve kernels: spectral, plain CG, and dense routes agree."""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetovar import poisson
from magnetovar.errors import ConvergenceError, GridError
from magnetovar.grid import EDGE, NODE, GridSpec, ScalarField, VectorField, nonzero_box
from magnetovar.operators import curl, div, grad_node


def random_rhs(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def neumann_laplace_apply(x, h):
    """The node stencil as it was before ``laplace_apply`` took ``kinds``:
    the reference its ``NODE_KINDS`` apply must equal bit for bit."""
    y = 6.0 * x
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


LATTICE_KINDS = [poisson.CELL_KINDS, poisson.NODE_KINDS, *poisson.EDGE_KINDS]
LATTICE_IDS = ["cell", "node", "edge-x", "edge-y", "edge-z"]
EDGE_GRIDS = [GridSpec(2, 5, 7, 0.3), GridSpec(6, 2, 3, 0.25, pad=1), GridSpec(3, 4, 2, 1.0)]


@pytest.mark.parametrize("kinds", LATTICE_KINDS, ids=LATTICE_IDS)
@pytest.mark.parametrize("shape", [(9, 10, 11), (2, 5, 7), (6, 2, 3)])
def test_transform_solve_inverts_cell_and_node_operators(kinds, shape):
    # the stencil with the same ends is the forward operator of every solve
    b = random_rhs(shape, 1)
    if "dst" not in kinds:
        b -= b.mean()  # the no-flux operator maps onto zero-mean fields
    b_in = b.copy()
    u = poisson.transform_solve(b, 0.2, kinds)
    assert np.array_equal(b, b_in)
    assert np.abs(poisson.laplace_apply(u, 0.2, kinds) - b).max() <= \
        1e-12 * np.abs(b).max() / 0.04
    if "dst" not in kinds:
        assert abs(u.mean()) <= 1e-14 * np.abs(u).max()


@pytest.mark.parametrize("grid", EDGE_GRIDS)
def test_transform_solve_inverts_edge_vector_laplacian(grid):
    # per edge component: sines along its own axis, cosines along the node axes
    rng = np.random.default_rng(6)
    b = VectorField.zeros(grid, EDGE)
    for c in b.components:
        c[:] = rng.standard_normal(c.shape)
    b_in = copy.deepcopy(b)
    x = VectorField(grid, *(poisson.transform_solve(bc, grid.h, k)
                            for bc, k in zip(b.components, poisson.EDGE_KINDS)), staggering=EDGE)
    for got, want in zip(b.components, b_in.components):
        assert np.array_equal(got, want)
    lx = curl(curl(x)) - grad_node(div(x))
    for got, want in zip(lx.components, b.components):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("grid", EDGE_GRIDS)
def test_laplace_apply_is_the_node_and_edge_vector_laplacian(grid):
    # NODE_KINDS: -div(grad_node p); EDGE_KINDS[c]: component c of
    # curl curl x - grad_node div x
    rng = np.random.default_rng(23)
    p = rng.standard_normal(tuple(n + 1 for n in grid.shape))
    want = -div(grad_node(ScalarField(grid, p, NODE))).data
    got = poisson.laplace_apply(p, grid.h, poisson.NODE_KINDS)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    x = VectorField.zeros(grid, EDGE)
    for c in x.components:
        c[:] = rng.standard_normal(c.shape)
    lx = curl(curl(x)) - grad_node(div(x))
    for xc, kinds, want in zip(x.components, poisson.EDGE_KINDS, lx.components):
        got = poisson.laplace_apply(xc, grid.h, kinds)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(1, 6, 5), (6, 1, 3), (4, 5, 1), (1, 1, 1), (7, 8, 9),
                                   (2, 3, 2), (12, 1, 1)])
def test_node_apply_equals_the_old_node_stencil_bit_for_bit(shape):
    # one-plane axes subtract their single plane twice, as the old stencil did
    x = random_rhs(shape, sum(shape))
    assert poisson.laplace_apply(x, 0.3, poisson.NODE_KINDS).tobytes() == \
        neumann_laplace_apply(x, 0.3).tobytes()


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


def test_axis_basis_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown transform kind"):
        poisson._axis_basis(4, "fft")


FACES = [f"face-{axis}{side}" for axis in range(3) for side in "-+"]


def supported_rhs(shape, seed, support, zero_mean):
    """(b, box): a random right-hand side ``b`` that vanishes outside the index
    ``box``: the whole lattice ("full", touching every face), a random
    sub-box, a random sub-box on one face of the lattice ("face-0-" is on
    the low face of axis 0), one cell, or a random sub-box of zeros ("zero");
    with ``zero_mean`` its values sum to zero."""
    rng = np.random.default_rng(seed)
    b = np.zeros(shape)
    if support == "full":
        box = tuple(slice(0, n) for n in shape)
    elif support == "cell":
        box = tuple(slice(i, i + 1) for i in rng.integers(0, shape))
    else:
        box = [slice(lo, int(rng.integers(lo + 1, n + 1)))
               for lo, n in zip(rng.integers(0, shape), shape)]
        if support.startswith("face"):
            axis, n = int(support[5]), shape[int(support[5])]
            width = box[axis].stop - box[axis].start
            box[axis] = slice(0, width) if support[6] == "-" else slice(n - width, n)
        box = tuple(box)
    if support != "zero":
        values = rng.standard_normal(b[box].shape)
        b[box] = values - values.mean() if zero_mean else values
    return b, box


@pytest.mark.parametrize("kinds", list(itertools.product(("dst", "dct"), repeat=3)),
                         ids="-".join)
@settings(derandomize=True, deadline=None, max_examples=24, database=None)
@given(shape=st.tuples(*[st.integers(2, 9)] * 3), h=st.floats(0.05, 2.0),
       seed=st.integers(0, 2 ** 32 - 1),
       support=st.sampled_from(["full", "sub-box", *FACES, "cell", "zero"]))
def test_transform_solve_property(kinds, shape, h, seed, support):
    # the all-cosine operator maps onto zero-mean fields.  The source solved
    # from its box array gives the embedded source's solution
    b, box = supported_rhs(shape, seed, support, zero_mean="dst" not in kinds)
    b_in, part = b.copy(), b[box].copy()
    u = poisson.transform_solve(b, h, kinds)
    u_box = poisson.transform_solve(part, h, kinds, shape, box)
    assert b.tobytes() == b_in.tobytes() and part.tobytes() == b_in[box].tobytes()
    assert u.shape == u_box.shape == b.shape and u.dtype == u_box.dtype == np.float64
    if not b.any():
        assert not u.any() and not u_box.any()
    assert np.abs(u_box - u).max() <= 1e-15 * np.abs(u).max()
    resid = np.linalg.norm(apply_from_1d_ends(u, h, kinds) - b)
    assert resid <= 1e-12 * np.linalg.norm(b)
    if "dst" not in kinds:
        assert abs(u.sum()) <= 1e-12 * np.abs(u).sum()


@pytest.mark.parametrize("box", [(slice(0, 3), slice(1, 4), slice(1, 3)),
                                 (slice(0, 3), slice(2, 5), slice(0, 1))],
                         ids=["other-shape", "off-the-lattice"])
def test_transform_solve_rejects_a_source_off_its_box(box):
    with pytest.raises(ValueError, match="does not fill the box"):
        poisson.transform_solve(np.ones((3, 3, 1)), 0.1, poisson.CELL_KINDS, (3, 4, 3), box)


SLAB_KINDS = [poisson.CELL_KINDS, poisson.NODE_KINDS, ("dst", "dct", "dct")]


@pytest.mark.parametrize("kinds, shape", [
    pytest.param(kinds, shape, id=prefix + "-".join(kinds))
    for prefix, shape in [("", (60, 50, 40)), ("scaled-", (96, 80, 72))] for kinds in SLAB_KINDS])
def test_transform_solve_allocates_about_one_output(kinds, shape):
    # the forward products write into the result and the inverse runs in
    # place, so no second full-grid temporary appears; the temporaries are
    # sized by the 64 KiB floor on the first lattice and by 1/16 of the
    # result on the second
    b = random_rhs(shape, 9)
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


@pytest.mark.parametrize("kinds", SLAB_KINDS, ids="-".join)
def test_transform_solve_is_deterministic_above_the_floor(kinds):
    # the larger products run on every BLAS thread; repeated solves of one
    # source must still agree bit for bit, so repeated runs write equal CSVs
    b = random_rhs((96, 80, 72), 4)
    if "dst" not in kinds:
        b -= b.mean()
    assert np.array_equal(poisson.transform_solve(b, 0.1, kinds),
                          poisson.transform_solve(b, 0.1, kinds))


def per_plane_transform_solve(b, h, kinds):
    """The transform solve with the axis-1/2 products run one axis-0 plane at
    a time and the forward axis-0 product one axis-1 index at a time: the
    reference for the slab-batched products."""
    box = nonzero_box(b)
    if box is None:
        return np.zeros(b.shape)
    s0, s1, s2 = box
    (q0, lam0), (q1, lam1), (q2, lam2) = (poisson._axis_basis(n, k)
                                          for n, k in zip(b.shape, kinds))
    coef = np.empty(b.shape)
    for j in range(s1.start, s1.stop):
        coef[:, j, s2] = q0[s0].T @ b[s0, j, s2]
    lam12 = (lam1[:, None] + lam2[None, :]) / (h * h)
    for i, lam in enumerate(lam0 / (h * h)):
        plane = q1[s1].T @ (coef[i, s1, s2] @ q2[s2])
        denom = lam + lam12
        if denom[0, 0] == 0.0:
            denom[0, 0] = np.inf
        plane /= denom
        coef[i] = (q1 @ plane) @ q2.T
    flat = coef.reshape(b.shape[0], -1)
    flat[...] = q0 @ flat
    return coef


@pytest.mark.parametrize("kinds", SLAB_KINDS, ids="-".join)
@pytest.mark.parametrize("planes", [0.5, 1, 4, 5, 6, 12, 30])
@pytest.mark.parametrize("box", [(slice(0, 12), slice(0, 9), slice(0, 7)),
                                 (slice(2, 7), slice(5, 9), slice(0, 3))],
                         ids=["full", "off-centre"])
def test_slab_batched_transform_solve_matches_per_plane(monkeypatch, kinds, planes, box):
    # 12 planes in slabs of 1 (also for a budget under one plane), 4 and 6
    # (n0 a multiple of the slab), 5 (not) or one slab (12 and more planes);
    # the source fills the grid or an off-centre box touching two faces
    shape = (12, 9, 7)
    monkeypatch.setattr(poisson, "_TRANSFORM_SLAB_BYTES", int(planes * 8 * 9 * 7))
    b = np.zeros(shape)
    values = random_rhs(b[box].shape, 21)
    b[box] = values - values.mean() if "dst" not in kinds else values
    want = per_plane_transform_solve(b, 0.3, kinds)
    got = poisson.transform_solve(b, 0.3, kinds)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("kinds", SLAB_KINDS, ids="-".join)
@pytest.mark.parametrize("box", [(slice(0, 70), slice(0, 51), slice(0, 40)),
                                 (slice(9, 52), slice(3, 29), slice(17, 40))],
                         ids=["full", "off-centre"])
def test_scaled_budget_transform_solve_matches_per_plane(kinds, box):
    # above 1 MiB the budget is 1/16 of the result: slabs of 4 planes, which
    # do not divide the 70, and column blocks of 127, which do not divide the
    # 51 * 40 columns
    shape = (70, 51, 40)
    b = np.zeros(shape)
    budget = b.nbytes // 16
    assert budget > poisson._TRANSFORM_SLAB_BYTES
    assert shape[0] % (budget // b[0].nbytes) and b[0].size % (budget // (8 * shape[0]))
    values = random_rhs(b[box].shape, 22)
    b[box] = values - values.mean() if "dst" not in kinds else values
    want = per_plane_transform_solve(b, 0.3, kinds)
    got = poisson.transform_solve(b, 0.3, kinds)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _budget_planes(monkeypatch, shape, planes):
    """Set the residual slab budget to ``planes`` planes of a float array of
    ``shape``."""
    monkeypatch.setattr(poisson, "_SLAB_BYTES", planes * 8 * shape[1] * shape[2])


@pytest.mark.parametrize("kinds", LATTICE_KINDS, ids=LATTICE_IDS)
@pytest.mark.parametrize("shape, planes", [((1, 6, 5), 1), ((10, 6, 5), 3), ((9, 4, 7), 3),
                                           ((7, 5, 6), 2), ((8, 3, 4), 1)])
def test_slab_residual_matches_full_residual(monkeypatch, kinds, shape, planes):
    # several slabs, n0 a multiple of the slab or not, and a single plane
    _budget_planes(monkeypatch, shape, planes)
    rng = np.random.default_rng(11)
    x, b = rng.standard_normal(shape), rng.standard_normal(shape)
    slabs = []

    def spy(xs):
        slabs.append(xs.shape[0])
        return poisson.laplace_apply(xs, 0.1, kinds)

    got = poisson.stencil_residual_norm(spy, x, b)
    want = np.linalg.norm(b - poisson.laplace_apply(x, 0.1, kinds))
    assert abs(got - want) <= 1e-13 * want
    assert len(slabs) == -(-shape[0] // planes)


@pytest.mark.parametrize("kinds", LATTICE_KINDS, ids=LATTICE_IDS)
def test_slab_applies_equal_the_full_apply_bit_for_bit(monkeypatch, kinds):
    shape = (11, 5, 6)
    _budget_planes(monkeypatch, shape, 4)
    rng = np.random.default_rng(12)
    x, b = rng.standard_normal(shape), rng.standard_normal(shape)
    full = poisson.laplace_apply(x, 0.1, kinds)
    applied = []

    def spy(xs):
        y = poisson.laplace_apply(xs, 0.1, kinds)
        applied.append(y.copy())  # the check subtracts from y in place
        return y

    poisson.stencil_residual_norm(spy, x, b)
    # slabs own planes [0, 4), [4, 8) and [8, 11); each is applied with its
    # neighbouring planes as a halo
    owned = [(0, 4), (4, 8), (8, 11)]
    assert [y.shape[0] for y in applied] == [5, 6, 4]
    for (lo, hi), y in zip(owned, applied):
        start = max(lo - 1, 0)
        assert y[lo - start:hi - start].tobytes() == full[lo:hi].tobytes()


@pytest.mark.parametrize("kinds", LATTICE_KINDS, ids=LATTICE_IDS)
@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), planes=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32 - 1),
       support=st.sampled_from(["full", "sub-box", *FACES, "cell", "zero"]))
def test_boxed_residual_equals_the_embedded_bit_for_bit(kinds, shape, planes, seed, support):
    # b on its box: A x - b where the slab meets the box is -(b - A x) exactly,
    # so every slab budget sums the squares of the embedded residual
    b, box = supported_rhs(shape, seed, support, zero_mean=False)
    x = random_rhs(shape, seed + 1)

    def apply_op(xs):
        return poisson.laplace_apply(xs, 0.3, kinds)

    with pytest.MonkeyPatch.context() as mp:
        _budget_planes(mp, shape, planes)
        got = poisson.stencil_residual_norm(apply_op, x, b[box].copy(), box)
        want = poisson.stencil_residual_norm(apply_op, x, b)
    assert got == want
    if planes >= shape[0]:
        assert got == np.linalg.norm(b - apply_op(x))


def test_grid_within_the_budget_is_one_slab():
    calls = []
    x = np.ones((24, 24, 24))
    poisson.stencil_residual_norm(
        lambda xs: calls.append(xs.shape) or poisson.laplace_apply(xs, 1.0), x, x)
    assert calls == [(24, 24, 24)]


def test_solve_poisson_allocates_about_one_output_plus_a_slab(monkeypatch):
    # the transform solve's result plus one residual slab with its halo;
    # a full-grid b - A x would add two more arrays of b's size
    shape = (64, 40, 50)
    _budget_planes(monkeypatch, shape, 8)
    b = random_rhs(shape, 13)
    poisson.solve_poisson(b, 0.1, 1e-8, 100)  # builds the cached bases
    slab = (8 + 2) * b[0].nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        u, res, _ = poisson.solve_poisson(b, 0.1, 1e-8, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res <= 1e-8 and u.nbytes == b.nbytes
    assert peak < 1.5 * b.nbytes + slab


def test_dense_cache_keeps_latest_factor_only():
    for shape in ((4, 5, 6), (5, 4, 3)):
        poisson.dense_poisson_solver(shape, 0.2)
    assert list(poisson._DENSE_CACHE) == [((5, 4, 3), 0.2)]


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), h=st.floats(0.05, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dense_solver_inverts_laplace_apply(shape, h, seed):
    # any axis may be the longest (the sweep axis), of odd or even length,
    # and 1-wide axes leave 1-wide planes or a single plane
    b = random_rhs(shape, seed)
    u = poisson.dense_poisson_solver(shape, h)(b)
    res = np.linalg.norm(b - poisson.laplace_apply(u, h)) / np.linalg.norm(b)
    assert res <= 1e-13
    ref = poisson.transform_solve(b, h, poisson.CELL_KINDS)
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(21, 22, 23), (1, 40, 40), (3, 17, 40), (32, 32, 32)])
def test_dense_solver_inverts_laplace_apply_beyond_the_property_range(shape):
    # planes of odd and even sides up to 40, a 1-wide plane side and the cap
    h = 0.1
    b = random_rhs(shape, 5)
    u = poisson.dense_poisson_solver(shape, h)(b)
    res = np.linalg.norm(b - poisson.laplace_apply(u, h)) / np.linalg.norm(b)
    assert res <= 1e-13
    ref = poisson.transform_solve(b, h, poisson.CELL_KINDS)
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    poisson._DENSE_CACHE.clear()


@pytest.mark.parametrize("n", [*range(1, 10), 22, 23])
def test_mirror_basis_splits_the_second_difference_by_parity(n):
    basis, t, (even, odd) = poisson._mirror_basis(n)
    assert (even.stop, odd.stop - odd.start) == ((n + 1) // 2, n // 2)
    assert np.abs(basis @ basis.T - np.eye(n)).max() <= 4e-16
    # even rows are symmetric under reversal, odd rows antisymmetric
    assert np.array_equal(basis[even, ::-1], basis[even])
    assert np.array_equal(basis[odd, ::-1], -basis[odd])
    assert not t[even, odd].any() and not t[odd, even].any()
    assert np.array_equal(t, t.T)
    assert np.abs(t - basis @ poisson._second_difference(n) @ basis.T).max() <= 1e-15


def test_dense_factor_stores_quarter_size_pivot_inverses():
    # a 22^3 lattice has 22 x 22 planes: four parity blocks of 11 x 11
    # unknowns, each with 11 pivot inverses and one middle inverse.  Whole
    # 484 x 484 planes would keep 12 inverses of 1.9 MB, 22 MB in all.
    stored = 4 * 12 * 121 ** 2 * 8
    poisson._DENSE_CACHE.clear()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        poisson.dense_poisson_solver((22, 22, 22), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        poisson._DENSE_CACHE.clear()
    assert peak < 1.1 * stored


def test_dense_solver_refuses_a_shape_over_the_cap_before_factoring(monkeypatch):
    factored = []
    monkeypatch.setattr(poisson, "_block_factor", lambda *key: factored.append(key))
    poisson._DENSE_CACHE.clear()
    with pytest.raises(GridError, match="'dense': 32769 unknowns exceed 32768"):
        poisson.dense_poisson_solver((9, 11, 331), 0.1)
    with pytest.raises(GridError, match="'dense'"):
        poisson.solve_poisson(np.zeros((33, 32, 32)), 0.1, 1e-8, 10, "dense")
    assert not factored and not poisson._DENSE_CACHE
    poisson.dense_poisson_solver((32, 32, 32), 0.1)  # at the cap it factors
    assert factored == [((32, 32, 32), 0.1)]
    poisson._DENSE_CACHE.clear()


def test_dense_factor_sweeps_the_longest_axis():
    # a sweep along axis 0 would invert 1600 x 1600 planes (20 MB each);
    # along axis 1 each 80-unknown plane splits into four blocks of 20
    poisson._DENSE_CACHE.clear()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        poisson.dense_poisson_solver((2, 40, 40), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_cg_routes_agree():
    b = random_rhs((8, 8, 8), 2)
    h = 0.15
    u_dst, r1, _ = poisson.solve_poisson(b, h, 1e-10, 100, "direct")
    u_cg, r2, _ = poisson.solve_poisson(b, h, 1e-10, 5000, "cg")
    u_dense = poisson.dense_poisson_solver(b.shape, h)(b)
    assert r1 <= 1e-10 and r2 <= 1e-10
    scale = np.abs(u_dense).max()
    assert np.abs(u_dst - u_dense).max() < 1e-8 * scale
    assert np.abs(u_cg - u_dense).max() < 1e-8 * scale


@pytest.mark.parametrize("box", [(slice(0, 4), slice(3, 10), slice(5, 11)),
                                 (slice(8, 9), slice(0, 10), slice(0, 1))],
                         ids=["corner", "edge-slab"])
def test_oracles_agree_with_direct_on_a_boxed_source(box):
    # cg and the dense factorization read the source embedded in zeros, the
    # direct solve its box array; the box touches faces of the grid
    shape, h = (9, 10, 11), 0.15
    part = random_rhs(tuple(s.stop - s.start for s in box), 17)
    u, res, _ = poisson.solve_poisson(part, h, 1e-10, 100, "direct", shape, box)
    assert res <= 1e-10 and u.shape == shape
    b = np.zeros(shape)
    b[box] = part
    assert np.abs(u - poisson.transform_solve(b, h, poisson.CELL_KINDS)).max() <= \
        1e-15 * np.abs(u).max()
    scale = np.abs(u).max()
    for method, iters in (("cg", 5000), ("dense", 1)):
        x, r, _ = poisson.solve_poisson(part, h, 1e-10, iters, method, shape, box)
        assert r <= 1e-10 and x.shape == shape
        assert np.abs(x - u).max() < 1e-8 * scale
        assert r == np.linalg.norm(b - poisson.laplace_apply(x, h)) / np.linalg.norm(b)


def test_cg_zero_rhs():
    u, res, it = poisson.solve_poisson(np.zeros((5, 5, 5)), 0.1, 1e-8, 10)
    assert np.all(u == 0) and res == 0.0 and it == 0


def test_cg_raises_on_iteration_cap():
    b = random_rhs((12, 12, 12), 3)
    with pytest.raises(ConvergenceError) as info:
        poisson.solve_poisson(b, 0.1, 1e-12, 2, "cg")
    assert info.value.residual is not None


def test_neumann_solver_kills_mean_free_rhs():
    b = random_rhs((7, 8, 9), 4)
    b -= b.mean()
    p, res, _ = poisson.solve_poisson(b, 0.12, 1e-10, 100, kinds=poisson.NODE_KINDS)
    assert np.allclose(poisson.laplace_apply(p, 0.12, poisson.NODE_KINDS), b, atol=1e-9)
    assert res <= 1e-10


@pytest.mark.parametrize("neumann", [False, True])
@pytest.mark.parametrize("method", ["direct", "cg"])
def test_returned_residual_is_true_residual(neumann, method):
    b = random_rhs((10, 6, 8), 5)
    kinds = poisson.NODE_KINDS if neumann else poisson.CELL_KINDS
    if neumann:
        b -= b.mean()
    u, res, _ = poisson.solve_poisson(b, 0.1, 1e-13, 5000, method, kinds=kinds)
    true = np.linalg.norm(b - poisson.laplace_apply(u, 0.1, kinds)) / np.linalg.norm(b)
    assert res == true and res <= 1e-13


def test_cg_declares_convergence_on_true_residual():
    # the recursively updated residual drifts below the attainable accuracy
    b = random_rhs((40, 20, 30), 6)
    apply_op = lambda x: poisson.laplace_apply(x, 0.1)
    with pytest.raises(ConvergenceError) as info:
        poisson.cg(apply_op, b, tol=1e-18, max_iter=400)
    true = info.value.residual
    assert 1e-17 < true < 1e-13 and info.value.iterations == 400


def test_cg_rejects_non_finite_rhs_at_once():
    calls = []
    b = random_rhs((6, 6, 6), 7)
    b[2, 3, 1] = np.nan
    with pytest.raises(ConvergenceError, match="not finite") as info:
        poisson.cg(lambda x: calls.append(1) or x, b, tol=1e-8, max_iter=20000)
    assert info.value.iterations == 0 and not calls
    with pytest.raises(ConvergenceError, match="not finite"):
        poisson.solve_poisson(b, 0.1, 1e-8, 20000, "direct")


def test_cg_breakdown_reports_iteration_and_cause():
    b = random_rhs((4, 4, 4), 8)
    with pytest.raises(ConvergenceError, match="broke down") as info:
        poisson.cg(lambda x: -x, b, tol=1e-8, max_iter=20000)
    assert info.value.iterations == 1 and info.value.residual == 1.0
