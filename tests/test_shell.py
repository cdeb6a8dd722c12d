"""Shell geometry, metric factors, limit functional, and recovery bounds."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from magnetovar.errors import GridError
from magnetovar.magnetostatics import SolverConfig
from magnetovar import shell as sh

CFG = SolverConfig(tol=1e-8)
SPHERE = sh.make_sphere_mesh(1.0, level=3)
TORUS = sh.make_torus_mesh(2.0, 0.5, 48, 24)


def _is_closed(mesh):
    """Every edge shared by exactly two triangles (closed orientable)."""
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return all(c == 2 for c in edges.values())


def loop_icosphere(level):
    """The icosphere refinement as it was before it was vectorized, one
    triangle and one dict lookup at a time: the reference that
    ``make_sphere_mesh`` must equal bit for bit."""
    mesh = sh.make_sphere_mesh(1.0, level=0)
    verts, tris = mesh.vertices, mesh.triangles
    for _ in range(level):
        cache = {}
        vlist = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                mid = vlist[i] + vlist[j]
                mid /= np.linalg.norm(mid)
                cache[key] = len(vlist)
                vlist.append(mid)
            return cache[key]

        new_tris = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(vlist)
        tris = np.array(new_tris, dtype=np.int64)
    return verts, tris


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_sphere_mesh_equals_the_loop_refinement_bit_for_bit(level, radius):
    verts, tris = loop_icosphere(level)
    mesh = sh.make_sphere_mesh(radius, level)
    assert mesh.triangles.dtype == tris.dtype and np.array_equal(mesh.triangles, tris)
    assert mesh.vertices.tobytes() == (radius * verts).tobytes()


def test_meshes_are_closed_and_unit_normals():
    for mesh in (SPHERE, TORUS):
        assert _is_closed(mesh)
        assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("build, name", [
    (lambda: sh.make_sphere_mesh(1.0, level=-1), "level"),
    (lambda: sh.make_sphere_mesh(float("nan")), "radius"),
    (lambda: sh.make_sphere_mesh(float("inf")), "radius"),
    (lambda: sh.make_sphere_mesh(0.0), "radius"),
    (lambda: sh.make_torus_mesh(float("nan"), 0.5), "r_major"),
    (lambda: sh.make_torus_mesh(float("inf"), 0.5), "r_major"),
    (lambda: sh.make_torus_mesh(2.0, -0.5), "r_minor"),
    (lambda: sh.make_torus_mesh(2.0, 2.5), r"r_minor must lie in \(0, 2.0\)"),
    (lambda: sh.make_torus_mesh(2.0, 0.5, n_major=2, n_minor=24), "n_major"),
    (lambda: sh.make_torus_mesh(2.0, 0.5, n_major=48, n_minor=2), "n_minor"),
])
def test_mesh_builders_reject_bad_sizes(build, name):
    # range(-1) used to leave the level-0 icosahedron; n < 3 gave degenerate tori;
    # a NaN or infinite radius failed later in the grid builder with a traceback
    with pytest.raises(GridError, match=name):
        build()


def test_mesh_builders_cap_the_triangle_count_before_building(monkeypatch):
    # a level-12 icosphere would need 20 4^12 = 335,544,320 triangles and a
    # torus of 10^5 x 10^5 quads 2e10: each is refused before any array exists
    def unbuilt(*args, **kwargs):
        raise AssertionError("a mesh array was built")

    monkeypatch.setattr(np, "meshgrid", unbuilt)
    monkeypatch.setattr(np.linalg, "norm", unbuilt)
    with pytest.raises(GridError, match="icosphere level 12 gives more than 1048576"):
        sh.make_sphere_mesh(1.0, level=12)
    with pytest.raises(GridError, match="torus n_major 100000, n_minor 100000"):
        sh.make_torus_mesh(2.0, 0.5, n_major=100000, n_minor=100000)
    assert 20 * 4 ** 7 <= sh.MAX_TRIANGLES < 20 * 4 ** 8


def loop_torus_triangles(n_major, n_minor):
    """The torus triangulation as it was built before it was vectorized, one
    quad at a time: the reference that ``make_torus_mesh`` must equal."""
    def vid(i, j):
        return (i % n_major) * n_minor + (j % n_minor)

    tris = []
    for i in range(n_major):
        for j in range(n_minor):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris += [[a, b, c], [a, c, d]]
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("n_major, n_minor", [(3, 3), (7, 5), (5, 7), (64, 32), (48, 24)])
def test_torus_triangles_equal_the_loop_triangulation(n_major, n_minor):
    mesh = sh.make_torus_mesh(2.0, 0.5, n_major, n_minor)
    want = loop_torus_triangles(n_major, n_minor)
    assert mesh.triangles.dtype == want.dtype and mesh.triangles.shape == want.shape
    assert mesh.triangles.tobytes() == want.tobytes()
    assert _is_closed(mesh)


def test_unknown_mesh_kind_is_rejected():
    with pytest.raises(GridError, match="plane"):
        sh.SurfaceMesh("plane", SPHERE.vertices, SPHERE.triangles, SPHERE.normals,
                       SPHERE.kappa1, SPHERE.kappa2, SPHERE.tau1, SPHERE.tau2)


def per_call_triangle_frame(mesh):
    """Per-triangle (areas, unit mean tau1, unit mean tau2, mean kappa1, mean
    kappa2) as they were computed on every call, before the mesh kept them."""
    p = mesh.vertices[mesh.triangles]
    cr = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    tris = mesh.triangles
    return (0.5 * np.linalg.norm(cr, axis=1),
            sh._unit(sh._tri_vertex_mean(mesh.tau1, tris)),
            sh._unit(sh._tri_vertex_mean(mesh.tau2, tris)),
            sh._tri_vertex_mean(mesh.kappa1, tris),
            sh._tri_vertex_mean(mesh.kappa2, tris))


def per_call_p1_gradients(mesh, values):
    """The P1 gradients as they were computed on every call, normals and
    barycentric gradients included."""
    scalar = values.ndim == 1
    vals = values[:, None] if scalar else values
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    nrm = np.cross(e1, e2)
    area2 = np.linalg.norm(nrm, axis=1, keepdims=True)
    nhat = nrm / area2
    g1 = np.cross(nhat, p[:, 0] - p[:, 2]) / area2
    g2 = np.cross(nhat, p[:, 1] - p[:, 0]) / area2
    f = vals[mesh.triangles]
    d1 = (f[:, 1] - f[:, 0]).T
    d2 = (f[:, 2] - f[:, 0]).T
    grad = np.moveaxis(d1[..., None] * g1[None] + d2[..., None] * g2[None], 0, 1)
    return grad[:, 0] if scalar else grad


PIN_MESHES = {"sphere2": sh.make_sphere_mesh(1.0, 2), "sphere4": sh.make_sphere_mesh(1.3, 4),
              "torus": TORUS}
PIN_FIELDS = [sh.uniform_field((0.3, 0.4, 0.866)), sh.hedgehog_field(), sh.toroidal_field()]


def _same_bits(got, want):
    return all(np.asarray(g).dtype == np.asarray(w).dtype
               and np.asarray(g).tobytes() == np.asarray(w).tobytes()
               for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("name", sorted(PIN_MESHES))
def test_frame_and_p1_gradients_equal_the_per_call_geometry_bit_for_bit(name):
    mesh = PIN_MESHES[name]
    assert _same_bits(mesh.frame[:5], per_call_triangle_frame(mesh))
    assert mesh.frame[0].sum() == per_call_triangle_frame(mesh)[0].sum()
    for fn in PIN_FIELDS:
        m0 = sh.sample_on_vertices(mesh, fn)
        for values in (m0, m0[:, 1], np.cross(m0, mesh.normals)):
            assert _same_bits([sh._p1_gradients(mesh, values)],
                              [per_call_p1_gradients(mesh, values)])


@pytest.mark.parametrize("name", sorted(PIN_MESHES))
def test_shell_energies_equal_the_per_call_geometry_bit_for_bit(monkeypatch, name):
    # the same functions, once on the cached frame and once on the geometry
    # computed per call: a mesh copy whose frame is preset to it, and the
    # per-call P1 gradients
    mesh = PIN_MESHES[name]
    eps, delta = 0.1, 0.3

    def energies(mesh, m0):
        return [sh.limit_energy(m0, mesh), sh.shell_dirichlet_energy(m0, mesh, eps),
                sh.recovery_lower_bound(m0, mesh, eps, delta),
                sh.recovery_upper_bound(m0, mesh, eps, delta)]

    fields = [sh.sample_on_vertices(mesh, fn) for fn in PIN_FIELDS]
    got = [energies(mesh, m0) for m0 in fields]
    per_call = dataclasses.replace(mesh)
    per_call.frame = per_call_triangle_frame(per_call) + (None, None)
    monkeypatch.setattr(sh, "_p1_gradients", per_call_p1_gradients)
    want = [energies(per_call, m0) for m0 in fields]
    assert _same_bits(np.array(got), np.array(want))


def test_convergence_study_computes_each_frame_once(monkeypatch):
    computed, compute = [], sh.SurfaceMesh.frame.func

    def counted(mesh):
        computed.append(mesh)
        return compute(mesh)

    frame = functools.cached_property(counted)
    frame.__set_name__(sh.SurfaceMesh, "frame")
    monkeypatch.setattr(sh.SurfaceMesh, "frame", frame)
    monkeypatch.setattr(sh, "shell_stray_energy_scaled", lambda *args: 0.0)
    meshes = [sh.make_sphere_mesh(1.0, 2), sh.make_torus_mesh(2.0, 0.5, 16, 8)]
    for mesh, fn in zip(meshes, (sh.hedgehog_field(), sh.toroidal_field())):
        rows = sh.convergence_study(mesh, fn, [0.2, 0.1, 0.05], CFG)
        assert len(rows) == 3 and rows[0].limit > 0
    assert [id(m) for m in computed] == [id(m) for m in meshes]


def test_mesh_area_converges_to_analytic():
    a2 = sh.make_sphere_mesh(1.0, 2).frame[0].sum()
    a3 = sh.make_sphere_mesh(1.0, 3).frame[0].sum()
    exact = 4 * np.pi
    assert abs(a3 - exact) < abs(a2 - exact)
    assert abs(a3 - exact) / exact < 0.01
    t_exact = 4 * np.pi ** 2 * 2.0 * 0.5
    assert abs(TORUS.frame[0].sum() - t_exact) / t_exact < 0.01


def test_torus_curvatures():
    # tube curvature 1/r everywhere; the other vanishes on top of the tube
    assert np.allclose(TORUS.kappa1, 2.0)
    k2 = TORUS.kappa2
    assert k2.max() <= 1.0 / (2.0 - 0.5) + 1e-12
    assert k2.min() >= -1.0 / (2.0 - 0.5) - 1e-12


def test_metric_factors_sphere_closed_form():
    eps, t = 0.2, 0.37
    sqrt_g, h1, h2 = sh._metric_arrays(SPHERE.kappa1[11], SPHERE.kappa2[11], t, eps)
    assert abs(sqrt_g - (1 + eps * t) ** 2) < 1e-14
    assert abs(h1 - 1.0 / (1 + eps * t)) < 1e-14
    assert abs(h2 - h1) < 1e-15


def test_metric_factors_midsurface_and_errors():
    sqrt_g, h1, h2 = sh._metric_arrays(TORUS.kappa1, TORUS.kappa2, 0.0, 0.2)
    assert np.all(sqrt_g == 1.0) and np.all(h1 == 1.0) and np.all(h2 == 1.0)
    # half-thickness at or beyond the minimal curvature radius (1 on the
    # unit sphere) violates the tubular condition
    m0 = sh.sample_on_vertices(SPHERE, sh.uniform_field((0, 0, 1)))
    for eps in (1.0, 1.5):
        with pytest.raises(GridError, match="tubular"):
            sh.shell_dirichlet_energy(m0, SPHERE, eps)
        with pytest.raises(GridError, match="tubular"):
            sh.Shell(SPHERE, eps)
    # and a half-thickness that is not positive and finite
    for eps in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(GridError, match="positive and finite"):
            sh.shell_dirichlet_energy(m0, SPHERE, eps)


def test_limit_energy_uniform_on_sphere():
    mesh = sh.make_sphere_mesh(1.0, level=4)
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    val = sh.limit_energy(m0, mesh)
    exact = 4 * np.pi / 3
    assert abs(val - exact) / exact < 0.01


def test_limit_energy_hedgehog_on_sphere():
    mesh = sh.make_sphere_mesh(1.0, level=4)
    m0 = sh.sample_on_vertices(mesh, sh.hedgehog_field())
    val = sh.limit_energy(m0, mesh)
    exact = 12 * np.pi
    assert abs(val - exact) / exact < 0.02


def test_limit_energy_tangential_torus_no_anisotropy():
    m0 = sh.sample_on_vertices(TORUS, sh.toroidal_field())
    # anisotropy part is exactly zero for tangential fields
    mn = np.sum(m0 * TORUS.normals, axis=1)
    assert np.abs(mn).max() < 1e-12


def test_limit_energy_mesh_refinement_second_order():
    exact = 12 * np.pi
    errs = []
    for level in (3, 4):
        mesh = sh.make_sphere_mesh(1.0, level)
        m0 = sh.sample_on_vertices(mesh, sh.hedgehog_field())
        errs.append(abs(sh.limit_energy(m0, mesh) - exact))
    assert errs[1] <= errs[0] / 3.0  # ~4x per refinement


def test_shell_dirichlet_constant_field_zero():
    m0 = sh.sample_on_vertices(SPHERE, sh.uniform_field((0, 0, 1)))
    assert sh.shell_dirichlet_energy(m0, SPHERE, 0.1) == 0.0


def test_shell_dirichlet_rejects_bad_m0_shape():
    m0 = sh.sample_on_vertices(SPHERE, sh.uniform_field((0, 0, 1)))
    for bad in (m0[:-1], m0[:, :2], m0[:, None, :]):
        with pytest.raises(GridError, match="per-vertex"):
            sh.shell_dirichlet_energy(bad, SPHERE, 0.1)


@pytest.mark.parametrize("a", [-0.9, -0.5, -0.1, -0.05, -1e-12, 0.0, 1e-12, 0.007,
                               0.0999999, 0.1, 0.3, 0.9])
def test_thickness_integral_matches_gauss(a):
    nodes, weights = np.polynomial.legendre.leggauss(64)
    b = np.concatenate([np.linspace(-0.9, 0.9, 37), [0.0, 1e-12, -1e-12]])
    want = [np.sum(weights * (1 + bj * nodes) / (1 + a * nodes)) for bj in b]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sh._thickness_integral(np.full_like(b, a), b)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert sh._thickness_integral(a, a) == 2.0


def test_shell_dirichlet_equals_gauss_in_thickness_on_torus():
    # the closed form against a 16-node Gauss sum of the metric weights
    m0 = sh.sample_on_vertices(TORUS, sh.toroidal_field())
    areas, t1, t2, k1, k2 = TORUS.frame[:5]
    grads = sh._p1_gradients(TORUS, m0)
    d1 = np.sum(np.einsum("tcx,tx->tc", grads, t1) ** 2, axis=1)
    d2 = np.sum(np.einsum("tcx,tx->tc", grads, t2) ** 2, axis=1)
    for eps in (0.2, 0.1, 0.05):
        gauss = 0.0
        for t, w in zip(*np.polynomial.legendre.leggauss(16)):
            sg, h1, h2 = sh._metric_arrays(k1, k2, t, eps)
            gauss += 0.5 * w * np.sum(areas * sg * (h1 ** 2 * d1 + h2 ** 2 * d2))
        closed = sh.shell_dirichlet_energy(m0, TORUS, eps)
        assert abs(closed - gauss) <= 1e-13 * gauss


def test_torus_exchange_oracle_second_order():
    # the toroidal field on the torus shell (R, r) has the exact scaled exchange
    # 2 pi^2 [sqrt(R^2 - (r - eps)^2) - sqrt(R^2 - (r + eps)^2)] / eps
    R, r, eps = 2.0, 0.5, 0.2
    exact = 2 * np.pi ** 2 * (np.sqrt(R ** 2 - (r - eps) ** 2)
                              - np.sqrt(R ** 2 - (r + eps) ** 2)) / eps
    assert abs(exact - 10.2518141) < 1e-7
    errs = []
    for n_major, n_minor in ((32, 16), (64, 32)):
        mesh = sh.make_torus_mesh(R, r, n_major, n_minor)
        m0 = sh.sample_on_vertices(mesh, sh.toroidal_field())
        errs.append(abs(sh.shell_dirichlet_energy(m0, mesh, eps) - exact) / exact)
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] < 2e-3


def test_shell_dirichlet_t_independent_tends_to_surface_dirichlet():
    # sphere: the umbilic cancellation h^2 sqrt(g) = 1 makes the tangential
    # part thickness-independent and equal to the surface Dirichlet energy
    mesh = sh.make_sphere_mesh(1.0, level=3)
    m0 = sh.sample_on_vertices(mesh, sh.hedgehog_field())
    vals = [sh.shell_dirichlet_energy(m0, mesh, eps) for eps in (0.2, 0.1, 0.05)]
    target = 8 * np.pi
    assert abs(vals[0] - vals[2]) < 1e-10 * target
    assert abs(vals[2] - target) / target < 0.02
    # torus: curvatures differ, so the value is thickness-dependent and
    # approaches the surface Dirichlet energy from the metric expansion
    mt = sh.sample_on_vertices(TORUS, sh.toroidal_field())
    surface = sh.limit_energy(mt, TORUS)  # anisotropy part is exactly zero
    gaps = [abs(sh.shell_dirichlet_energy(mt, TORUS, eps) - surface)
            for eps in (0.2, 0.1, 0.05)]
    assert gaps[2] < gaps[0]


def test_eta_profile_values():
    eps, delta = 0.1, 0.5
    assert sh.eta_profile(0.0, eps, delta) == 0.0
    assert sh.eta_profile(1.0, eps, delta) == 1.0
    assert sh.eta_profile(-1.0, eps, delta) == -1.0
    assert sh.eta_profile(delta / eps + 0.5, eps, delta) == 0.0
    t = np.linspace(-6, 6, 121)
    vals = sh.eta_profile(t, eps, delta)
    assert np.abs(vals).max() <= 1.0 + 1e-15
    # continuity across the kinks
    for tk in (1.0, -1.0, delta / eps, -delta / eps):
        lo = sh.eta_profile(tk - 1e-9, eps, delta)
        hi = sh.eta_profile(tk + 1e-9, eps, delta)
        assert abs(lo - hi) < 1e-6
    with pytest.raises(GridError):
        sh.eta_profile(0.5, 0.5, 0.5)


def test_eta_tail_identity():
    # integral of (eta')^2 over the extended interval carries the matching
    # factor exactly
    eps, delta = 0.07, 0.42
    total = 0.0
    for nodes, weights in sh._t_pieces(eps, delta):
        total += float(np.sum(weights * sh.eta_profile_slope_sq(nodes, eps, delta)))
    assert abs(total - 2.0 * (1 + eps / (delta - eps))) < 1e-12


K1 = np.array([1.0, 2.0, -1.5, 0.0, 3.0])
K2 = np.array([1.0, -0.5, 3.0, 0.7, 0.0])


@pytest.mark.parametrize("eps, delta", [(0.1, 0.3), (0.02, 0.25)])
def test_thickness_moments_closed_forms(eps, delta):
    # P, T_i and S have polynomial integrands, which the Gauss rule integrates
    # exactly; the odd terms in t cancel
    P, T1, T2, Q1, Q2, S = sh._thickness_moments(K1, K2, eps, delta)
    G, R = K1 * K2, delta / eps
    exact = dict(P=2 + 2 / 3 * eps ** 2 * G,
                 T1=2 / 3 * eps ** 2 * K2, T2=2 / 3 * eps ** 2 * K1,
                 S=2 + 2 / 3 * eps ** 2 * G + (eps / (delta - eps)) ** 2
                 * 2 * ((R - 1) + eps ** 2 * G * (R ** 3 - 1) / 3))
    for name, got in dict(P=P, T1=T1, T2=T2, S=S).items():
        np.testing.assert_allclose(got, exact[name], rtol=1e-14, atol=1e-14, err_msg=name)
    # equal curvatures: sg h_i^2 = 1, so Q_i = int (eps eta)^2 = 2/3 eps delta
    umbilic = K1[:2]
    for Q in sh._thickness_moments(umbilic, umbilic, eps, delta)[3:5]:
        np.testing.assert_allclose(Q, 2 / 3 * eps * delta, rtol=1e-14, atol=1e-14)


def _bounds_node_by_node(m0, mesh, eps, delta):
    """Both recovery bounds summed node by node across the thickness: the
    reference for the summation order of the thickness table."""
    tris = mesh.triangles
    areas, t1, t2, k1, k2 = mesh.frame[:5]
    m0t = sh._tri_vertex_mean(m0, tris)
    phi = np.sum(m0 * mesh.normals, axis=1)
    phi2 = sh._tri_vertex_mean(phi ** 2, tris)
    gphi = sh._p1_gradients(mesh, phi)
    w = np.cross(m0, mesh.normals)
    wsq = sh._tri_vertex_mean(np.sum(w ** 2, axis=1), tris)
    gw = sh._p1_gradients(mesh, w)
    d = [np.einsum("tx,tx->t", gphi, tau) for tau in (t1, t2)]
    m = [np.einsum("tx,tx->t", m0t, tau) for tau in (t1, t2)]
    dw = [np.einsum("tcx,tx->tc", gw, tau) for tau in (t1, t2)]
    c = [np.einsum("tc,tc->t", np.cross(tau, g), m0t) for tau, g in zip((t1, t2), dw)]
    dw_sq = [np.sum(g ** 2, axis=1) for g in dw]
    lower = upper = 0.0
    for nodes, weights in sh._t_pieces(eps, delta):
        for t, wt in zip(nodes, weights):
            sg, h1, h2 = sh._metric_arrays(k1, k2, t, eps)
            e = eps * sh.eta_profile(t, eps, delta)
            slope_sq = sh.eta_profile_slope_sq(t, eps, delta)
            inside = abs(t) < 1.0
            pair = e * (h1 * d[0] * m[0] + h2 * d[1] * m[1]) + phi2
            grad_sq = e ** 2 * (h1 ** 2 * d[0] ** 2 + h2 ** 2 * d[1] ** 2) + slope_sq * phi2
            lower += wt * np.sum(areas * sg * (inside * pair - 0.5 * grad_sq))
            shell = 0.5 - wsq - e * (h1 * c[0] + h2 * c[1])
            grad_sq = e ** 2 * (h1 ** 2 * dw_sq[0] + h2 ** 2 * dw_sq[1]) + slope_sq * wsq
            upper += wt * np.sum(areas * sg * (inside * shell + 0.5 * grad_sq))
    return lower, upper


@pytest.mark.parametrize("mesh, m0_fn, eps, delta", [
    (SPHERE, sh.uniform_field((0, 0, 1)), 0.1, 0.7),
    (SPHERE, sh.uniform_field((0.3, 0.4, 0.866)), 0.05, 0.3),
    (TORUS, sh.toroidal_field(), 0.2, 0.35),
    (TORUS, sh.uniform_field((0.3, 0.4, 0.866)), 0.1, 0.2),
], ids=["sphere-z", "sphere-tilted", "torus-toroidal", "torus-tilted"])
def test_recovery_bounds_match_node_by_node_sums(mesh, m0_fn, eps, delta):
    m0 = sh.sample_on_vertices(mesh, m0_fn)
    got = (sh.recovery_lower_bound(m0, mesh, eps, delta),
           sh.recovery_upper_bound(m0, mesh, eps, delta))
    for value, ref in zip(got, _bounds_node_by_node(m0, mesh, eps, delta)):
        assert abs(value - ref) <= 1e-13 * (abs(ref) + 1)


def test_recovery_bounds_check_eps_and_delta():
    m0 = sh.sample_on_vertices(SPHERE, sh.uniform_field((0, 0, 1)))
    for bound in (sh.recovery_lower_bound, sh.recovery_upper_bound):
        with pytest.raises(GridError):
            bound(m0, SPHERE, 0.5, 0.1)   # eps >= delta
        with pytest.raises(GridError):
            bound(m0, SPHERE, 0.1, 1.0)   # delta at the tubular bound


def test_recovery_vector_tangential_gradient_vanishes():
    # the tangential-gradient part of the vector trial decays quadratically
    mesh = SPHERE
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    w = np.cross(m0, mesh.normals)
    gw = sh._p1_gradients(mesh, w)
    areas = mesh.frame[0]
    base = float(np.sum(areas * np.sum(gw ** 2, axis=(1, 2))))
    vals = []
    for eps in (0.2, 0.1):
        tot = 0.0
        for nodes, weights in sh._t_pieces(eps, 0.5):
            eta = sh.eta_profile(nodes, eps, 0.5)
            tot += float(np.sum(weights * (eps * eta) ** 2)) * base
        vals.append(tot)
    # first-order decay: the profile integral grows like 1/eps
    assert vals[1] < 0.6 * vals[0]


def test_recovery_bounds_bracket_scaled_stray():
    mesh = sh.make_sphere_mesh(1.0, level=3)
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    eps = 0.1
    lo = sh.recovery_lower_bound(m0, mesh, eps)
    hi = sh.recovery_upper_bound(m0, mesh, eps)
    scaled = sh.shell_stray_energy_scaled(mesh, sh.uniform_field((0, 0, 1)), eps, CFG)
    assert lo <= scaled <= hi
    exact = (4 * np.pi / 3) * (1 + eps ** 2 / 3)  # superposition of two balls
    assert abs(scaled - exact) / exact < 0.05


def test_scaled_stray_tangential_torus_vanishes():
    vals = [sh.shell_stray_energy_scaled(TORUS, sh.toroidal_field(), eps, CFG,
                                         sh.ShellGridPolicy(pad_ratio=0.25))
            for eps in (0.2, 0.1)]
    m0 = sh.sample_on_vertices(TORUS, sh.toroidal_field())
    lim = sh.limit_energy(m0, TORUS)
    dirichlet_floor = lim  # anisotropy part of the limit is exactly zero here
    assert vals[1] < vals[0]
    assert vals[1] < 0.1 * dirichlet_floor


def _full_grid_shell_magnetization(mesh, m0_fn, eps, grid):
    # distance and projection at every face centre of the padded grid
    comps = []
    for axis in range(3):
        X, Y, Z = np.meshgrid(*grid.face_centers(axis), indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        inside = np.abs(mesh.signed_distance(pts)) < eps
        vals = np.zeros(len(pts))
        vals[inside] = m0_fn(mesh.project(pts[inside]))[:, axis]
        comps.append(vals.reshape(X.shape))
    return comps


@pytest.mark.parametrize("pad_ratio", [0.25, 1.0])
@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
@pytest.mark.parametrize("mesh,m0_fn", [(SPHERE, sh.hedgehog_field()),
                                        (TORUS, sh.toroidal_field()),
                                        (PIN_MESHES["sphere2"], sh.hedgehog_field()),
                                        (PIN_MESHES["sphere4"], PIN_FIELDS[0])],
                         ids=["sphere", "torus", "sphere2", "sphere4"])
def test_shell_magnetization_matches_full_grid_sampling(mesh, m0_fn, eps, pad_ratio):
    grid = sh.grid_for_geometry(sh.Shell(mesh, eps), 0.12, pad_ratio)
    m = sh.shell_magnetization(mesh, m0_fn, eps, grid)
    want = _full_grid_shell_magnetization(mesh, m0_fn, eps, grid)
    assert any(np.count_nonzero(c) for c in want)
    for got, ref in zip(m.components, want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_shell_magnetization_refuses_a_grid_that_does_not_hold_the_shell():
    grid = sh.GridSpec.centered_cube(10, 0.1, pad=2)  # interior [-0.5, 0.5]
    with pytest.raises(GridError, match="exceed the interior region"):
        sh.shell_magnetization(SPHERE, sh.uniform_field((0, 0, 1)), 0.2, grid)


def test_shell_resolution_guard():
    # the policy's spacing 2 eps / c gives at least MIN_CELLS_ACROSS cells
    # across the shell, so fewer are rejected when the policy is built
    assert sh.ShellGridPolicy(sh.MIN_CELLS_ACROSS).spacing(0.3) == pytest.approx(0.2)
    for c in (2.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(GridError, match="cells_per_thickness"):
            sh.ShellGridPolicy(cells_per_thickness=c)


def test_convergence_study_rows():
    mesh = sh.make_sphere_mesh(1.0, level=3)
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    rows = sh.convergence_study(mesh, sh.uniform_field((0, 0, 1)), [0.2, 0.1], CFG)
    assert len(rows) == 2
    assert rows[0].exchange == 0.0 and rows[1].exchange == 0.0
    assert rows[1].gap < rows[0].gap
    for r in rows:  # the rows carry the recovery bounds at the default delta
        assert r.lower == sh.recovery_lower_bound(m0, mesh, r.eps)
        assert r.upper == sh.recovery_upper_bound(m0, mesh, r.eps)
        assert r.lower <= r.stray_scaled <= r.upper
    assert sh.convergence_study(mesh, sh.uniform_field((0, 0, 1)), [], CFG) == []


def test_convergence_study_checks_delta_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the bounds were checked")

    monkeypatch.setattr(sh, "shell_stray_energy_scaled", no_solve)
    with pytest.raises(GridError, match="tubular"):
        sh.convergence_study(SPHERE, sh.uniform_field((0, 0, 1)), [0.2], CFG, delta=5.0)


def test_metric_factor_linear_deviation_bound():
    # the factors deviate from 1 at most linearly in the half-thickness,
    # with a constant controlled by the curvature scales
    eps = 0.05
    kmax = max(np.abs(TORUS.kappa1).max(), np.abs(TORUS.kappa2).max())
    worst_sg, worst_h = 0.0, 0.0
    for t in (-1.0, -0.5, 0.5, 1.0):
        sg, h1, h2 = sh._metric_arrays(TORUS.kappa1, TORUS.kappa2, t, eps)
        worst_sg = max(worst_sg, np.abs(sg - 1.0).max())
        worst_h = max(worst_h, np.abs(h1 - 1.0).max(), np.abs(h2 - 1.0).max())
    assert worst_sg <= 3.0 * kmax * eps
    assert worst_h <= 3.0 * kmax * eps
