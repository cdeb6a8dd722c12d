"""Uniform Cartesian grid with staggered (MAC) field layouts and geometry masks.

Scalars live at cell centers (or at nodes for divergences of edge fields).
Vector fields live on faces or on edges; the staggering tag decides which
difference operators apply.  All lengths are dimensionless (units of the
exchange length).  The padded region surrounding the interior box realizes
the truncation of free space: fields are implicitly extended by zero
outside the outermost layer of degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, SupportError

FACE = "face"
EDGE = "edge"
CELL = "cell"
NODE = "node"

MIN_PAD_CELLS = 2  # fewest padding layers per side, whatever the padding ratio


def _check_spacing(h: float):
    if not 0.0 < h < np.inf:
        raise GridError(f"grid spacing h must be positive and finite, got {h}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: ``nx,ny,nz`` interior cells, ``pad`` extra cells per side.

    ``origin`` is the lower corner of the *padded* box; cell centers sit at
    ``origin + (i + 1/2) h``.
    """

    nx: int
    ny: int
    nz: int
    h: float
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pad: int = 0

    def __post_init__(self):
        _check_spacing(self.h)
        if min(self.nx, self.ny, self.nz) < 2:
            raise GridError("need at least 2 interior cells per direction")
        if self.pad < 0:
            raise GridError("pad must be nonnegative")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Total cell counts of the padded grid."""
        return (self.nx + 2 * self.pad, self.ny + 2 * self.pad, self.nz + 2 * self.pad)

    @property
    def n_cells(self) -> int:
        n1, n2, n3 = self.shape
        return n1 * n2 * n3

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def axis_coords(self, axis: int, offset: float) -> np.ndarray:
        n = self.shape[axis]
        extra = 1 if offset == 0.0 else 0
        return self.origin[axis] + self.h * (np.arange(n + extra) + offset)

    def cell_centers(self):
        """Meshgrid-ready 1D center coordinates (x, y, z)."""
        return tuple(self.axis_coords(d, 0.5) for d in range(3))

    def face_centers(self, axis: int):
        """1D coordinates of face centers for the given face normal axis."""
        coords = [self.axis_coords(d, 0.5) for d in range(3)]
        coords[axis] = self.axis_coords(axis, 0.0)
        return tuple(coords)

    def interior_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of the unpadded interior box."""
        lo = np.asarray(self.origin) + self.h * self.pad
        hi = lo + self.h * np.array([self.nx, self.ny, self.nz])
        return lo, hi

    @staticmethod
    def centered_cube(n: int, h: float, pad: int = 0) -> "GridSpec":
        """Cube of n^3 interior cells centered at the coordinate origin."""
        half = h * (n / 2.0 + pad)
        return GridSpec(n, n, n, h, origin=(-half, -half, -half), pad=pad)

    @staticmethod
    def centered_box(n: tuple[int, int, int], h: float, pad: int = 0) -> "GridSpec":
        half = [h * (ni / 2.0 + pad) for ni in n]
        return GridSpec(n[0], n[1], n[2], h, origin=(-half[0], -half[1], -half[2]), pad=pad)


def face_shapes(grid: GridSpec):
    n1, n2, n3 = grid.shape
    return ((n1 + 1, n2, n3), (n1, n2 + 1, n3), (n1, n2, n3 + 1))


def edge_shapes(grid: GridSpec):
    n1, n2, n3 = grid.shape
    return ((n1, n2 + 1, n3 + 1), (n1 + 1, n2, n3 + 1), (n1 + 1, n2 + 1, n3))


def node_shape(grid: GridSpec):
    n1, n2, n3 = grid.shape
    return (n1 + 1, n2 + 1, n3 + 1)


@dataclass
class ScalarField:
    """One value per cell (centering=CELL) or per node (centering=NODE)."""

    grid: GridSpec
    data: np.ndarray
    centering: str = CELL

    def __post_init__(self):
        want = self.grid.shape if self.centering == CELL else node_shape(self.grid)
        if self.data.shape != want:
            raise GridError(
                f"scalar field shape {self.data.shape} does not match {self.centering} "
                f"layout {want}"
            )

    @staticmethod
    def zeros(grid: GridSpec, centering: str = CELL) -> "ScalarField":
        shape = grid.shape if centering == CELL else node_shape(grid)
        return ScalarField(grid, np.zeros(shape), centering)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.data.copy(), self.centering)


@dataclass
class VectorField:
    """Staggered vector field: components on faces (MAC) or on edges."""

    grid: GridSpec
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    staggering: str = FACE

    def __post_init__(self):
        if self.staggering not in (FACE, EDGE):
            raise GridError(f"unknown staggering {self.staggering!r}")
        want = face_shapes(self.grid) if self.staggering == FACE else edge_shapes(self.grid)
        got = (self.x.shape, self.y.shape, self.z.shape)
        if got != want:
            raise GridError(f"{self.staggering} component shapes {got} != {want}")

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.x, self.y, self.z)

    @staticmethod
    def zeros(grid: GridSpec, staggering: str = FACE) -> "VectorField":
        shapes = face_shapes(grid) if staggering == FACE else edge_shapes(grid)
        return VectorField(grid, *(np.zeros(s) for s in shapes), staggering=staggering)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.x.copy(), self.y.copy(), self.z.copy(),
                           self.staggering)

    def scaled(self, c: float) -> "VectorField":
        return VectorField(self.grid, c * self.x, c * self.y, c * self.z, self.staggering)

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_layout(self, other)
        return VectorField(self.grid, self.x + other.x, self.y + other.y,
                           self.z + other.z, self.staggering)

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_same_layout(self, other)
        return VectorField(self.grid, self.x - other.x, self.y - other.y,
                           self.z - other.z, self.staggering)


@dataclass
class CellVectorField:
    """Collocated vector field: three components per cell center.

    This is the magnetization layout; pointwise constraints (|m| = 1,
    anisotropy projections) are well defined here, unlike on a staggered
    layout.  ``data`` has shape (3, n1, n2, n3).
    """

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (3, *self.grid.shape):
            raise GridError(
                f"cell vector field shape {self.data.shape} != {(3, *self.grid.shape)}"
            )

    @staticmethod
    def zeros(grid: GridSpec) -> "CellVectorField":
        return CellVectorField(grid, np.zeros((3, *grid.shape)))

    @staticmethod
    def constant(grid: GridSpec, vec, mask: "DomainMask | None" = None) -> "CellVectorField":
        data = np.zeros((3, *grid.shape))
        v = np.asarray(vec, dtype=float)
        for c in range(3):
            data[c] = v[c]
        if mask is not None:
            data *= mask.indicator
        return CellVectorField(grid, data)

    def copy(self) -> "CellVectorField":
        return CellVectorField(self.grid, self.data.copy())

    def pointwise_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.data ** 2, axis=0))


def _check_same_layout(a: VectorField, b: VectorField):
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridError("fields live on different grids")
    if a.staggering != b.staggering:
        raise GridError(f"staggering mismatch: {a.staggering} vs {b.staggering}")


# ---------------------------------------------------------------------------
# geometry and masks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by full extents, centered at ``center``."""

    extents: tuple[float, float, float]
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not all(0.0 < e < np.inf for e in self.extents):
            raise GridError(f"box extents must be positive and finite, got {self.extents}")

    def contains(self, x, y, z):
        e = self.extents
        c = self.center
        return ((np.abs(x - c[0]) <= e[0] / 2) & (np.abs(y - c[1]) <= e[1] / 2)
                & (np.abs(z - c[2]) <= e[2] / 2))

    def bounding_radius(self):
        return float(np.linalg.norm(np.asarray(self.extents) / 2))

    def bounds(self):
        c, e = np.asarray(self.center), np.asarray(self.extents)
        return c - e / 2, c + e / 2


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid with semi-axes (a, b, c) aligned to the grid axes."""

    a: float
    b: float
    c: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not all(0.0 < r < np.inf for r in self.semi_axes):
            raise GridError(f"ellipsoid semi-axes must be positive and finite, "
                            f"got {self.semi_axes}")

    @property
    def semi_axes(self):
        return (self.a, self.b, self.c)

    def contains(self, x, y, z):
        cx, cy, cz = self.center
        return (((x - cx) / self.a) ** 2 + ((y - cy) / self.b) ** 2
                + ((z - cz) / self.c) ** 2) <= 1.0

    def bounding_radius(self):
        return max(self.a, self.b, self.c)

    def bounds(self):
        c = np.asarray(self.center)
        r = np.array([self.a, self.b, self.c])
        return c - r, c + r

    def volume(self):
        return 4.0 * np.pi / 3.0 * self.a * self.b * self.c


@dataclass(frozen=True)
class Shell:
    """Tubular neighborhood of half-thickness ``eps`` around a closed surface.

    ``surface`` must provide ``signed_distance(points)`` and
    ``min_curvature_radius()`` (see shell.SurfaceMesh); ``eps`` below the
    minimal curvature radius keeps the tubular coordinates invertible.
    """

    surface: object
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < np.inf:
            raise GridError(f"shell half-thickness eps must be positive and finite, "
                            f"got {self.eps}")
        rmin = self.surface.min_curvature_radius()
        if self.eps >= rmin:
            raise GridError(
                f"shell half-thickness {self.eps} exceeds the minimal curvature "
                f"radius {rmin} of the surface (tubular condition)"
            )

    def contains(self, x, y, z):
        pts = np.stack([x, y, z], axis=-1)
        return np.abs(self.surface.signed_distance(pts)) < self.eps

    def bounding_radius(self):
        return self.surface.bounding_radius() + self.eps

    def bounds(self):
        lo, hi = self.surface.bounds()
        return lo - self.eps, hi + self.eps


Geometry = Box | Ellipsoid | Shell


@dataclass
class DomainMask:
    """Binary per-cell indicator of the magnetic domain.

    The indicator is zero on all padding cells and read-only after
    construction, so the arrays derived from it can be cached: ``cell_count``
    and ``volume = cell_count * h^3`` at construction, the face transfer
    scales and the bond masks on first use.  One per-face count of adjacent
    domain cells, ``face_count``, gives the transfer scale (1/count), the
    bonds and interior faces (count 2), and the support (count > 0).
    """

    grid: GridSpec
    indicator: np.ndarray
    cell_count: int = field(init=False)
    _face_scales: dict = field(init=False, repr=False, compare=False,
                               default_factory=dict)
    _bond_masks: tuple | None = field(init=False, repr=False, compare=False,
                                      default=None)

    def __post_init__(self):
        if self.indicator.shape != self.grid.shape:
            raise GridError("mask shape does not match grid")
        self.indicator = self.indicator.astype(float)
        if not np.all((self.indicator == 0) | (self.indicator == 1)):
            raise GridError("mask indicator must be binary")
        p = self.grid.pad
        if p > 0:
            pad_region = self.indicator.copy()
            pad_region[p:-p, p:-p, p:-p] = 0.0
            if pad_region.any():
                raise SupportError("mask extends into the padding region")
        self.cell_count = int(self.indicator.sum())
        self.indicator.setflags(write=False)

    def face_count(self, axis: int) -> np.ndarray:
        """Per face normal to ``axis``: the number of adjacent domain cells.

        The count is 0, 1 or 2 (uint8); faces with count 0 lie outside the
        support of a field extended by zero from the domain.
        """
        inside = self.indicator.astype(np.uint8)
        shape = list(inside.shape)
        shape[axis] += 1
        count = np.zeros(shape, dtype=np.uint8)
        lead = [slice(None)] * axis
        count[tuple(lead + [slice(1, None)])] = inside
        count[tuple(lead + [slice(0, -1)])] += inside
        return count

    def face_scale(self, axis: int) -> np.ndarray:
        """Per face normal to ``axis``: 1 / ``face_count``, 0 where it is 0.

        The value is 1/2 on faces between two domain cells, 1 on faces with
        one, and 0 on faces with none; float32 holds all three exactly.
        """
        scale = self._face_scales.get(axis)
        if scale is None:
            count = self.face_count(axis)
            scale = np.zeros(count.shape, dtype=np.float32)
            np.divide(1.0, count, out=scale, where=count > 0)
            scale.setflags(write=False)
            self._face_scales[axis] = scale
        return scale

    def bond_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per axis, the indicator of neighbor pairs lying inside the domain:
        the interior faces (not on the grid boundary) with ``face_count`` 2."""
        if self._bond_masks is None:
            bonds = []
            for axis in range(3):
                lead = [slice(None)] * axis
                count = self.face_count(axis)[tuple(lead + [slice(1, -1)])]
                bond = (count == 2).astype(np.float32)
                bond.setflags(write=False)
                bonds.append(bond)
            self._bond_masks = tuple(bonds)
        return self._bond_masks

    @property
    def volume(self) -> float:
        return self.cell_count * self.grid.cell_volume

    @property
    def bool_array(self) -> np.ndarray:
        return self.indicator.astype(bool)

    def is_empty(self) -> bool:
        return self.cell_count == 0


def build_mask(geom: Geometry, grid: GridSpec) -> DomainMask:
    """Rasterize a geometry: a cell belongs to the domain iff its center does.

    Raises GridError if the geometry does not fit inside the unpadded
    interior region.
    """
    lo, hi = grid.interior_bounds()
    glo, ghi = geom.bounds()
    if np.any(np.asarray(glo) < lo - 1e-12) or np.any(np.asarray(ghi) > hi + 1e-12):
        raise GridError(
            f"geometry bounds [{np.asarray(glo)}, {np.asarray(ghi)}] exceed the "
            f"interior region [{lo}, {hi}]"
        )
    xs, ys, zs = grid.cell_centers()
    x, y, z = np.meshgrid(xs, ys, zs, indexing="ij")
    return DomainMask(grid, geom.contains(x, y, z).astype(float))


def grid_for_geometry(geom: Geometry, h: float, pad_ratio: float = 1.0) -> GridSpec:
    """Build a centered grid whose interior tightly boxes the geometry.

    The padding distance is ``pad_ratio`` times the geometry diameter
    (bounding-sphere diameter), at least ``MIN_PAD_CELLS`` cells.  The
    scalar potential decays like 1/r^2, so the truncation error of energy
    quantities is second order in the padding ratio.
    """
    _check_spacing(h)
    if not 0.0 <= pad_ratio < np.inf:
        raise GridError(f"pad_ratio must be nonnegative and finite, got {pad_ratio}")
    lo, hi = geom.bounds()
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    diameter = 2.0 * geom.bounding_radius()
    n = np.maximum(np.ceil((hi - lo) / h - 1e-9).astype(int), 2)
    pad = max(int(np.ceil(pad_ratio * diameter / h)), MIN_PAD_CELLS)
    center = (lo + hi) / 2.0
    half = h * (n / 2.0 + pad)
    origin = tuple(center - half)
    return GridSpec(int(n[0]), int(n[1]), int(n[2]), h, origin=origin, pad=pad)
