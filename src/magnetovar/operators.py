"""Discrete vector calculus on the staggered grid.

The operator pairs are built so the continuum identities hold exactly in
floating point, not just to discretization order:

* ``grad`` (cells -> faces, zero-extended differences) and ``div``
  (faces -> cells) satisfy  <grad u, v> = -<u, div v>  for all fields;
* ``curl`` maps faces -> edges and edges -> faces; the two directions are
  exact adjoints of each other;
* ``curl(grad u) = 0`` and ``div(curl v) = 0`` hold to rounding;
* for fields vanishing on their outermost layer,
  ||D v||^2 = ||div v||^2 + ||curl v||^2  with D the componentwise
  difference gradient.

These exact identities are what make the scalar-potential maximization and
the two vector-potential minimizations agree at the discrete level.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError, SupportError
from .grid import (CELL, EDGE, FACE, NODE, CellVectorField, DomainMask,
                   ScalarField, VectorField)


def _pad_diff(a: np.ndarray, axis: int) -> np.ndarray:
    """Difference with zero extension: output one longer along ``axis``."""
    shape = list(a.shape)
    shape[axis] += 1
    out = np.empty(shape, dtype=a.dtype)
    lead = (slice(None),) * axis
    first, last = lead + (0,), lead + (-1,)
    # out[i] = a[i] - a[i-1] with a[-1] = a[n] = 0; 0 - a, not -a, keeps +0.0
    out[first] = a[first]
    np.subtract(a[lead + (slice(1, None),)], a[lead + (slice(None, -1),)],
                out=out[lead + (slice(1, -1),)])
    np.subtract(0.0, a[last], out=out[last])
    return out


def grad_component(u: ScalarField, axis: int) -> np.ndarray:
    """Component ``axis`` of ``grad(u)``, bit for bit, without the other two."""
    if u.centering != CELL:
        raise GridError("grad expects a cell-centered scalar")
    g = _pad_diff(u.data, axis)
    g /= u.grid.h
    return g


def grad(u: ScalarField) -> VectorField:
    """Face-centered gradient of a cell scalar (zero outside the grid)."""
    return VectorField(u.grid, *(grad_component(u, axis) for axis in range(3)),
                       staggering=FACE)


def grad_node(p: ScalarField) -> VectorField:
    """Edge-centered gradient of a node scalar (gauge transformations)."""
    if p.centering != NODE:
        raise GridError("grad_node expects a node-centered scalar")
    comps = []
    for axis in range(3):
        g = np.diff(p.data, axis=axis)
        g /= p.grid.h
        comps.append(g)
    return VectorField(p.grid, *comps, staggering=EDGE)


def div(v: VectorField) -> ScalarField:
    """Divergence: faces -> cells, or edges -> nodes."""
    face = v.staggering == FACE
    diff = np.diff if face else _pad_diff
    data = diff(v.x, axis=0)
    data += diff(v.y, axis=1)
    data += diff(v.z, axis=2)
    data /= v.grid.h
    return ScalarField(v.grid, data, centering=CELL if face else NODE)


def curl_component(v: VectorField, c: int) -> np.ndarray:
    """Component ``c`` of ``curl(v)``, bit for bit, without the other two:
    d_j v_k - d_k v_j with (c, j, k) cyclic."""
    j, k = (c + 1) % 3, (c + 2) % 3
    diff = _pad_diff if v.staggering == FACE else np.diff
    out = diff(v.components[k], axis=j)
    out -= diff(v.components[j], axis=k)
    out /= v.grid.h
    return out


def curl(v: VectorField) -> VectorField:
    """Staggered curl; flips the layout (faces -> edges, edges -> faces)."""
    return VectorField(v.grid, *(curl_component(v, c) for c in range(3)),
                       staggering=EDGE if v.staggering == FACE else FACE)


def inner(f, g) -> float:
    """L2 inner product with h^3 weight; raises on layout mismatch."""
    if isinstance(f, ScalarField) and isinstance(g, ScalarField):
        if f.data.shape != g.data.shape or f.centering != g.centering:
            raise GridError("scalar fields have different layouts")
        return float(np.vdot(f.data, g.data)) * f.grid.cell_volume
    if isinstance(f, VectorField) and isinstance(g, VectorField):
        if f.staggering != g.staggering:
            raise GridError("staggering mismatch in inner product")
        if any(a.shape != b.shape for a, b in zip(f.components, g.components)):
            raise GridError("vector fields have different shapes")
        s = sum(float(np.vdot(a, b)) for a, b in zip(f.components, g.components))
        return s * f.grid.cell_volume
    if isinstance(f, CellVectorField) and isinstance(g, CellVectorField):
        if f.data.shape != g.data.shape:
            raise GridError("cell vector fields have different shapes")
        return float(np.vdot(f.data, g.data)) * f.grid.cell_volume
    raise GridError(f"cannot pair {type(f).__name__} with {type(g).__name__}")


def norm(f) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def grad_norm_sq(v: VectorField) -> float:
    """||D v||^2: componentwise difference gradient with zero extension.

    Every finite array is treated as a compactly supported field on the
    infinite grid, so all nine difference arrays (one longer in the
    differencing direction) are kept.
    """
    h = v.grid.h
    total = 0.0
    for comp in v.components:
        for axis in range(3):
            d = _pad_diff(comp, axis)
            total += float(np.vdot(d, d))
    return total * v.grid.cell_volume / h ** 2


# ---------------------------------------------------------------------------
# transfer between collocated magnetization and MAC faces
# ---------------------------------------------------------------------------

def _pair_sum_pad(a: np.ndarray, axis: int) -> np.ndarray:
    """Two-point sum with zero extension: output one longer along axis."""
    shape = list(a.shape)
    shape[axis] += 1
    out = np.empty(shape, dtype=a.dtype)
    lead = (slice(None),) * axis
    # out[i] = (0 + a[i-1]) + a[i] with a[-1] = a[n] = 0, a zero-filled sum's
    # arithmetic with only the first plane filled; 0 + a, not a, turns -0.0
    # into +0.0, so two -0.0 neighbours still sum to +0.0
    out[lead + (0,)] = 0.0
    np.add(0.0, a, out=out[lead + (slice(1, None),)])
    out[lead + (slice(None, -1),)] += a
    return out


def masked_cell_to_faces(m: CellVectorField, mask: DomainMask) -> VectorField:
    """Indicator-weighted face sampling of a mask-supported collocated field.

    Interior faces average the two neighbors (1/2, 1/2); faces on the
    domain boundary take the full inside value (closed-voxel convention,
    which keeps the surface charge of a uniform body on the voxel surface).
    Cells outside the mask contribute nothing.
    """
    ind = mask.indicator
    comps = []
    for axis in range(3):
        comp = _pair_sum_pad(ind * m.data[axis], axis)
        comp *= mask.face_scale(axis)
        comps.append(comp)
    return VectorField(m.grid, *comps, staggering=FACE)


def masked_faces_to_cell_adjoint(v: VectorField, mask: DomainMask) -> CellVectorField:
    """Exact adjoint of ``masked_cell_to_faces`` with the same mask."""
    if v.staggering != FACE:
        raise GridError("expected a face-staggered field")
    ind = mask.indicator
    data = np.empty((3, *v.grid.shape))
    for axis, comp in enumerate(v.components):
        scaled = mask.face_scale(axis) * comp
        lead = [slice(None)] * axis
        # ind multiplies each term, not their sum: off-mask cells then get
        # (ind s_hi) v_hi + (ind s_lo) v_lo bit for bit, signed zeros included
        np.multiply(ind, scaled[tuple(lead + [slice(1, None)])], out=data[axis])
        data[axis] += ind * scaled[tuple(lead + [slice(0, -1)])]
    return CellVectorField(v.grid, data)


# ---------------------------------------------------------------------------
# mask-aware helpers
# ---------------------------------------------------------------------------

def check_supported(v: VectorField, mask: DomainMask):
    """Raise SupportError if ``v`` is nonzero on a face that touches no domain
    cell (``DomainMask.face_count`` 0, where the cached ``face_scale`` is 0),
    naming the face by its index on the root of ``v``'s grid."""
    if v.staggering != FACE:
        raise GridError("support check expects a face field")
    start = tuple(s.start for s in v.grid.box)
    for axis, (comp, name) in enumerate(zip(v.components, "xyz")):
        outside = mask.face_scale(axis) == 0
        if np.any(comp, where=outside):
            bad = np.where(outside, np.abs(comp), 0.0)
            idx = np.unravel_index(np.argmax(bad), bad.shape)
            raise SupportError(
                f"magnetization component {name} is nonzero outside the domain "
                f"mask at face index {tuple(int(i) + o for i, o in zip(idx, start))}"
            )
