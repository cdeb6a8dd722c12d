"""Deterministic output writers: CSV tables and legacy structured-grid dumps.

All numbers are printed with 17 significant digits so identical runs
produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grid import CellVectorField

FLOAT_FORMAT = "%.17g"


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FLOAT_FORMAT % float(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(x) if not isinstance(x, str) else x
                              for x in row))
    path.write_text("\n".join(lines) + "\n")


LEGACY_HEADER_TEMPLATE = """# vtk DataFile Version 2.0
magnetovar field dump
ASCII
DATASET STRUCTURED_POINTS
DIMENSIONS {nx} {ny} {nz}
ORIGIN {ox} {oy} {oz}
SPACING {h} {h} {h}
POINT_DATA {count}
VECTORS m double
"""


def write_legacy_vector_dump(path: Path, m: CellVectorField) -> None:
    """ASCII structured-points dump of a collocated vector field.

    Points are the cell centers of the padded grid; data lines hold one
    x y z triple per point in x-fastest order, matching the byte-exact
    header template documented in the README.
    """
    grid = m.grid
    n1, n2, n3 = grid.shape
    ox = grid.origin[0] + 0.5 * grid.h
    oy = grid.origin[1] + 0.5 * grid.h
    oz = grid.origin[2] + 0.5 * grid.h
    head = LEGACY_HEADER_TEMPLATE.format(
        nx=n1, ny=n2, nz=n3,
        ox=FLOAT_FORMAT % ox, oy=FLOAT_FORMAT % oy, oz=FLOAT_FORMAT % oz,
        h=FLOAT_FORMAT % grid.h, count=n1 * n2 * n3)
    # structured-points order: x varies fastest, then y, then z
    flat = m.data.transpose(3, 2, 1, 0).reshape(-1, 3)
    body = "\n".join(" ".join(FLOAT_FORMAT % v for v in row) for row in flat)
    path.write_text(head + body + "\n")


class OutputTracker:
    """Creates files under one directory; removes them all if a run fails."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.created: list[Path] = []

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        probe = self.out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.created.append(p)
        return p

    def discard_partial(self):
        for p in self.created:
            try:
                if p.exists():
                    p.unlink()
            except OSError:
                pass
