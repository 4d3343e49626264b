"""Legacy-VTK ASCII writers for meshes, fields and geometry debugging."""

from __future__ import annotations

import numpy as np


def write_vtk_mesh(path, mesh, point_data=None, title="mesh"):
    """Unstructured-grid file with optional per-vertex fields.

    ``point_data`` maps a field name to either an (nv,) scalar array or an
    (nv, 2) vector array (padded with a zero z-component).
    """
    nv, nc = mesh.nv, mesh.nc
    out = [f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
           f"POINTS {nv} double\n", "%r %r 0.0\n" * nv % tuple(mesh.vertices.ravel().tolist()),
           f"CELLS {nc} {4 * nc}\n", "3 %d %d %d\n" * nc % tuple(mesh.cells.ravel().tolist()),
           f"CELL_TYPES {nc}\n", "5\n" * nc]
    if nc:
        out += [f"CELL_DATA {nc}\nSCALARS region int\nLOOKUP_TABLE default\n",
                "%d\n" * nc % tuple(mesh.region_tags.tolist())]
    if point_data:
        out.append(f"POINT_DATA {nv}\n")
    for name, data in (point_data or {}).items():
        data = np.asarray(data, float)
        if data.ndim == 1:
            out += [f"SCALARS {name} double\nLOOKUP_TABLE default\n",
                    "%r\n" * len(data) % tuple(data.tolist())]
        else:
            out += [f"VECTORS {name} double\n",
                    "%r %r 0.0\n" * len(data) % tuple(data.ravel().tolist())]
    with open(path, "w") as f:
        f.write("".join(out))


def write_vtk_topology(path, topo, title="cut geometry"):
    """Polydata dump of the cut polygons and interface segments."""
    cut = topo.polygons.take(np.isin(topo.polygons.bg_cell, topo.class_partial))
    segs = topo.interface_segments
    points = np.concatenate([cut.verts[np.arange(cut.verts.shape[1]) < cut.count[:, None]],
                             np.stack([segs.start, segs.end], axis=1).reshape(-1, 2)])
    n, npoly, nseg = len(points), len(cut), len(segs)
    out = [f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET POLYDATA\n"
           f"POINTS {n} double\n", "%r %r 0.0\n" * n % tuple(points.ravel().tolist())]
    if npoly:
        conn = np.insert(np.arange(cut.count.sum()), np.cumsum(cut.count) - cut.count, cut.count)
        fmt = "".join("%d" + " %d" * k + "\n" for k in cut.count.tolist())
        out += [f"POLYGONS {npoly} {len(conn)}\n", fmt % tuple(conn.tolist())]
    if nseg:
        out += [f"LINES {nseg} {3 * nseg}\n",
                "2 %d %d\n" * nseg % tuple(range(n - 2 * nseg, n))]
    with open(path, "w") as f:
        f.write("".join(out))
