"""Legacy-VTK ASCII writers for meshes, fields and geometry debugging."""

from __future__ import annotations

import numpy as np


def write_vtk_mesh(path, mesh, point_data=None, title="mesh"):
    """Unstructured-grid file with optional per-vertex fields.

    ``point_data`` maps a field name to either an (nv,) scalar array or an
    (nv, 2) vector array (padded with a zero z-component).
    """
    point_data = point_data or {}
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.nv} double\n")
        for x, y in mesh.vertices:
            f.write(f"{x} {y} 0.0\n")
        f.write(f"CELLS {mesh.nc} {4 * mesh.nc}\n")
        for i, j, k in mesh.cells:
            f.write(f"3 {i} {j} {k}\n")
        f.write(f"CELL_TYPES {mesh.nc}\n")
        for _ in range(mesh.nc):
            f.write("5\n")
        if mesh.nc:
            f.write(f"CELL_DATA {mesh.nc}\n")
            f.write("SCALARS region int\nLOOKUP_TABLE default\n")
            for t in mesh.region_tags:
                f.write(f"{int(t)}\n")
        if point_data:
            f.write(f"POINT_DATA {mesh.nv}\n")
            for name, data in point_data.items():
                data = np.asarray(data, float)
                if data.ndim == 1:
                    f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
                    for v in data:
                        f.write(f"{v}\n")
                else:
                    f.write(f"VECTORS {name} double\n")
                    for vx, vy in data:
                        f.write(f"{vx} {vy} 0.0\n")


def write_vtk_topology(path, topo, title="cut geometry"):
    """Polydata dump of the cut polygons and interface segments."""
    cut = topo.polygons.take(np.isin(topo.polygons.bg_cell, topo.class_partial))
    points = cut.verts[np.arange(cut.verts.shape[1]) < cut.count[:, None]].tolist()
    ends = np.cumsum(cut.count).tolist()
    poly_conn = [list(range(e - n, e)) for e, n in zip(ends, cut.count.tolist())]
    segs = topo.interface_segments
    line_conn = (len(points) + np.arange(2 * len(segs)).reshape(-1, 2)).tolist()
    points += np.stack([segs.start, segs.end], axis=1).reshape(-1, 2).tolist()

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\n")
        f.write("DATASET POLYDATA\n")
        f.write(f"POINTS {len(points)} double\n")
        for x, y in points:
            f.write(f"{x} {y} 0.0\n")
        if poly_conn:
            total = sum(len(p) + 1 for p in poly_conn)
            f.write(f"POLYGONS {len(poly_conn)} {total}\n")
            for p in poly_conn:
                f.write(" ".join(str(v) for v in [len(p)] + p) + "\n")
        if line_conn:
            total = sum(len(p) + 1 for p in line_conn)
            f.write(f"LINES {len(line_conn)} {total}\n")
            for p in line_conn:
                f.write(" ".join(str(v) for v in [len(p)] + p) + "\n")
