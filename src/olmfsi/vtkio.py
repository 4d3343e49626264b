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
    polys = [poly for c in topo.class_partial for _, poly in topo.covered[int(c)]]

    points = []
    poly_conn = []
    for poly in polys:
        start = len(points)
        points.extend(poly.tolist())
        poly_conn.append(list(range(start, start + len(poly))))
    line_conn = []
    for seg in topo.interface_segments:
        start = len(points)
        points.extend([seg.start.tolist(), seg.end.tolist()])
        line_conn.append([start, start + 1])

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


def parse_vtk(path):
    """Structural re-parse of a legacy VTK ASCII file (used for validation).

    Returns a dict with points, cells/polygons/lines and named point data.
    """
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines[0].startswith("# vtk DataFile"):
        raise ValueError("not a legacy VTK file")
    if lines[2] != "ASCII":
        raise ValueError("expected ASCII encoding")
    out = {"title": lines[1], "dataset": lines[3].split()[-1],
           "points": None, "cells": [], "polygons": [], "lines": [],
           "point_data": {}, "cell_data": {}}
    i = 4
    while i < len(lines):
        tok = lines[i].split()
        key = tok[0].upper()
        if key == "POINTS":
            n = int(tok[1])
            vals = []
            i += 1
            while len(vals) < 3 * n:
                vals.extend(float(v) for v in lines[i].split())
                i += 1
            out["points"] = np.array(vals).reshape(n, 3)
        elif key in ("CELLS", "POLYGONS", "LINES"):
            n = int(tok[1])
            total = int(tok[2])
            vals = []
            i += 1
            while len(vals) < total:
                vals.extend(int(v) for v in lines[i].split())
                i += 1
            conn = []
            p = 0
            for _ in range(n):
                cnt = vals[p]
                conn.append(vals[p + 1:p + 1 + cnt])
                p += cnt + 1
            out[key.lower()] = conn
        elif key == "CELL_TYPES":
            n = int(tok[1])
            i += 1
            cnt = 0
            while cnt < n:
                cnt += len(lines[i].split())
                i += 1
        elif key in ("POINT_DATA", "CELL_DATA"):
            section = "point_data" if key == "POINT_DATA" else "cell_data"
            n = int(tok[1])
            i += 1
            while i < len(lines):
                hdr = lines[i].split()
                kind = hdr[0].upper()
                if kind == "SCALARS":
                    name = hdr[1]
                    i += 2  # skip LOOKUP_TABLE
                    vals = []
                    while len(vals) < n:
                        vals.extend(float(v) for v in lines[i].split())
                        i += 1
                    out[section][name] = np.array(vals)
                elif kind == "VECTORS":
                    name = hdr[1]
                    i += 1
                    vals = []
                    while len(vals) < 3 * n:
                        vals.extend(float(v) for v in lines[i].split())
                        i += 1
                    out[section][name] = np.array(vals).reshape(n, 3)
                else:
                    break
        else:
            i += 1
            continue
    return out
