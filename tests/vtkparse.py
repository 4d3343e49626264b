"""Structural reader of legacy VTK ASCII files, for checking written output."""

import numpy as np


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
