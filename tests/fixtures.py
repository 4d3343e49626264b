"""Meshes, field callbacks and norms that tests use; the package needs none of them.

Field callbacks follow ``mesh.eval_field``: one call with an (n, 2) point
array, one result row per point.
"""

import numpy as np

from olmfsi.geometry import _areas
from olmfsi.mesh import Mesh, eval_field
from olmfsi.solid import p1_mass_matrix
from olmfsi.stokes import BG, FRONT


def constant(value):
    """Field callback with the same value (scalar, vector or matrix) at every point."""
    value = np.asarray(value, float)
    return lambda pts: np.tile(value, (len(pts),) + (1,) * value.ndim)


def rowwise(fn):
    """Array callback that evaluates the per-point function fn row by row."""
    return lambda pts: np.array([fn(p) for p in pts], dtype=float)


def interpolate(space, u, p):
    """Nodal interpolant of velocity and pressure callbacks into the
    composite coefficient vector of ``space``."""
    x = np.zeros(space.ndof)
    for mesh_id in (BG, FRONT):
        mesh, vmap = space.sides[mesh_id]
        act = np.flatnonzero(vmap >= 0)
        if len(act):
            udofs, pdofs = space.dofs(mesh_id, act)
            x[udofs] = eval_field(u, mesh.vertices[act], (2,))
            x[pdofs] = eval_field(p, mesh.vertices[act], ())
    return x


def translated(mesh, vec):
    """The mesh moved rigidly by vec."""
    return Mesh(mesh.vertices + np.asarray(vec, dtype=float), mesh.cells,
                mesh.boundary_edges, mesh.boundary_markers, mesh.region_tags,
                validate=False)


def refine_uniform(mesh):
    """Quadrisect every triangle; boundary edges split in two, tags inherited."""
    midpoint = {}
    extra = []

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = mesh.nv + len(extra)
            extra.append(0.5 * (mesh.vertices[i] + mesh.vertices[j]))
        return midpoint[key]

    cells = []
    tags = []
    for c, (a, b, d) in enumerate(mesh.cells):
        mab, mbd, mda = mid(a, b), mid(b, d), mid(d, a)
        cells.extend([(a, mab, mda), (mab, b, mbd), (mda, mbd, d), (mab, mbd, mda)])
        tags.extend([mesh.region_tags[c]] * 4)

    edges, markers = [], []
    for (i, j), m in zip(mesh.boundary_edges, mesh.boundary_markers):
        k = mid(i, j)
        edges.extend([(i, k), (k, j)])
        markers.extend([m, m])

    vertices = np.vstack([mesh.vertices, np.array(extra).reshape(-1, 2)])
    return Mesh(vertices, np.array(cells), np.array(edges) if edges else None,
                np.array(markers) if markers else None, np.array(tags))


def polygon_area(poly):
    """Area of one polygon by the package's batched polygon-area kernel."""
    poly = np.asarray(poly, float)
    return float(_areas(poly[None], np.array([len(poly)]))[0])


def l2_norm(mesh, cells, field_nodal):
    """L2 norm of a nodal vector field over the given cells."""
    M = p1_mass_matrix(mesh, cells)
    field_nodal = np.asarray(field_nodal, float)
    if field_nodal.ndim == 1:
        field_nodal = field_nodal[:, None]
    return float(np.sqrt(sum(col @ (M @ col) for col in field_nodal.T)))
