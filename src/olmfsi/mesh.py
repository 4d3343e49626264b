"""Simplicial 2D meshes, P1 elements and structured mesh generation.

Boundary marker conventions (small integer tags):

    1  left side        2  right side
    3  bottom side      4  top side
    5  fluid-fluid coupling boundary of a moving composite mesh

Cell region tags: 0 = fluid, 1 = solid.  A validated mesh turns its cells
counterclockwise; ``validate=False`` keeps them as given, so an inverted
cell shows as a negative signed area.  The mesh owns its connectivity:
``Mesh.edges`` (one table of unique edges) and ``Mesh.vertex_slots`` (the
vertex numbering of a cell set, the dof map of every P1 space).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

LEFT, RIGHT, BOTTOM, TOP = 1, 2, 3, 4
GAMMA_FF = 5

FLUID = 0
SOLID = 1


class MeshError(ValueError):
    """Invalid mesh data."""


class DegenerateCellError(MeshError):
    """A cell has (numerically) zero area."""


def _ranges(counts):
    """Row and offset within the row of each slot of rows of these lengths."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]


class CellGrid:
    """Uniform bucket grid over the cell bounding boxes [los[c], his[c]].

    Bucket ``b = i * n + j`` holds ``cells[start[b]:start[b + 1]]``,
    ascending (CSR), so the buckets of one grid row ``i`` are contiguous.
    """

    def __init__(self, los, his):
        self.nc = len(los)
        self.lo = los.min(axis=0) if self.nc else np.zeros(2)
        hi = his.max(axis=0) if self.nc else np.ones(2)
        self.span = np.maximum(hi - self.lo, 1e-300)
        self.n = max(1, int(np.sqrt(max(self.nc, 1))))
        box, first, last = self._rows(los, his)
        row, off = _ranges(last - first)
        bucket = first[row] + off
        self.cells = box[row][np.argsort(bucket, kind="stable")]
        self.start = np.append(0, np.cumsum(np.bincount(bucket, minlength=self.n ** 2)))

    def _rows(self, los, his):
        """(box, first bucket, end bucket) per grid row each box [lo, hi] meets."""
        il, ih = self._idx(los), self._idx(his)
        box, di = _ranges(ih[:, 0] - il[:, 0] + 1)
        row = (il[box, 0] + di) * self.n
        return box, row + il[box, 1], row + ih[box, 1] + 1

    def _idx(self, pts):
        return np.clip(((pts - self.lo) / self.span * self.n).astype(int), 0, self.n - 1)

    def query_boxes(self, los, his):
        """(box, cell) pairs whose bounding boxes may meet, for the boxes
        [los[i], his[i]]; sorted by box, then cell."""
        box, first, last = self._rows(np.atleast_2d(los), np.atleast_2d(his))
        first, last = self.start[first], self.start[last]
        slot, off = _ranges(last - first)
        key = np.unique(box[slot] * self.nc + self.cells[first[slot] + off])
        return key // max(self.nc, 1), key % max(self.nc, 1)


@dataclass(frozen=True)
class EdgeTable:
    """Unique edges of a mesh, ascending by key ``v_lo * nv + v_hi``; side k
    of cell c (vertices k, k + 1 mod 3) is edge ``of_side[c, k]``."""
    key: np.ndarray       # (ne,)
    verts: np.ndarray     # (ne, 2) v_lo, v_hi
    cells: np.ndarray     # (ne, 2) the two lowest cells, the second -1 if only one
    count: np.ndarray     # (ne,) cells sharing the edge
    of_side: np.ndarray   # (nc, 3)


def signed_areas(pts):
    """Signed areas of triangles (..., 3, 2), positive when counterclockwise."""
    return 0.5 * ((pts[..., 1, 0] - pts[..., 0, 0]) * (pts[..., 2, 1] - pts[..., 0, 1])
                  - (pts[..., 1, 1] - pts[..., 0, 1]) * (pts[..., 2, 0] - pts[..., 0, 0]))


class Mesh:
    """Immutable triangle mesh with boundary markers and cell region tags.

    All derived quantities (areas, diameters, P1 gradients, connectivity)
    are computed lazily and cached; instances are safe to share across
    threads.  ``validate=True`` turns cells counterclockwise, then checks
    areas and boundary closure.
    """

    def __init__(self, vertices, cells, boundary_edges=None, boundary_markers=None,
                 region_tags=None, validate=True):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if cells.size == 0:
            cells = cells.reshape(0, 3)
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise MeshError("cells must be an (nc, 3) array")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshError("cell vertex index out of range")

        if validate:   # orient counterclockwise; the areas fill the cached cell_areas
            areas = signed_areas(vertices[cells])
            flip = areas < 0.0
            if flip.any():
                cells = cells.copy()
                cells[flip, 1], cells[flip, 2] = cells[flip, 2], cells[flip, 1]
                areas = np.abs(areas)
            self.cell_areas = areas

        if boundary_edges is None:
            boundary_edges = np.zeros((0, 2), dtype=np.int64)
            boundary_markers = np.zeros(0, dtype=np.int64)
        boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64).reshape(-1, 2)
        if boundary_markers is None:
            boundary_markers = np.zeros(len(boundary_edges), dtype=np.int64)
        boundary_markers = np.ascontiguousarray(boundary_markers, dtype=np.int64)
        if len(boundary_markers) != len(boundary_edges):
            raise MeshError("boundary_markers length mismatch")
        if boundary_edges.size and (boundary_edges.min() < 0
                                    or boundary_edges.max() >= len(vertices)):
            raise MeshError("boundary edge vertex index out of range")

        if region_tags is None:
            region_tags = np.zeros(len(cells), dtype=np.int64)
        region_tags = np.ascontiguousarray(region_tags, dtype=np.int64)
        if len(region_tags) != len(cells):
            raise MeshError("region_tags length mismatch")

        self.vertices = vertices
        self.cells = cells
        self.boundary_edges = boundary_edges
        self.boundary_markers = boundary_markers
        self.region_tags = region_tags
        for a in (self.vertices, self.cells, self.boundary_edges,
                  self.boundary_markers, self.region_tags):
            a.flags.writeable = False

        if validate:
            self._validate()

    # -- basic counts ----------------------------------------------------

    @property
    def nv(self):
        return len(self.vertices)

    @property
    def nc(self):
        return len(self.cells)

    def _validate(self):
        if self.nc and self.cell_areas.min() <= 0.0:
            bad = int(np.argmin(self.cell_areas))
            raise DegenerateCellError(f"cell {bad} has non-positive area")
        # boundary edges must close up: every vertex has even degree
        if (np.bincount(self.boundary_edges.ravel(), minlength=self.nv) % 2).any():
            raise MeshError("boundary edges do not form closed polylines")

    # -- cached geometry -------------------------------------------------

    @cached_property
    def cell_points(self):
        """(nc, 3, 2) vertex coordinates per cell."""
        return self.vertices[self.cells]

    @cached_property
    def cell_areas(self):
        """Signed cell areas (nc,), positive for counterclockwise cells."""
        return signed_areas(self.cell_points)

    @cached_property
    def cell_diameters(self):
        p = self.cell_points
        e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
        return np.linalg.norm(e, axis=2).max(axis=1)

    @cached_property
    def p1_grads(self):
        """(nc, 3, 2) constant gradients of the three nodal basis functions."""
        p = self.cell_points
        a = self.cell_areas
        if (a <= 0.0).any():
            bad = int(np.argmin(a))
            raise DegenerateCellError(f"cell {bad} has non-positive area")
        g = np.empty((self.nc, 3, 2))
        for k in range(3):
            # gradient of basis k is the inward normal of the opposite
            # edge scaled by 1/(2A)
            pa, pb = p[:, (k + 1) % 3], p[:, (k + 2) % 3]
            g[:, k, 0] = (pa[:, 1] - pb[:, 1]) / (2.0 * a)
            g[:, k, 1] = (pb[:, 0] - pa[:, 0]) / (2.0 * a)
        return g

    @cached_property
    def cell_boxes(self):
        """Lower and upper corners (nc, 2) of the cell bounding boxes."""
        a, b, c = self.cell_points.transpose(1, 0, 2)
        return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)

    @cached_property
    def bbox(self):
        if self.nv == 0:
            return (np.zeros(2), np.zeros(2))
        return (self.vertices.min(axis=0).copy(), self.vertices.max(axis=0).copy())

    @cached_property
    def cell_grid(self):
        """Bucket grid over the cell bounding boxes, for candidate queries."""
        return CellGrid(*self.cell_boxes)

    # -- connectivity ----------------------------------------------------

    @cached_property
    def edges(self):
        """The ``EdgeTable`` of the cell sides, from one stable sort."""
        side = np.sort(self.cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        key = side @ [self.nv, 1]
        order = np.argsort(key, kind="stable")
        new = np.diff(key[order], prepend=-1) != 0
        first = np.flatnonzero(new)
        count = np.diff(np.append(first, len(key)))
        of_side = np.empty(len(key), dtype=np.int64)
        of_side[order] = np.cumsum(new) - 1
        cell = order // 3
        second = np.where(count > 1, cell[np.minimum(first + 1, len(key) - 1)], -1)
        return EdgeTable(key[order[first]], side[order[first]],
                         np.column_stack([cell[first], second]), count,
                         of_side.reshape(-1, 3))

    def edge_index(self, pairs):
        """Edge of each vertex pair (E, 2), in either order; -1 where no
        cell has that side."""
        key = np.sort(pairs, axis=1) @ [self.nv, 1]
        row = np.searchsorted(self.edges.key, key)
        return np.where(np.append(self.edges.key, -1)[row] == key, row, -1)

    def vertex_slots(self, cells):
        """Slot of each vertex among the vertices of the given cells,
        numbered in vertex order; -1 at vertices of no such cell."""
        used = np.zeros(self.nv, dtype=bool)
        used[self.cells[cells]] = True
        slots = np.full(self.nv, -1, dtype=np.int64)
        slots[used] = np.arange(np.count_nonzero(used))
        return slots

    def region_cells(self, tag):
        return np.flatnonzero(self.region_tags == tag)

    def boundary_normals(self, edges):
        """Adjacent cells and outward unit normals (E, 2) of the given
        boundary edges, from one cached pass over all boundary edges;
        errors if one of them is interior."""
        cells, normals = self._boundary_normals
        edges = np.asarray(edges, dtype=np.int64)
        bad = edges[cells[edges] < 0]
        if len(bad):
            raise MeshError(f"boundary edge {bad[0]} is not on the mesh boundary")
        return cells[edges], normals[edges]

    @cached_property
    def _boundary_normals(self):
        """Cell (-1 unless exactly one) and outward unit normal per boundary edge."""
        e = self.edges
        only = np.where(e.count == 1, e.cells[:, 0], -1)
        cells = np.append(only, -1)[self.edge_index(self.boundary_edges)]   # -1: no cell
        one = cells >= 0
        a, b = (self.vertices[self.boundary_edges[:, k]] for k in (0, 1))
        ev = b - a
        n = np.column_stack([ev[:, 1], -ev[:, 0]]) / np.hypot(ev[:, 1], -ev[:, 0])[:, None]
        d = self.cell_points[cells[one]].mean(axis=1) - 0.5 * (a + b)[one]
        n[np.flatnonzero(one)[(n[one] * d).sum(axis=1) > 0.0]] *= -1.0
        return cells, n


def build_rect_mesh(nx, ny, bbox, region_fn=None):
    """Structured triangulation of a rectangle with 2*nx*ny cells.

    Boundary edges are tagged LEFT/RIGHT/BOTTOM/TOP.  ``region_fn``, if
    given, maps a cell centroid to its region tag.
    """
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be >= 1")
    (x0, y0), (x1, y1) = np.asarray(bbox[0], float), np.asarray(bbox[1], float)
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate bounding box")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    return build_tensor_mesh(xs, ys, region_fn=region_fn)


def build_tensor_mesh(xs, ys, region_fn=None):
    """Structured triangulation over explicit grid lines xs x ys."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    if len(xs) < 2 or len(ys) < 2 or (np.diff(xs) <= 0).any() or (np.diff(ys) <= 0).any():
        raise MeshError("grid lines must be strictly increasing with >= 2 entries")
    nx, ny = len(xs) - 1, len(ys) - 1
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange(len(verts)).reshape(nx + 1, ny + 1)
    v00, v10, v01, v11 = vid[:-1, :-1], vid[1:, :-1], vid[:-1, 1:], vid[1:, 1:]
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    # BOTTOM, TOP by i, then LEFT, RIGHT by j
    edges = np.concatenate([np.stack([vid[:-1, [0, -1]], vid[1:, [0, -1]]], axis=-1),
                            np.stack([vid[[0, -1], :-1].T, vid[[0, -1], 1:].T], axis=-1)])
    markers = np.concatenate([np.tile([BOTTOM, TOP], nx), np.tile([LEFT, RIGHT], ny)])

    tags = None
    if region_fn is not None:
        centroids = verts[cells].mean(axis=1)
        tags = np.array([region_fn(c) for c in centroids], dtype=np.int64)
    return Mesh(verts, cells, edges.reshape(-1, 2), markers, tags)


# -- point location / field evaluation ----------------------------------


def containing_cells(mesh, points, tol=1e-10):
    """(point, cell) pairs, sorted, of the cells whose closure contains one
    of the points (n, 2) (barycentric coordinates >= -tol); one query of
    the cached bucket grid for all points."""
    k, cand = mesh.cell_grid.query_boxes(points, points)
    inside = (barycentric(mesh, cand, points[k][:, None]) >= -tol).all(axis=(1, 2))
    return k[inside], cand[inside]


def locate_points(mesh, points, tol=1e-10):
    """Containing cell index for each point (-1 if outside); the lowest
    numbered one where several cells contain it."""
    points = np.atleast_2d(np.asarray(points, float))
    k, cells = containing_cells(mesh, points, tol)
    first, at = np.unique(k, return_index=True)
    out = np.full(len(points), -1, dtype=np.int64)
    out[first] = cells[at]
    return out


def barycentric(mesh, cell, pts):
    """Barycentric coordinates of (n, 2) points w.r.t. one cell, (n, 3), or
    w.r.t. each of an array of m cells, (m, n, 3).  With per-cell points
    (m, n, 2), cell i takes the points pts[i]."""
    p = mesh.cell_points[cell][..., None, :, :]
    pa, pb = p[..., [1, 2, 0], :], p[..., [2, 0, 1], :]       # (..., 1, 3, 2)
    lam = ((pb[..., 0] - pa[..., 0]) * (pts[..., 1, None] - pa[..., 1])
           - (pb[..., 1] - pa[..., 1]) * (pts[..., 0, None] - pa[..., 0]))
    return lam / (2.0 * np.asarray(mesh.cell_areas[cell]))[..., None, None]


def p1_error_sums(mesh, cells, u_nodal, v_nodal, pts, w, grad_exact, v_exact):
    """Per-cell weighted sums, (c, 4), of rules with points (c, q, 2) and
    weights (c, q): of |grad u_h - grad_exact|^2 (u_h a P1 vector field),
    |v_h - v_exact|^2 (v_h a P1 field with k components, v_exact (c, q, k)),
    of the first component of v_h - v_exact, and of the weights.  Each row
    sums on its own, as np.sum of one cell's rule."""
    conn = mesh.cells[cells]
    gradu = np.einsum("cai,caj->cij", u_nodal[conn], mesh.p1_grads[cells])
    dv = barycentric(mesh, cells, pts) @ v_nodal[conn] - v_exact
    diff = gradu[:, None] - grad_exact
    return np.column_stack([
        np.sum(w * np.einsum("cqij,cqij->cq", diff, diff), axis=1),
        np.sum(w[..., None] * dv * dv, axis=(1, 2)), np.sum(w * dv[..., 0], axis=1),
        np.sum(w, axis=1)])


def eval_field(fn, pts, shape):
    """Evaluate a field callback at (n, 2) points.

    Every field callback (Dirichlet data, body force, exact solution, solid
    edge traction) takes the whole point array and returns one row per point;
    ``shape`` is the shape of a row: () for scalar, (2,) for vector and
    (2, 2) for matrix data.
    """
    pts = np.asarray(pts, float).reshape(-1, 2)
    out = np.asarray(fn(pts), float)
    if out.shape != (len(pts), *shape):
        raise ValueError(f"field callback returned shape {out.shape} for {len(pts)} "
                         f"points; it must return one row per point of shape {shape}")
    return out


# -- region / interface helpers ------------------------------------------


def region_interface_vertices(mesh, tag_a=FLUID, tag_b=SOLID):
    """Vertices shared by cells of two different region tags, sorted."""
    a, b = (mesh.vertex_slots(mesh.region_cells(t)) >= 0 for t in (tag_a, tag_b))
    return np.flatnonzero(a & b)


def region_boundary_edges(mesh, tag):
    """Boundary of the subdomain with a given region tag, as arrays.

    Returns ``(edges (E, 2), cells (E,), markers (E,), other (E,))``: each
    edge's vertex pair in the orientation of its adjacent cell, its
    exterior boundary marker (0 if unmarked, -1 off the mesh boundary) and
    the region tag of the cell across it (-1 on the mesh boundary).
    """
    e = mesh.edges
    own = mesh.region_cells(tag)
    cell, k, edge = np.repeat(own, 3), np.tile(np.arange(3), len(own)), e.of_side[own].ravel()
    first, second = e.cells[edge].T
    outer = e.count[edge] == 1
    other_tag = np.where(outer, -1, mesh.region_tags[np.where(first != cell, first, second)])
    keep = outer | (other_tag != tag)
    cell, k, edge, outer, other_tag = (a[keep] for a in (cell, k, edge, outer, other_tag))
    marker = np.zeros(len(e.key) + 1, dtype=np.int64)   # the last entry takes unknown pairs
    marker[mesh.edge_index(mesh.boundary_edges)] = mesh.boundary_markers
    ij = np.column_stack([mesh.cells[cell, k], mesh.cells[cell, (k + 1) % 3]])
    return ij, cell, np.where(outer, marker[edge], -1), other_tag
