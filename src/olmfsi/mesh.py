"""Simplicial 2D meshes, P1 elements and structured mesh generation.

Boundary marker conventions (small integer tags):

    1  left side        2  right side
    3  bottom side      4  top side
    5  fluid-fluid coupling boundary of a moving composite mesh

Cell region tags: 0 = fluid, 1 = solid.  All cells are stored with
counterclockwise vertex order; constructors flip inverted cells.
"""

from __future__ import annotations

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


class Mesh:
    """Immutable triangle mesh with boundary markers and cell region tags.

    All derived quantities (areas, diameters, P1 gradients, adjacency) are
    computed lazily and cached; instances are safe to share across threads.
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

        # enforce counterclockwise orientation
        if cells.size:
            p0, p1, p2 = (vertices[cells[:, k]] for k in range(3))
            det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) \
                - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
            flip = det < 0.0
            if flip.any():
                cells = cells.copy()
                cells[flip, 1], cells[flip, 2] = cells[flip, 2], cells[flip, 1]

        if boundary_edges is None:
            boundary_edges = np.zeros((0, 2), dtype=np.int64)
            boundary_markers = np.zeros(0, dtype=np.int64)
        boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64).reshape(-1, 2)
        if boundary_markers is None:
            boundary_markers = np.zeros(len(boundary_edges), dtype=np.int64)
        boundary_markers = np.ascontiguousarray(boundary_markers, dtype=np.int64)
        if len(boundary_markers) != len(boundary_edges):
            raise MeshError("boundary_markers length mismatch")
        if boundary_edges.size and boundary_edges.max() >= len(vertices):
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
        self._cache = {}

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
        # boundary edges must close up: every touched vertex has even degree
        if len(self.boundary_edges):
            deg = np.zeros(self.nv, dtype=int)
            np.add.at(deg, self.boundary_edges.ravel(), 1)
            touched = deg[deg > 0]
            if (touched % 2).any():
                raise MeshError("boundary edges do not form closed polylines")

    # -- cached geometry -------------------------------------------------

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def cell_points(self):
        """(nc, 3, 2) vertex coordinates per cell."""
        return self._cached("cell_points", lambda: self.vertices[self.cells])

    @property
    def cell_areas(self):
        def f():
            p = self.cell_points
            return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                          - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
        return self._cached("cell_areas", f)

    @property
    def cell_diameters(self):
        def f():
            p = self.cell_points
            e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
            return np.linalg.norm(e, axis=2).max(axis=1)
        return self._cached("cell_diameters", f)

    @property
    def p1_grads(self):
        """(nc, 3, 2) constant gradients of the three nodal basis functions."""
        def f():
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
        return self._cached("p1_grads", f)

    @property
    def cell_boxes(self):
        """Lower and upper corners (nc, 2) of the cell bounding boxes."""
        def f():
            a, b, c = self.cell_points.transpose(1, 0, 2)
            return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        return self._cached("cell_boxes", f)

    @property
    def bbox(self):
        def f():
            if self.nv == 0:
                return (np.zeros(2), np.zeros(2))
            return (self.vertices.min(axis=0).copy(), self.vertices.max(axis=0).copy())
        return self._cached("bbox", f)

    @property
    def cell_grid(self):
        """Bucket grid over the cell bounding boxes, for candidate queries."""
        return self._cached("cell_grid", lambda: CellGrid(*self.cell_boxes))

    @property
    def edge_keys(self):
        """Key v_lo * nv + v_hi of cell edge 3 c + k (vertices k, k + 1),
        the stable order sorting them, and the sorted keys."""
        def f():
            key = np.sort(self.cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1) @ [self.nv, 1]
            order = np.argsort(key, kind="stable")
            return key, order, key[order]
        return self._cached("edge_keys", f)

    # -- convenience -----------------------------------------------------

    def region_cells(self, tag):
        return np.flatnonzero(self.region_tags == tag)

    def boundary_normals(self, edges):
        """Adjacent cells and outward unit normals (E, 2) of the given
        boundary edges, from one cached pass over all boundary edges;
        errors if one of them is interior."""
        cells, normals = self._cached("boundary_normals", self._boundary_normals)
        edges = np.asarray(edges, dtype=np.int64)
        bad = edges[cells[edges] < 0]
        if len(bad):
            raise MeshError(f"boundary edge {bad[0]} is not on the mesh boundary")
        return cells[edges], normals[edges]

    def _boundary_normals(self):
        """Cell (-1 unless exactly one) and outward unit normal per boundary edge."""
        _, order, skey = self.edge_keys
        want = np.sort(self.boundary_edges, axis=1) @ [self.nv, 1]
        lo, hi = (np.searchsorted(skey, want, side) for side in ("left", "right"))
        one = hi - lo == 1
        cells = np.full(len(want), -1, dtype=np.int64)
        cells[one] = order[lo[one]] // 3
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
    in_a = np.zeros(mesh.nv, dtype=bool)
    in_b = np.zeros(mesh.nv, dtype=bool)
    in_a[mesh.cells[mesh.region_tags == tag_a].ravel()] = True
    in_b[mesh.cells[mesh.region_tags == tag_b].ravel()] = True
    return np.flatnonzero(in_a & in_b)


def region_boundary_edges(mesh, tag):
    """Boundary of the subdomain with a given region tag.

    Returns a list of (v0, v1, adjacent_cell, kind) where ``kind`` is the
    exterior boundary marker for edges on the mesh boundary and
    ``('interface', other_tag)`` for edges shared with another region.
    """
    key, order, skey = mesh.edge_keys
    edge = (3 * np.flatnonzero(mesh.region_tags == tag)[:, None] + np.arange(3)).ravel()
    lo, hi = (np.searchsorted(skey, key[edge], side) for side in ("left", "right"))
    # the first cell other than the edge's own along the sorted keys
    cell, first = edge // 3, order[lo] // 3
    other = np.where(first != cell, first, order[np.minimum(lo + 1, len(order) - 1)] // 3)
    outer = hi - lo == 1
    other_tag = mesh.region_tags[other]
    keep = outer | (other_tag != tag)
    marker_of = {min(i, j) * mesh.nv + max(i, j): m for (i, j), m in
                 zip(mesh.boundary_edges.tolist(), mesh.boundary_markers.tolist())}
    k = edge % 3
    ij = np.column_stack([mesh.cells[cell, k], mesh.cells[cell, (k + 1) % 3]])
    return [(i, j, c, marker_of.get(k, 0) if o else ("interface", t))
            for (i, j), c, k, o, t in zip(ij[keep].tolist(), cell[keep].tolist(),
                                          key[edge[keep]].tolist(), outer[keep].tolist(),
                                          other_tag[keep].tolist())]

