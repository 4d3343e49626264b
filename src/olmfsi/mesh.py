"""Simplicial 2D meshes, P1 elements and structured mesh generation.

Boundary marker conventions (small integer tags):

    1  left side        2  right side
    3  bottom side      4  top side
    5  fluid-fluid coupling boundary of a moving composite mesh

Cell region tags: 0 = fluid, 1 = solid.  All cells are stored with
counterclockwise vertex order; constructors flip inverted cells.

Mesh text format (ASCII, whitespace separated)::

    mesh2d <nv> <nc> <nbe>
    v x y                 (nv lines)
    c i j k [tag]         (nc lines)
    b i j marker          (nbe lines)
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


class MeshFormatError(MeshError):
    """Malformed mesh text file."""


def _ranges(counts):
    """Row and offset within the row of each slot of rows of these lengths."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]


class CellGrid:
    """Uniform bucket grid over the cell bounding boxes of a mesh.

    Bucket ``b = i * n + j`` holds ``cells[start[b]:start[b + 1]]``,
    ascending (CSR), so the buckets of one grid row ``i`` are contiguous.
    """

    def __init__(self, cell_points):
        los, his = cell_points.min(axis=1), cell_points.max(axis=1)
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
    def bbox(self):
        def f():
            if self.nv == 0:
                return (np.zeros(2), np.zeros(2))
            return (self.vertices.min(axis=0).copy(), self.vertices.max(axis=0).copy())
        return self._cached("bbox", f)

    @property
    def cell_grid(self):
        """Bucket grid over the cell bounding boxes, for candidate queries."""
        return self._cached("cell_grid", lambda: CellGrid(self.cell_points))

    @property
    def edge_cells(self):
        """dict mapping a sorted vertex pair to the list of adjacent cells."""
        def f():
            adj = {}
            for c, tri in enumerate(self.cells):
                for k in range(3):
                    key = (min(tri[k], tri[(k + 1) % 3]), max(tri[k], tri[(k + 1) % 3]))
                    adj.setdefault(key, []).append(c)
            return adj
        return self._cached("edge_cells", f)

    @property
    def vertex_cells(self):
        def f():
            vc = [[] for _ in range(self.nv)]
            for c, tri in enumerate(self.cells):
                for v in tri:
                    vc[v].append(c)
            return vc
        return self._cached("vertex_cells", f)

    # -- convenience -----------------------------------------------------

    def translated(self, vec):
        return Mesh(self.vertices + np.asarray(vec, dtype=float), self.cells,
                    self.boundary_edges, self.boundary_markers, self.region_tags,
                    validate=False)

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
        key = np.sort(self.cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1) @ [self.nv, 1]
        order = np.argsort(key, kind="stable")
        want = np.sort(self.boundary_edges, axis=1) @ [self.nv, 1]
        lo, hi = (np.searchsorted(key[order], want, side) for side in ("left", "right"))
        one = hi - lo == 1
        cells = np.full(len(want), -1, dtype=np.int64)
        cells[one] = order[lo[one]] // 3
        a, b = (self.vertices[self.boundary_edges[:, k]] for k in (0, 1))
        ev = b - a
        n = np.column_stack([ev[:, 1], -ev[:, 0]]) / np.hypot(ev[:, 1], -ev[:, 0])[:, None]
        d = self.cell_points[cells[one]].mean(axis=1) - 0.5 * (a + b)[one]
        n[np.flatnonzero(one)[(n[one] * d).sum(axis=1) > 0.0]] *= -1.0
        return cells, n

    def boundary_cell_of_edge(self, edge_index):
        """Cell adjacent to a boundary edge (errors if the edge is interior)."""
        return int(self.boundary_normals([edge_index])[0][0])

    def boundary_normal(self, edge_index):
        """Adjacent cell and outward unit normal of a boundary edge."""
        cells, normals = self.boundary_normals([edge_index])
        return int(cells[0]), normals[0]


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

    def vid(i, j):
        return i * (ny + 1) + j

    cells = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    cells = np.array(cells, dtype=np.int64)

    edges, markers = [], []
    for i in range(nx):
        edges.append((vid(i, 0), vid(i + 1, 0)))
        markers.append(BOTTOM)
        edges.append((vid(i, ny), vid(i + 1, ny)))
        markers.append(TOP)
    for j in range(ny):
        edges.append((vid(0, j), vid(0, j + 1)))
        markers.append(LEFT)
        edges.append((vid(nx, j), vid(nx, j + 1)))
        markers.append(RIGHT)

    tags = None
    if region_fn is not None:
        centroids = verts[cells].mean(axis=1)
        tags = np.array([region_fn(c) for c in centroids], dtype=np.int64)
    return Mesh(verts, cells, np.array(edges), np.array(markers), tags)


def element_diameter(mesh, cell):
    """Longest edge of a cell."""
    return float(mesh.cell_diameters[cell])


def p1_gradients(mesh, cell):
    """Constant gradients of the three P1 basis functions on a cell, (3, 2)."""
    return mesh.p1_grads[cell].copy()


def refine_uniform(mesh):
    """Quadrisect every triangle; boundary edges split in two, tags inherited."""
    verts = [mesh.vertices]
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


# -- point location / field evaluation ----------------------------------


def containing_cells(mesh, points, tol=1e-10):
    """Per point (n, 2), the cells whose closure contains it (barycentric
    coordinates >= -tol), ascending; one query of the cached bucket grid
    for all points."""
    k, cand = mesh.cell_grid.query_boxes(points, points)
    inside = (barycentric(mesh, cand, points[k][:, None]) >= -tol).all(axis=(1, 2))
    out = [[] for _ in range(len(points))]
    for i, c in zip(k[inside].tolist(), cand[inside].tolist()):
        out[i].append(c)
    return out


def locate_points(mesh, points, tol=1e-10):
    """Containing cell index for each point (-1 if outside); the lowest
    numbered one where several cells contain it."""
    points = np.atleast_2d(np.asarray(points, float))
    return np.array([cells[0] if cells else -1
                     for cells in containing_cells(mesh, points, tol)], dtype=np.int64)


def barycentric(mesh, cell, pts):
    """Barycentric coordinates of (n, 2) points w.r.t. one cell, (n, 3), or
    w.r.t. each of an array of m cells, (m, n, 3).  With per-cell points
    (m, n, 2), cell i takes the points pts[i]."""
    p = mesh.cell_points[cell][..., None, :, :]
    pa, pb = p[..., [1, 2, 0], :], p[..., [2, 0, 1], :]       # (..., 1, 3, 2)
    lam = ((pb[..., 0] - pa[..., 0]) * (pts[..., 1, None] - pa[..., 1])
           - (pb[..., 1] - pa[..., 1]) * (pts[..., 0, None] - pa[..., 0]))
    return lam / (2.0 * np.asarray(mesh.cell_areas[cell]))[..., None, None]


def eval_field(fn, pts):
    """Evaluate a field callback at (n, 2) points.

    Callbacks flagged with ``vectorized = True`` are called once with the
    whole point array; everything else is evaluated point by point.
    """
    pts = np.asarray(pts, float).reshape(-1, 2)
    if getattr(fn, "vectorized", False):
        return np.asarray(fn(pts), float)
    return np.array([fn(p) for p in pts], dtype=float)


def eval_p1(mesh, nodal, points, cells=None):
    """Evaluate a nodal P1 field (nv,) or (nv, k) at points inside the mesh."""
    points = np.atleast_2d(np.asarray(points, float))
    nodal = np.asarray(nodal, float)
    if cells is None:
        cells = locate_points(mesh, points)
    if (np.asarray(cells) < 0).any():
        raise MeshError("point outside mesh in eval_p1")
    vals = []
    for pt, c in zip(points, cells):
        lam = barycentric(mesh, c, pt[None])[0]
        vals.append(lam @ nodal[mesh.cells[c]])
    return np.array(vals)


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
    marker_of = {}
    for (i, j), m in zip(mesh.boundary_edges, mesh.boundary_markers):
        marker_of[(min(i, j), max(i, j))] = int(m)
    out = []
    for c in np.flatnonzero(mesh.region_tags == tag):
        tri = mesh.cells[c]
        for k in range(3):
            i, j = tri[k], tri[(k + 1) % 3]
            key = (min(i, j), max(i, j))
            adj = mesh.edge_cells[key]
            others = [d for d in adj if d != c]
            if not others:
                out.append((int(i), int(j), int(c), marker_of.get(key, 0)))
            elif mesh.region_tags[others[0]] != tag:
                out.append((int(i), int(j), int(c),
                            ("interface", int(mesh.region_tags[others[0]]))))
    return out


# -- text format ----------------------------------------------------------


def write_mesh(mesh, path):
    with open(path, "w") as f:
        f.write(f"mesh2d {mesh.nv} {mesh.nc} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            f.write(f"v {float(x)!r} {float(y)!r}\n")
        for c, (i, j, k) in enumerate(mesh.cells):
            f.write(f"c {i} {j} {k} {mesh.region_tags[c]}\n")
        for (i, j), m in zip(mesh.boundary_edges, mesh.boundary_markers):
            f.write(f"b {i} {j} {m}\n")


def read_mesh(path):
    with open(path) as f:
        tokens = f.read().split()
    if not tokens or tokens[0] != "mesh2d":
        raise MeshFormatError("missing mesh2d header")
    try:
        nv, nc, nbe = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except (IndexError, ValueError) as exc:
        raise MeshFormatError("bad header counts") from exc
    pos = 4
    verts = np.empty((nv, 2))
    cells = np.empty((nc, 3), dtype=np.int64)
    tags = np.zeros(nc, dtype=np.int64)
    edges = np.empty((nbe, 2), dtype=np.int64)
    markers = np.empty(nbe, dtype=np.int64)
    try:
        for n in range(nv):
            if tokens[pos] != "v":
                raise MeshFormatError(f"expected vertex line {n}")
            verts[n] = float(tokens[pos + 1]), float(tokens[pos + 2])
            pos += 3
        for n in range(nc):
            if tokens[pos] != "c":
                raise MeshFormatError(f"expected cell line {n}")
            cells[n] = int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3])
            pos += 4
            # optional region tag: next token is numeric (not a line keyword)
            if pos < len(tokens) and tokens[pos] not in ("v", "c", "b"):
                tags[n] = int(tokens[pos])
                pos += 1
        for n in range(nbe):
            if tokens[pos] != "b":
                raise MeshFormatError(f"expected boundary line {n}")
            edges[n] = int(tokens[pos + 1]), int(tokens[pos + 2])
            markers[n] = int(tokens[pos + 3])
            pos += 4
    except (IndexError, ValueError) as exc:
        raise MeshFormatError("truncated or malformed mesh file") from exc
    return Mesh(verts, cells, edges, markers, tags)
