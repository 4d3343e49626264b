"""Overlap geometry: background-mesh classification, cut-cell quadrature,
fluid-fluid interface segments and overlap-region pairs.

The moving composite mesh (the "front") is laid over a fixed background
mesh.  Background cells are classified as not / fully / partially covered
by the front domain.  Only the band of cells whose boxes meet the boxes of
front boundary edges is clipped against the front cells; every other cell
is fully covered if a front cell holds its centroid and not covered
otherwise.  Partially covered cells receive subtractive cut quadrature
rules (full-cell rule minus rules on all front-cell intersections), so
every geometric primitive is a convex-convex clip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import (Mesh, FLUID, SOLID, _ranges, containing_cells, locate_points,
                   signed_areas)


class GeometryError(RuntimeError):
    """Inconsistent overlap geometry."""


class CoarseBackgroundError(GeometryError):
    """A partially covered background cell touches the solid subdomain."""


# Relative vertex-snapping / sliver-dropping tolerance, scaled by the local
# mesh size before use.
EPS_GEOM = 1e-12
QUAD_ORDER = 2           # volume, cut-cell and boundary quadrature order


# -- quadrature rules ------------------------------------------------------

# barycentric points and unit weights, exact to the stated polynomial degree
_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (np.array([[2 / 3, 1 / 6, 1 / 6],
                  [1 / 6, 2 / 3, 1 / 6],
                  [1 / 6, 1 / 6, 2 / 3]]), np.full(3, 1 / 3)),
    4: (np.array([[0.108103018168070, 0.445948490915965, 0.445948490915965],
                  [0.445948490915965, 0.108103018168070, 0.445948490915965],
                  [0.445948490915965, 0.445948490915965, 0.108103018168070],
                  [0.816847572980459, 0.091576213509771, 0.091576213509771],
                  [0.091576213509771, 0.816847572980459, 0.091576213509771],
                  [0.091576213509771, 0.091576213509771, 0.816847572980459]]),
        np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)),
    5: (np.array([[1 / 3, 1 / 3, 1 / 3],
                  [0.059715871789770, 0.470142064105115, 0.470142064105115],
                  [0.470142064105115, 0.059715871789770, 0.470142064105115],
                  [0.470142064105115, 0.470142064105115, 0.059715871789770],
                  [0.797426985353087, 0.101286507323456, 0.101286507323456],
                  [0.101286507323456, 0.797426985353087, 0.101286507323456],
                  [0.101286507323456, 0.101286507323456, 0.797426985353087]]),
        np.array([0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3)),
}


def tri_rule(order):
    """Barycentric rule exact for polynomials up to ``order`` (weights sum 1)."""
    for deg in sorted(_TRI_RULES):
        if deg >= order:
            return _TRI_RULES[deg]
    return _TRI_RULES[max(_TRI_RULES)]


def seg_rule(order):
    """Gauss points/weights on [0, 1], exact to ``order``."""
    n = max(1, (order + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadRule:
    """Physical-space quadrature rule; weights carry the measure."""
    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)

    @property
    def total(self):
        return float(self.weights.sum())


def triangle_rule(pts, order):
    """Rule on a physical triangle given its three vertices (3, 2); a stack
    of triangles (c, 3, 2) gives points (c, nq, 2) and weights (c, nq)."""
    lam, w = tri_rule(order)
    pts = np.asarray(pts, float)
    return QuadRule(lam @ pts, w * np.abs(signed_areas(pts))[..., None])


@dataclass(frozen=True)
class CutRules:
    """One rule per cell, flat: rule i is points and weights
    [offsets[i]:offsets[i + 1]]."""
    points: np.ndarray   # (N, 2)
    weights: np.ndarray  # (N,)
    offsets: np.ndarray  # (C + 1,)

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, i):
        s = slice(self.offsets[i], self.offsets[i + 1])
        return QuadRule(self.points[s], self.weights[s])

    def groups(self):
        """Per point count n > 0, the rules with n points and their point
        indices (g, n): a stacked kernel over a group treats each row alone."""
        nq = np.diff(self.offsets)
        rows = [np.flatnonzero(nq == n) for n in np.unique(nq[nq > 0])]
        return [(r, self.offsets[r][:, None] + np.arange(nq[r[0]])) for r in rows]

    def totals(self):
        """Weight sum of each rule, as np.sum of that rule alone."""
        out = np.zeros(len(self))
        for rows, idx in self.groups():
            out[rows] = self.weights[idx].sum(axis=1)
        return out


def fan_triangles(verts, count):
    """Fan triangles (v0, vk, vk+1), k = 1 .. count[i] - 2, of padded convex
    polygons, polygon by polygon: (T, 3, 2) and the polygon of each."""
    poly, k = _ranges(np.maximum(count - 2, 0))
    return verts[poly[:, None], np.stack([0 * k, k + 1, k + 2], axis=1)], poly


# -- convex polygon primitives ---------------------------------------------

# Pairs clipped per kernel call: bounds the padded temporaries to a few MB.
CLIP_CHUNK = 4096


def _areas(pts, cnt):
    """Areas of padded polygons: the first cnt[i] vertices of pts[i]."""
    area = np.zeros(len(cnt))
    for n in np.unique(cnt[cnt >= 3]):
        rows = np.flatnonzero(cnt == n)
        poly = pts[rows, :n]
        x, y = poly[..., 0], poly[..., 1]
        # a stacked vector-vector matmul takes np.dot's dot product row by
        # row (same strides), so an area does not depend on its batch
        area[rows] = 0.5 * (x[:, None] @ np.roll(y, -1, axis=1)[..., None]
                            - y[:, None] @ np.roll(x, -1, axis=1)[..., None])[:, 0, 0]
    return area


def _compact(pts, keep):
    """Move the kept vertices of each row to its front, in order."""
    cnt = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :cnt.max(initial=0)]
    return np.take_along_axis(pts, order[..., None], axis=1), cnt


def _clip_halfplane(pts, cnt, p, q):
    """One Sutherland-Hodgman step per row: keep the left of the line p->q.

    Rows with fewer than 3 vertices are emptied.  Each vertex emits the
    crossing point from its predecessor, if any, then itself if inside.
    """
    cnt = np.where(cnt < 3, 0, cnt)
    slot = np.arange(pts.shape[1])
    ex, ey = (q[:, 0] - p[:, 0])[:, None], (q[:, 1] - p[:, 1])[:, None]
    side = ex * (pts[:, :, 1] - p[:, None, 1]) - ey * (pts[:, :, 0] - p[:, None, 0])
    prev = np.where(slot == 0, np.maximum(cnt - 1, 0)[:, None], slot - 1)
    a, a_side = np.take_along_axis(pts, prev[..., None], 1), np.take_along_axis(side, prev, 1)
    keep = (slot < cnt[:, None]) & (side >= 0.0)
    cross = (slot < cnt[:, None]) & ((side >= 0.0) != (a_side >= 0.0))
    t = np.where(cross, a_side / np.where(cross, a_side - side, 1.0), 0.0)[..., None]
    shape = (len(pts), 2 * len(slot))
    both = np.stack([a + t * (pts - a), pts], axis=2).reshape(*shape, 2)
    return _compact(both, np.stack([cross, keep], axis=2).reshape(shape))


def _dedupe(pts, cnt, eps):
    """Per row, drop vertices within eps of the last kept one, then trailing
    vertices within eps of the first."""
    rows, last = np.arange(len(pts)), np.zeros(len(pts), dtype=np.int64)
    keep = np.arange(pts.shape[1]) < cnt[:, None]
    for i in range(1, pts.shape[1]):
        d = pts[:, i] - pts[rows, last]
        keep[:, i] &= np.hypot(d[:, 0], d[:, 1]) > eps
        last = np.where(keep[:, i], i, last)
    pts, cnt = _compact(pts, keep)
    for _ in range(pts.shape[1]):
        d = pts[:, 0] - pts[rows, np.maximum(cnt - 1, 0)]
        cnt = cnt - ((cnt > 1) & (np.hypot(d[:, 0], d[:, 1]) <= eps))
    return pts, cnt


def intersect_convex(poly_a, poly_b, eps=None):
    """Intersection of convex CCW polygons (Sutherland-Hodgman).

    Single polygons (na, 2) and (nb, 2) give a CCW polygon array, possibly
    empty.  Stacked ones (P, na, 2) and (P, nb, 2) are clipped pairwise into
    padded vertices (P, m, 2) and vertex counts (P,), 0 when empty.
    Vertices closer than ``eps`` (per pair or scalar; default: EPS_GEOM
    times the larger polygon diameter) are snapped together and slivers
    below the matching area tolerance are dropped.
    """
    poly_a = np.asarray(poly_a, float)
    poly_b = np.asarray(poly_b, float)
    single = poly_a.ndim == 2
    if single:
        poly_a, poly_b = poly_a[None], poly_b[None]
    if eps is None:
        scale = np.maximum(np.ptp(poly_a, axis=1).max(axis=1),
                           np.ptp(poly_b, axis=1).max(axis=1))
        eps = EPS_GEOM * np.maximum(scale, 1e-300)
    pts, nb = poly_a, poly_b.shape[1]
    cnt = np.full(len(pts), pts.shape[1] if nb >= 3 else 0)
    for k in range(nb):
        pts, cnt = _clip_halfplane(pts, cnt, poly_b[:, k], poly_b[:, (k + 1) % nb])
    pts, cnt = _dedupe(pts, cnt, eps)
    cnt[(cnt < 3) | (_areas(pts, cnt) <= eps * eps)] = 0
    return pts[0, :cnt[0]] if single else (pts[:, :cnt.max(initial=0)], cnt)


# -- topology ----------------------------------------------------------------


@dataclass
class InterfaceSegments:
    """Sub-segments of the fluid-fluid interface with two-sided parents, one
    per row: end points (S, 2), background and front parent cells, the unit
    outward normal of the front domain (it points from the overlapping
    fluid region into the background fluid) and a 1D rule, points
    (S, nq, 2) and weights (S, nq) summing to the segment length.
    ``dropped_corner_length`` sums the corner slivers left out."""
    start: np.ndarray
    end: np.ndarray
    bg_cell: np.ndarray
    front_cell: np.ndarray
    normal: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    dropped_corner_length: float = 0.0

    def __len__(self):
        return len(self.bg_cell)

    @property
    def length(self):
        d = self.end - self.start
        return np.hypot(d[:, 0], d[:, 1])


@dataclass(frozen=True)
class CellPairs:
    """Intersections of background with front cells, one per row: the two
    cells, the area and, where kept, the convex CCW polygon as the first
    count[i] of the padded vertices verts (P, m, 2).  The padded width m
    is not part of the format."""
    bg_cell: np.ndarray
    front_cell: np.ndarray
    area: np.ndarray
    verts: np.ndarray = None
    count: np.ndarray = None

    def __len__(self):
        return len(self.area)

    def take(self, rows):
        return CellPairs(*(None if a is None else a[rows] for a in vars(self).values()))


@dataclass
class OverlapTopology:
    """Classification of a background mesh against a moving composite mesh.

    ``classify`` keeps the covered polygons of the reduced cells, by
    background cell, then front cell, and counts the cell pairs it handed
    to the clip kernel in ``clipped_pairs``; cut rules (in
    ``class_partial`` order) and overlap pairs (by front cell, then
    background cell) are built from the polygons.
    """
    background: Mesh
    front: Mesh
    class_not: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    class_fully: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    class_partial: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    reduced_cells: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    polygons: CellPairs = None
    cut_rules: CutRules = None
    interface_segments: InterfaceSegments = None
    overlap_pairs: CellPairs = None
    clipped_pairs: int = 0

    @property
    def reduced_mask(self):
        m = np.zeros(self.background.nc, dtype=bool)
        m[self.reduced_cells] = True
        return m

    def interface_length(self):
        return float(self.interface_segments.length.sum())

    @property
    def dropped_corner_length(self):
        return self.interface_segments.dropped_corner_length

    def overlap_area(self):
        return float(self.overlap_pairs.area.sum())


def _covered_pairs(background, front, cells):
    """Nonempty intersections of the given background cells (ascending)
    with front cells as CellPairs, sorted by background cell, then front
    cell, and the number of pairs clipped.

    One query of the front's grid with the cell boxes finds the pairs whose
    bounding boxes meet; the kernel clips them in chunks, each with its
    background cell's eps.
    """
    bp, fp = background.cell_points, front.cell_points
    lo, hi = (c[cells] for c in background.cell_boxes)
    flo, fhi = front.cell_boxes
    cs, ks = front.cell_grid.query_boxes(lo, hi)
    meet = ((flo[ks] <= hi[cs]) & (fhi[ks] >= lo[cs])).all(axis=1)
    cs, ks = np.asarray(cells)[cs[meet]], ks[meet]
    eps = EPS_GEOM * background.cell_diameters[cs]
    chunks = [intersect_convex(bp[cs[s:s + CLIP_CHUNK]], fp[ks[s:s + CLIP_CHUNK]],
                               eps[s:s + CLIP_CHUNK])
              for s in range(0, max(len(cs), 1), CLIP_CHUNK)]   # one chunk if empty
    m = max(p.shape[1] for p, _ in chunks)
    verts = np.concatenate([np.pad(p[c > 0], ((0, 0), (0, m - p.shape[1]), (0, 0)))
                            for p, c in chunks])
    hit = np.concatenate([c for _, c in chunks]) > 0
    cnt = np.concatenate([c[c > 0] for _, c in chunks])
    return CellPairs(cs[hit], ks[hit], _areas(verts, cnt), verts, cnt), len(cs)


def _band(background, front):
    """Ascending background cells whose bounding box meets the box of a
    front boundary edge (an edge of exactly one front cell)."""
    e = front.edges
    ends = front.vertices[e.verts[e.count == 1]]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    ks, cs = background.cell_grid.query_boxes(lo, hi)
    blo, bhi = background.cell_boxes
    return np.unique(cs[((blo[cs] <= hi[ks]) & (bhi[cs] >= lo[ks])).all(axis=1)])


def classify(background, front):
    """Partition background cells into not / fully / partially covered sets.

    Only the band (see ``_band``) is clipped: a band cell's covered
    fraction is the sum of its pair areas.  Every other cell lies wholly
    inside or wholly outside the front domain, about its inradius or more
    from the front boundary, so it is fully covered if a front cell holds
    its centroid and not covered otherwise; only the cells in the grid
    buckets the front's box meets are located.  The covered polygons of
    the reduced (not and partially covered) cells are kept on the
    topology.  A partially covered cell intersecting the solid subdomain
    means the background mesh cannot resolve the fluid-fluid interface
    and raises CoarseBackgroundError.
    """
    topo = OverlapTopology(background, front)
    nc, areas = background.nc, background.cell_areas
    band = _band(background, front)
    pairs, topo.clipped_pairs = _covered_pairs(background, front, band)
    cells, pair_area = pairs.bg_cell, pairs.area
    rel_tol = 1e-9
    frac = np.bincount(cells, pair_area, nc) / areas
    cls = np.where(frac <= rel_tol, 0, np.where(frac >= 1.0 - rel_tol, 1, 2))
    _, near = background.cell_grid.query_boxes(*front.bbox)
    rest = np.setdiff1d(near, band, assume_unique=True)
    cls[rest] = locate_points(front, background.cell_points[rest].mean(axis=1)) >= 0
    solid = front.region_tags[pairs.front_cell] == SOLID
    solid_area = np.bincount(cells[solid], pair_area[solid], nc)
    bad = np.flatnonzero((cls == 2) & (solid_area > rel_tol * areas))
    if len(bad):
        raise CoarseBackgroundError(
            f"background mesh too coarse near interface: "
            f"partially covered cell {bad[0]} intersects the solid subdomain")
    topo.polygons = pairs.take(cls[cells] != 1)
    topo.class_not = np.flatnonzero(cls == 0)
    topo.class_fully = np.flatnonzero(cls == 1)
    topo.class_partial = np.flatnonzero(cls == 2)
    topo.reduced_cells = np.sort(np.concatenate([topo.class_not, topo.class_partial]))
    return topo


def subtractive_rules(background, cells, polygons, order):
    """Rules over the uncovered parts of background cells (ascending ids).

    Cell i's rule is its full-cell rule followed by the negatively weighted
    fan rules of its covered polygons, in the order of ``polygons``; all
    triangles go through one ``triangle_rule`` call.  A rule whose weights
    sum to at most EPS_GEOM |T| is left empty.
    """
    cells = np.asarray(cells, dtype=np.int64)
    mine = np.isin(polygons.bg_cell, cells)
    tris, poly = fan_triangles(polygons.verts[mine], polygons.count[mine])
    rule = triangle_rule(np.concatenate([background.cell_points[cells], tris]), order)
    owner = np.concatenate([np.arange(len(cells)),
                            np.searchsorted(cells, polygons.bg_cell[mine])[poly]])
    rule.weights[len(cells):] *= -1.0
    by_cell = np.argsort(owner, kind="stable")
    nq = np.bincount(owner, minlength=len(cells)) * rule.weights.shape[1]
    rules = CutRules(rule.points[by_cell].reshape(-1, 2), rule.weights[by_cell].ravel(),
                     np.append(0, np.cumsum(nq)))
    empty = rules.totals() <= EPS_GEOM * background.cell_areas[cells]
    keep = np.repeat(~empty, nq)
    nq[empty] = 0
    return CutRules(rules.points[keep], rules.weights[keep], np.append(0, np.cumsum(nq)))


def cut_cell_quadrature(cell, background, front, order=QUAD_ORDER):
    """Quadrature over the uncovered part of one background cell.

    Subtractive composition: the full-cell rule plus negatively weighted
    rules on every intersection with a front cell.  Weights sum to
    |T| - |T intersect front domain| and the rule is exact for polynomials
    up to ``order`` on the cut region.
    """
    polygons, _ = _covered_pairs(background, front, [cell])
    return subtractive_rules(background, [cell], polygons, order)[0]


def _segment_cell_intervals(a, d, tri):
    """Parameter intervals [t0, t1] of segments a + t*d (stacked (m, 2))
    inside CCW triangles (m, 3, 2); empty where t0 >= t1."""
    e = np.roll(tri, -1, axis=1) - tri
    elen = np.hypot(e[..., 0], e[..., 1])
    dlen = np.hypot(d[:, 0], d[:, 1])[:, None]
    denom = e[..., 0] * d[:, None, 1] - e[..., 1] * d[:, None, 0]
    ap = a[:, None] - tri
    num = e[..., 0] * ap[..., 1] - e[..., 1] * ap[..., 0]
    parallel = np.abs(denom) <= 1e-14 * np.maximum(elen * dlen, 1e-300)
    # a segment parallel to an edge is kept iff not strictly outside it
    outside = (parallel & (num < -1e-12 * np.maximum(
        elen * (np.hypot(ap[..., 0], ap[..., 1]) + dlen), 1e-300))).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tc = -num / denom
    enter = ~parallel & (denom > 0.0)
    # + 0.0 reads an entry at -0.0 as 0.0, the start value a running max keeps
    t0 = np.where(enter, tc, 0.0).max(axis=1, initial=0.0) + 0.0
    t1 = np.where(~parallel & ~enter, tc, 1.0).min(axis=1, initial=1.0)
    t0[outside] = 1.0
    return t0, t1


def _pieces(a, b, mesh, min_len):
    """Piece table of the segments [a[i], b[i]] (stacked (E, 2)) cut at the
    mesh cells they run through for more than min_len in parameter.

    The cuts of segment i are 0, 1 and its interval ends, sorted; pieces
    (segment, t0, t1) join consecutive cuts more than 1e-12 apart, by
    segment, then t.  ``cell`` is the lowest cell whose interval holds the
    piece midpoint, -1 if none.  One grid query and one interval kernel
    serve all segments.
    """
    seg, cand = mesh.cell_grid.query_boxes(np.minimum(a, b), np.maximum(a, b))
    t0, t1 = _segment_cell_intervals(a[seg], b[seg] - a[seg], mesh.cell_points[cand])
    keep = t1 - t0 > min_len
    seg, cand, t0, t1 = seg[keep], cand[keep], t0[keep], t1[keep]
    n = len(a)
    cut_seg = np.concatenate([np.arange(n), np.arange(n), seg, seg])
    cut_t = np.concatenate([np.zeros(n), np.ones(n), t0, t1])
    order = np.lexsort((cut_t, cut_seg))
    cut_seg, cut_t = cut_seg[order], cut_t[order]
    piece = np.flatnonzero((cut_seg[1:] == cut_seg[:-1]) & (cut_t[1:] - cut_t[:-1] > 1e-12))
    pseg, p0, p1 = cut_seg[piece], cut_t[piece], cut_t[piece + 1]
    # every piece against the intervals of its segment, ascending cell
    first = np.searchsorted(seg, pseg)
    row, off = _ranges(np.searchsorted(seg, pseg, "right") - first)
    iv, tm = first[row] + off, 0.5 * (p0 + p1)
    hit = (t0[iv] <= tm[row]) & (tm[row] <= t1[iv])
    rows, at = np.unique(row[hit], return_index=True)
    cell = np.full(len(piece), -1, dtype=np.int64)
    cell[rows] = cand[iv[hit][at]]
    return pseg, p0, p1, cell


def _merge(seg, t0, t1):
    """Join neighbouring pieces of a segment that meet within 1e-12."""
    if not len(seg):
        return seg, t0, t1
    cut = np.flatnonzero((seg[1:] != seg[:-1]) | (np.abs(t0[1:] - t1[:-1]) > 1e-12)) + 1
    start, end = np.append(0, cut), np.append(cut, len(seg)) - 1
    return seg[start], t0[start], t1[end]


def _split_segments(a, b, normal, background):
    """Pieces (segment, t0, t1) of the segments [a[i], b[i]] (stacked (E, 2))
    cut at background cell edges, and the (piece, cell) pairs of the
    background cells containing the point 1e-7 h off each piece midpoint
    along ``normal[i]``, sorted; pieces outside the background mesh or on
    its outer boundary have none.
    """
    seg, t0, t1, cell = _pieces(a, b, background, EPS_GEOM)
    probed = np.flatnonzero(cell >= 0)
    s, tm = seg[probed], 0.5 * (t0[probed] + t1[probed])
    eps_n = 1e-7 * background.cell_diameters[cell[probed]]
    probes = a[s] + tm[:, None] * (b - a)[s] + eps_n[:, None] * normal[s]
    k, side = containing_cells(background, probes, 1e-9)
    return seg, t0, t1, probed[k], side


def interface_quadrature(front, background, topo):
    """Split front boundary edges at background cell boundaries.

    Only pieces whose background-fluid side lies strictly inside the
    background mesh become coupling segments (the fluid-fluid interface is
    the part of the front boundary interior to the background domain);
    pieces on or outside the outer background boundary are dropped.  Each
    segment stores its background parent cell on the background-fluid
    side, the first one that belongs to the reduced mesh, plus the front
    parent, the outward normal of the front domain and a 1D Gauss rule.
    Edges of solid cells are never coupled.
    """
    xs, ws = seg_rule(QUAD_ORDER)
    cells, normals = front.boundary_normals(np.arange(len(front.boundary_edges)))
    edges = np.flatnonzero(front.region_tags[cells] != SOLID)
    cells, normals = cells[edges], normals[edges]
    a, b = (front.vertices[front.boundary_edges[edges, k]] for k in (0, 1))
    seg, t0, t1, piece, side = _split_segments(a, b, normals, background)
    sided, first = np.unique(piece, return_index=True)
    reduced = topo.reduced_mask[side]
    kept, at = np.unique(piece[reduced], return_index=True)
    d = b - a
    seg_len = (t1 - t0) * np.hypot(d[:, 0], d[:, 1])[seg]
    # corner slivers below the classification tolerance may end up facing
    # only cells counted as fully covered; their weight is negligible and
    # they are dropped
    orphan = ~np.isin(sided, kept)
    sliver = seg_len[sided] <= 1e-4 * background.cell_diameters[side[first]]
    if (orphan & ~sliver).any():
        p = sided[orphan & ~sliver][0]
        raise GeometryError("interface segment parent cell is fully covered "
                            f"(background cells {side[piece == p].tolist()})")
    seg, t0, t1 = seg[kept], t0[kept], t1[kept]
    p0 = a[seg] + t0[:, None] * d[seg]
    p1 = a[seg] + t1[:, None] * d[seg]
    return InterfaceSegments(p0, p1, side[reduced][at], cells[seg], normals[seg],
                             p0[:, None] + xs[:, None] * (p1 - p0)[:, None],
                             ws * seg_len[kept][:, None],
                             float(seg_len[sided[orphan]].sum()))


def overlap_region_pairs(front, topo):
    """Intersections of front fluid cells with reduced background cells.

    The covered polygons ``classify`` stored tile the overlap region (front
    fluid domain laid over the reduced background mesh) with no double
    counting; their cells and areas come ordered by front cell, then
    background cell.
    """
    p = topo.polygons
    rows = np.flatnonzero(front.region_tags[p.front_cell] == FLUID)
    rows = rows[np.lexsort((p.bg_cell[rows], p.front_cell[rows]))]
    return CellPairs(p.bg_cell[rows], p.front_cell[rows], p.area[rows])


def build_topology(background, front):
    """Classify, then build all cut rules, interface segments and pairs."""
    topo = classify(background, front)
    topo.cut_rules = subtractive_rules(background, topo.class_partial,
                                       topo.polygons, QUAD_ORDER)
    topo.interface_segments = interface_quadrature(front, background, topo)
    topo.overlap_pairs = overlap_region_pairs(front, topo)
    return topo


def exterior_pieces(a, b, n_out, background):
    """Merged pieces (segment, t0, t1) of the front boundary edges [a[i],
    b[i]] (stacked (E, 2)) that face the outside of the background mesh:
    the complement of the Nitsche-coupled pieces."""
    seg, t0, t1, piece, _ = _split_segments(a, b, n_out, background)
    out = ~np.isin(np.arange(len(seg)), piece)
    return _merge(seg[out], t0[out], t1[out])


def uncovered_pieces(a, b, front):
    """Merged pieces (segment, t0, t1) of the segments [a[i], b[i]] (stacked
    (E, 2)) not covered by the front mesh: boundary integrals on background
    edges are restricted to these physical parts."""
    seg, t0, t1, cell = _pieces(a, b, front, 1e-12)
    out = cell < 0
    return _merge(seg[out], t0[out], t1[out])
