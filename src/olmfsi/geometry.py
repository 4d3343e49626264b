"""Overlap geometry: background-mesh classification, cut-cell quadrature,
fluid-fluid interface segments and overlap-region pairs.

The moving composite mesh (the "front") is laid over a fixed background
mesh.  Background cells are classified as not / fully / partially covered
by the front domain; partially covered cells receive subtractive cut
quadrature rules (full-cell rule minus rules on all front-cell
intersections), so every geometric primitive is a convex-convex clip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, SOLID, containing_cells


class GeometryError(RuntimeError):
    """Inconsistent overlap geometry."""


class CoarseBackgroundError(GeometryError):
    """A partially covered background cell touches the solid subdomain."""


# Relative vertex-snapping / sliver-dropping tolerance, scaled by the local
# mesh size before use.
EPS_GEOM = 1e-12


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


EMPTY_RULE = QuadRule(np.zeros((0, 2)), np.zeros(0))


def triangle_rule(pts, order):
    """Rule on a physical triangle given its three vertices (3, 2); a stack
    of triangles (c, 3, 2) gives points (c, nq, 2) and weights (c, nq)."""
    lam, w = tri_rule(order)
    pts = np.asarray(pts, float)
    area = 0.5 * np.abs((pts[..., 1, 0] - pts[..., 0, 0]) * (pts[..., 2, 1] - pts[..., 0, 1])
                        - (pts[..., 1, 1] - pts[..., 0, 1]) * (pts[..., 2, 0] - pts[..., 0, 0]))
    return QuadRule(lam @ pts, w * area[..., None])


def polygon_rule(poly, order):
    """Rule on a convex CCW polygon via a fan triangulation."""
    poly = np.asarray(poly, float)
    if len(poly) < 3:
        return EMPTY_RULE
    pts, wts = [], []
    for k in range(1, len(poly) - 1):
        r = triangle_rule(poly[[0, k, k + 1]], order)
        pts.append(r.points)
        wts.append(r.weights)
    return QuadRule(np.vstack(pts), np.concatenate(wts))


# -- convex polygon primitives ---------------------------------------------

# Pairs clipped per kernel call: bounds the padded temporaries to a few MB.
CLIP_CHUNK = 4096


def polygon_area(poly):
    poly = np.asarray(poly, float)
    return float(_areas(poly[None], np.array([len(poly)]))[0])


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


@dataclass(frozen=True)
class InterfaceSegment:
    """One sub-segment of the fluid-fluid interface with two-sided parents.

    The normal is the unit outward normal of the front domain, i.e. it
    points from the overlapping fluid region into the background fluid.
    Quadrature weights sum to the segment length.
    """
    start: np.ndarray
    end: np.ndarray
    bg_cell: int
    front_cell: int
    normal: np.ndarray
    points: np.ndarray
    weights: np.ndarray

    @property
    def length(self):
        return float(np.hypot(*(self.end - self.start)))


@dataclass(frozen=True)
class OverlapPair:
    """Intersection of one front fluid cell with one reduced background cell."""
    front_cell: int
    bg_cell: int
    polygon: np.ndarray
    rule: QuadRule


@dataclass
class OverlapTopology:
    """Classification of a background mesh against a moving composite mesh.

    ``covered`` keeps the front-cell intersections of every reduced
    background cell that meets the front, computed once by ``classify``;
    cut rules, overlap pairs and the geometry dump are built from them.
    """
    background: Mesh
    front: Mesh
    solid_tag: int = SOLID
    class_not: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    class_fully: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    class_partial: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    reduced_cells: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    covered: dict = field(default_factory=dict)   # reduced cell -> [(front cell, polygon)]
    cut_rules: dict = field(default_factory=dict)          # partial cell -> QuadRule
    interface_segments: list = field(default_factory=list)
    overlap_pairs: list = field(default_factory=list)
    order: int = 2

    @property
    def reduced_mask(self):
        m = np.zeros(self.background.nc, dtype=bool)
        m[self.reduced_cells] = True
        return m

    def interface_length(self):
        return sum(s.length for s in self.interface_segments)

    def overlap_area(self):
        return sum(p.rule.total for p in self.overlap_pairs)

    def physical_rule(self, bg_cell, order=None):
        """Quadrature over the background-fluid part of one reduced cell."""
        if bg_cell in self.cut_rules and (order is None or order <= self.order):
            return self.cut_rules[bg_cell]
        if order is None:
            order = self.order
        if bg_cell in self.cut_rules:
            return _subtractive_rule(self.background, bg_cell,
                                     self.covered[bg_cell], order)
        return triangle_rule(self.background.cell_points[bg_cell], order)


def _covered_pairs(background, front, cells=None):
    """Nonempty intersections of background cells (all, or the given ones)
    with front cells, sorted by background cell, then front cell.

    One grid query with all front cell boxes finds the pairs whose bounding
    boxes meet; the kernel clips them in chunks, each with its background
    cell's eps.  Returns background cells, front cells, areas and polygons.
    """
    bp, fp = background.cell_points, front.cell_points
    lo, hi = fp.min(axis=1), fp.max(axis=1)
    ks, cs = background.cell_grid.query_boxes(lo, hi)
    meet = ((bp[cs].min(axis=1) <= hi[ks]) & (bp[cs].max(axis=1) >= lo[ks])).all(axis=1)
    if cells is not None:
        meet &= np.isin(cs, cells)
    order = np.lexsort((ks[meet], cs[meet]))
    cs, ks = cs[meet][order], ks[meet][order]
    eps = EPS_GEOM * background.cell_diameters[cs]
    chunks = []
    for s in range(0, max(len(cs), 1), CLIP_CHUNK):   # one chunk if empty
        c = slice(s, s + CLIP_CHUNK)
        pts, cnt = intersect_convex(bp[cs[c]], fp[ks[c]], eps[c])
        chunks.append((cnt, _areas(pts, cnt), pts[np.arange(pts.shape[1]) < cnt[:, None]]))
    cnt, area, verts = (np.concatenate(col) for col in zip(*chunks))
    hit = cnt > 0
    return cs[hit], ks[hit], area[hit], np.split(verts, np.cumsum(cnt[hit])[:-1])


def classify(background, front, solid_region_tag=SOLID):
    """Partition background cells into not / fully / partially covered sets.

    A cell's covered fraction is the sum of its pair areas.  The covered
    polygons of the reduced (not and partially covered) cells are kept on
    the topology, by ascending front cell.  A partially covered cell
    intersecting the solid subdomain means the background mesh cannot
    resolve the fluid-fluid interface and raises CoarseBackgroundError.
    """
    topo = OverlapTopology(background, front, solid_region_tag)
    nc, areas = background.nc, background.cell_areas
    cells, ks, pair_area, polys = _covered_pairs(background, front)
    rel_tol = 1e-9
    frac = np.bincount(cells, pair_area, nc) / areas
    cls = np.where(frac <= rel_tol, 0, np.where(frac >= 1.0 - rel_tol, 1, 2))
    solid = front.region_tags[ks] == solid_region_tag
    solid_area = np.bincount(cells[solid], pair_area[solid], nc)
    bad = np.flatnonzero((cls == 2) & (solid_area > rel_tol * areas))
    if len(bad):
        raise CoarseBackgroundError(
            f"background mesh too coarse near interface: "
            f"partially covered cell {bad[0]} intersects the solid subdomain")
    for i in np.flatnonzero(cls[cells] != 1).tolist():
        topo.covered.setdefault(int(cells[i]), []).append((int(ks[i]), polys[i]))
    topo.class_not = np.flatnonzero(cls == 0)
    topo.class_fully = np.flatnonzero(cls == 1)
    topo.class_partial = np.flatnonzero(cls == 2)
    topo.reduced_cells = np.sort(np.concatenate([topo.class_not, topo.class_partial]))
    return topo


def _subtractive_rule(background, cell, polys, order):
    """Full-cell rule plus negatively weighted rules on the covered polygons."""
    base = triangle_rule(background.cell_points[cell], order)
    if not polys:
        return base
    pts = [base.points]
    wts = [base.weights]
    for _, poly in polys:
        r = polygon_rule(poly, order)
        pts.append(r.points)
        wts.append(-r.weights)
    rule = QuadRule(np.vstack(pts), np.concatenate(wts))
    if rule.total <= EPS_GEOM * background.cell_areas[cell]:
        return EMPTY_RULE
    return rule


def cut_cell_quadrature(cell, background, front, order=2):
    """Quadrature over the uncovered part of one background cell.

    Subtractive composition: the full-cell rule plus negatively weighted
    rules on every intersection with a front cell.  Weights sum to
    |T| - |T intersect front domain| and the rule is exact for polynomials
    up to ``order`` on the cut region.
    """
    _, ks, _, polys = _covered_pairs(background, front, [cell])
    return _subtractive_rule(background, cell, list(zip(ks.tolist(), polys)), order)


def _segment_cell_interval(a, d, tri):
    """Parameter interval [t0, t1] of segment a + t*d inside a CCW triangle."""
    t0, t1 = 0.0, 1.0
    dlen = np.hypot(*d)
    for k in range(3):
        p, q = tri[k], tri[(k + 1) % 3]
        ex, ey = q[0] - p[0], q[1] - p[1]
        elen = np.hypot(ex, ey)
        denom = ex * d[1] - ey * d[0]
        num = ex * (a[1] - p[1]) - ey * (a[0] - p[0])
        if abs(denom) <= 1e-14 * max(elen * dlen, 1e-300):
            # segment parallel to this edge: keep iff not strictly outside
            if num < -1e-12 * max(elen * (np.hypot(*(a - p)) + dlen), 1e-300):
                return None
            continue
        tc = -num / denom
        if denom > 0.0:
            t0 = max(t0, tc)
        else:
            t1 = min(t1, tc)
        if t0 >= t1:
            return None
    return (t0, t1)


def _front_boundary_edges(front, ff_markers, skip_region=None):
    """(edge vertex pair, adjacent cell, outward unit normal) per marked edge.

    Edges adjacent to ``skip_region`` cells (the solid) never participate
    in the fluid-fluid coupling.
    """
    out = []
    for e, (i, j) in enumerate(front.boundary_edges):
        if ff_markers is not None and int(front.boundary_markers[e]) not in ff_markers:
            continue
        cell, n = front.boundary_normal(e)
        if skip_region is not None and front.region_tags[cell] == skip_region:
            continue
        out.append((front.vertices[i], front.vertices[j], int(cell), n))
    return out


def _cell_intervals(a, b, mesh, min_len):
    """Per segment [a[i], b[i]], the (t0, t1, cell) of the mesh cells it
    runs through for more than min_len in parameter, by ascending cell; one
    grid query for all segments."""
    seg, cand = mesh.cell_grid.query_boxes(np.minimum(a, b), np.maximum(a, b))
    out = [[] for _ in range(len(a))]
    for i, c in zip(seg.tolist(), cand.tolist()):
        iv = _segment_cell_interval(a[i], b[i] - a[i], mesh.cell_points[c])
        if iv is not None and iv[1] - iv[0] > min_len:
            out[i].append((iv[0], iv[1], c))
    return out


def _split_segments(a, b, normal, background):
    """Pieces (t0, t1, side) of each segment [a[i], b[i]] (stacked (E, 2))
    cut at background cell edges.

    ``side`` lists the background cells containing the point 1e-7 h off the
    piece midpoint along ``normal[i]``; it is empty for pieces outside the
    background mesh or on its outer boundary.
    """
    pieces, probes = [], []
    for i, intervals in enumerate(_cell_intervals(a, b, background, EPS_GEOM)):
        d = b[i] - a[i]
        cuts = sorted({0.0, 1.0} | {t for t0, t1, _ in intervals for t in (t0, t1)})
        seg_pieces = []
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            if t1 - t0 <= 1e-12:
                continue
            tm = 0.5 * (t0 + t1)
            inside = [c for lo_t, hi_t, c in intervals if lo_t <= tm <= hi_t]
            if inside:
                eps_n = 1e-7 * background.cell_diameters[inside[0]]
                probes.append(a[i] + tm * d + eps_n * normal[i])
            seg_pieces.append((t0, t1, len(probes) - 1 if inside else None))
        pieces.append(seg_pieces)
    side = containing_cells(background, np.array(probes).reshape(-1, 2), 1e-9)
    return [[(t0, t1, [] if k is None else side[k]) for t0, t1, k in seg_pieces]
            for seg_pieces in pieces]


def interface_quadrature(front, background, topo, order=2, ff_markers=None,
                         skip_region=None):
    """Split front boundary edges at background cell boundaries.

    Only pieces whose background-fluid side lies strictly inside the
    background mesh become coupling segments (the fluid-fluid interface is
    the part of the front boundary interior to the background domain);
    pieces on or outside the outer background boundary are dropped.  Each
    segment stores its background parent cell on the background-fluid
    side, which must belong to the reduced mesh, plus the front parent,
    the outward normal of the front domain and a 1D Gauss rule.
    """
    reduced = topo.reduced_mask
    xs, ws = seg_rule(order)
    segments = []
    edges = _front_boundary_edges(front, ff_markers, skip_region)
    if not edges:
        return segments
    starts, ends, _, normals = (np.array(col) for col in zip(*edges))
    for (a, b, front_cell, normal), pieces in zip(
            edges, _split_segments(starts, ends, normals, background)):
        d = b - a
        length = np.hypot(*d)
        for t0, t1, side in pieces:
            if not side:
                continue  # outside the background mesh or on its boundary
            parents = [c for c in side if reduced[c]]
            if not parents:
                # corner slivers below the classification tolerance may end
                # up facing a cell counted as fully covered; their weight is
                # negligible and they are dropped
                if (t1 - t0) * length <= 1e-4 * background.cell_diameters[side[0]]:
                    continue
                raise GeometryError(
                    "interface segment parent cell is fully covered "
                    f"(background cells {side})")
            parent = parents[0]
            p0 = a + t0 * d
            p1 = a + t1 * d
            seg_len = (t1 - t0) * length
            pts = p0[None, :] + xs[:, None] * (p1 - p0)[None, :]
            segments.append(InterfaceSegment(p0, p1, parent, front_cell,
                                             normal.copy(), pts, ws * seg_len))
    return segments


def overlap_region_pairs(front, topo, order=2, fluid_tag=None):
    """Intersections of front fluid cells with reduced background cells.

    The union of the returned polygons tiles the overlap region (front
    fluid domain laid over the reduced background mesh) with no double
    counting.  Pairs come from the covered polygons ``classify`` stored,
    ordered by front cell, then background cell.
    """
    fluid = (np.ones(front.nc, dtype=bool) if fluid_tag is None
             else front.region_tags == fluid_tag)
    pairs = [OverlapPair(k, c, poly, polygon_rule(poly, order))
             for c, polys in topo.covered.items() for k, poly in polys if fluid[k]]
    return sorted(pairs, key=lambda p: (p.front_cell, p.bg_cell))


def build_topology(background, front, order=2, ff_markers=None,
                   solid_tag=SOLID, fluid_tag=None):
    """Classify, then build all cut rules, interface segments and pairs."""
    topo = classify(background, front, solid_tag)
    topo.order = order
    for c in topo.class_partial:
        c = int(c)
        topo.cut_rules[c] = _subtractive_rule(background, c, topo.covered[c], order)
    skip = solid_tag if (front.region_tags == solid_tag).any() else None
    topo.interface_segments = interface_quadrature(front, background, topo,
                                                   order, ff_markers,
                                                   skip_region=skip)
    topo.overlap_pairs = overlap_region_pairs(front, topo, order,
                                              fluid_tag=fluid_tag)
    return topo


def exterior_intervals_on_segment(a, b, n_out, background):
    """Sub-intervals of a front boundary edge that face the outside of the
    background mesh (the complement of the Nitsche-coupled pieces).  Stacked
    edges (E, 2) give one list per edge."""
    a, b, n_out = (np.asarray(v, float) for v in (a, b, n_out))
    out = []
    for pieces in _split_segments(np.atleast_2d(a), np.atleast_2d(b),
                                  np.atleast_2d(n_out), background):
        merged = []
        for t0, t1, side in pieces:
            if side:
                continue
            if merged and abs(merged[-1][1] - t0) <= 1e-12:
                merged[-1] = (merged[-1][0], t1)
            else:
                merged.append((t0, t1))
        out.append(merged)
    return out if a.ndim == 2 else out[0]


def covered_intervals_on_segment(a, b, front):
    """Merged parameter intervals of segment [a, b] covered by the front mesh.

    Used to restrict boundary integrals on background edges to their
    physical (uncovered) part.  Stacked segments (E, 2) give one list per
    segment.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    out = []
    for ivs in _cell_intervals(np.atleast_2d(a), np.atleast_2d(b), front, 1e-12):
        merged = []
        for t0, t1, _ in sorted(ivs):
            if merged and t0 <= merged[-1][1] + 1e-12:
                merged[-1][1] = max(merged[-1][1], t1)
            else:
                merged.append([t0, t1])
        out.append([(t0, t1) for t0, t1 in merged])
    return out if a.ndim == 2 else out[0]


def uncovered_intervals_on_segment(a, b, front):
    """Complement of covered_intervals_on_segment within [0, 1]."""
    out = []
    for covered in covered_intervals_on_segment(np.atleast_2d(a), np.atleast_2d(b), front):
        pieces, t = [], 0.0
        for t0, t1 in covered:
            if t0 > t + 1e-12:
                pieces.append((t, t0))
            t = max(t, t1)
        if t < 1.0 - 1e-12:
            pieces.append((t, 1.0))
        out.append(pieces)
    return out if np.ndim(a) == 2 else out[0]
