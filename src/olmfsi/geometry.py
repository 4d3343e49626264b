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

from .mesh import Mesh, SOLID, barycentric


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
    """Rule on a physical triangle given its three vertices."""
    lam, w = tri_rule(order)
    pts = np.asarray(pts, float)
    area = 0.5 * abs((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                     - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0]))
    return QuadRule(lam @ pts, w * area)


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


def polygon_area(poly):
    poly = np.asarray(poly, float)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _dedupe(poly, eps):
    """Drop consecutive vertices closer than eps (including wrap-around)."""
    if len(poly) == 0:
        return poly
    keep = []
    for p in poly:
        if not keep or np.hypot(*(p - keep[-1])) > eps:
            keep.append(p)
    while len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= eps:
        keep.pop()
    return np.array(keep).reshape(-1, 2)


def intersect_convex(poly_a, poly_b, eps=None):
    """Intersection of two convex CCW polygons (Sutherland-Hodgman).

    Returns a CCW polygon array, possibly empty.  Vertices closer than
    ``eps`` (default: EPS_GEOM times the larger polygon diameter) are
    snapped together and slivers below the matching area tolerance are
    dropped.
    """
    poly_a = np.asarray(poly_a, float)
    poly_b = np.asarray(poly_b, float)
    if len(poly_a) < 3 or len(poly_b) < 3:
        return np.zeros((0, 2))
    if eps is None:
        scale = max(np.ptp(poly_a, axis=0).max(), np.ptp(poly_b, axis=0).max(), 1e-300)
        eps = EPS_GEOM * scale

    out = [p for p in poly_a]
    nb = len(poly_b)
    for k in range(nb):
        if len(out) < 3:
            return np.zeros((0, 2))
        p, q = poly_b[k], poly_b[(k + 1) % nb]
        ex, ey = q[0] - p[0], q[1] - p[1]
        nxt = []
        prev = out[-1]
        prev_side = ex * (prev[1] - p[1]) - ey * (prev[0] - p[0])
        for cur in out:
            cur_side = ex * (cur[1] - p[1]) - ey * (cur[0] - p[0])
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    t = prev_side / (prev_side - cur_side)
                    nxt.append(prev + t * (cur - prev))
                nxt.append(cur)
            elif prev_side >= 0.0:
                t = prev_side / (prev_side - cur_side)
                nxt.append(prev + t * (cur - prev))
            prev, prev_side = cur, cur_side
        out = nxt
    poly = _dedupe(np.array(out).reshape(-1, 2), eps)
    if len(poly) < 3 or polygon_area(poly) <= eps * eps:
        return np.zeros((0, 2))
    return poly


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


def _covered_polygons(background, front, cell, grid):
    """Front-cell intersections with one background cell, by front cell."""
    tri = background.cell_points[cell]
    eps = EPS_GEOM * background.cell_diameters[cell]
    fp = front.cell_points
    out = []
    for k in grid.query(tri.min(axis=0), tri.max(axis=0)):
        poly = intersect_convex(tri, fp[k], eps=eps)
        if len(poly):
            out.append((k, poly))
    return out


def classify(background, front, solid_region_tag=SOLID):
    """Partition background cells into not / fully / partially covered sets.

    The covered polygons of the reduced (not and partially covered) cells
    are kept on the topology.  A partially covered cell intersecting the
    solid subdomain means the background mesh cannot resolve the
    fluid-fluid interface and raises CoarseBackgroundError.
    """
    topo = OverlapTopology(background, front, solid_region_tag)
    grid = front.cell_grid
    nc = background.nc
    areas = background.cell_areas
    is_solid = front.region_tags == solid_region_tag

    cls = np.empty(nc, dtype=np.int64)  # 0 = not, 1 = fully, 2 = partial
    rel_tol = 1e-9
    for c in range(nc):
        polys = _covered_polygons(background, front, c, grid)
        covered = sum(polygon_area(p) for _, p in polys)
        frac = covered / areas[c]
        if frac <= rel_tol:
            cls[c] = 0
        elif frac >= 1.0 - rel_tol:
            cls[c] = 1
        else:
            cls[c] = 2
            solid_area = sum(polygon_area(p) for k, p in polys if is_solid[k])
            if solid_area > rel_tol * areas[c]:
                raise CoarseBackgroundError(
                    f"background mesh too coarse near interface: "
                    f"partially covered cell {c} intersects the solid subdomain")
        if polys and cls[c] != 1:
            topo.covered[c] = polys

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


def cut_cell_quadrature(cell, background, front, order=2, grid=None):
    """Quadrature over the uncovered part of one background cell.

    Subtractive composition: the full-cell rule plus negatively weighted
    rules on every intersection with a front cell.  Weights sum to
    |T| - |T intersect front domain| and the rule is exact for polynomials
    up to ``order`` on the cut region.  ``grid`` defaults to the front's
    cell grid.
    """
    polys = _covered_polygons(background, front, cell,
                              front.cell_grid if grid is None else grid)
    return _subtractive_rule(background, cell, polys, order)


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


def _bg_point_cells(background, grid, pt, tol=1e-9):
    """Background cells whose closure contains a point (with relative tol)."""
    return [c for c in grid.query(pt, pt)
            if (barycentric(background, c, pt[None]) >= -tol).all()]


def _split_segment(a, b, normal, background, grid):
    """Pieces (t0, t1, side) of segment [a, b] cut at background cell edges.

    ``side`` lists the background cells containing the point 1e-7 h off the
    piece midpoint along ``normal``; it is empty for pieces outside the
    background mesh or on its outer boundary.
    """
    d = b - a
    intervals = []
    for c in grid.query(np.minimum(a, b), np.maximum(a, b)):
        iv = _segment_cell_interval(a, d, background.cell_points[c])
        if iv is not None and iv[1] - iv[0] > EPS_GEOM:
            intervals.append((iv[0], iv[1], c))
    cuts = sorted({0.0, 1.0} | {t for t0, t1, _ in intervals for t in (t0, t1)})
    pieces = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if t1 - t0 <= 1e-12:
            continue
        tm = 0.5 * (t0 + t1)
        inside = [c for lo_t, hi_t, c in intervals if lo_t <= tm <= hi_t]
        side = []
        if inside:
            eps_n = 1e-7 * background.cell_diameters[inside[0]]
            side = _bg_point_cells(background, grid, a + tm * d + eps_n * normal)
        pieces.append((t0, t1, side))
    return pieces


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
    grid = background.cell_grid
    reduced = topo.reduced_mask
    xs, ws = seg_rule(order)
    segments = []
    for a, b, front_cell, normal in _front_boundary_edges(front, ff_markers,
                                                          skip_region):
        d = b - a
        length = np.hypot(*d)
        for t0, t1, side in _split_segment(a, b, normal, background, grid):
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


def exterior_intervals_on_segment(a, b, n_out, background, grid=None):
    """Sub-intervals of a front boundary edge that face the outside of the
    background mesh (the complement of the Nitsche-coupled pieces)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n_out = np.asarray(n_out, float)
    if grid is None:
        grid = background.cell_grid
    out = []
    for t0, t1, side in _split_segment(a, b, n_out, background, grid):
        if side:
            continue
        if out and abs(out[-1][1] - t0) <= 1e-12:
            out[-1] = (out[-1][0], t1)
        else:
            out.append((t0, t1))
    return out


def covered_intervals_on_segment(a, b, front, grid=None):
    """Merged parameter intervals of segment [a, b] covered by the front mesh.

    Used to restrict boundary integrals on background edges to their
    physical (uncovered) part.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if grid is None:
        grid = front.cell_grid
    d = b - a
    iv = []
    for k in grid.query(np.minimum(a, b), np.maximum(a, b)):
        r = _segment_cell_interval(a, d, front.cell_points[k])
        if r is not None and r[1] - r[0] > 1e-12:
            iv.append(r)
    if not iv:
        return []
    iv.sort()
    merged = [list(iv[0])]
    for t0, t1 in iv[1:]:
        if t0 <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    return [(t0, t1) for t0, t1 in merged]


def uncovered_intervals_on_segment(a, b, front, grid=None):
    """Complement of covered_intervals_on_segment within [0, 1]."""
    covered = covered_intervals_on_segment(a, b, front, grid)
    out = []
    t = 0.0
    for t0, t1 in covered:
        if t0 > t + 1e-12:
            out.append((t, t0))
        t = max(t, t1)
    if t < 1.0 - 1e-12:
        out.append((t, 1.0))
    return out
