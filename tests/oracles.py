"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the production code paths: membership
is tested per triangle with cross products, intersection areas come from a
scanline (trapezoid) decomposition, interface splitting from brute-force
segment-segment intersection, and the single-mesh flow assembler is a
plain dense textbook implementation.  The ``*_loop`` functions are the
per-item forms of batched package kernels: they share the package's
formulas (the solid loop calls its constitutive laws on single 2x2
matrices, the Stokes loops take one cell, segment, pair or boundary piece
at a time) but none of its batching.  The ``*_sympy`` builders derive the
manufactured solutions symbolically (sympy.diff, then lambdify), the
reference for the package's hand-written closed forms.
"""

import numpy as np
import sympy as sp

from olmfsi.coupling import TractionMappingError
from olmfsi.geometry import (EPS_GEOM, QUAD_ORDER as FLUID_ORDER, GeometryError,
                             InterfaceSegments, QuadRule, exterior_pieces, seg_rule,
                             tri_rule, triangle_rule, uncovered_pieces)
from olmfsi.linalg import SparseSystem
from olmfsi.mesh import BOTTOM, LEFT, RIGHT, SOLID, TOP, Mesh, barycentric, eval_field
from olmfsi.solid import (QUAD_ORDER as SOLID_ORDER, EDGE_ORDER, STVK, InvertedElementError,
                          Material, first_piola, piola_tangent)
from olmfsi.stokes import ALPHA, BG, FRONT
from olmfsi.verification import ManufacturedFsi2d, ManufacturedStokes2d

_I2 = np.eye(2)


def points_in_mesh(points, mesh, tol=1e-12):
    """Boolean membership of points in the union of mesh cells (vectorized)."""
    points = np.asarray(points, float)
    inside = np.zeros(len(points), dtype=bool)
    for tri in mesh.cell_points:
        todo = ~inside
        if not todo.any():
            break
        p = points[todo]
        ok = np.ones(len(p), dtype=bool)
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            ok &= (b[0] - a[0]) * (p[:, 1] - a[1]) \
                - (b[1] - a[1]) * (p[:, 0] - a[0]) >= -tol
        idx = np.flatnonzero(todo)
        inside[idx[ok]] = True
    return inside


def sample_cell_fraction(mesh_cell_pts, front, n=24):
    """Fraction of a triangle covered by the front mesh, by dense sampling
    on a barycentric lattice."""
    pts = []
    for i in range(n):
        for j in range(n - i):
            l1 = (i + 1 / 3) / n
            l2 = (j + 1 / 3) / n
            l0 = 1.0 - l1 - l2
            pts.append(l0 * mesh_cell_pts[0] + l1 * mesh_cell_pts[1]
                       + l2 * mesh_cell_pts[2])
    pts = np.array(pts)
    return points_in_mesh(pts, front).mean()


def _hline_interval(poly, y):
    """x-interval of a convex polygon at height y (None if empty)."""
    xs = []
    n = len(poly)
    for k in range(n):
        a, b = poly[k], poly[(k + 1) % n]
        ya, yb = a[1], b[1]
        if ya == yb:
            if ya == y:
                xs.extend([a[0], b[0]])
            continue
        t = (y - ya) / (yb - ya)
        if -1e-14 <= t <= 1.0 + 1e-14:
            xs.append(a[0] + t * (b[0] - a[0]))
    if not xs:
        return None
    return min(xs), max(xs)


def _seg_intersection_ys(pa, pb, qa, qb):
    """y-coordinate of a proper segment-segment intersection, if any."""
    d1 = pb - pa
    d2 = qb - qa
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(den) < 1e-15:
        return None
    t = ((qa[0] - pa[0]) * d2[1] - (qa[1] - pa[1]) * d2[0]) / den
    s = ((qa[0] - pa[0]) * d1[1] - (qa[1] - pa[1]) * d1[0]) / den
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= s <= 1 + 1e-12:
        return pa[1] + t * d1[1]
    return None


def scanline_intersection_area(poly_a, poly_b):
    """Exact area of the intersection of two convex polygons via horizontal
    strip decomposition (independent of any clipping algorithm)."""
    poly_a = np.asarray(poly_a, float)
    poly_b = np.asarray(poly_b, float)
    ys = set(poly_a[:, 1].tolist()) | set(poly_b[:, 1].tolist())
    na, nb = len(poly_a), len(poly_b)
    for i in range(na):
        for j in range(nb):
            y = _seg_intersection_ys(poly_a[i], poly_a[(i + 1) % na],
                                     poly_b[j], poly_b[(j + 1) % nb])
            if y is not None:
                ys.add(float(y))
    lo = max(poly_a[:, 1].min(), poly_b[:, 1].min())
    hi = min(poly_a[:, 1].max(), poly_b[:, 1].max())
    if hi <= lo:
        return 0.0
    cuts = sorted(y for y in ys if lo - 1e-14 <= y <= hi + 1e-14)
    total = 0.0
    gauss = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    for y0, y1 in zip(cuts[:-1], cuts[1:]):
        dy = y1 - y0
        if dy <= 1e-15:
            continue
        acc = 0.0
        for g in gauss:
            y = y0 + g * dy
            ia = _hline_interval(poly_a, y)
            ib = _hline_interval(poly_b, y)
            if ia is None or ib is None:
                continue
            acc += 0.5 * max(0.0, min(ia[1], ib[1]) - max(ia[0], ib[0]))
        total += acc * dy
    return total


def scanline_mesh_overlap_area(tri, front):
    """Area of tri intersected with the union of front cells (cells are
    disjoint, so intersection areas just add)."""
    return sum(scanline_intersection_area(tri, k) for k in front.cell_points)


def mc_mesh_overlap_area(tri, front, n=200_000, seed=0):
    """Monte-Carlo area of tri intersected with the front mesh union."""
    rng = np.random.default_rng(seed)
    tri = np.asarray(tri, float)
    r1 = np.sqrt(rng.uniform(size=n))
    r2 = rng.uniform(size=n)
    pts = (1 - r1)[:, None] * tri[0] + (r1 * (1 - r2))[:, None] * tri[1] \
        + (r1 * r2)[:, None] * tri[2]
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    return area * points_in_mesh(pts, front).mean()


def split_edges_brute_force(front, background):
    """Interface pieces of every front boundary edge, obtained by
    intersecting against every background edge (no clipping, no grids).

    Returns a list of (midpoint, length) for pieces lying inside the
    background mesh.
    """
    bg_edges = set()
    for tri in background.cells:
        for k in range(3):
            bg_edges.add(tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3])))))
    pieces = []
    for (i, j) in front.boundary_edges:
        a = front.vertices[i]
        b = front.vertices[j]
        ts = {0.0, 1.0}
        for (m, n) in bg_edges:
            qa, qb = background.vertices[m], background.vertices[n]
            d1, d2 = b - a, qb - qa
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(den) < 1e-15:
                continue
            t = ((qa[0] - a[0]) * d2[1] - (qa[1] - a[1]) * d2[0]) / den
            s = ((qa[0] - a[0]) * d1[1] - (qa[1] - a[1]) * d1[0]) / den
            if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= s <= 1 + 1e-12:
                ts.add(min(max(t, 0.0), 1.0))
        ts = sorted(ts)
        for t0, t1 in zip(ts[:-1], ts[1:]):
            if t1 - t0 < 1e-12:
                continue
            mid = a + 0.5 * (t0 + t1) * (b - a)
            if points_in_mesh(mid[None, :], background)[0]:
                pieces.append((mid, (t1 - t0) * np.hypot(*(b - a))))
    return pieces


def edge_cells_loop(mesh):
    """dict mapping a sorted vertex pair to the list of adjacent cells."""
    adj = {}
    for c, tri in enumerate(mesh.cells):
        for k in range(3):
            key = (min(tri[k], tri[(k + 1) % 3]), max(tri[k], tri[(k + 1) % 3]))
            adj.setdefault(key, []).append(c)
    return adj


def region_boundary_edges_loop(mesh, tag):
    """Per-cell-edge reference for ``mesh.region_boundary_edges``: the same
    (edges, cells, markers, other tags) arrays, built one edge at a time."""
    edge_cells = edge_cells_loop(mesh)
    marker_of = {}
    for (i, j), m in zip(mesh.boundary_edges, mesh.boundary_markers):
        marker_of[(min(i, j), max(i, j))] = int(m)
    rows = []
    for c in np.flatnonzero(mesh.region_tags == tag):
        tri = mesh.cells[c]
        for k in range(3):
            i, j = tri[k], tri[(k + 1) % 3]
            key = (min(i, j), max(i, j))
            others = [d for d in edge_cells[key] if d != c]
            if not others:
                rows.append((i, j, c, marker_of.get(key, 0), -1))
            elif mesh.region_tags[others[0]] != tag:
                rows.append((i, j, c, -1, mesh.region_tags[others[0]]))
    out = np.array(rows, dtype=np.int64).reshape(-1, 5)
    return out[:, :2], out[:, 2], out[:, 3], out[:, 4]


def segment_cell_interval_loop(a, d, tri):
    """Parameter interval [t0, t1] of segment a + t*d inside a CCW triangle,
    or None: the per-pair reference for ``geometry._segment_cell_intervals``."""
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


def cell_intervals_loop(a, b, mesh, min_len):
    """``geometry._cell_intervals`` with one scalar interval per
    (segment, candidate cell) pair."""
    seg, cand = mesh.cell_grid.query_boxes(np.minimum(a, b), np.maximum(a, b))
    out = [[] for _ in range(len(a))]
    for i, c in zip(seg.tolist(), cand.tolist()):
        iv = segment_cell_interval_loop(a[i], b[i] - a[i], mesh.cell_points[c])
        if iv is not None and iv[1] - iv[0] > min_len:
            out[i].append((iv[0], iv[1], c))
    return out


def pieces_loop(a, b, mesh, min_len):
    """Rows (segment, t0, t1, cell) of ``geometry._pieces`` from the sorted
    cut set of each segment's ``cell_intervals_loop`` intervals."""
    rows = []
    for i, intervals in enumerate(cell_intervals_loop(a, b, mesh, min_len)):
        cuts = sorted({0.0, 1.0} | {t for t0, t1, _ in intervals for t in (t0, t1)})
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            if t1 - t0 > 1e-12:
                tm = 0.5 * (t0 + t1)
                inside = [c for lo_t, hi_t, c in intervals if lo_t <= tm <= hi_t]
                rows.append((i, t0, t1, inside[0] if inside else -1))
    return rows


def containing_cells_loop(mesh, points, tol):
    """Per point, the ascending list of cells whose closure contains it."""
    k, cand = mesh.cell_grid.query_boxes(points, points)
    inside = (barycentric(mesh, cand, points[k][:, None]) >= -tol).all(axis=(1, 2))
    out = [[] for _ in range(len(points))]
    for i, c in zip(k[inside].tolist(), cand[inside].tolist()):
        out[i].append(c)
    return out


def _split_segments_loop(a, b, normal, background):
    """Per segment, the pieces (t0, t1, side cells) of the former list-based
    ``geometry._split_segments``."""
    pieces, probes = [], []
    for i, intervals in enumerate(cell_intervals_loop(a, b, background, EPS_GEOM)):
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
    side = containing_cells_loop(background, np.array(probes).reshape(-1, 2), 1e-9)
    return [[(t0, t1, [] if k is None else side[k]) for t0, t1, k in seg_pieces]
            for seg_pieces in pieces]


def interface_quadrature_loop(front, background, topo):
    """Per-piece reference for ``geometry.interface_quadrature``: the former
    loop, one segment appended at a time, stacked at the end."""
    reduced = topo.reduced_mask
    xs, ws = seg_rule(FLUID_ORDER)
    segments, dropped = [], 0.0
    cells, normals = front.boundary_normals(np.arange(len(front.boundary_edges)))
    edges = np.flatnonzero(front.region_tags[cells] != SOLID)   # solid edges never couple
    cells, normals = cells[edges], normals[edges]
    starts, ends = (front.vertices[front.boundary_edges[edges, k]] for k in (0, 1))
    for a, b, front_cell, normal, pieces in zip(
            starts, ends, cells.tolist(), normals,
            _split_segments_loop(starts, ends, normals, background)):
        d = b - a
        length = np.hypot(*d)
        for t0, t1, side in pieces:
            if not side:
                continue  # outside the background mesh or on its boundary
            parents = [c for c in side if reduced[c]]
            if not parents:
                if (t1 - t0) * length <= 1e-4 * background.cell_diameters[side[0]]:
                    dropped += (t1 - t0) * length
                    continue
                raise GeometryError(
                    "interface segment parent cell is fully covered "
                    f"(background cells {side})")
            parent = parents[0]
            p0 = a + t0 * d
            p1 = a + t1 * d
            seg_len = (t1 - t0) * length
            pts = p0[None, :] + xs[:, None] * (p1 - p0)[None, :]
            segments.append((p0, p1, parent, front_cell, normal.copy(), pts, ws * seg_len))
    shapes = [(-1, 2), (-1, 2), -1, -1, (-1, 2), (-1, len(xs), 2), (-1, len(xs))]
    cols = [np.array([s[k] for s in segments], np.int64 if k in (2, 3) else float).reshape(shape)
            for k, shape in enumerate(shapes)]
    return InterfaceSegments(*cols, dropped)


def _piece_table(per_segment):
    """(segment, t0, t1) arrays of per-segment (t0, t1) lists."""
    rows = [(i, t0, t1) for i, pieces in enumerate(per_segment) for t0, t1 in pieces]
    return (np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=float),
            np.array([r[2] for r in rows], dtype=float))


def exterior_intervals_loop(a, b, n_out, background):
    """Reference for ``geometry.exterior_pieces``: pieces without a side
    cell, merged one at a time."""
    out = []
    for pieces in _split_segments_loop(a, b, n_out, background):
        merged = []
        for t0, t1, side in pieces:
            if side:
                continue
            if merged and abs(merged[-1][1] - t0) <= 1e-12:
                merged[-1] = (merged[-1][0], t1)
            else:
                merged.append((t0, t1))
        out.append(merged)
    return _piece_table(out)


def uncovered_intervals_loop(a, b, front):
    """Reference for ``geometry.uncovered_pieces``: the gaps between the
    merged covered intervals of each segment."""
    out = []
    for ivs in cell_intervals_loop(a, b, front, 1e-12):
        covered = []
        for t0, t1, _ in sorted(ivs):
            if covered and t0 <= covered[-1][1] + 1e-12:
                covered[-1][1] = max(covered[-1][1], t1)
            else:
                covered.append([t0, t1])
        pieces, t = [], 0.0
        for t0, t1 in covered:
            if t0 > t + 1e-12:
                pieces.append((t, t0))
            t = max(t, t1)
        if t < 1.0 - 1e-12:
            pieces.append((t, 1.0))
        out.append(pieces)
    return _piece_table(out)


def boundary_normal_loop(mesh, e):
    """Adjacent cell and outward unit normal of one boundary edge from the
    mesh's edge-to-cells dictionary, or None if the edge is not on the
    boundary: the per-edge reference for ``Mesh.boundary_normals``."""
    i, j = mesh.boundary_edges[e]
    cells = edge_cells_loop(mesh).get((min(i, j), max(i, j)), [])
    if len(cells) != 1:
        return None
    a, b = mesh.vertices[i], mesh.vertices[j]
    ev = b - a
    n = np.array([ev[1], -ev[0]]) / np.hypot(ev[1], -ev[0])
    if np.dot(n, mesh.cell_points[cells[0]].mean(axis=0) - 0.5 * (a + b)) > 0.0:
        n = -n
    return cells[0], n


def polygon_area_loop(poly):
    """Shoelace area of a polygon, one dot product per coordinate pair."""
    poly = np.asarray(poly, float)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _dedupe_loop(poly, eps):
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


def clip_convex_loop(poly_a, poly_b, eps):
    """Per-pair Sutherland-Hodgman clip of two convex CCW polygons, with the
    package's snapping (eps) and sliver (area <= eps**2) rules; the scalar
    reference for the batched ``intersect_convex``."""
    poly_a = np.asarray(poly_a, float)
    poly_b = np.asarray(poly_b, float)
    if len(poly_a) < 3 or len(poly_b) < 3:
        return np.zeros((0, 2))
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
    poly = _dedupe_loop(np.array(out).reshape(-1, 2), eps)
    if len(poly) < 3 or polygon_area_loop(poly) <= eps * eps:
        return np.zeros((0, 2))
    return poly


def classify_loop(background, front, solid_tag, eps_rel=1e-12, rel_tol=1e-9):
    """Background cell classes (0 not, 1 fully, 2 partially covered) and the
    covered polygons {cell: [(front cell, polygon)]} of the not and partially
    covered cells, one background cell and one clip at a time.

    Returns None for classes when a partially covered cell meets the solid.
    """
    fp = front.cell_points
    flo, fhi = fp.min(axis=1), fp.max(axis=1)
    cls = np.empty(background.nc, dtype=np.int64)
    covered = {}
    for c, tri in enumerate(background.cell_points):
        eps = eps_rel * background.cell_diameters[c]
        near = np.flatnonzero(((flo <= tri.max(axis=0))
                               & (fhi >= tri.min(axis=0))).all(axis=1))
        polys = [(int(k), clip_convex_loop(tri, fp[k], eps)) for k in near]
        polys = [(k, p) for k, p in polys if len(p)]
        frac = sum(polygon_area_loop(p) for _, p in polys) / background.cell_areas[c]
        cls[c] = 0 if frac <= rel_tol else 1 if frac >= 1.0 - rel_tol else 2
        if cls[c] == 2:
            solid = sum(polygon_area_loop(p) for k, p in polys
                        if front.region_tags[k] == solid_tag)
            if solid > rel_tol * background.cell_areas[c]:
                return None, covered
        if polys and cls[c] != 1:
            covered[c] = polys
    return cls, covered


def covered_dict(polygons):
    """The covered polygons {cell: [(front cell, polygon)]} of a flat
    CellPairs, in its order."""
    out = {}
    for i, (c, k) in enumerate(zip(polygons.bg_cell.tolist(), polygons.front_cell.tolist())):
        out.setdefault(c, []).append((k, polygons.verts[i, :polygons.count[i]]))
    return out


EMPTY_RULE = QuadRule(np.zeros((0, 2)), np.zeros(0))


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


def _subtractive_rule(background, cell, polys, order):
    """Full-cell rule plus negatively weighted rules on the covered polygons;
    the per-cell reference for ``geometry.subtractive_rules``."""
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


def assemble_solid_loop(problem, u_current):
    """Per-cell assembly of the solid internal force and tangent: the scalar
    reference for the batched ``solid.assemble_solid``, with six 2x2
    ``piola_tangent`` calls per cell."""
    mesh = problem.mesh
    mat = problem.material
    U = np.asarray(u_current, float)
    R = np.zeros(problem.ndof)
    K = SparseSystem(problem.ndof)

    for cell in problem.cells:
        cell = int(cell)
        g = mesh.p1_grads[cell]
        A = mesh.cell_areas[cell]
        conn = mesh.cells[cell]
        slots = problem.vmap[conn]
        dofs = np.column_stack([2 * slots, 2 * slots + 1])  # (3, 2)
        u_loc = np.column_stack([U[dofs[:, 0]], U[dofs[:, 1]]])
        gradu = u_loc.T @ g
        F = _I2 + gradu
        if mat.model == STVK and np.linalg.det(F) <= 0.0:
            raise InvertedElementError(f"inverted element: cell {cell}")
        P = first_piola(F, mat)
        R_loc = A * (g @ P.T)                 # (a, i)
        np.add.at(R, dofs.ravel(), R_loc.ravel())

        Kloc = np.empty((6, 6))
        for b in range(3):
            for j in range(2):
                dF = np.zeros((2, 2))
                dF[j, :] = g[b]
                dP = piola_tangent(F, mat, dF)
                col = A * (g @ dP.T)          # (a, i)
                Kloc[:, 2 * b + j] = col.ravel()
        loc = dofs.ravel()
        K.add(np.repeat(loc, 6), np.tile(loc, 6), Kloc.ravel())
    return R, K


def solid_load_loop(mesh, cells, force, edges, traction):
    """Nodal load (nv, 2) of a body force over the cells plus a traction on
    the (k, 2) edges, one ``eval_field`` call per cell and per edge: the
    reference for ``solid.body_load`` + ``solid.edge_load``."""
    body, edge = np.zeros((mesh.nv, 2)), np.zeros((mesh.nv, 2))
    lam, w = tri_rule(SOLID_ORDER)
    for cell in cells:
        cell = int(cell)
        fv = eval_field(force, lam @ mesh.cell_points[cell], (2,))
        rv = mesh.cell_areas[cell] * np.einsum("q,qa,qi->ai", w, lam, fv)
        np.add.at(body, mesh.cells[cell], rv)
    xs, ws = seg_rule(EDGE_ORDER)
    lam = np.column_stack([1.0 - xs, xs])
    for i, j in np.asarray(edges).tolist():
        a, b = mesh.vertices[i], mesh.vertices[j]
        length = np.hypot(*(b - a))
        pts = a[None, :] + xs[:, None] * (b - a)[None, :]
        tv = eval_field(traction, pts, (2,))
        np.add.at(edge, [i, j], length * np.einsum("q,qa,qi->ai", ws, lam, tv))
    return body + edge


def _local(rows, cols, vals):
    """Triplets of one local block, row-major."""
    return np.repeat(rows, len(cols)), np.tile(cols, len(rows)), np.ravel(vals)


def _add_blockwise(sys, items):
    """Add the local blocks of every item (one list of triplets per item,
    blocks in the same order for each) block by block: block k of every
    item, then block k + 1."""
    for k in range(len(items[0]) if items else 0):
        for blocks in items:
            sys.add(*blocks[k])


def _volume_terms_loop(sys, space, mesh_id, cell, rule, problem):
    """Local volume blocks of one cell, over the whole cell (rule None) or
    over the uncovered part given by its cut rule; adds its loads."""
    mesh = space.sides[mesh_id][0]
    g = mesh.p1_grads[cell]
    udof, pdof = space.dofs(mesh_id, mesh.cells[cell])
    area = mesh.cell_areas[cell]
    whole = triangle_rule(mesh.cell_points[cell], FLUID_ORDER)
    if rule is None:
        W, int_lam = area, np.full(3, area / 3.0)
        rule, lam = whole, tri_rule(FLUID_ORDER)[0]
    else:
        W = rule.total
        lam = barycentric(mesh, cell, rule.points) if len(rule.points) else np.zeros((0, 3))
        int_lam = rule.weights @ lam if len(rule.points) else np.zeros(3)
    jrule = whole if rule is whole or problem.jh_extension else rule

    M = problem.viscosity * W * (g @ g.T)
    blocks = [_local(udof[:, comp], udof[:, comp], M) for comp in range(2)]
    # -(div v, q) with int lambda_b over the cell's region
    for comp in range(2):
        r, c, v = _local(udof[:, comp], pdof, -np.outer(g[:, comp], int_lam))
        blocks += [(r, c, v), (c, r, v)]
    h2 = mesh.cell_diameters[cell] ** 2
    area_j = area if jrule is whole else W
    blocks.append(_local(pdof, pdof, -problem.delta * h2 * area_j * (g @ g.T)))

    f = problem.body_force
    if f is not None:
        if len(rule.points):
            fv = eval_field(f, rule.points, (2,))
            sys.add_rhs(udof.ravel(), np.einsum("q,qa,qi->ai", rule.weights, lam, fv).ravel())
        # rhs stabilization matches the j-term region
        if len(jrule.points):
            fv = eval_field(f, jrule.points, (2,))
            rq = np.einsum("q,qi,ai->a", jrule.weights, fv, g)
            sys.add_rhs(pdof, (-problem.delta * h2) * rq)
    return blocks


def _interface_terms_loop(space, problem, segments):
    """Local blocks of each interface segment."""
    nu_a = problem.viscosity
    a1, a2 = ALPHA
    bg, fr = space.background, space.front
    items = []
    for T, K, pts, w, n in zip(segments.bg_cell.tolist(), segments.front_cell.tolist(),
                               segments.points, segments.weights, segments.normal):
        gT = bg.p1_grads[T]
        gK = fr.p1_grads[K]
        lamT = barycentric(bg, T, pts)
        lamK = barycentric(fr, K, pts)
        h = bg.cell_diameters[T]

        (uT, pT), (uK, pK) = space.dofs(BG, bg.cells[T]), space.dofs(FRONT, fr.cells[K])
        pdofs = np.concatenate([pT, pK])

        # jump = front - background ; mean = a1*background + a2*front
        jco = np.hstack([-lamT, lamK])                       # (nq, 6)
        mco = np.concatenate([a1 * (gT @ n), a2 * (gK @ n)])  # (6,)
        mp = np.hstack([a1 * lamT, a2 * lamK])               # (nq, 6)

        jw = w @ jco                                          # (6,)
        pen = (problem.gamma * nu_a / h) * (jco.T * w) @ jco
        consist = -nu_a * (np.outer(jw, mco) + np.outer(mco, jw))
        Avv = pen + consist
        Bjp = (jco.T * w) @ mp                                # (6, 6) jump x mean

        blocks = []
        for comp in range(2):
            udofs = np.concatenate([uT[:, comp], uK[:, comp]])
            r, c, v = _local(udofs, pdofs, n[comp] * Bjp)
            blocks += [_local(udofs, udofs, Avv), (r, c, v), (c, r, v)]
        items.append(blocks)
    return items


def _overlap_terms_loop(space, problem, pairs):
    """Local blocks of each overlap pair."""
    bg, fr = space.background, space.front
    items = []
    for T, K, area in zip(pairs.bg_cell, pairs.front_cell, pairs.area):
        G = np.vstack([bg.p1_grads[T], -fr.p1_grads[K]])    # jump gradient
        M = problem.viscosity * area * (G @ G.T)
        uT, uK = space.dofs(BG, bg.cells[T])[0], space.dofs(FRONT, fr.cells[K])[0]
        items.append([_local(d, d, M) for d in
                      (np.concatenate([uT[:, comp], uK[:, comp]]) for comp in range(2))])
    return items


def _neumann_terms_loop(sys, space, problem):
    if not problem.neumann:
        return
    xs, ws = seg_rule(FLUID_ORDER)
    for mesh_id, marker, traction in problem.neumann:
        mesh, vmap = space.sides[mesh_id]
        for e, ((i, j), m) in enumerate(zip(mesh.boundary_edges,
                                            mesh.boundary_markers)):
            if int(m) != marker:
                continue
            if vmap[i] < 0 or vmap[j] < 0:
                continue
            a, b = mesh.vertices[i], mesh.vertices[j]
            _, n = boundary_normal_loop(mesh, e)
            if mesh_id == BG:
                _, t0s, t1s = uncovered_pieces(a[None], b[None], space.front)
            else:
                _, t0s, t1s = exterior_pieces(a[None], b[None], n[None], space.background)
            ev = b - a
            length = np.hypot(*ev)
            for t0, t1 in zip(t0s.tolist(), t1s.tolist()):
                ts = t0 + xs * (t1 - t0)
                pts = a[None, :] + ts[:, None] * ev[None, :]
                w = ws * (t1 - t0) * length
                tv = np.asarray(traction(pts, n), float).reshape(-1, 2)
                lam = np.column_stack([1.0 - ts, ts])  # hats of i, j
                for vloc, v in enumerate((i, j)):
                    for comp in range(2):
                        sys.add_rhs([space.dofs(mesh_id, v)[0][comp]],
                                    [np.sum(w * lam[:, vloc] * tv[:, comp])])


def stokes_item_terms_loop(problem, space, topo):
    """Per-item assembly of the coupled Stokes system: the reference for the
    batched ``stokes.assemble``.  Volume terms are computed one cell at a
    time, interface terms one segment and overlap terms one pair, each
    kernel's blocks added block by block; Neumann loads are added one
    (piece, vertex, component) at a time."""
    sys = SparseSystem(space.ndof)
    for mesh_id, cells, rules in ((BG, topo.class_not, None),
                                  (BG, topo.class_partial, topo.cut_rules),
                                  (FRONT, space.fluid_cells, None)):
        _add_blockwise(sys, [_volume_terms_loop(sys, space, mesh_id, c,
                                                None if rules is None else rules[i], problem)
                             for i, c in enumerate(cells.tolist())])
    _add_blockwise(sys, _interface_terms_loop(space, problem, topo.interface_segments))
    if problem.use_ih:
        _add_blockwise(sys, _overlap_terms_loop(space, problem, topo.overlap_pairs))
    _neumann_terms_loop(sys, space, problem)
    return sys


def error_norms_loop(solution, exact_grad_u, exact_p, topo, order=4, mean_shift=None):
    """Per-cell velocity H1-seminorm and pressure L2 errors: the reference
    for the batched ``stokes.error_norms``, with two exact-field calls, one
    barycentric call and one einsum per cell."""
    space = solution.space
    if mean_shift is None:
        mean_shift = space.pin_dof is not None
    bg, fr = space.background, space.front
    u_bg, p_bg = solution.velocity(BG), solution.pressure(BG)
    u_fr, p_fr = solution.velocity(FRONT), solution.pressure(FRONT)

    acc = np.zeros(4)  # grad err^2, p err^2, p err, area

    def cell_contrib(mesh, cell, u_nodal, p_nodal, rule):
        if len(rule.points) == 0:
            return
        g = mesh.p1_grads[cell]
        conn = mesh.cells[cell]
        gradu = np.einsum("ai,aj->ij", u_nodal[conn], g)
        lam = barycentric(mesh, cell, rule.points)
        ph = lam @ p_nodal[conn]
        ge = eval_field(exact_grad_u, rule.points, (2, 2))
        pe = eval_field(exact_p, rule.points, ())
        diff = gradu[None, :, :] - ge
        acc[0] += np.sum(rule.weights * np.einsum("qij,qij->q", diff, diff))
        dp = ph - pe
        acc[1] += np.sum(rule.weights * dp * dp)
        acc[2] += np.sum(rule.weights * dp)
        acc[3] += rule.total

    for c in topo.class_not:
        cell_contrib(bg, int(c), u_bg, p_bg,
                     triangle_rule(bg.cell_points[int(c)], order))
    covered = covered_dict(topo.polygons)
    for i, c in enumerate(topo.class_partial.tolist()):
        rule = (topo.cut_rules[i] if order <= FLUID_ORDER
                else _subtractive_rule(bg, c, covered[c], order))
        cell_contrib(bg, c, u_bg, p_bg, rule)
    for c in space.fluid_cells:
        cell_contrib(fr, int(c), u_fr, p_fr,
                     triangle_rule(fr.cell_points[int(c)], order))

    p_sq = acc[1]
    if mean_shift and acc[3] > 0:
        p_sq = max(acc[1] - acc[2] ** 2 / acc[3], 0.0)
    return float(np.sqrt(acc[0])), float(np.sqrt(p_sq))


def adaptive_tri_integral(f, tri, order_rule, tol=1e-10, depth=0):
    """Recursive-subdivision reference integral of f over a triangle."""
    lam, w = order_rule
    pts = lam @ tri
    whole = float(np.dot(w, [f(p) for p in pts])) * _tri_area(tri)
    parts = 0.0
    mids = [(tri[0] + tri[1]) / 2, (tri[1] + tri[2]) / 2, (tri[2] + tri[0]) / 2]
    subs = [np.array([tri[0], mids[0], mids[2]]),
            np.array([mids[0], tri[1], mids[1]]),
            np.array([mids[2], mids[1], tri[2]]),
            np.array([mids[0], mids[1], mids[2]])]
    sub_vals = []
    for s in subs:
        pts = lam @ s
        sub_vals.append(float(np.dot(w, [f(p) for p in pts])) * _tri_area(s))
    parts = sum(sub_vals)
    if abs(whole - parts) <= tol or depth >= 10:
        return parts
    return sum(adaptive_tri_integral(f, s, order_rule, tol / 4, depth + 1)
               for s in subs)


def _tri_area(tri):
    return 0.5 * abs((tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1])
                     - (tri[1][1] - tri[0][1]) * (tri[2][0] - tri[0][0]))


def halfplane_cut_area(tri, c, axis=0):
    """Area of the part of a triangle with coordinate[axis] <= c (analytic,
    via 1D integration of the width function)."""
    tri = np.asarray(tri, float)
    # scanline oracle against a large rectangle standing in for the half-plane
    lo = tri.min(axis=0) - 1.0
    hi = tri.max(axis=0) + 1.0
    if axis == 0:
        rect = np.array([[lo[0], lo[1]], [c, lo[1]], [c, hi[1]], [lo[0], hi[1]]])
    else:
        rect = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], c], [lo[0], c]])
    return scanline_intersection_area(tri, rect)


def dense_stokes_single_mesh(mesh, nu, delta, f=None):
    """Dense textbook P1-P1 stabilized assembler on one mesh.

    Dof layout matches the package: velocities (2 per vertex, interleaved)
    followed by pressures.  Gradients are recomputed from scratch by
    inverting the local coordinate matrix.
    """
    nv = mesh.nv
    ndof = 3 * nv
    A = np.zeros((ndof, ndof))
    rhs = np.zeros(ndof)
    for tri, conn in zip(mesh.cell_points, mesh.cells):
        C = np.column_stack([np.ones(3), tri])
        area = 0.5 * abs(np.linalg.det(C))
        G = np.linalg.inv(C)[1:, :].T        # rows: gradients of the 3 hats
        hT = max(np.linalg.norm(tri[k] - tri[(k + 1) % 3]) for k in range(3))
        for a in range(3):
            for b in range(3):
                gg = nu * area * (G[a] @ G[b])
                for comp in range(2):
                    A[2 * conn[a] + comp, 2 * conn[b] + comp] += gg
                A[2 * nv + conn[a], 2 * nv + conn[b]] -= \
                    delta * hT ** 2 * area * (G[a] @ G[b])
            for b in range(3):
                for comp in range(2):
                    val = -(area / 3.0) * G[a][comp]
                    A[2 * conn[a] + comp, 2 * nv + conn[b]] += val
                    A[2 * nv + conn[b], 2 * conn[a] + comp] += val
        if f is not None:
            # midpoint-edge rule, exact to degree 2 (differs from the
            # production rule on purpose; equal for polynomial data)
            mids = [(tri[0] + tri[1]) / 2, (tri[1] + tri[2]) / 2,
                    (tri[2] + tri[0]) / 2]
            vals = eval_field(f, np.array(mids), (2,))
            lam_at_mid = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                   [0.5, 0.0, 0.5]])
            for a in range(3):
                contrib = sum(vals[q] * lam_at_mid[q, a] for q in range(3))
                for comp in range(2):
                    rhs[2 * conn[a] + comp] += (area / 3.0) * contrib[comp]
                rhs[2 * nv + conn[a]] += -delta * hT ** 2 * (area / 3.0) * sum(
                    vals[q] @ G[a] for q in range(3))
    return A, rhs


# -- symbolic manufactured solutions -----------------------------------------


def _vec_field(xsym, ysym, exprs):
    fns = [sp.lambdify((xsym, ysym), e, "numpy") for e in exprs]

    def call(pts):
        pts = np.asarray(pts, float).reshape(-1, 2)
        cols = [np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1]), float),
                                (len(pts),)) for f in fns]
        return np.stack(cols, axis=-1)

    return call


def _mat_field(xsym, ysym, exprs2x2):
    flat = [exprs2x2[i][j] for i in range(2) for j in range(2)]
    fns = [sp.lambdify((xsym, ysym), e, "numpy") for e in flat]

    def call(pts):
        pts = np.asarray(pts, float).reshape(-1, 2)
        cols = [np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1]), float),
                                (len(pts),)) for f in fns]
        return np.stack(cols, axis=-1).reshape(len(pts), 2, 2)

    return call


def _scalar_field(xsym, ysym, expr):
    fn = sp.lambdify((xsym, ysym), expr, "numpy")

    def call(pts):
        pts = np.asarray(pts, float).reshape(-1, 2)
        return np.broadcast_to(np.asarray(fn(pts[:, 0], pts[:, 1]), float),
                               (len(pts),)).copy()

    return call


def _traction_field(xsym, ysym, sigma):
    """Callback (points, normal) -> sigma(points) . normal."""
    mat = _mat_field(xsym, ysym, [[sigma[0, 0], sigma[0, 1]],
                                  [sigma[1, 0], sigma[1, 1]]])

    def call(pts, n):
        return mat(pts) @ np.asarray(n, float)

    return call


def build_manufactured_stokes_sympy(viscosity=1.0):
    """Symbolic reference for ``verification.build_manufactured_stokes``."""
    x, y = sp.symbols("x y", real=True)
    pi = sp.pi
    psi = sp.sin(pi * x) * sp.sin(pi * y) / pi
    ux = sp.diff(psi, y)
    uy = -sp.diff(psi, x)
    p = sp.sin(pi * x) * sp.sin(pi * y) - sp.Rational(4) / pi ** 2
    nu = sp.Float(viscosity)
    fx = -nu * (sp.diff(ux, x, 2) + sp.diff(ux, y, 2)) + sp.diff(p, x)
    fy = -nu * (sp.diff(uy, x, 2) + sp.diff(uy, y, 2)) + sp.diff(p, y)
    grad = [[sp.diff(ux, x), sp.diff(ux, y)], [sp.diff(uy, x), sp.diff(uy, y)]]
    return ManufacturedStokes2d(
        viscosity=viscosity,
        u=_vec_field(x, y, [ux, uy]),
        grad_u=_mat_field(x, y, grad),
        p=_scalar_field(x, y, p),
        f=_vec_field(x, y, [fx, fy]),
    )


def build_manufactured_sympy(L=1.0, Rf=0.4, R1=0.3, Hs=0.1, U0=1.0,
                             viscosity=0.001, E_s=10.0, nu_s=0.3):
    """Symbolic reference for ``verification.build_manufactured``: every
    derivative by sympy.diff, evaluated through lambdify."""
    if min(L, Rf, R1, Hs, U0, viscosity, E_s) <= 0 or not 0 < nu_s < 0.5 \
            or R1 >= Rf:
        raise ValueError("need positive parameters, R1 < Rf and nu_s in (0, 0.5)")
    x, y = sp.symbols("x y", real=True)
    H = Hs * 2 * x * (1 - x)
    Hp = sp.diff(H, x)
    J = 1 + H / Rf

    # velocity: Piola transform of the reference profile U0*(y(Rf-y), 0),
    # written directly in physical coordinates
    yr = y / J
    ux = U0 * yr * (Rf - yr) / J
    uy = ux * yr * Hp / Rf
    p = 1 - x
    nu = sp.Float(viscosity)

    grad_u = sp.Matrix([[sp.diff(ux, x), sp.diff(ux, y)],
                        [sp.diff(uy, x), sp.diff(uy, y)]])
    fx = -nu * (sp.diff(ux, x, 2) + sp.diff(ux, y, 2)) + sp.diff(p, x)
    fy = -nu * (sp.diff(uy, x, 2) + sp.diff(uy, y, 2)) + sp.diff(p, y)
    sigma = nu * grad_u - p * sp.eye(2)
    div_u = sp.simplify(sp.diff(ux, x) + sp.diff(uy, y))

    # solid: vertical bump, St. Venant-Kirchhoff, plane strain
    material = Material.from_young_poisson(E_s, nu_s, STVK)
    mu, lam = material.mu, material.lam
    F = sp.Matrix([[1, 0], [Hp, 1]])
    E = (F.T * F - sp.eye(2)) / 2
    S = 2 * mu * E + lam * E.trace() * sp.eye(2)
    Pi = F * S
    f_solid = [-sp.diff(Pi[i, 0], x) for i in range(2)]  # fields depend on x only
    grad_us = [[sp.Integer(0), sp.Integer(0)], [Hp, sp.Integer(0)]]

    # auxiliary traction on the reference interface y = Rf with the
    # solid-outward normal (0, -1); the fluid term uses the Nanson vector
    # of the interface map, J F^{-T} n = (H', -1)
    n_ref = sp.Matrix([0, -1])
    nanson = sp.Matrix([Hp, -1])
    sigma_iface = sigma.subs(y, Rf * J)
    t_a = Pi * n_ref - sigma_iface * nanson

    return ManufacturedFsi2d(
        L=L, Rf=Rf, R1=R1, Hs=Hs, U0=U0, viscosity=viscosity,
        material=material,
        u=_vec_field(x, y, [ux, uy]),
        grad_u=_mat_field(x, y, [[grad_u[0, 0], grad_u[0, 1]],
                                 [grad_u[1, 0], grad_u[1, 1]]]),
        p=_scalar_field(x, y, p),
        f=_vec_field(x, y, [fx, fy]),
        fluid_traction=_traction_field(x, y, sigma),
        us=_vec_field(x, y, [sp.Integer(0), H]),
        grad_us=_mat_field(x, y, grad_us),
        f_solid=_vec_field(x, y, f_solid),
        t_a=_vec_field(x, y, [t_a[0], t_a[1]]),
        um=_vec_field(x, y, [sp.Integer(0), y * H / Rf]),
        div_u=_scalar_field(x, y, div_u),
    )


def traction_functional_loop(solution, fluid, interface_nodes):
    """Per-node form of ``coupling.traction_functional``: for each
    interface node, the stress and body terms of its fluid one-ring, cell
    by cell in ascending order."""
    space = solution.space
    front = space.front
    nu, body_force = fluid.viscosity, fluid.body_force
    u2 = solution.velocity(FRONT)
    p2 = solution.pressure(FRONT)
    fluid_set = set(int(c) for c in space.fluid_cells)
    lam_q, w_q = tri_rule(2)

    out = np.zeros((len(interface_nodes), 2))
    for idx, v in enumerate(interface_nodes):
        ring = [c for c in np.flatnonzero((front.cells == v).any(axis=1))
                if c in fluid_set]
        if not ring:
            raise TractionMappingError(
                f"interface node {int(v)} has no adjacent fluid cell")
        val = np.zeros(2)
        for c in ring:
            conn = front.cells[c]
            g = front.p1_grads[c]
            a = front.cell_areas[c]
            local = int(np.flatnonzero(conn == v)[0])
            gv = g[local]
            gradu = np.einsum("ai,aj->ij", u2[conn], g)
            sig = nu * gradu - np.mean(p2[conn]) * np.eye(2)
            val -= a * (sig @ gv)
            if body_force is not None:
                pts = lam_q @ front.cell_points[c]
                fv = eval_field(body_force, pts, (2,))
                val += a * np.einsum("q,q,qi->i", w_q, lam_q[:, local], fv)
        out[idx] = val
    return out


def build_tensor_mesh_loop(xs, ys, region_fn=None):
    """``build_tensor_mesh`` with cells and boundary edges built cell by
    cell and edge by edge."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
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


def write_vtk_mesh_loop(path, mesh, point_data=None, title="mesh"):
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


def write_vtk_topology_loop(path, topo, title="cut geometry"):
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
