"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the production code paths: membership
is tested per triangle with cross products, intersection areas come from a
scanline (trapezoid) decomposition, interface splitting from brute-force
segment-segment intersection, and the single-mesh flow assembler is a
plain dense textbook implementation.  The ``*_loop`` functions are the
per-item forms of batched package kernels: they share the package's
formulas (the solid loop calls its constitutive laws on single 2x2
matrices, the Stokes loops take one cell, segment, pair or boundary piece
at a time) but none of its batching.
"""

import numpy as np

from olmfsi.geometry import (EPS_GEOM, QuadRule, exterior_intervals_on_segment,
                             seg_rule, tri_rule, triangle_rule,
                             uncovered_intervals_on_segment)
from olmfsi.linalg import SparseSystem
from olmfsi.mesh import barycentric, eval_field
from olmfsi.solid import (STVK, InvertedElementError, first_piola,
                          piola_tangent)
from olmfsi.stokes import BG, FRONT, _full_cell_volume_terms

_I2 = np.eye(2)


def point_in_tri(p, tri, tol=1e-12):
    for k in range(3):
        a, b = tri[k], tri[(k + 1) % 3]
        if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < -tol:
            return False
    return True


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


def boundary_normal_loop(mesh, e):
    """Adjacent cell and outward unit normal of one boundary edge from the
    mesh's edge-to-cells dictionary, or None if the edge is not on the
    boundary: the per-edge reference for ``Mesh.boundary_normals``."""
    i, j = mesh.boundary_edges[e]
    cells = mesh.edge_cells.get((min(i, j), max(i, j)), [])
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
    """Per-cell assembly of the solid residual and tangent: the scalar
    reference for the batched ``solid.assemble_solid``, with six 2x2
    ``piola_tangent`` calls per cell and one ``eval_field`` call per cell
    for the body force."""
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

    # external loads enter the residual with a minus sign
    if problem.body_force is not None:
        lam, w = tri_rule(problem.quad_order)
        for cell in problem.cells:
            cell = int(cell)
            pts = lam @ mesh.cell_points[cell]
            fv = eval_field(problem.body_force, pts)
            conn = mesh.cells[cell]
            slots = problem.vmap[conn]
            A = mesh.cell_areas[cell]
            rv = A * np.einsum("q,qa,qi->ai", w, lam, fv)
            dofs = np.column_stack([2 * slots, 2 * slots + 1])
            np.add.at(R, dofs.ravel(), -rv.ravel())

    if problem._neumann_edges:
        xs, ws = seg_rule(max(problem.quad_order, 2))
        for i, j, t in problem._neumann_edges:
            a, b = mesh.vertices[i], mesh.vertices[j]
            length = np.hypot(*(b - a))
            pts = a[None, :] + xs[:, None] * (b - a)[None, :]
            tv = eval_field(t, pts)
            lam = np.column_stack([1.0 - xs, xs])
            for vloc, v in enumerate((i, j)):
                for c in range(2):
                    R[2 * problem.vmap[v] + c] -= np.sum(ws * length * lam[:, vloc] * tv[:, c])

    if problem.interface_load is not None:
        L = problem.gather(np.asarray(problem.interface_load, float))
        R -= L

    return R, K


def _cut_cell_terms_loop(sys, mesh, cell, rule, vmap, u_base, p_base, nu_a,
                         delta, f, jh_extension, order):
    """Volume terms on one partially covered background cell."""
    g = mesh.p1_grads[cell]
    conn = mesh.cells[cell]
    slot = vmap[conn]
    udof = u_base + 2 * slot[:, None] + np.arange(2)[None, :]
    pdof = p_base + slot
    W = rule.total
    lam = barycentric(mesh, cell, rule.points) if len(rule.points) else np.zeros((0, 3))

    M = nu_a * W * (g @ g.T)
    for comp in range(2):
        r = np.repeat(udof[:, comp], 3)
        c = np.tile(udof[:, comp], 3)
        sys.add(r, c, M.ravel())

    # -(div v, q) with int lambda_b over the cut region
    int_lam = rule.weights @ lam if len(rule.points) else np.zeros(3)
    for comp in range(2):
        vals = -np.outer(g[:, comp], int_lam)
        r = np.repeat(udof[:, comp], 3)
        c = np.tile(pdof, 3)
        sys.add(r, c, vals.ravel())
        sys.add(c, r, vals.ravel())

    h2 = mesh.cell_diameters[cell] ** 2
    area_j = mesh.cell_areas[cell] if jh_extension else W
    J = -delta * h2 * area_j * (g @ g.T)
    sys.add(np.repeat(pdof, 3), np.tile(pdof, 3), J.ravel())

    if f is not None:
        if len(rule.points):
            fv = eval_field(f, rule.points)
            rv = np.einsum("q,qa,qi->ai", rule.weights, lam, fv)
            sys.add_rhs(udof.ravel(), rv.ravel())
        # rhs stabilization matches the j-term region
        if jh_extension:
            frule = triangle_rule(mesh.cell_points[cell], order)
            fpts, fw = frule.points, frule.weights
        else:
            fpts, fw = rule.points, rule.weights
        if len(fpts):
            fv = eval_field(f, fpts)
            rq = -delta * h2 * np.einsum("q,qi,ai->a", fw, fv, g)
            sys.add_rhs(pdof, rq)


def _interface_terms_loop(sys, space, problem, segments):
    nu_a = problem.viscosity if problem.nu_scale_a else 1.0
    a1, a2 = problem.alpha
    bg, fr = space.background, space.front
    for s in segments:
        gT = bg.p1_grads[s.bg_cell]
        gK = fr.p1_grads[s.front_cell]
        lamT = barycentric(bg, s.bg_cell, s.points)
        lamK = barycentric(fr, s.front_cell, s.points)
        n = s.normal
        w = s.weights
        h = bg.cell_diameters[s.bg_cell]

        connT = bg.cells[s.bg_cell]
        connK = fr.cells[s.front_cell]
        slotT = space.bg_vmap[connT]
        slotK = space.fr_vmap[connK]
        udofs = [np.concatenate([2 * slotT + c, space.offset_u2 + 2 * slotK + c])
                 for c in range(2)]
        pdofs = np.concatenate([space.offset_p1 + slotT, space.offset_p2 + slotK])

        # jump = front - background ; mean = a1*background + a2*front
        jco = np.hstack([-lamT, lamK])                       # (nq, 6)
        mco = np.concatenate([a1 * (gT @ n), a2 * (gK @ n)])  # (6,)
        mp = np.hstack([a1 * lamT, a2 * lamK])               # (nq, 6)

        jw = w @ jco                                          # (6,)
        pen = (problem.gamma * nu_a / h) * (jco.T * w) @ jco
        consist = -nu_a * (np.outer(jw, mco) + np.outer(mco, jw))
        Avv = pen + consist
        Bjp = (jco.T * w) @ mp                                # (6, 6) jump x mean

        for comp in range(2):
            r = np.repeat(udofs[comp], 6)
            c = np.tile(udofs[comp], 6)
            sys.add(r, c, Avv.ravel())
            bv = n[comp] * Bjp
            r = np.repeat(udofs[comp], 6)
            c = np.tile(pdofs, 6)
            sys.add(r, c, bv.ravel())
            sys.add(c, r, bv.ravel())


def _overlap_terms_loop(sys, space, problem, pairs):
    nu_a = problem.viscosity if problem.nu_scale_a else 1.0
    bg, fr = space.background, space.front
    for T, K, area in zip(pairs.bg_cell, pairs.front_cell, pairs.area):
        gT = bg.p1_grads[T]
        gK = fr.p1_grads[K]
        slotT = space.bg_vmap[bg.cells[T]]
        slotK = space.fr_vmap[fr.cells[K]]
        G = np.vstack([gT, -gK])                              # jump gradient
        M = nu_a * area * (G @ G.T)
        for comp in range(2):
            dofs = np.concatenate([2 * slotT + comp,
                                   space.offset_u2 + 2 * slotK + comp])
            sys.add(np.repeat(dofs, 6), np.tile(dofs, 6), M.ravel())


def _neumann_terms_loop(sys, space, problem):
    if not problem.neumann:
        return
    xs, ws = seg_rule(max(problem.quad_order, 2))
    for mesh_id, marker, traction in problem.neumann:
        mesh = space.background if mesh_id == BG else space.front
        vmap = space.bg_vmap if mesh_id == BG else space.fr_vmap
        base = 0 if mesh_id == BG else space.offset_u2
        for e, ((i, j), m) in enumerate(zip(mesh.boundary_edges,
                                            mesh.boundary_markers)):
            if int(m) != marker:
                continue
            if vmap[i] < 0 or vmap[j] < 0:
                continue
            a, b = mesh.vertices[i], mesh.vertices[j]
            _, n = mesh.boundary_normal(e)
            if mesh_id == BG:
                pieces = uncovered_intervals_on_segment(a, b, space.front)
            else:
                pieces = exterior_intervals_on_segment(a, b, n, space.background)
            ev = b - a
            length = np.hypot(*ev)
            for t0, t1 in pieces:
                ts = t0 + xs * (t1 - t0)
                pts = a[None, :] + ts[:, None] * ev[None, :]
                w = ws * (t1 - t0) * length
                tv = np.asarray(traction(pts, n), float).reshape(-1, 2)
                lam = np.column_stack([1.0 - ts, ts])  # hats of i, j
                for vloc, v in enumerate((i, j)):
                    for comp in range(2):
                        sys.add_rhs([base + 2 * vmap[v] + comp],
                                    [np.sum(w * lam[:, vloc] * tv[:, comp])])


def stokes_item_terms_loop(problem, space, topo):
    """Per-item assembly of the coupled Stokes system: the reference for the
    batched ``stokes.assemble``.  Cut-cell terms are added one partial cell
    at a time, interface terms one segment, overlap terms one pair and
    Neumann loads one (piece, vertex, component) at a time; full cells use
    the package's batched volume kernel, as the package always did."""
    sys = SparseSystem(space.ndof)
    bg, fr = space.background, space.front
    nu_a = problem.viscosity if problem.nu_scale_a else 1.0
    f = problem.body_force
    order = problem.quad_order
    _full_cell_volume_terms(sys, bg, topo.class_not, space.bg_vmap, 0,
                            space.offset_p1, nu_a, problem.delta, f, order)
    for i, c in enumerate(topo.class_partial.tolist()):
        _cut_cell_terms_loop(sys, bg, c, topo.cut_rules[i], space.bg_vmap, 0, space.offset_p1,
                             nu_a, problem.delta, f, problem.jh_extension, order)
    _full_cell_volume_terms(sys, fr, space.fluid_cells, space.fr_vmap,
                            space.offset_u2, space.offset_p2, nu_a,
                            problem.delta, f, order)
    _interface_terms_loop(sys, space, problem, topo.interface_segments)
    if problem.use_ih:
        _overlap_terms_loop(sys, space, problem, topo.overlap_pairs)
    _neumann_terms_loop(sys, space, problem)
    if len(space.dirichlet_dofs):
        sys.set_dirichlet(space.dirichlet_dofs, space.dirichlet_values)
    return sys


def error_norms_loop(solution, exact_u, exact_grad_u, exact_p, topo, order=4,
                     mean_shift=None):
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
        ge = eval_field(exact_grad_u, rule.points)
        pe = eval_field(exact_p, rule.points).reshape(-1)
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
        rule = (topo.cut_rules[i] if order <= topo.order
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
            vals = [np.asarray(f(m), float) for m in mids]
            lam_at_mid = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                   [0.5, 0.0, 0.5]])
            for a in range(3):
                contrib = sum(vals[q] * lam_at_mid[q, a] for q in range(3))
                for comp in range(2):
                    rhs[2 * conn[a] + comp] += (area / 3.0) * contrib[comp]
                rhs[2 * nv + conn[a]] += -delta * hT ** 2 * (area / 3.0) * sum(
                    vals[q] @ G[a] for q in range(3))
    return A, rhs
