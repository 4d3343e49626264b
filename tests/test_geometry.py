import numpy as np
import pytest

from olmfsi.mesh import Mesh, build_rect_mesh, refine_uniform, FLUID, SOLID
from olmfsi.geometry import (classify, build_topology, intersect_convex,
                             polygon_area, cut_cell_quadrature,
                             interface_quadrature, overlap_region_pairs,
                             subtractive_rules, fan_triangles, triangle_rule,
                             tri_rule, CoarseBackgroundError,
                             covered_intervals_on_segment,
                             uncovered_intervals_on_segment)

from oracles import (sample_cell_fraction, scanline_intersection_area,
                     scanline_mesh_overlap_area, mc_mesh_overlap_area,
                     split_edges_brute_force, adaptive_tri_integral,
                     halfplane_cut_area, clip_convex_loop, classify_loop,
                     polygon_area_loop, polygon_rule, _subtractive_rule,
                     covered_dict)

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def tri_mesh(pts):
    return Mesh(np.asarray(pts, float), np.array([[0, 1, 2]]))


# -- convex intersection -----------------------------------------------------

def test_intersect_identical():
    out = intersect_convex(UNIT_TRI, UNIT_TRI)
    assert polygon_area(out) == pytest.approx(0.5, abs=1e-14)


def test_intersect_disjoint():
    other = UNIT_TRI + np.array([5.0, 5.0])
    assert len(intersect_convex(UNIT_TRI, other)) == 0


def test_intersect_shifted_squares():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    out = intersect_convex(sq, sq + 0.5)
    assert polygon_area(out) == pytest.approx(0.25, abs=1e-14)


def test_intersect_area_bound_random():
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(50):
        a = rng.uniform(0, 1, (3, 2))
        b = rng.uniform(0, 1, (3, 2))
        ta, tb = tri_mesh(a), tri_mesh(b)  # constructors force CCW
        out = intersect_convex(ta.cell_points[0], tb.cell_points[0])
        eps = 1e-12 * max(np.ptp(ta.cell_points[0], axis=0).max(),
                          np.ptp(tb.cell_points[0], axis=0).max())
        assert np.array_equal(out, clip_convex_loop(ta.cell_points[0],
                                                    tb.cell_points[0], eps))
        area = polygon_area(out)
        assert area == polygon_area_loop(out)
        assert area <= min(ta.cell_areas[0], tb.cell_areas[0]) + 1e-12
        # cross-check the area against the scanline oracle
        ref = scanline_intersection_area(ta.cell_points[0], tb.cell_points[0])
        assert area == pytest.approx(ref, abs=1e-12)
        pairs.append((ta.cell_points[0], tb.cell_points[0], out))
    # the same pairs clipped in one stacked call
    pts, cnt = intersect_convex(np.array([p[0] for p in pairs]),
                                np.array([p[1] for p in pairs]))
    assert (cnt > 3).any()
    for (_, _, out), p, n in zip(pairs, pts, cnt):
        assert np.array_equal(p[:n], out)


# -- classification ------------------------------------------------------------

def test_classify_front_outside():
    bg = build_rect_mesh(3, 3, [(0, 0), (1, 1)])
    fr = build_rect_mesh(2, 2, [(5, 5), (6, 6)])
    topo = classify(bg, fr)
    assert len(topo.class_not) == bg.nc
    assert len(topo.class_fully) == len(topo.class_partial) == 0


def test_classify_front_covers_everything():
    bg = build_rect_mesh(3, 3, [(0, 0), (1, 1)])
    fr = build_rect_mesh(2, 2, [(-1, -1), (2, 2)])
    topo = classify(bg, fr)
    assert len(topo.class_fully) == bg.nc


def test_classify_against_sampling_oracle():
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    fr = build_rect_mesh(3, 3, [(0.45, 0.45), (1.05, 1.05)])
    topo = classify(bg, fr)
    cls = np.zeros(bg.nc, dtype=int)
    cls[topo.class_fully] = 1
    cls[topo.class_partial] = 2
    for c in range(bg.nc):
        frac = sample_cell_fraction(bg.cell_points[c], fr, n=40)
        if frac == 0.0:
            assert cls[c] == 0
        elif frac == 1.0:
            assert cls[c] == 1
        else:
            assert cls[c] == 2


def test_classify_partition():
    bg = build_rect_mesh(5, 5, [(0, 0), (1, 1)])
    fr = build_rect_mesh(3, 3, [(0.21, 0.17), (0.77, 0.69)])
    topo = classify(bg, fr)
    all_cells = np.concatenate([topo.class_not, topo.class_fully,
                                topo.class_partial])
    assert sorted(all_cells.tolist()) == list(range(bg.nc))
    assert sorted(topo.reduced_cells.tolist()) == sorted(
        np.concatenate([topo.class_not, topo.class_partial]).tolist())


def test_classify_fineness_violation():
    # composite with a solid band one cell away from the outer boundary:
    # a coarse background cell spans through the thin fluid collar
    fr = build_rect_mesh(4, 4, [(0.2, 0.2), (0.8, 0.8)],
                         region_fn=lambda c: SOLID if 0.35 < c[1] < 0.65 else FLUID)
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(CoarseBackgroundError):
        classify(bg, fr)


# -- cut-cell quadrature --------------------------------------------------------

def test_cut_rule_no_intersection():
    tri = tri_mesh(UNIT_TRI)
    fr = build_rect_mesh(1, 1, [(5, 5), (6, 6)])
    rule = cut_cell_quadrature(0, tri, fr)
    assert rule.total == pytest.approx(0.5, abs=1e-14)


def test_cut_rule_fully_covered():
    tri = tri_mesh(UNIT_TRI)
    fr = build_rect_mesh(1, 1, [(-1, -1), (2, 2)])
    rule = cut_cell_quadrature(0, tri, fr)
    assert rule.total == pytest.approx(0.0, abs=1e-12)


def test_cut_rule_halfplane_case():
    # unit right triangle cut by the half-plane x >= 0.5 (front = big
    # rectangle).  The remaining quadrilateral (0,0)(.5,0)(.5,.5)(0,1) has
    # area 3/8, confirmed by the analytic half-plane formula and Monte-Carlo.
    tri = tri_mesh(UNIT_TRI)
    fr = build_rect_mesh(1, 1, [(0.5, -1.0), (3.0, 3.0)])
    rule = cut_cell_quadrature(0, tri, fr, order=2)
    analytic = halfplane_cut_area(UNIT_TRI, 0.5, axis=0)
    assert analytic == pytest.approx(0.375, abs=1e-12)
    mc = 0.5 - mc_mesh_overlap_area(UNIT_TRI, fr, n=400_000, seed=3)
    assert abs(mc - 0.375) < 2e-3
    assert rule.total == pytest.approx(0.375, abs=1e-10)


@pytest.mark.parametrize("c,axis", [(0.2, 0), (0.35, 0), (0.5, 0), (0.65, 0),
                                    (0.8, 0), (0.2, 1), (0.45, 1), (0.7, 1)])
def test_cut_rule_weight_sums_match_analytic(c, axis):
    tri = tri_mesh(UNIT_TRI)
    if axis == 0:
        fr = build_rect_mesh(1, 1, [(c, -1.0), (3.0, 3.0)])
    else:
        fr = build_rect_mesh(1, 1, [(-1.0, c), (3.0, 3.0)])
    rule = cut_cell_quadrature(0, tri, fr)
    assert rule.total == pytest.approx(halfplane_cut_area(UNIT_TRI, c, axis),
                                       abs=1e-10)


def test_cut_rule_weight_sum_invariant():
    bg = build_rect_mesh(4, 4, [(0, 0), (1, 1)])
    fr = build_rect_mesh(3, 2, [(0.13, 0.27), (0.81, 0.64)])
    topo = classify(bg, fr)
    for c in topo.class_partial:
        rule = cut_cell_quadrature(int(c), bg, fr)
        covered = scanline_mesh_overlap_area(bg.cell_points[int(c)], fr)
        expected = bg.cell_areas[int(c)] - covered
        assert rule.total == pytest.approx(expected, abs=1e-10)


def test_cut_rule_polynomial_exactness():
    # against an adaptive-subdivision reference on the subtracted parts
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    fr = build_rect_mesh(2, 2, [(0.225, 0.175), (0.775, 0.825)])
    topo = classify(bg, fr)
    rule_ref = tri_rule(6)
    for order in (2, 4):
        for c in topo.class_partial[:4]:
            rule = cut_cell_quadrature(int(c), bg, fr, order=order)
            for (a, b) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
                if a + b > order:
                    continue
                f = lambda p: p[0] ** a * p[1] ** b
                val = np.sum(rule.weights * rule.points[:, 0] ** a
                             * rule.points[:, 1] ** b)
                whole = adaptive_tri_integral(f, bg.cell_points[int(c)],
                                              rule_ref, tol=1e-12)
                covered = 0.0
                for k in range(fr.nc):
                    poly = intersect_convex(bg.cell_points[int(c)],
                                            fr.cell_points[k])
                    if len(poly):
                        for t in range(1, len(poly) - 1):
                            covered += adaptive_tri_integral(
                                f, poly[[0, t, t + 1]], rule_ref, tol=1e-12)
                assert val == pytest.approx(whole - covered, abs=1e-9)


# -- interface segments ---------------------------------------------------------

def test_interface_square_in_one_cell():
    bg = build_rect_mesh(1, 1, [(0, 0), (1, 1)])
    s = 0.22
    fr = build_rect_mesh(1, 1, [(0.55, 0.1), (0.55 + s, 0.1 + s)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    assert len(segs) == 4
    assert sum(sg.length for sg in segs) == pytest.approx(4 * s, abs=1e-12)
    # right edge of the square has outward normal (+1, 0)
    right = [sg for sg in segs
             if np.allclose([sg.start[0], sg.end[0]], 0.55 + s)]
    assert len(right) == 1
    assert np.allclose(right[0].normal, [1.0, 0.0], atol=1e-14)
    # weights sum to each segment length
    for sg in segs:
        assert sg.weights.sum() == pytest.approx(sg.length, abs=1e-13)


def test_interface_against_brute_force_splitting():
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    s = 0.6
    fr = build_rect_mesh(2, 2, [(0.2, 0.2), (0.8, 0.8)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    ref = split_edges_brute_force(fr, bg)
    assert sum(sg.length for sg in segs) == pytest.approx(4 * s, abs=1e-10)
    assert len(segs) == len(ref)
    # match pieces by midpoint
    mids = sorted((tuple(np.round(0.5 * (sg.start + sg.end), 9)), sg.length)
                  for sg in segs)
    refm = sorted((tuple(np.round(m, 9)), l) for m, l in ref)
    for (ma, la), (mb, lb) in zip(mids, refm):
        assert np.allclose(ma, mb, atol=1e-9)
        assert la == pytest.approx(lb, abs=1e-10)


def test_interface_parents_in_reduced_mesh():
    bg = build_rect_mesh(6, 6, [(0, 0), (1, 1)])
    fr = build_rect_mesh(4, 4, [(0.18, 0.22), (0.73, 0.81)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    reduced = set(topo.reduced_cells.tolist())
    for sg in segs:
        assert sg.bg_cell in reduced
        assert 0 <= sg.front_cell < fr.nc
    total = sum(sg.length for sg in segs)
    assert total == pytest.approx(2 * (0.55 + 0.59), abs=1e-10)


def test_interface_outside_background_dropped():
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    fr = build_rect_mesh(3, 3, [(0.45, 0.45), (1.05, 1.05)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    # only the parts of the front boundary inside the unit square remain
    total = sum(sg.length for sg in segs)
    assert total == pytest.approx(2 * 0.55, abs=1e-10)
    for sg in segs:
        mid = 0.5 * (sg.start + sg.end)
        assert -1e-12 <= mid[0] <= 1 + 1e-12
        assert -1e-12 <= mid[1] <= 1 + 1e-12


# -- overlap pairs ---------------------------------------------------------------

def test_overlap_pairs_disjoint():
    bg = build_rect_mesh(3, 3, [(0, 0), (1, 1)])
    fr = build_rect_mesh(2, 2, [(4, 4), (5, 5)])
    topo = classify(bg, fr)
    assert len(overlap_region_pairs(fr, topo)) == 0


def test_overlap_pair_cell_inside_one_background_cell():
    bg = build_rect_mesh(1, 1, [(0, 0), (1, 1)])
    fr = tri_mesh([[0.55, 0.05], [0.8, 0.05], [0.8, 0.3]])
    topo = classify(bg, fr)
    pairs = overlap_region_pairs(fr, topo)
    assert len(pairs) == 1
    assert pairs.area[0] == pytest.approx(fr.cell_areas[0], abs=1e-13)
    poly = topo.polygons.verts[0, :topo.polygons.count[0]]
    assert polygon_area(poly) == pytest.approx(fr.cell_areas[0], abs=1e-13)


def test_overlap_area_against_oracles():
    bg = build_rect_mesh(4, 4, [(0, 0), (1, 1)])
    fr = build_rect_mesh(3, 3, [(0.23, 0.29), (0.71, 0.77)])
    topo = classify(bg, fr)
    pairs = overlap_region_pairs(fr, topo)
    total = pairs.area.sum()
    # scanline oracle for the overlap: front cells against reduced cells
    ref = 0.0
    for k in range(fr.nc):
        for c in topo.reduced_cells:
            ref += scanline_intersection_area(fr.cell_points[k],
                                              bg.cell_points[int(c)])
    assert total == pytest.approx(ref, abs=1e-10)
    # no double counting: every pair polygon is inside its two parents
    for k, c, area in zip(pairs.front_cell, pairs.bg_cell, pairs.area):
        ref_area = scanline_intersection_area(fr.cell_points[k], bg.cell_points[c])
        assert area == pytest.approx(ref_area, abs=1e-12)


# -- global invariants -------------------------------------------------------------

def test_partition_of_total_area():
    bg = build_rect_mesh(5, 4, [(0, 0), (1, 1)])
    fr = build_rect_mesh(4, 3, [(0.17, 0.23), (0.69, 0.78)])
    topo = build_topology(bg, fr)
    omega1 = bg.cell_areas[topo.class_not].sum() + topo.cut_rules.totals().sum()
    front_area = fr.cell_areas.sum()
    assert omega1 + front_area == pytest.approx(1.0, abs=1e-9)


def test_translation_equivariance():
    bg = build_rect_mesh(6, 6, [(0, 0), (2, 2)])
    fr0 = build_rect_mesh(3, 3, [(0.37, 0.43), (1.01, 1.13)])
    shift = np.array([0.31, 0.17])
    fr1 = fr0.translated(shift)
    bg1 = Mesh(bg.vertices + shift, bg.cells, bg.boundary_edges,
               bg.boundary_markers)
    t0 = build_topology(bg, fr0)
    t1 = build_topology(bg1, fr1)
    assert np.array_equal(t0.class_partial, t1.class_partial)
    assert np.allclose(t0.cut_rules.totals(), t1.cut_rules.totals(), rtol=0, atol=1e-10)
    assert t0.interface_length() == pytest.approx(t1.interface_length(),
                                                  abs=1e-10)
    assert t0.overlap_area() == pytest.approx(t1.overlap_area(), abs=1e-10)


def test_grid_aligned_front():
    # front boundary exactly on background grid lines: no partial cells
    bg = build_rect_mesh(4, 4, [(0, 0), (1, 1)])
    fr = build_rect_mesh(2, 2, [(0.25, 0.25), (0.75, 0.75)])
    topo = build_topology(bg, fr)
    assert len(topo.class_partial) == 0
    assert topo.interface_length() == pytest.approx(4 * 0.5, abs=1e-10)
    reduced = set(topo.reduced_cells.tolist())
    for sg in topo.interface_segments:
        assert sg.bg_cell in reduced


@pytest.mark.parametrize("order", [1, 2, 4, 5])
def test_fan_rules_match_per_polygon_oracle(order):
    # polygons of 3 to 6 vertices from clipping random triangle pairs, padded
    rng = np.random.default_rng(11)
    a = np.array([tri_mesh(t).cell_points[0] for t in rng.uniform(0, 1, (200, 3, 2))])
    b = np.array([tri_mesh(t).cell_points[0] for t in rng.uniform(0, 1, (200, 3, 2))])
    verts, count = intersect_convex(a, b)
    assert set(count[count > 0].tolist()) == {3, 4, 5, 6}
    tris, poly = fan_triangles(verts, count)
    rule = triangle_rule(tris, order)
    for i, n in enumerate(count.tolist()):
        ref = polygon_rule(verts[i, :n], order)
        assert np.array_equal(rule.points[poly == i].reshape(-1, 2), ref.points)
        assert np.array_equal(rule.weights[poly == i].ravel(), ref.weights)
        if n:
            assert ref.total == pytest.approx(polygon_area_loop(verts[i, :n]), rel=1e-12)


def test_rotated_fronts_partition_and_consistency():
    # generic non-axis-aligned cuts: area partition, interface length and
    # the affine patch test all hold at machine precision
    from olmfsi.stokes import CompositeSpace, FluidProblem, assemble
    rng = np.random.default_rng(0)
    done = 0
    while done < 6:
        ang = rng.uniform(0, 180)
        cx, cy = rng.uniform(0.35, 0.65, 2)
        w, h = rng.uniform(0.2, 0.33, 2)
        fr0 = build_rect_mesh(int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                              [(cx - w / 2, cy - h / 2), (cx + w / 2, cy + h / 2)])
        th = np.deg2rad(ang)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        v = (fr0.vertices - [cx, cy]) @ R.T + [cx, cy]
        A = rng.standard_normal((2, 2))
        A[1, 1] = -A[0, 0]
        b = rng.standard_normal(2)
        c = float(rng.standard_normal())
        if (v < 0.02).any() or (v > 0.98).any():
            continue
        fr = Mesh(v, fr0.cells, fr0.boundary_edges, fr0.boundary_markers)
        bg = build_rect_mesh(7, 7, [(0, 0), (1, 1)])
        topo = build_topology(bg, fr)
        omega1 = bg.cell_areas[topo.class_not].sum() + topo.cut_rules.totals().sum()
        assert omega1 + fr.cell_areas.sum() == pytest.approx(1.0, abs=1e-10)
        per = sum(np.hypot(*(fr.vertices[j] - fr.vertices[i]))
                  for i, j in fr.boundary_edges)
        assert topo.interface_length() == pytest.approx(per, abs=1e-10)

        u = lambda p: A @ p + b
        space = CompositeSpace(bg, fr, topo,
                               bg_dirichlet={m: u for m in (1, 2, 3, 4)},
                               interface_g=None, pin_pressure=True, pin_value=c)
        sys = assemble(FluidProblem(viscosity=1.0), space, topo)
        x = np.zeros(space.ndof)
        for mesh, vmap, ubase, pbase in (
                (bg, space.bg_vmap, 0, space.offset_p1),
                (fr, space.fr_vmap, space.offset_u2, space.offset_p2)):
            act = vmap >= 0
            vals = mesh.vertices[act] @ A.T + b
            x[ubase + 2 * vmap[act]] = vals[:, 0]
            x[ubase + 2 * vmap[act] + 1] = vals[:, 1]
            x[pbase + vmap[act]] = c
        free = np.ones(space.ndof, bool)
        free[space.dirichlet_dofs] = False
        assert np.abs((sys.matrix() @ x - sys.rhs)[free]).max() < 1e-10
        done += 1


def test_covered_uncovered_intervals():
    fr = build_rect_mesh(2, 2, [(0.25, -1.0), (0.75, 2.0)])
    a, b = np.array([0.0, 0.5]), np.array([1.0, 0.5])
    cov = covered_intervals_on_segment(a, b, fr)
    unc = uncovered_intervals_on_segment(a, b, fr)
    assert len(cov) == 1
    assert cov[0][0] == pytest.approx(0.25, abs=1e-12)
    assert cov[0][1] == pytest.approx(0.75, abs=1e-12)
    assert sum(t1 - t0 for t0, t1 in unc) == pytest.approx(0.5, abs=1e-12)


# -- stored covered polygons -----------------------------------------------------

def _random_fronts(n, seed):
    """Rotated rectangular fronts with a solid core, inside the unit square."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        cx, cy = rng.uniform(0.4, 0.6, 2)
        w, h = rng.uniform(0.3, 0.45, 2)
        fr0 = build_rect_mesh(int(rng.integers(4, 7)), int(rng.integers(4, 7)),
                              [(cx - w / 2, cy - h / 2), (cx + w / 2, cy + h / 2)],
                              region_fn=lambda p: SOLID if (abs(p[0] - cx) < w / 5
                                                            and abs(p[1] - cy) < h / 5)
                              else FLUID)
        th = rng.uniform(0, np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        v = (fr0.vertices - [cx, cy]) @ R.T + [cx, cy]
        if (v < 0.02).any() or (v > 0.98).any():
            continue
        out.append(Mesh(v, fr0.cells, fr0.boundary_edges, fr0.boundary_markers,
                        fr0.region_tags))
    return out


def test_topology_rules_match_standalone_cut_rules():
    bg = build_rect_mesh(20, 20, [(0, 0), (1, 1)])
    for fr in _random_fronts(4, seed=5):
        topo = build_topology(bg, fr, fluid_tag=FLUID)
        assert len(topo.class_partial)
        covered = covered_dict(topo.polygons)
        order4 = subtractive_rules(bg, topo.class_partial, topo.polygons, 4)
        for i, c in enumerate(topo.class_partial.tolist()):
            for order, rule in ((2, topo.cut_rules[i]), (4, order4[i])):
                for ref in (cut_cell_quadrature(c, bg, fr, order),
                            _subtractive_rule(bg, c, covered[c], order)):
                    assert np.array_equal(rule.points, ref.points)
                    assert np.array_equal(rule.weights, ref.weights)


def _inside_length(a, b, lo, hi):
    """Length of the segments [a[i], b[i]] inside the open box (lo, hi)."""
    d = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.stack([(lo - a) / d, (hi - a) / d])
    t0 = np.where(d != 0, t.min(axis=0), -np.inf).max(axis=1)
    t1 = np.where(d != 0, t.max(axis=0), np.inf).min(axis=1)
    flat_in = ((d != 0) | ((a > lo) & (a < hi))).all(axis=1)
    return np.where(flat_in, np.clip(np.minimum(t1, 1) - np.maximum(t0, 0), 0, None), 0.0) \
        * np.hypot(d[:, 0], d[:, 1])


def test_covered_polygons_area_identities():
    bg20 = build_rect_mesh(20, 20, [(0, 0), (1, 1)])
    cases = [("random", bg20, fr) for fr in _random_fronts(4, seed=9)]
    cases += [c for c in _placements() if c[0] not in ("random", "coarse background")]
    for name, bg, fr in cases:
        topo = build_topology(bg, fr, fluid_tag=FLUID)
        p = topo.polygons
        assert np.isin(p.bg_cell, topo.reduced_cells).all(), name
        # uncovered plus covered area is the cell area, for every cut cell
        covered = np.bincount(p.bg_cell, p.area, bg.nc)[topo.class_partial]
        assert covered + topo.cut_rules.totals() == pytest.approx(
            bg.cell_areas[topo.class_partial], rel=1e-12), name
        # the overlap area is the front fluid area over the reduced mesh
        fluid_area = sum(polygon_area_loop(p.verts[i, :p.count[i]]) for i in range(len(p))
                         if fr.region_tags[p.front_cell[i]] == FLUID)
        assert topo.overlap_area() == pytest.approx(fluid_area, rel=1e-12), name
        # the interface length is the front boundary length inside the background
        ij = fr.boundary_edges
        cells, _ = fr.boundary_normals(np.arange(len(ij)))
        ij = ij[fr.region_tags[cells] == FLUID]
        lo, hi = bg.bbox
        clipped = _inside_length(fr.vertices[ij[:, 0]], fr.vertices[ij[:, 1]], lo, hi).sum()
        assert topo.interface_length() == pytest.approx(clipped, rel=1e-12), name


def test_topology_clips_each_pair_once(monkeypatch):
    # pairs clipped = batch sizes summed over the kernel calls
    import olmfsi.geometry as geometry
    pairs = [0]
    clip = geometry.intersect_convex

    def counted(poly_a, poly_b, eps=None):
        pairs[0] += len(poly_a) if np.ndim(poly_a) == 3 else 1
        return clip(poly_a, poly_b, eps)

    monkeypatch.setattr(geometry, "intersect_convex", counted)
    bg = build_rect_mesh(20, 20, [(0, 0), (1, 1)])
    fr = _random_fronts(1, seed=2)[0]
    classify(bg, fr)
    n_classify, pairs[0] = pairs[0], 0
    topo = build_topology(bg, fr, fluid_tag=FLUID)
    assert len(topo.class_partial) and len(topo.overlap_pairs)
    bp, fp = bg.cell_points, fr.cell_points
    meet = ((bp.min(axis=1)[:, None] <= fp.max(axis=1)[None])
            & (fp.min(axis=1)[None] <= bp.max(axis=1)[:, None])).all(axis=2)
    assert pairs[0] == n_classify == meet.sum()


def _placements():
    """(name, background, front) for degenerate and generic front placements."""
    h = 0.125
    bg = build_rect_mesh(8, 8, [(0, 0), (1, 1)])
    bg20 = build_rect_mesh(20, 20, [(0, 0), (1, 1)])
    core = lambda p: SOLID if abs(p[0] - 0.5) < 0.1 and abs(p[1] - 0.5) < 0.1 else FLUID
    out = [("random", bg20, fr) for fr in _random_fronts(4, seed=13)]
    out += [
        ("vertex on vertex", bg, build_rect_mesh(4, 4, [(2 * h, 2 * h), (6 * h, 6 * h)],
                                                 region_fn=core)),
        ("vertex on vertex, shifted 3h", bg, refine_uniform(refine_uniform(
            tri_mesh([[h, h], [5 * h, h], [h, 5 * h]]))).translated([3 * h, h])),
        ("edge on edge", bg, build_rect_mesh(3, 3, [(2 * h, 2 * h), (0.61, 0.7)])),
        ("across the background boundary", bg,
         build_rect_mesh(3, 4, [(0.71, 0.23), (1.3, 0.81)])),
        ("sliver 1e-6 h deep", bg,
         build_rect_mesh(3, 3, [(2 * h - 1e-6 * h, 0.3), (0.61, 0.7)])),
        ("coarse background", build_rect_mesh(2, 2, [(0, 0), (1, 1)]),
         build_rect_mesh(4, 4, [(0.2, 0.2), (0.8, 0.8)],
                         region_fn=lambda c: SOLID if 0.35 < c[1] < 0.65 else FLUID)),
    ]
    return out


def test_batched_classify_matches_per_pair_reference():
    raised = 0
    for name, bg, fr in _placements():
        ref_cls, ref_cov = classify_loop(bg, fr, SOLID)
        if ref_cls is None:
            with pytest.raises(CoarseBackgroundError):
                classify(bg, fr)
            raised += 1
            continue
        topo = build_topology(bg, fr, fluid_tag=FLUID)
        cls = np.zeros(bg.nc, dtype=np.int64)
        cls[topo.class_fully] = 1
        cls[topo.class_partial] = 2
        assert np.array_equal(cls, ref_cls), name
        covered = covered_dict(topo.polygons)
        assert list(covered) == list(ref_cov), name
        for c, polys in ref_cov.items():
            assert [k for k, _ in covered[c]] == [k for k, _ in polys], name
            for (_, p), (_, q) in zip(covered[c], polys):
                assert np.array_equal(p, q), name
        assert np.array_equal(topo.polygons.area,
                              [polygon_area_loop(p) for polys in ref_cov.values()
                               for _, p in polys]), name
        assert len(topo.cut_rules) == len(topo.class_partial), name
        for i, c in enumerate(topo.class_partial.tolist()):
            ref = _subtractive_rule(bg, c, ref_cov[c], topo.order)
            assert np.array_equal(topo.cut_rules[i].points, ref.points), name
            assert np.array_equal(topo.cut_rules[i].weights, ref.weights), name
    assert raised == 1
