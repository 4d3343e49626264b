import numpy as np
import pytest

from olmfsi.mesh import Mesh, build_rect_mesh, FLUID, SOLID
from olmfsi.geometry import (EPS_GEOM, QUAD_ORDER, _pieces, classify, build_topology,
                             intersect_convex, cut_cell_quadrature,
                             interface_quadrature, overlap_region_pairs,
                             subtractive_rules, fan_triangles, triangle_rule,
                             tri_rule, CoarseBackgroundError, GeometryError,
                             exterior_pieces, uncovered_pieces)

from fixtures import polygon_area, refine_uniform, translated
from oracles import (sample_cell_fraction, scanline_intersection_area,
                     scanline_mesh_overlap_area, mc_mesh_overlap_area,
                     split_edges_brute_force, adaptive_tri_integral,
                     halfplane_cut_area, clip_convex_loop, classify_loop,
                     polygon_area_loop, polygon_rule, _subtractive_rule,
                     covered_dict, pieces_loop, interface_quadrature_loop,
                     exterior_intervals_loop, uncovered_intervals_loop)
from olmfsi.verification import flap_meshes, stokes_patch_setup

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
    assert segs.length.sum() == pytest.approx(4 * s, abs=1e-12)
    # right edge of the square has outward normal (+1, 0)
    right = np.flatnonzero(np.isclose(segs.start[:, 0], 0.55 + s)
                           & np.isclose(segs.end[:, 0], 0.55 + s))
    assert len(right) == 1
    assert np.allclose(segs.normal[right[0]], [1.0, 0.0], atol=1e-14)
    # weights sum to each segment length
    for w, length in zip(segs.weights, segs.length):
        assert w.sum() == pytest.approx(length, abs=1e-13)


def test_interface_against_brute_force_splitting():
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    s = 0.6
    fr = build_rect_mesh(2, 2, [(0.2, 0.2), (0.8, 0.8)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    ref = split_edges_brute_force(fr, bg)
    assert segs.length.sum() == pytest.approx(4 * s, abs=1e-10)
    assert len(segs) == len(ref)
    # match pieces by midpoint
    mids = sorted((tuple(np.round(0.5 * (a + b), 9)), length)
                  for a, b, length in zip(segs.start, segs.end, segs.length))
    refm = sorted((tuple(np.round(m, 9)), l) for m, l in ref)
    for (ma, la), (mb, lb) in zip(mids, refm):
        assert np.allclose(ma, mb, atol=1e-9)
        assert la == pytest.approx(lb, abs=1e-10)


def test_interface_parents_in_reduced_mesh():
    bg = build_rect_mesh(6, 6, [(0, 0), (1, 1)])
    fr = build_rect_mesh(4, 4, [(0.18, 0.22), (0.73, 0.81)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    assert np.isin(segs.bg_cell, topo.reduced_cells).all()
    assert ((0 <= segs.front_cell) & (segs.front_cell < fr.nc)).all()
    total = segs.length.sum()
    assert total == pytest.approx(2 * (0.55 + 0.59), abs=1e-10)


def test_interface_outside_background_dropped():
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    fr = build_rect_mesh(3, 3, [(0.45, 0.45), (1.05, 1.05)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    # only the parts of the front boundary inside the unit square remain
    total = segs.length.sum()
    assert total == pytest.approx(2 * 0.55, abs=1e-10)
    mid = 0.5 * (segs.start + segs.end)
    assert ((-1e-12 <= mid) & (mid <= 1 + 1e-12)).all()


def test_interface_corner_slivers_counted():
    # the front edge x + y = 1 + eta cuts two corners of area eta^2 / 4 off
    # the cells above (0.5, 0.5), which classify as fully covered: their
    # pieces face no reduced cell and are dropped, but counted
    bg = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    eta = 1e-5
    fr = Mesh([[-0.5, 1.5 + eta], [1.5 + eta, -0.5], [1.5, 1.5]], [[0, 1, 2]],
              [[0, 1], [1, 2], [2, 0]])
    topo = build_topology(bg, fr)
    assert len(topo.class_fully) == 2
    assert topo.dropped_corner_length == pytest.approx(np.sqrt(2) * eta, rel=1e-9)
    assert topo.interface_length() + topo.dropped_corner_length == pytest.approx(
        np.sqrt(2) * (1 - eta), rel=1e-12)
    assert topo.dropped_corner_length == interface_quadrature_loop(
        fr, bg, topo).dropped_corner_length


def test_interface_parent_fully_covered_raises():
    # a second front square inside the first: its edges face covered cells
    a = build_rect_mesh(2, 2, [(0.1, 0.1), (0.9, 0.9)])
    b = build_rect_mesh(1, 1, [(0.3, 0.3), (0.6, 0.6)])
    fr = Mesh(np.vstack([a.vertices, b.vertices]), np.vstack([a.cells, b.cells + a.nv]),
              np.vstack([a.boundary_edges, b.boundary_edges + a.nv]), validate=False)
    bg = build_rect_mesh(8, 8, [(0, 0), (1, 1)])
    topo = classify(bg, fr)
    for build in (interface_quadrature, interface_quadrature_loop):
        with pytest.raises(GeometryError, match=r"fully covered \(background cells \[36\]\)"):
            build(fr, bg, topo)


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
    fr1 = translated(fr0, shift)
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
    assert np.isin(topo.interface_segments.bg_cell, topo.reduced_cells).all()


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

        u = lambda p: (A @ p[..., None])[..., 0] + b
        space = CompositeSpace(bg, fr, topo,
                               bg_dirichlet={m: u for m in (1, 2, 3, 4)},
                               pin_pressure=True, pin_value=c)
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
    a, b = np.array([[0.0, 0.5]]), np.array([[1.0, 0.5]])
    seg, t0, t1 = uncovered_pieces(a, b, fr)
    # the one covered interval [0.25, 0.75] lies between the two pieces
    assert seg.tolist() == [0, 0]
    assert t1[0] == pytest.approx(0.25, abs=1e-12)
    assert t0[1] == pytest.approx(0.75, abs=1e-12)
    assert (t1 - t0).sum() == pytest.approx(0.5, abs=1e-12)


def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _loop_bits(rows, like):
    """_bits of the columns of reference rows, with the dtypes of ``like``."""
    return _bits(*(np.array([r[k] for r in rows], a.dtype) for k, a in enumerate(like)))


def _splitter_cases():
    """(background, front) of the flap, manufactured and patch studies."""
    from olmfsi.verification import build_manufactured, manufactured_fsi_problem
    cases = [flap_meshes(angle, res)[:2] for angle in (0.0, 65.0) for res in (1, 2)]
    mf = build_manufactured()
    cases += [(p.background, p.front_ref) for p in
              (manufactured_fsi_problem(mf, level) for level in range(3))]
    return cases + [stokes_patch_setup(level) for level in range(4)]


def _grid_segments():
    """Grid lines and diagonals of a 16 x 16 background along its cell edges."""
    s = np.linspace(0.0, 1.0, 17)
    lines = [np.column_stack([np.zeros_like(s), s]), np.column_stack([s, np.zeros_like(s)]),
             np.column_stack([s[:-1], np.zeros(16)])]
    ends = [lines[0] + [1.0, 0.0], lines[1] + [0.0, 1.0], lines[2] + 1.0 / 16]
    return list(zip(lines, ends))


def test_batched_cell_intervals_match_scalar_reference():
    # the piece table of one batched interval kernel call against the cut
    # sets of the per-pair intervals
    bg = stokes_patch_setup(1)[0]
    checked = 0
    for bg_, fr in _splitter_cases():
        # front edges cut at background cells, background edges under the front
        for edges_of, mesh, min_len in ((fr, bg_, EPS_GEOM), (bg_, fr, 1e-12)):
            a, b = (edges_of.vertices[edges_of.boundary_edges[:, k]] for k in (0, 1))
            got = _pieces(a, b, mesh, min_len)
            assert _bits(*got) == _loop_bits(pieces_loop(a, b, mesh, min_len), got)
            checked += (got[3] >= 0).sum()
    for a, b in _grid_segments():
        got = _pieces(a, b, bg, EPS_GEOM)
        assert _bits(*got) == _loop_bits(pieces_loop(a, b, bg, EPS_GEOM), got)
        assert (got[3] >= 0).all()
    assert checked > 1000


def test_piece_tables_match_loop_references():
    # coupling segments and both Neumann piece tables, byte for byte
    bg16 = stokes_patch_setup(1)[0]
    rows = 0
    for bg, fr in _splitter_cases():
        topo = build_topology(bg, fr)
        ref = interface_quadrature_loop(fr, bg, topo)
        got = topo.interface_segments
        fields = ("start", "end", "bg_cell", "front_cell", "normal", "points", "weights")
        assert _bits(*(getattr(got, f) for f in fields)) == \
            _bits(*(getattr(ref, f) for f in fields))
        assert got.dropped_corner_length == pytest.approx(ref.dropped_corner_length,
                                                          rel=1e-12, abs=0.0)
        rows += len(got)
        a, b = (fr.vertices[fr.boundary_edges[:, k]] for k in (0, 1))
        n = fr.boundary_normals(np.arange(len(a)))[1]
        assert _bits(*exterior_pieces(a, b, n, bg)) == _bits(*exterior_intervals_loop(a, b, n, bg))
        for a, b, mesh in ((bg.vertices[bg.boundary_edges[:, 0]],
                            bg.vertices[bg.boundary_edges[:, 1]], fr), (a, b, bg)):
            assert _bits(*uncovered_pieces(a, b, mesh)) == \
                _bits(*uncovered_intervals_loop(a, b, mesh))
    for a, b in _grid_segments():
        n = np.tile([0.0, 1.0], (len(a), 1))
        assert _bits(*exterior_pieces(a, b, n, bg16)) == \
            _bits(*exterior_intervals_loop(a, b, n, bg16))
        assert _bits(*uncovered_pieces(a, b, bg16)) == \
            _bits(*uncovered_intervals_loop(a, b, bg16))
    assert rows > 1000


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
        topo = build_topology(bg, fr)
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
        topo = build_topology(bg, fr)
        p = topo.polygons
        assert np.isin(p.bg_cell, topo.reduced_cells).all(), name
        # uncovered plus covered area is the cell area, for every cut cell
        covered = np.bincount(p.bg_cell, p.area, bg.nc)[topo.class_partial]
        assert covered + topo.cut_rules.totals() == pytest.approx(
            bg.cell_areas[topo.class_partial], rel=1e-12), name
        # the solid lies over fully covered cells only, so the overlap area
        # and the fully covered cells tile the front inside the background
        lo, hi = bg.bbox
        box = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
        inside = sum(polygon_area_loop(clip_convex_loop(t, box, 0.0)) for t in fr.cell_points)
        assert topo.overlap_area() + bg.cell_areas[topo.class_fully].sum() == pytest.approx(
            inside, rel=1e-12), name
        # the interface length is the front boundary length inside the background
        ij = fr.boundary_edges
        cells, _ = fr.boundary_normals(np.arange(len(ij)))
        ij = ij[fr.region_tags[cells] == FLUID]
        clipped = _inside_length(fr.vertices[ij[:, 0]], fr.vertices[ij[:, 1]], lo, hi).sum()
        assert topo.interface_length() == pytest.approx(clipped, rel=1e-12), name


def test_topology_clips_each_pair_once(monkeypatch):
    # classify clips the box-meeting pairs of the band cells, the cells whose
    # box meets the box of a front boundary edge, each once and in (background,
    # front) order; build_topology clips nothing more
    import olmfsi.geometry as geometry
    clipped = []
    clip = geometry.intersect_convex

    def recorded(poly_a, poly_b, eps=None):
        clipped.append((poly_a, poly_b))
        return clip(poly_a, poly_b, eps)

    monkeypatch.setattr(geometry, "intersect_convex", recorded)
    bg = build_rect_mesh(20, 20, [(0, 0), (1, 1)])
    fr = _random_fronts(1, seed=2)[0]
    topo = classify(bg, fr)
    n_classify = sum(len(a) for a, _ in clipped)
    assert build_topology(bg, fr).clipped_pairs == topo.clipped_pairs
    assert sum(len(a) for a, _ in clipped) == 2 * n_classify
    bp, fp = bg.cell_points, fr.cell_points
    edges = fr.vertices[fr.boundary_edges]
    box_meets = lambda p, q: ((p.min(axis=1)[:, None] <= q.max(axis=1)[None])
                              & (q.min(axis=1)[None] <= p.max(axis=1)[:, None])).all(axis=2)
    band = box_meets(bp, edges).any(axis=1)
    c, k = np.nonzero(box_meets(bp, fp) & band[:, None])
    assert topo.clipped_pairs == n_classify == len(c) < box_meets(bp, fp).sum()
    assert np.array_equal(np.concatenate([a for a, _ in clipped[:len(clipped) // 2]]), bp[c])
    assert np.array_equal(np.concatenate([b for _, b in clipped[:len(clipped) // 2]]), fp[k])
    assert set(topo.class_partial) <= set(np.flatnonzero(band))


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
        ("vertex on vertex, shifted 3h", bg, translated(refine_uniform(refine_uniform(
            tri_mesh([[h, h], [5 * h, h], [h, 5 * h]]))), [3 * h, h])),
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
        topo = build_topology(bg, fr)
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
            ref = _subtractive_rule(bg, c, ref_cov[c], QUAD_ORDER)
            assert np.array_equal(topo.cut_rules[i].points, ref.points), name
            assert np.array_equal(topo.cut_rules[i].weights, ref.weights), name
    assert raised == 1


def _fuzz_placements(family, n, seed):
    """n seeded fronts over a 12 x 12 unit-square background, of one placement
    family: random rigid motions, grid-aligned vertex on vertex, near-aligned
    (1e-12 to 1e-6 h offsets, 1e-9 or 1e-7 rad rotations) and crossing the
    background boundary."""
    h, rng, out = 1 / 12, np.random.default_rng(seed), []
    core = lambda lo, hi: (lambda p: SOLID if (np.abs(p - 0.5 * (lo + hi)) < 0.1 * (hi - lo)).all()
                           else FLUID)
    for _ in range(n):
        if family in ("aligned", "near-aligned"):
            lo = h * rng.integers(1, 5, 2)
            m = rng.integers(2, 5, 2)
            hi = lo + h * m * rng.integers(1, 3)
            fr = build_rect_mesh(*m, [lo, hi], region_fn=core(lo, hi))
            th, shift = 0.0, np.zeros(2)
            if family == "near-aligned":
                th = rng.choice([1e-9, 1e-7]) * rng.choice([-1, 1])
                shift = 10 ** rng.uniform(-12, -6) * h * rng.standard_normal(2)
        else:
            size = rng.uniform(0.2, 0.45, 2)
            c = rng.uniform(0.3, 0.7, 2) if family == "random" else rng.uniform(-0.05, 1.05, 2)
            lo, hi = c - size / 2, c + size / 2
            fr = build_rect_mesh(*rng.integers(2, 6, 2), [lo, hi], region_fn=core(lo, hi))
            th, shift = rng.uniform(0, np.pi), np.zeros(2)
        c = 0.5 * (lo + hi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        out.append(Mesh((fr.vertices - c) @ R.T + c + shift, fr.cells, fr.boundary_edges,
                        fr.boundary_markers, fr.region_tags))
    return out


def _assert_classify_matches_loop(bg, fr, name):
    ref_cls, ref_cov = classify_loop(bg, fr, SOLID)
    if ref_cls is None:
        with pytest.raises(CoarseBackgroundError):
            classify(bg, fr)
        return
    topo = classify(bg, fr)
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


@pytest.mark.parametrize("family, seed", [("random", 11), ("aligned", 12),
                                          ("near-aligned", 13), ("boundary", 14)])
def test_band_classify_matches_clip_all_loop(family, seed):
    # the band clips and the centroid location agree with clipping every
    # box-meeting pair, one cell at a time
    bg = build_rect_mesh(12, 12, [(0, 0), (1, 1)])
    for i, fr in enumerate(_fuzz_placements(family, 20, seed)):
        _assert_classify_matches_loop(bg, fr, f"{family} {i}")


def test_classify_without_boundary_edges_or_front_cells():
    bg = build_rect_mesh(12, 12, [(0, 0), (1, 1)])
    for i, fr in enumerate(_fuzz_placements("random", 3, seed=4)):
        bare = Mesh(fr.vertices, fr.cells, region_tags=fr.region_tags)
        assert len(bare.boundary_edges) == 0
        a, b = classify(bg, fr), classify(bg, bare)
        for name in ("class_not", "class_fully", "class_partial"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (i, name)
        _assert_classify_matches_loop(bg, bare, f"bare {i}")
    empty = classify(bg, Mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=int)))
    assert np.array_equal(empty.class_not, np.arange(bg.nc))
    assert len(empty.class_fully) == len(empty.class_partial) == empty.clipped_pairs == 0
