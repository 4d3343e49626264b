import numpy as np
import pytest

from olmfsi.mesh import (Mesh, MeshError, DegenerateCellError,
                         build_rect_mesh, build_tensor_mesh,
                         locate_points, barycentric, region_interface_vertices,
                         region_boundary_edges, LEFT, RIGHT, BOTTOM, TOP,
                         FLUID, SOLID)
from olmfsi.verification import flap_meshes, manufactured_meshes

from fixtures import refine_uniform
from oracles import boundary_normal_loop, build_tensor_mesh_loop, region_boundary_edges_loop


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def test_rect_mesh_1x1_counts():
    m = build_rect_mesh(1, 1, [(0, 0), (1, 1)])
    assert m.nc == 2
    assert m.nv == 4
    assert m.cell_areas.sum() == pytest.approx(1.0, abs=1e-15)



@pytest.mark.parametrize("xs, ys, region_fn", [
    ([0, 1], [0, 1], None),
    ([0, 1], np.linspace(0, 1, 6), None),
    (np.linspace(-1, 2, 8), np.linspace(0, 0.5, 4), None),
    ([0, 0.1, 0.35, 0.4, 1], [-2, -1.5, 0, 3], None),
    (np.linspace(0, 1, 6), [0, 0.2, 0.3, 1], lambda c: SOLID if c[0] > c[1] else FLUID),
])
def test_tensor_mesh_matches_loop_construction(xs, ys, region_fn):
    m, ref = build_tensor_mesh(xs, ys, region_fn), build_tensor_mesh_loop(xs, ys, region_fn)
    for name in ("vertices", "cells", "boundary_edges", "boundary_markers", "region_tags"):
        a, b = getattr(m, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name

def test_rect_mesh_2x2_counts():
    m = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    assert m.nc == 8
    assert m.nv == 9


@pytest.mark.parametrize("nx,ny,bbox", [
    (3, 5, [(0, 0), (2, 1)]),
    (7, 2, [(-1, 0.5), (0.5, 4.0)]),
    (1, 9, [(10, 10), (11, 30)]),
])
def test_rect_mesh_area_partition(nx, ny, bbox):
    m = build_rect_mesh(nx, ny, bbox)
    (x0, y0), (x1, y1) = bbox
    assert m.cell_areas.sum() == pytest.approx((x1 - x0) * (y1 - y0), abs=1e-12)


def test_rect_mesh_rejects_degenerate_bbox():
    with pytest.raises(MeshError):
        build_rect_mesh(2, 2, [(0, 0), (0, 1)])
    with pytest.raises(MeshError):
        build_rect_mesh(0, 2, [(0, 0), (1, 1)])


def test_boundary_markers_by_side():
    m = build_rect_mesh(3, 2, [(0, 0), (1, 1)])
    for (i, j), mk in zip(m.boundary_edges, m.boundary_markers):
        a, b = m.vertices[i], m.vertices[j]
        if mk == LEFT:
            assert a[0] == b[0] == 0.0
        elif mk == RIGHT:
            assert a[0] == b[0] == 1.0
        elif mk == BOTTOM:
            assert a[1] == b[1] == 0.0
        elif mk == TOP:
            assert a[1] == b[1] == 1.0
        else:
            raise AssertionError("unexpected marker")


def test_ccw_enforced():
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]))  # given clockwise
    assert m.cell_areas[0] > 0


def test_unvalidated_mesh_keeps_clockwise_cell():
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]), validate=False)
    assert m.cells.tolist() == [[0, 2, 1]]
    assert m.cell_areas[0] == -0.5


def test_element_diameter_right_triangle():
    m = unit_right_triangle()
    assert m.cell_diameters[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_element_diameter_equilateral():
    s = 1.0
    m = Mesh(np.array([[0, 0], [s, 0], [s / 2, s * np.sqrt(3) / 2]]),
             np.array([[0, 1, 2]]))
    assert m.cell_diameters[0] == pytest.approx(1.0, abs=1e-14)


def test_diameters_scale_affinely():
    m = build_rect_mesh(3, 3, [(0, 0), (1, 1)])
    m2 = Mesh(2.0 * m.vertices, m.cells, m.boundary_edges, m.boundary_markers)
    assert np.allclose(m2.cell_diameters, 2.0 * m.cell_diameters)


def test_p1_gradients_unit_right_triangle():
    m = unit_right_triangle()
    g = m.p1_grads[0]
    assert np.allclose(g[0], [-1.0, -1.0], atol=1e-14)
    assert np.allclose(g[1], [1.0, 0.0], atol=1e-14)
    assert np.allclose(g[2], [0.0, 1.0], atol=1e-14)


def test_p1_gradients_sum_to_zero():
    m = build_rect_mesh(4, 3, [(0, 0), (2, 1)])
    assert np.abs(m.p1_grads.sum(axis=1)).max() < 1e-14


def test_p1_gradients_degenerate_cell_error():
    with pytest.raises(DegenerateCellError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
             np.array([[0, 1, 2]]))


def test_affine_reproduction():
    # interpolating a globally affine function reproduces it pointwise:
    # located cells and barycentric weights recombine the nodal values
    m = build_rect_mesh(5, 4, [(0, 0), (1.3, 0.9)])
    A = np.array([[0.7, -0.2], [1.1, 0.4]])
    b = np.array([0.3, -0.8])
    nodal = m.vertices @ A.T + b
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0.01, 1.29, 40), rng.uniform(0.01, 0.89, 40)])
    cells = locate_points(m, pts)
    assert (cells >= 0).all()
    lam = barycentric(m, cells, pts[:, None])[:, 0]
    vals = np.einsum("na,nai->ni", lam, nodal[m.cells[cells]])
    assert np.abs(vals - (pts @ A.T + b)).max() < 1e-13


def test_refine_uniform_area_and_h():
    m = build_rect_mesh(3, 2, [(0, 0), (1.5, 1)])
    r = refine_uniform(m)
    assert r.nc == 4 * m.nc
    assert r.cell_areas.sum() == pytest.approx(m.cell_areas.sum(), abs=1e-12)
    assert r.cell_diameters.max() == pytest.approx(0.5 * m.cell_diameters.max(),
                                                   abs=1e-14)
    # boundary edges survive with markers
    assert len(r.boundary_edges) == 2 * len(m.boundary_edges)


def test_refine_preserves_region_tags():
    m = build_rect_mesh(2, 2, [(0, 0), (1, 1)],
                        region_fn=lambda c: SOLID if c[1] > 0.5 else FLUID)
    r = refine_uniform(m)
    assert set(np.unique(r.region_tags)) == {FLUID, SOLID}
    assert (r.region_tags == SOLID).sum() == 4 * (m.region_tags == SOLID).sum()


def test_locate_points():
    m = build_rect_mesh(6, 6, [(0, 0), (1, 1)])
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.001, 0.999, size=(50, 2))
    cells = locate_points(m, pts)
    assert (cells >= 0).all()
    for pt, c in zip(pts, cells):
        tri = m.cell_points[c]
        # barycentric coordinates inside
        C = np.column_stack([np.ones(3), tri])
        lam = np.linalg.solve(C.T, np.array([1.0, pt[0], pt[1]]))
        assert lam.min() > -1e-10
    assert locate_points(m, np.array([[2.0, 2.0]]))[0] == -1


def test_barycentric_over_cells_matches_single_cell_calls():
    m = build_rect_mesh(5, 4, [(0, 0), (1, 0.8)])
    pts = np.random.default_rng(3).uniform(-0.2, 1.2, size=(7, 2))
    cells = np.array([4, 0, 17, 4])
    lam = barycentric(m, cells, pts)
    assert lam.shape == (4, 7, 3)
    for c, lam_c in zip(cells, lam):
        single = barycentric(m, c, pts)
        # callers take matmul products of it, whose rounding depends on memory order
        assert single.flags.c_contiguous and np.array_equal(single, lam_c)
        assert np.allclose(single @ m.cell_points[c], pts, atol=1e-14)
    assert barycentric(m, [], pts).shape == (0, 7, 3)
    # per-cell point stacks (m, n, 2): cell i takes the points pts[i]
    stacks = pts[None] + np.arange(4)[:, None, None] * np.array([0.05, -0.03])
    lam = barycentric(m, cells, stacks)
    assert lam.shape == (4, 7, 3)
    for c, pts_c, lam_c in zip(cells, stacks, lam):
        assert np.array_equal(barycentric(m, c, pts_c), lam_c)
    # a vertex lies in several closed cells: the lowest-numbered one is returned
    first = [min(np.flatnonzero((m.cells == v).any(axis=1))) for v in range(m.nv)]
    assert locate_points(m, m.vertices).tolist() == first


def test_cell_index_out_of_range():
    with pytest.raises(MeshError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 1, 5]]))


def test_open_boundary_polyline_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 2]]),
             boundary_edges=np.array([[0, 1]]), boundary_markers=np.array([1]))


def test_region_interface_vertices():
    m = build_rect_mesh(2, 2, [(0, 0), (1, 1)],
                        region_fn=lambda c: SOLID if c[1] > 0.5 else FLUID)
    iv = region_interface_vertices(m, FLUID, SOLID)
    assert np.allclose(m.vertices[iv][:, 1], 0.5)
    assert len(iv) == 3


def test_region_boundary_edges_kinds():
    m = build_rect_mesh(2, 2, [(0, 0), (1, 1)],
                        region_fn=lambda c: SOLID if c[1] > 0.5 else FLUID)
    edges, cells, markers, other = region_boundary_edges(m, SOLID)
    assert (other == FLUID).any() and (markers[other == FLUID] == -1).all()
    assert (markers == TOP).any() and (other[markers == TOP] == -1).all()
    assert (m.region_tags[cells] == SOLID).all() and edges.shape == (len(cells), 2)


def test_region_boundary_edges_match_per_edge_reference():
    rng = np.random.default_rng(5)
    rect = build_rect_mesh(6, 4, [(0, 0), (1, 0.6)])
    jitter = Mesh(rect.vertices + rng.uniform(-0.02, 0.02, rect.vertices.shape),
                  rect.cells, rect.boundary_edges, rect.boundary_markers,
                  rng.integers(0, 3, rect.nc))
    meshes = [flap_meshes(angle, res)[1] for angle in (0.0, 65.0) for res in (1, 2)]
    meshes += [manufactured_meshes(level)[1] for level in (0, 1)] + [jitter]
    for m in meshes:
        for tag in np.unique(m.region_tags).tolist() + [7]:   # 7: an empty region
            got = region_boundary_edges(m, tag)
            for x, y in zip(got, region_boundary_edges_loop(m, tag)):
                assert x.dtype == np.int64 and x.shape == y.shape and np.array_equal(x, y)


EDGE_TABLE_MESHES = {
    "rect": lambda: build_rect_mesh(4, 3, [(0, 0), (1, 1)],
                                    region_fn=lambda c: SOLID if c[1] > 0.5 else FLUID),
    "flap": lambda: flap_meshes(65.0, 1)[1],
    "manufactured": lambda: manufactured_meshes(1)[1],
}


@pytest.mark.parametrize("name", sorted(EDGE_TABLE_MESHES))
def test_edge_table_and_vertex_slots(name):
    m = EDGE_TABLE_MESHES[name]()
    e = m.edges
    sides = m.cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2)
    assert np.array_equal(e.verts[e.of_side], np.sort(sides, axis=2))
    assert np.array_equal(e.key, e.verts @ [m.nv, 1]) and (np.diff(e.key) > 0).all()
    assert np.array_equal(np.bincount(e.of_side.ravel(), minlength=len(e.key)), e.count)
    if name == "rect":
        assert np.array_equal(e.verts[e.count == 1],
                              np.unique(np.sort(m.boundary_edges, axis=1), axis=0))
    outer, inner = e.cells[e.count == 1], e.cells[e.count == 2]
    assert (outer[:, 1] == -1).all() and (e.count <= 2).all()
    assert (inner >= 0).all() and (inner[:, 0] < inner[:, 1]).all()
    for cells in (m.region_cells(FLUID), m.region_cells(SOLID), np.arange(m.nc), []):
        slots = m.vertex_slots(cells)
        used = np.unique(m.cells[cells])
        assert np.array_equal(np.flatnonzero(slots >= 0), used)
        assert np.array_equal(slots[used], np.arange(len(used)))


def test_immutability():
    m = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_boundary_normals_match_per_edge_reference():
    rng = np.random.default_rng(4)
    rect = build_rect_mesh(5, 3, [(0, 0), (1, 0.6)])
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    jitter = rect.vertices @ rot.T + rng.uniform(-0.02, 0.02, rect.vertices.shape)
    meshes = [rect, Mesh(jitter, rect.cells, rect.boundary_edges, rect.boundary_markers),
              *flap_meshes(30.0, 1)[:2]]
    for m in meshes:
        cells, normals = m.boundary_normals(np.arange(len(m.boundary_edges)))
        for e in range(len(m.boundary_edges)):
            c, n = boundary_normal_loop(m, e)
            assert cells[e] == c
            assert np.array_equal(normals[e], n)
    # an interior edge listed as a boundary edge has no single adjacent cell
    inner = Mesh(rect.vertices, rect.cells, [rect.cells[0, [0, 2]]], validate=False)
    assert boundary_normal_loop(inner, 0) is None
    with pytest.raises(MeshError, match="boundary edge 0"):
        inner.boundary_normals([0])
