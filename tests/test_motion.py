import numpy as np
import pytest
import sympy as sp

from olmfsi.mesh import (Mesh, build_rect_mesh, locate_points,
                         FLUID, SOLID, region_interface_vertices)
from olmfsi.motion import (MeshMotionProblem, solve_mesh_motion, deform_mesh,
                           MeshTangleError)

from fixtures import refine_uniform


def interface_nodes_on_top(mesh, y_top):
    return np.flatnonzero(np.abs(mesh.vertices[:, 1] - y_top) < 1e-12)


def test_zero_interface_displacement():
    mesh = build_rect_mesh(6, 3, [(0, 0), (1, 0.5)])
    nodes = interface_nodes_on_top(mesh, 0.5)
    u = solve_mesh_motion(MeshMotionProblem(mesh, nodes), np.zeros((len(nodes), 2)))
    assert np.abs(u).max() == 0.0


def test_rigid_translation_is_exact():
    mesh = build_rect_mesh(5, 4, [(0, 0), (1, 0.6)])
    nodes = interface_nodes_on_top(mesh, 0.6)
    c = np.array([0.3, -0.7])
    u = solve_mesh_motion(MeshMotionProblem(mesh, nodes), np.tile(c, (len(nodes), 1)))
    assert np.abs(u - c).max() < 1e-10


def test_requires_interface_nodes():
    mesh = build_rect_mesh(3, 3, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        MeshMotionProblem(mesh, np.zeros(0, dtype=int))


def test_vertical_bump_matches_fine_mesh_oracle():
    # displacement H(x) e_y on the top edge; compare coarse solutions to a
    # reference solve on a twice-refined mesh of the same family
    def H(x):
        return 0.1 * 2.0 * x * (1.0 - x)

    def run(level):
        mesh = build_rect_mesh(4 * 2 ** level, 2 * 2 ** level, [(0, 0), (1, 0.5)])
        nodes = interface_nodes_on_top(mesh, 0.5)
        vals = np.zeros((len(nodes), 2))
        vals[:, 1] = H(mesh.vertices[nodes, 0])
        return mesh, solve_mesh_motion(MeshMotionProblem(mesh, nodes), vals)

    ref_mesh, ref_u = run(4)
    errs = []
    for lvl in (0, 1, 2):
        mesh, u = run(lvl)
        # H1-seminorm distance to the reference via the exact gradient of
        # the coarse P1 field evaluated against the fine field per fine cell
        centroids = ref_mesh.cell_points.mean(axis=1)
        coarse_cells = locate_points(mesh, centroids)
        assert (coarse_cells >= 0).all()

        def coarse_grad(c):
            g = mesh.p1_grads[c]
            return np.einsum("ai,aj->ij", u[mesh.cells[c]], g)

        total = 0.0
        for fc in range(ref_mesh.nc):
            gf = np.einsum("ai,aj->ij", ref_u[ref_mesh.cells[fc]],
                           ref_mesh.p1_grads[fc])
            gc = coarse_grad(int(coarse_cells[fc]))
            total += ref_mesh.cell_areas[fc] * np.sum((gf - gc) ** 2)
        errs.append(np.sqrt(total))
    eocs = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert eocs[-1] >= 0.9


def test_deform_identity_and_translation():
    mesh = build_rect_mesh(3, 3, [(0, 0), (1, 1)])
    out = deform_mesh(mesh, np.zeros((mesh.nv, 2)))
    assert np.array_equal(out.vertices, mesh.vertices)
    c = np.array([2.0, -1.0])
    out = deform_mesh(mesh, np.tile(c, (mesh.nv, 1)))
    assert np.allclose(out.vertices, mesh.vertices + c)
    assert np.allclose(out.cell_areas, mesh.cell_areas)
    assert np.array_equal(out.cells, mesh.cells)


def test_deform_stretch_area_matches_symbolic_jacobian():
    # phi(x, y) = (x, y (1 + H(x)/R)): total deformed area equals the
    # integral of det(grad phi) computed symbolically
    R = 0.4
    xs, ys = sp.symbols("x y", real=True)
    H = sp.Rational(1, 10) * 2 * xs * (1 - xs)
    phi2 = ys * (1 + H / R)
    detJ = sp.diff(phi2, ys)  # d(phi1)/dx = 1, off-diagonal does not matter
    exact = float(sp.integrate(sp.integrate(detJ, (ys, 0, R)), (xs, 0, 1)))

    mesh = build_rect_mesh(48, 24, [(0, 0), (1, R)])
    Hn = 0.1 * 2 * mesh.vertices[:, 0] * (1 - mesh.vertices[:, 0])
    disp = np.zeros((mesh.nv, 2))
    disp[:, 1] = mesh.vertices[:, 1] * Hn / R
    out = deform_mesh(mesh, disp)
    # nodal interpolation of phi is exact here: phi is bilinear in (x, y)
    # only through y * H(x); P1 interpolation on triangles is not exact, so
    # compare at a tolerance consistent with the mesh resolution
    assert out.cell_areas.sum() == pytest.approx(exact, abs=2e-4)
    fine = refine_uniform(refine_uniform(mesh))
    Hf = 0.1 * 2 * fine.vertices[:, 0] * (1 - fine.vertices[:, 0])
    df = np.zeros((fine.nv, 2))
    df[:, 1] = fine.vertices[:, 1] * Hf / R
    assert deform_mesh(fine, df).cell_areas.sum() == pytest.approx(exact, abs=2e-5)


def test_deform_tangle_error_names_cell():
    mesh = build_rect_mesh(2, 2, [(0, 0), (1, 1)])
    disp = np.zeros((mesh.nv, 2))
    disp[0] = [5.0, 5.0]
    with pytest.raises(MeshTangleError, match="cell"):
        deform_mesh(mesh, disp)


def test_interface_preservation_between_solid_and_mesh_maps():
    # composite mesh: solving the mesh problem with the solid trace as data
    # makes both deformed interfaces agree nodally to machine precision
    mesh = build_rect_mesh(8, 4, [(0, 0), (1, 0.5)],
                           region_fn=lambda c: SOLID if c[1] > 0.25 else FLUID)
    iface = region_interface_vertices(mesh, FLUID, SOLID)
    us = np.zeros((mesh.nv, 2))
    us[:, 1] = 0.05 * np.sin(np.pi * mesh.vertices[:, 0])
    um = solve_mesh_motion(MeshMotionProblem(mesh, iface, region_tag=FLUID), us[iface])
    solid_side = mesh.vertices[iface] + us[iface]
    fluid_side = mesh.vertices[iface] + um[iface]
    assert np.abs(solid_side - fluid_side).max() <= 1e-14


def test_maximum_principle_proxy():
    mesh = build_rect_mesh(10, 5, [(0, 0), (1, 0.5)])
    nodes = interface_nodes_on_top(mesh, 0.5)
    vals = np.zeros((len(nodes), 2))
    vals[:, 1] = 0.08 * np.sin(np.pi * mesh.vertices[nodes, 0]) ** 2
    u = solve_mesh_motion(MeshMotionProblem(mesh, nodes), vals)
    assert np.abs(u).max() <= 3.0 * np.abs(vals).max()
