import numpy as np
import pytest

from olmfsi.mesh import (Mesh, build_rect_mesh, FLUID, SOLID,
                         LEFT, RIGHT, BOTTOM, TOP)
from olmfsi.geometry import build_topology
from olmfsi.stokes import CompositeSpace, FluidProblem, solve_stokes, BG, FRONT
from olmfsi.coupling import (aitken_update, traction_functional,
                             TractionMappingError, FsiConfig,
                             fsi_fixed_point, fsi_outer_iteration,
                             FixedPointError)
from olmfsi.solid import l2_norm
from olmfsi.verification import (build_manufactured, manufactured_fsi_problem,
                                 flap_problem)


# -- Aitken relaxation --------------------------------------------------------

def test_aitken_scalar_fixed_point_exact():
    # x <- 0.5 x + 1 from 0: two plain increments, then one relaxed step
    # lands on the fixed point 2.0 exactly
    F = lambda x: 0.5 * x + 1.0
    x0 = 0.0
    r0 = F(x0) - x0
    x1 = x0 + 1.0 * r0            # plain step (omega = 1)
    r1 = F(x1) - x1
    omega = aitken_update(1.0, [r0], [r1], omega_max=10.0)
    x2 = x1 + omega * r1
    assert abs(x2 - 2.0) <= 1e-12


def test_aitken_clamping():
    # raw omega = -1 * (1 * (-0.5)) / 0.25 = 2.0, clamped to omega_max
    raw = aitken_update(1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]),
                        omega_max=10.0)
    assert raw == pytest.approx(2.0, abs=1e-14)
    clamped = aitken_update(1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]),
                            omega_max=1.5)
    assert clamped == 1.5


def test_aitken_degenerate_increment():
    du = np.array([0.3, -0.1])
    assert aitken_update(0.7, du, du, omega_max=1.5) == 0.7


def test_aitken_lower_clamp():
    # strongly diverging increments push the raw value negative
    out = aitken_update(1.0, np.array([1.0]), np.array([5.0]), omega_max=1.5)
    assert out == pytest.approx(0.05)


# -- traction functional ------------------------------------------------------

def poiseuille_channel(nx, ny, L=1.0, H=0.5, nu=1.0, c=1.0):
    u = lambda p: np.array([c * p[1] * (H - p[1]), 0.0])
    front = build_rect_mesh(nx, ny, [(0, 0), (L, H)])
    bg = build_rect_mesh(2, 2, [(0.4, 0.2), (0.6, 0.3)])  # fully covered
    topo = build_topology(bg, front)
    space = CompositeSpace(bg, front, topo,
                           front_dirichlet={LEFT: u, BOTTOM: u, TOP: u},
                           interface_g=None)
    sol = solve_stokes(FluidProblem(viscosity=nu), space, topo)
    return sol, space, topo, front


def test_traction_zero_state():
    _, space, topo, front = poiseuille_channel(8, 4)
    from olmfsi.stokes import FluidSolution
    zero = FluidSolution(space, np.zeros(space.ndof), viscosity=1.0)
    wall = np.flatnonzero(np.abs(front.vertices[:, 1]) < 1e-12)
    out = traction_functional(zero, None, space, topo, wall)
    assert np.abs(out).max() == 0.0


def test_traction_poiseuille_wall_drag_converges():
    # the full 2% check at the finest mesh lives in the acceptance suite;
    # here: correct sign and first-order improvement under refinement
    L, H, nu, c = 1.0, 0.5, 1.0, 1.0
    exact = nu * c * H * L          # integral of nu du/dy along the wall
    errs = []
    for n in (12, 24, 48):
        sol, space, topo, front = poiseuille_channel(2 * n, n, L, H, nu, c)
        wall = np.flatnonzero(np.abs(front.vertices[:, 1]) < 1e-12)
        drag = traction_functional(sol, None, space, topo, wall)[:, 0].sum()
        assert drag > 0.0           # the flow drags the wall downstream
        errs.append(abs(drag - exact) / exact)
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.03


def test_traction_translation_invariant():
    sol, space, topo, front = poiseuille_channel(12, 6)
    wall = np.flatnonzero(np.abs(front.vertices[:, 1]) < 1e-12)
    base = traction_functional(sol, None, space, topo, wall)

    shift = np.array([3.0, -2.0])
    front2 = front.translated(shift)
    bg2 = Mesh(space.background.vertices + shift, space.background.cells,
               space.background.boundary_edges, space.background.boundary_markers)
    topo2 = build_topology(bg2, front2)
    space2 = CompositeSpace(bg2, front2, topo2, interface_g=None)
    from olmfsi.stokes import FluidSolution
    sol2 = FluidSolution(space2, sol.coeffs, viscosity=sol.viscosity)
    out2 = traction_functional(sol2, None, space2, topo2, wall)
    assert np.abs(out2 - base).max() < 1e-12


def test_traction_missing_node_error():
    sol, space, topo, front = poiseuille_channel(8, 4)
    mesh = front
    # a vertex that belongs to no fluid cell does not exist here, so fake a
    # composite with a solid band and ask for a pure solid vertex
    comp = build_rect_mesh(4, 4, [(0, 0), (1, 1)],
                           region_fn=lambda cc: SOLID if cc[1] > 0.5 else FLUID)
    bg = build_rect_mesh(2, 2, [(0.3, 0.1), (0.6, 0.3)])
    topo2 = build_topology(bg, comp, fluid_tag=FLUID)
    space2 = CompositeSpace(bg, comp, topo2, fluid_tag=FLUID, interface_g=None)
    from olmfsi.stokes import FluidSolution
    sol2 = FluidSolution(space2, np.zeros(space2.ndof), viscosity=1.0)
    top_corner = np.flatnonzero((comp.vertices[:, 1] > 0.99)
                                & (comp.vertices[:, 0] < 0.01))
    with pytest.raises(TractionMappingError):
        traction_functional(sol2, None, space2, topo2, top_corner)


def test_traction_matches_boundary_quadrature_oracle():
    # on the manufactured configuration, the variational traction agrees
    # with high-order line quadrature of the exact stress against each
    # interface hat, and the gap shrinks under refinement
    from olmfsi.verification import build_manufactured, manufactured_meshes
    from olmfsi.geometry import seg_rule
    from olmfsi.motion import deform_mesh
    from olmfsi.mesh import region_interface_vertices

    mf = build_manufactured()

    def run(level):
        bg, front0 = manufactured_meshes(level, mf)
        disp = np.zeros((front0.nv, 2))
        x, y = front0.vertices[:, 0], front0.vertices[:, 1]
        H = mf.Hs * 2 * x * (1 - x)
        sv = np.zeros(front0.nv, bool)
        sv[front0.cells[front0.region_tags == SOLID].ravel()] = True
        disp[:, 1] = np.where(sv, H, y * H / mf.Rf)
        front = deform_mesh(front0, disp)
        topo = build_topology(bg, front, ff_markers=None, fluid_tag=FLUID)
        g = lambda p: mf.u(p)[0]
        space = CompositeSpace(bg, front, topo, fluid_tag=FLUID,
                               bg_dirichlet={LEFT: g, BOTTOM: g},
                               front_dirichlet={LEFT: g}, interface_g="zero")
        prob = FluidProblem(viscosity=mf.viscosity, body_force=mf.f,
                            neumann=((BG, RIGHT, mf.fluid_traction),
                                     (FRONT, RIGHT, mf.fluid_traction)))
        sol = solve_stokes(prob, space, topo)
        iface = region_interface_vertices(front0, FLUID, SOLID)
        tr = traction_functional(sol, mf.f, space, topo, iface)

        xs, ws = seg_rule(10)
        ref = np.zeros_like(tr)
        order = np.argsort(front0.vertices[iface, 0])
        nodes = iface[order]
        pos = front.vertices[nodes]
        for k in range(len(nodes) - 1):
            a, b = pos[k], pos[k + 1]
            ev = b - a
            length = np.hypot(*ev)
            n = np.array([ev[1], -ev[0]]) / length
            if n[1] > 0:
                n = -n          # solid-outward points downward here
            pts = a[None] + xs[:, None] * ev[None]
            tv = mf.fluid_traction(pts, n)
            lam = np.column_stack([1.0 - xs, xs])
            for vloc, node in enumerate((k, k + 1)):
                idx = np.flatnonzero(iface == nodes[node])[0]
                ref[idx] += length * np.einsum("q,q,qi->i", ws, lam[:, vloc], tv)
        interior = (front0.vertices[iface, 0] > 1e-9) \
            & (front0.vertices[iface, 0] < 1 - 1e-9)
        return np.abs(tr[interior] - ref[interior]).max()

    errs = [run(lvl) for lvl in (0, 1)]
    assert errs[0] < 1e-4
    assert errs[1] < 0.6 * errs[0]


# -- fixed-point driver ----------------------------------------------------------

def zero_fsi_problem():
    mf = build_manufactured()
    problem = manufactured_fsi_problem(mf, 0)
    # strip all data: zero inflow, no forces, no auxiliary traction
    zero = lambda p: np.zeros(2)
    problem.fluid = FluidProblem(viscosity=mf.viscosity, body_force=None)
    problem.bg_dirichlet = {LEFT: zero, BOTTOM: zero}
    problem.front_dirichlet = {LEFT: zero}
    problem.solid_body_force = None
    problem.solid_dirichlet = {LEFT: zero, RIGHT: zero, TOP: zero}
    problem.solid_extra_load = None
    problem.pin_pressure = True
    return problem


def test_fixed_point_zero_data_one_iteration():
    state = fsi_fixed_point(zero_fsi_problem(), FsiConfig(tol=1e-3))
    assert state.iterations == 1
    assert np.abs(state.solid_displacement).max() < 1e-12
    assert np.abs(state.fluid.coeffs).max() < 1e-10


def test_fixed_point_manufactured_converges_and_is_idempotent():
    mf = build_manufactured()
    problem = manufactured_fsi_problem(mf, 0)
    config = FsiConfig(tol=1e-3)
    state = fsi_fixed_point(problem, config)
    assert state.iterations <= 15
    assert state.increments[-1] <= config.tol
    # safety of the relaxation factors
    assert all(0.05 <= w <= config.omega_max for w in state.omegas)

    # one more full outer pass changes the displacement by less than TOL
    ssol, _, _, _, _, _ = fsi_outer_iteration(problem, config,
                                              state.solid_displacement,
                                              state.mesh_displacement)
    mesh = problem.front_ref
    cells = mesh.region_cells(SOLID)
    rel = l2_norm(mesh, cells, ssol.displacement - state.solid_displacement) \
        / l2_norm(mesh, cells, ssol.displacement)
    assert rel <= config.tol


def test_fixed_point_relaxation_off_same_answer():
    mf = build_manufactured()
    problem = manufactured_fsi_problem(mf, 0)
    tol = 1e-4
    s_on = fsi_fixed_point(problem, FsiConfig(tol=tol, use_aitken=True))
    s_off = fsi_fixed_point(problem, FsiConfig(tol=tol, use_aitken=False))
    assert all(w == 1.0 for w in s_off.omegas)
    mesh = problem.front_ref
    cells = mesh.region_cells(SOLID)
    diff = l2_norm(mesh, cells, s_on.solid_displacement - s_off.solid_displacement)
    scale = l2_norm(mesh, cells, s_on.solid_displacement)
    assert diff <= 10.0 * tol * scale


def test_fixed_point_nonconvergence_error():
    mf = build_manufactured()
    problem = manufactured_fsi_problem(mf, 0)
    with pytest.raises(FixedPointError) as err:
        fsi_fixed_point(problem, FsiConfig(tol=1e-12, max_outer=2))
    assert len(err.value.increments) == 2


def test_stiff_limit_scaling():
    # scaling the solid stiffness by 1000 shrinks the interface displacement
    # by about the same factor and converges very quickly
    soft = flap_problem(0.0, E_s=15.0)
    hard = flap_problem(0.0, E_s=15000.0)
    cfg = FsiConfig(tol=1e-3)
    s_soft = fsi_fixed_point(soft, cfg)
    s_hard = fsi_fixed_point(hard, cfg)
    a = np.abs(s_soft.solid_displacement).max()
    b = np.abs(s_hard.solid_displacement).max()
    assert s_hard.iterations <= 3
    assert a / b == pytest.approx(1000.0, rel=0.5)


def test_iteration_log_written(tmp_path):
    log = tmp_path / "iterations.csv"
    fsi_fixed_point(zero_fsi_problem(), FsiConfig(tol=1e-3), log_path=str(log))
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "k,omega,increment,fluid_dofs,cut_cells"
    assert len(lines) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        FsiConfig(tol=0.0)
    with pytest.raises(ValueError):
        FsiConfig(omega0=2.0, omega_max=1.5)
    with pytest.raises(ValueError):
        FsiConfig(load_ramp=-1)


def test_geometry_bookkeeping_every_iteration():
    # walking the loop by hand: at each pass the classification partitions
    # the background mesh and the coupling segments reproduce the length of
    # the marked interface edges on the current configuration
    from olmfsi.mesh import GAMMA_FF
    from olmfsi.geometry import interface_quadrature
    from olmfsi.motion import MeshMotionProblem, solve_mesh_motion, deform_mesh
    from olmfsi.coupling import combined_displacement

    mf = build_manufactured()
    problem = manufactured_fsi_problem(mf, 0)
    cfg = FsiConfig(tol=1e-3)
    us = np.zeros((problem.front_ref.nv, 2))
    um = np.zeros((problem.front_ref.nv, 2))
    for k in range(3):
        front = deform_mesh(problem.front_ref, combined_displacement(
            problem.front_ref, us, um))
        ssol, _, front, topo, space, iface = fsi_outer_iteration(
            problem, cfg, us, um)
        nc = problem.background.nc
        union = np.concatenate([topo.class_not, topo.class_fully,
                                topo.class_partial])
        assert sorted(union.tolist()) == list(range(nc))
        marked = [e for e, m in zip(front.boundary_edges, front.boundary_markers)
                  if m == GAMMA_FF]
        perim = sum(np.hypot(*(front.vertices[j] - front.vertices[i]))
                    for i, j in marked)
        ff_only = interface_quadrature(front, problem.background, topo,
                                       ff_markers={GAMMA_FF})
        assert sum(s.length for s in ff_only) == pytest.approx(perim, abs=1e-10)
        us = ssol.displacement
        motion = MeshMotionProblem(problem.front_ref, iface, us[iface],
                                   region_tag=FLUID,
                                   extra_nodes=problem.motion_extra_dirichlet[0],
                                   extra_values=problem.motion_extra_dirichlet[1])
        um = solve_mesh_motion(motion)


def test_interpolated_exact_solution_residual_decays():
    # inserting the interpolated manufactured solution into the assembled
    # operator leaves a consistency residual that shrinks under refinement
    from olmfsi.motion import deform_mesh
    from olmfsi.geometry import build_topology
    from olmfsi.stokes import CompositeSpace, assemble
    from olmfsi.verification import manufactured_meshes

    mf = build_manufactured()
    norms = []
    for lvl in (0, 1):
        bg, front0 = manufactured_meshes(lvl, mf)
        disp = np.zeros((front0.nv, 2))
        x, y = front0.vertices[:, 0], front0.vertices[:, 1]
        H = mf.Hs * 2 * x * (1 - x)
        solidv = np.zeros(front0.nv, bool)
        solidv[front0.cells[front0.region_tags == SOLID].ravel()] = True
        disp[:, 1] = np.where(solidv, H, y * H / mf.Rf)
        front = deform_mesh(front0, disp)
        topo = build_topology(bg, front, ff_markers=None, fluid_tag=FLUID)
        g = lambda p: mf.u(p)[0]
        space = CompositeSpace(bg, front, topo, fluid_tag=FLUID,
                               bg_dirichlet={LEFT: g, BOTTOM: g},
                               front_dirichlet={LEFT: g}, interface_g="zero")
        prob = FluidProblem(viscosity=mf.viscosity, body_force=mf.f,
                            neumann=((BG, RIGHT, mf.fluid_traction),
                                     (FRONT, RIGHT, mf.fluid_traction)))
        sys = assemble(prob, space, topo)
        xv = np.zeros(space.ndof)
        for mesh, vmap, ubase, pbase in (
                (bg, space.bg_vmap, 0, space.offset_p1),
                (front, space.fr_vmap, space.offset_u2, space.offset_p2)):
            act = vmap >= 0
            uv = mf.u(mesh.vertices[act])
            xv[ubase + 2 * vmap[act]] = uv[:, 0]
            xv[ubase + 2 * vmap[act] + 1] = uv[:, 1]
            xv[pbase + vmap[act]] = mf.p(mesh.vertices[act])
        free = np.ones(space.ndof, bool)
        free[space.dirichlet_dofs] = False
        norms.append(np.linalg.norm((sys.matrix() @ xv - sys.rhs)[free]))
    assert norms[1] <= 0.6 * norms[0]
