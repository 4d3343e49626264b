import numpy as np
import pytest

from olmfsi import coupling, motion
from olmfsi.mesh import (Mesh, build_rect_mesh, FLUID, SOLID,
                         LEFT, RIGHT, BOTTOM, TOP, region_interface_vertices)
from olmfsi.geometry import build_topology
from olmfsi.stokes import CompositeSpace, FluidProblem, solve_stokes, BG, FRONT
from olmfsi.coupling import (aitken_update, traction_functional,
                             TractionMappingError, FsiConfig,
                             fsi_fixed_point, fsi_outer_iteration,
                             FixedPointError)
from olmfsi.motion import MeshMotionProblem, solve_mesh_motion, deform_mesh
from olmfsi.solid import (Material, SolidProblem, assemble_solid, solve_newton,
                          body_load, InvertedElementError, NewtonError)
from fixtures import constant, rowwise, translated, l2_norm
from oracles import traction_functional_loop
from olmfsi.verification import (build_manufactured, manufactured_fsi_problem,
                                 flap_problem, flap2d)


def outer_pass(problem, us, um):
    """One pass of the fixed-point loop body at the composite configuration
    of (us, um), under the full load: fsi_outer_iteration, then the solid
    solve warm-started at us."""
    mesh = problem.front_ref
    solid, body, extra = coupling._solid_setup(problem)
    solid_verts = np.unique(mesh.cells[solid.cells])
    iface = region_interface_vertices(mesh, FLUID, SOLID)
    disp = um.copy()
    disp[solid_verts] = us[solid_verts]
    front = deform_mesh(mesh, disp)
    traction, sol, topo, space = fsi_outer_iteration(problem, front, iface)
    ssol = coupling._solve_solid(solid, body + (traction + extra), us)
    return ssol, sol, front, topo, space, iface


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
    u = lambda p: np.column_stack([c * p[:, 1] * (H - p[:, 1]), np.zeros(len(p))])
    front = build_rect_mesh(nx, ny, [(0, 0), (L, H)])
    bg = build_rect_mesh(2, 2, [(0.4, 0.2), (0.6, 0.3)])  # fully covered
    topo = build_topology(bg, front)
    space = CompositeSpace(bg, front, topo,
                           front_dirichlet={LEFT: u, BOTTOM: u, TOP: u})
    sol = solve_stokes(FluidProblem(viscosity=nu), space, topo)
    return sol, space, topo, front


def test_traction_zero_state():
    _, space, topo, front = poiseuille_channel(8, 4)
    from olmfsi.stokes import FluidSolution
    zero = FluidSolution(space, np.zeros(space.ndof), viscosity=1.0)
    wall = np.flatnonzero(np.abs(front.vertices[:, 1]) < 1e-12)
    out = traction_functional(zero, None, space, wall)
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
        drag = traction_functional(sol, None, space, wall)[:, 0].sum()
        assert drag > 0.0           # the flow drags the wall downstream
        errs.append(abs(drag - exact) / exact)
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.03


def test_traction_translation_invariant():
    sol, space, topo, front = poiseuille_channel(12, 6)
    wall = np.flatnonzero(np.abs(front.vertices[:, 1]) < 1e-12)
    base = traction_functional(sol, None, space, wall)

    shift = np.array([3.0, -2.0])
    front2 = translated(front, shift)
    bg2 = Mesh(space.background.vertices + shift, space.background.cells,
               space.background.boundary_edges, space.background.boundary_markers)
    topo2 = build_topology(bg2, front2)
    space2 = CompositeSpace(bg2, front2, topo2)
    from olmfsi.stokes import FluidSolution
    sol2 = FluidSolution(space2, sol.coeffs, viscosity=sol.viscosity)
    out2 = traction_functional(sol2, None, space2, wall)
    assert np.abs(out2 - base).max() < 1e-12



@pytest.mark.parametrize("case", [("flap", 0.0), ("flap", 65.0),
                                  ("manufactured", 0), ("manufactured", 1)])
def test_traction_matches_per_node_loop(case):
    # the batched scatter sums every node's ring cell by cell, stress then
    # body term, as the per-node loop does: equal to the last bit
    mf = build_manufactured()
    kind, arg = case
    problem = (flap_problem(arg, res=1) if kind == "flap"
               else manufactured_fsi_problem(mf, arg))
    zero = np.zeros((problem.front_ref.nv, 2))
    _, sol, _, topo, space, iface = outer_pass(problem, zero, zero)
    for force in (None, mf.f, rowwise(lambda p: mf.f(p)[0])):
        new = traction_functional(sol, force, space, iface)
        ref = traction_functional_loop(sol, force, space, iface)
        assert new.shape == ref.shape and new.tobytes() == ref.tobytes()

def test_traction_missing_node_error():
    sol, space, topo, front = poiseuille_channel(8, 4)
    mesh = front
    # a vertex that belongs to no fluid cell does not exist here, so fake a
    # composite with a solid band and ask for a pure solid vertex
    comp = build_rect_mesh(4, 4, [(0, 0), (1, 1)],
                           region_fn=lambda cc: SOLID if cc[1] > 0.5 else FLUID)
    bg = build_rect_mesh(2, 2, [(0.3, 0.1), (0.6, 0.3)])
    topo2 = build_topology(bg, comp)
    space2 = CompositeSpace(bg, comp, topo2)
    from olmfsi.stokes import FluidSolution
    sol2 = FluidSolution(space2, np.zeros(space2.ndof), viscosity=1.0)
    top_corner = np.flatnonzero((comp.vertices[:, 1] > 0.99)
                                & (comp.vertices[:, 0] < 0.01))
    with pytest.raises(TractionMappingError):
        traction_functional(sol2, None, space2, top_corner)


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
        topo = build_topology(bg, front)
        space = CompositeSpace(bg, front, topo,
                               bg_dirichlet={LEFT: mf.u, BOTTOM: mf.u},
                               front_dirichlet={LEFT: mf.u})
        prob = FluidProblem(viscosity=mf.viscosity, body_force=mf.f,
                            neumann=((BG, RIGHT, mf.fluid_traction),
                                     (FRONT, RIGHT, mf.fluid_traction)))
        sol = solve_stokes(prob, space, topo)
        iface = region_interface_vertices(front0, FLUID, SOLID)
        tr = traction_functional(sol, mf.f, space, iface)

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
    zero = constant([0.0, 0.0])
    problem.fluid = FluidProblem(viscosity=mf.viscosity, body_force=None)
    problem.bg_dirichlet = {LEFT: zero, BOTTOM: zero}
    problem.front_dirichlet = {LEFT: zero}
    problem.solid_body_force = None
    problem.solid_dirichlet = {LEFT: zero, RIGHT: zero, TOP: zero}
    problem.solid_extra_load = None
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
    ssol, _, _, _, _, _ = outer_pass(problem, state.solid_displacement,
                                     state.mesh_displacement)
    mesh = problem.front_ref
    cells = mesh.region_cells(SOLID)
    rel = l2_norm(mesh, cells, ssol.displacement - state.solid_displacement) \
        / l2_norm(mesh, cells, ssol.displacement)
    assert rel <= config.tol


def test_fixed_point_relaxation_off_same_answer(monkeypatch):
    mf = build_manufactured()
    problem = manufactured_fsi_problem(mf, 0)
    tol = 1e-4
    s_on = fsi_fixed_point(problem, FsiConfig(tol=tol))
    # the plain iteration: every step takes the full update
    monkeypatch.setattr(coupling, "aitken_update", lambda *args: 1.0)
    s_off = fsi_fixed_point(problem, FsiConfig(tol=tol))
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


def test_failed_run_keeps_its_iteration_log(tmp_path):
    # the soft flap's solid Newton fails in outer iteration 4; the three
    # completed iterations stay in the log
    with pytest.raises(NewtonError):
        flap2d(0.0, res=1, E_s=7.5, out_dir=str(tmp_path))
    lines = (tmp_path / "iterations.csv").read_text().strip().splitlines()
    assert lines[0] == "k,omega,increment,fluid_dofs,cut_cells"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]


def test_mesh_motion_factored_once_per_run(monkeypatch):
    # one assembly and one factorization of the motion operator serve every
    # outer iteration; no motion solve goes through Newton
    counts = dict.fromkeys(("assemble", "factor", "newton", "solve"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(motion, "assemble_solid", counting("assemble", motion.assemble_solid))
    monkeypatch.setattr(motion, "DirectSolver", counting("factor", motion.DirectSolver))
    monkeypatch.setattr(motion, "solve_newton", counting("newton", motion.solve_newton))
    monkeypatch.setattr(coupling, "solve_mesh_motion",
                        counting("solve", coupling.solve_mesh_motion))
    problem = manufactured_fsi_problem(build_manufactured(), 0)
    state = fsi_fixed_point(problem)
    assert state.iterations >= 3
    assert counts == {"assemble": 1, "factor": 1, "newton": 0,
                      "solve": state.iterations}
    iface = region_interface_vertices(problem.front_ref, FLUID, SOLID)
    assert np.array_equal(state.mesh_displacement[iface],
                          state.solid_displacement[iface])


def test_solid_set_up_once_per_run(monkeypatch):
    # one solid problem and one evaluation of the body force serve every
    # outer iteration and every Newton step
    counts = dict.fromkeys(("problem", "force"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(coupling, "SolidProblem", counting("problem", coupling.SolidProblem))
    problem = manufactured_fsi_problem(build_manufactured(), 0)
    problem.solid_body_force = counting("force", problem.solid_body_force)
    state = fsi_fixed_point(problem)
    assert state.iterations >= 3 and sum(state.solid_newton_iters) > state.iterations
    assert counts == {"problem": 1, "force": 1}


def test_solid_extra_load_must_be_nodal():
    # a single load vector is not broadcast onto every vertex
    problem = manufactured_fsi_problem(build_manufactured(), 0)
    problem.solid_extra_load = np.array([0.0, -1.0])
    with pytest.raises(ValueError, match=r"nodal field of shape \(2,\)"):
        fsi_fixed_point(problem)


def column_under_top_load(force, kind):
    """A 1 x 2 column clamped at the bottom and pressed down with the total
    force, at the top or by its own weight; the solid and its load."""
    mesh = build_rect_mesh(2, 4, [(0, 0), (1, 2)])
    solid = SolidProblem(mesh, Material.from_young_poisson(1.0, 0.3),
                         dirichlet={BOTTOM: constant([0.0, 0.0])})
    if kind == "weight":
        return solid, body_load(mesh, solid.cells, constant([0.0, -force / 2.0]))
    top = np.flatnonzero(np.isclose(mesh.vertices[:, 1], 2.0))
    load = np.zeros((mesh.nv, 2))
    load[top, 1] = -force / len(top)
    return solid, load


def load_factors(monkeypatch, full):
    """The load factor of every Newton solve the solid solve starts, read
    from the load array it is given."""
    factors = []

    def newton(stage, load, **kwargs):
        factors.append(load.sum() / full.sum())
        return solve_newton(stage, load, **kwargs)
    monkeypatch.setattr(coupling, "solve_newton", newton)
    return factors


def test_solid_continuation_reaches_equilibrium(monkeypatch):
    for kind, force in (("top", 0.1), ("weight", 0.22)):
        solid, load = column_under_top_load(force, kind)
        zero = np.zeros((solid.mesh.nv, 2))
        with pytest.raises(InvertedElementError):
            solve_newton(solid, load, rtol=1e-12, u0=zero)
        factors = load_factors(monkeypatch, load)
        sol = coupling._solve_solid(solid, load, zero)
        assert factors == [1.0, 0.5, 1.0], kind
        R, _ = assemble_solid(solid, solid.gather(sol.displacement))
        free = np.ones(solid.ndof, dtype=bool)
        free[solid.constrained_dofs] = False
        # solve_newton's tolerance
        assert np.linalg.norm((R - solid.gather(load))[free]) <= 1e-10, kind


def test_solid_continuation_gives_up_below_a_64th(monkeypatch):
    for kind in ("top", "weight"):
        solid, load = column_under_top_load(100.0, kind)
        factors = load_factors(monkeypatch, load)
        with pytest.raises(InvertedElementError):
            coupling._solve_solid(solid, load, np.zeros((solid.mesh.nv, 2)))
        assert factors == [2.0 ** -k for k in range(8)], kind


def test_config_validation():
    with pytest.raises(ValueError):
        FsiConfig(tol=0.0)
    with pytest.raises(ValueError):
        FsiConfig(omega0=2.0, omega_max=1.5)
    with pytest.raises(ValueError):
        FsiConfig(load_ramp=-1)
    # without one outer iteration there is no increment to report
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_outer must be at least 1"):
            FsiConfig(max_outer=bad)


def test_geometry_bookkeeping_every_iteration():
    # walking the loop by hand: at each pass the classification partitions
    # the background mesh and the coupling segments reproduce the length of
    # the marked interface edges on the current configuration (the only
    # fluid edges interior to the background)
    from olmfsi.mesh import GAMMA_FF

    mf = build_manufactured()
    problem = manufactured_fsi_problem(mf, 0)
    us = np.zeros((problem.front_ref.nv, 2))
    um = np.zeros((problem.front_ref.nv, 2))
    iface = region_interface_vertices(problem.front_ref, FLUID, SOLID)
    mesh_motion = MeshMotionProblem(problem.front_ref, iface, FLUID,
                                    problem.motion_pinned_nodes)
    for k in range(3):
        ssol, _, front, topo, space, iface = outer_pass(problem, us, um)
        nc = problem.background.nc
        union = np.concatenate([topo.class_not, topo.class_fully,
                                topo.class_partial])
        assert sorted(union.tolist()) == list(range(nc))
        marked = [e for e, m in zip(front.boundary_edges, front.boundary_markers)
                  if m == GAMMA_FF]
        perim = sum(np.hypot(*(front.vertices[j] - front.vertices[i]))
                    for i, j in marked)
        assert topo.interface_length() == pytest.approx(perim, abs=1e-10)
        us = ssol.displacement
        um = solve_mesh_motion(mesh_motion, us[iface])


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
        topo = build_topology(bg, front)
        space = CompositeSpace(bg, front, topo,
                               bg_dirichlet={LEFT: mf.u, BOTTOM: mf.u},
                               front_dirichlet={LEFT: mf.u})
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
