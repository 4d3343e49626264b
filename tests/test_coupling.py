import numpy as np
import pytest

from olmfsi import coupling, motion, stokes
from olmfsi.mesh import (Mesh, build_rect_mesh, FLUID, SOLID,
                         LEFT, RIGHT, BOTTOM, TOP, region_interface_vertices)
from olmfsi.geometry import build_topology
from olmfsi.stokes import (CompositeSpace, FarField, FluidProblem, assemble,
                           solve_stokes, BG, FRONT)
from olmfsi.linalg import SingularMatrixError, apply_dirichlet, solve_direct
from olmfsi.coupling import (aitken_update, traction_functional,
                             TractionMappingError, FsiConfig,
                             fsi_fixed_point, fsi_outer_iteration,
                             FixedPointError)
from olmfsi.motion import MeshMotionProblem, solve_mesh_motion, deform_mesh
from olmfsi.solid import (Material, SolidProblem, assemble_solid, solve_newton,
                          body_load, InvertedElementError, NewtonError)
from fixtures import constant, interpolate, rowwise, translated, l2_norm
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
    traction, sol, topo = fsi_outer_iteration(problem, front, iface)
    ssol = coupling._solve_solid(solid, body + (traction + extra), us)
    return ssol, sol, front, topo, iface


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
    _, sol, _, topo, iface = outer_pass(problem, zero, zero)
    for force in (None, mf.f, rowwise(lambda p: mf.f(p)[0])):
        new = traction_functional(sol, force, sol.space, iface)
        ref = traction_functional_loop(sol, force, sol.space, iface)
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
    ssol, _, _, _, _ = outer_pass(problem, state.solid_displacement,
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


def counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_mesh_motion_factored_once_per_run(monkeypatch):
    # one assembly and one factorization of the motion operator serve every
    # outer iteration; no motion solve goes through Newton
    counts = dict.fromkeys(("assemble", "factor", "newton", "solve"), 0)
    monkeypatch.setattr(motion, "assemble_solid",
                        counting(counts, "assemble", motion.assemble_solid))
    monkeypatch.setattr(motion, "DirectSolver", counting(counts, "factor", motion.DirectSolver))
    monkeypatch.setattr(motion, "solve_newton", counting(counts, "newton", motion.solve_newton))
    monkeypatch.setattr(coupling, "solve_mesh_motion",
                        counting(counts, "solve", coupling.solve_mesh_motion))
    problem = manufactured_fsi_problem(build_manufactured(), 0)
    state = fsi_fixed_point(problem)
    assert state.iterations >= 3
    assert counts == {"assemble": 1, "factor": 1, "newton": 0,
                      "solve": state.iterations}
    iface = region_interface_vertices(problem.front_ref, FLUID, SOLID)
    assert np.array_equal(state.mesh_displacement[iface],
                          state.solid_displacement[iface])


def fluid_system(problem, front):
    """The eliminated fluid system of an FSI problem on a front placement."""
    topo = build_topology(problem.background, front)
    space = CompositeSpace(problem.background, front, topo,
                           bg_dirichlet=problem.bg_dirichlet,
                           front_dirichlet=problem.front_dirichlet)
    c = apply_dirichlet(assemble(problem.fluid, space, topo),
                        space.dirichlet_dofs, space.dirichlet_values)
    return c, space, topo


@pytest.mark.parametrize("angle, components", [(0.0, 2), (65.0, 0)], ids=["0deg", "65deg"])
def test_far_field_solve_matches_plain_solve(angle, components, monkeypatch):
    # the far field of iteration 1 serves the converged configuration too:
    # one far build, one factorization per far component (none at 65 deg,
    # where the far set is empty), both solves equal the plain LU of the
    # whole eliminated system to roundoff
    counts = {"far": 0}
    monkeypatch.setattr(stokes, "DirectSolver", counting(counts, "far", stokes.DirectSolver))
    problem = flap_problem(angle, res=1)
    state = fsi_fixed_point(problem, FsiConfig(load_ramp=4))
    assert counts["far"] == components
    far = FarField()
    for front in (problem.front_ref, state.front_current):
        c, space, topo = fluid_system(problem, front)
        x, ref = far.solve(problem.fluid, space, topo), solve_direct(c)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(x[c.dofs], c.values)
    assert counts["far"] == 2 * components


def test_far_field_set_up_once_per_run(monkeypatch):
    # flap 0 deg res 1: the far field (1950 of 3012 dofs) is built once and
    # factored once per component, without an assembly of its own; every
    # outer iteration assembles its near system and factors it through
    # solve_direct
    counts = dict.fromkeys(("build", "far", "assemble", "near"), 0)
    monkeypatch.setattr(FarField, "_build", counting(counts, "build", FarField._build))
    monkeypatch.setattr(stokes, "assemble", counting(counts, "assemble", stokes.assemble))
    monkeypatch.setattr(stokes, "DirectSolver", counting(counts, "far", stokes.DirectSolver))
    monkeypatch.setattr(stokes, "solve_direct", counting(counts, "near", stokes.solve_direct))
    state = fsi_fixed_point(flap_problem(0.0, res=1), FsiConfig(load_ramp=4))
    assert state.iterations == 9
    assert counts == {"build": 1, "far": 2, "assemble": 9, "near": 9}


def test_far_field_run_never_touches_whole_system(monkeypatch):
    # flap 0 deg res 1: the far field falls into the background upstream and
    # downstream of the box, and no fluid system of a run's full size is
    # eliminated or factored, not even in the first iteration
    farfields, ndofs, sizes = [], set(), []

    def far_field():
        farfields.append(FarField())
        return farfields[-1]

    def space(*args, **kwargs):
        out = CompositeSpace(*args, **kwargs)
        ndofs.add(out.ndof)
        return out

    def recorded(fn, size):
        def call(arg, *rest):
            sizes.append(size(arg))
            return fn(arg, *rest)
        return call

    monkeypatch.setattr(coupling, "FarField", far_field)
    monkeypatch.setattr(coupling, "CompositeSpace", space)
    monkeypatch.setattr(stokes, "apply_dirichlet", recorded(stokes.apply_dirichlet, lambda s: s.n))
    monkeypatch.setattr(stokes, "solve_direct",
                        recorded(stokes.solve_direct, lambda c: c.matrix.shape[0]))
    state = fsi_fixed_point(flap_problem(0.0, res=1), FsiConfig(load_ramp=4))
    assert state.iterations == 9 and len(farfields) == 1
    assert [len(idx) for idx, *_ in farfields[0]._blocks] == [853, 875]
    # the far build's elimination, then one elimination and one LU per iteration
    assert len(sizes) == 1 + 2 * 9
    assert ndofs.isdisjoint(sizes)


@pytest.mark.parametrize("case", ["manufactured-0", "flap-65", "flap-0-single"])
def test_far_field_not_worth_it_keeps_plain_path(case, monkeypatch):
    # the far field holds fewer dofs than the rest, or the solve is a single
    # solve_stokes call (at flap 0 deg, where a run condenses): the far set
    # is empty, no far factorization, and each solve factors the whole
    # eliminated system, bitwise as assembled and eliminated in one piece
    counts = dict.fromkeys(("far", "plain"), 0)
    solves, handed = [], []

    def solve(problem, space, topo, far=None):
        solves.append((problem, space, topo))
        return stokes.solve_stokes(problem, space, topo, far)

    def direct(c):
        handed.append(c)
        return solve_direct(c)

    monkeypatch.setattr(stokes, "DirectSolver", counting(counts, "far", stokes.DirectSolver))
    monkeypatch.setattr(stokes, "solve_direct", counting(counts, "plain", direct))
    monkeypatch.setattr(coupling, "solve_stokes", solve)
    if case == "flap-65":
        iterations = fsi_fixed_point(flap_problem(65.0, res=1), FsiConfig(load_ramp=4)).iterations
    elif case == "manufactured-0":
        iterations = fsi_fixed_point(manufactured_fsi_problem(build_manufactured(), 0)).iterations
    else:
        problem = flap_problem(0.0, res=1)
        solve(problem.fluid, *fluid_system(problem, problem.front_ref)[1:])
        iterations = 1
    assert counts == {"far": 0, "plain": iterations}
    assert len(solves) == len(handed) == iterations
    for (problem, space, topo), c in zip(solves, handed):
        whole = apply_dirichlet(assemble(problem, space, topo),
                                space.dirichlet_dofs, space.dirichlet_values)
        for got, want in ((c.matrix.indptr, whole.matrix.indptr),
                          (c.matrix.indices, whole.matrix.indices),
                          (c.matrix.data, whole.matrix.data), (c.rhs, whole.rhs),
                          (c.dofs, whole.dofs), (c.values, whole.values)):
            assert np.array_equal(got, want)


def test_far_field_rebuilt_when_front_reaches_it(monkeypatch):
    # the flap box moved 0.5 upstream covers cells with far vertices of the
    # first placement's far field: it is rebuilt around the new placement,
    # and the rebuilt far field condenses (each of its components factored)
    counts = dict.fromkeys(("build", "far"), 0)
    monkeypatch.setattr(FarField, "_build", counting(counts, "build", FarField._build))
    monkeypatch.setattr(stokes, "DirectSolver", counting(counts, "far", stokes.DirectSolver))
    problem = flap_problem(0.0, res=1)
    far = FarField()
    far.solve(problem.fluid, *fluid_system(problem, problem.front_ref)[1:])
    assert counts == {"build": 1, "far": 2}
    c, space, topo = fluid_system(problem, translated(problem.front_ref, (-0.5, 0.0)))
    x, ref = far.solve(problem.fluid, space, topo), solve_direct(c)
    assert far._far.any() and len(far._blocks) > 0
    assert counts == {"build": 2, "far": 2 + len(far._blocks)}
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_far_field_keeps_neumann_edges_near():
    # a traction instead of no-slip on the channel top: no far vertex lies on
    # a TOP edge, so the far build integrates no load and each near system
    # every TOP edge once; the far field still condenses up- and downstream
    problem = flap_problem(0.0, res=1)
    del problem.bg_dirichlet[TOP]
    problem.fluid.neumann = ((BG, TOP, lambda pts, n: np.column_stack(
        [-pts[:, 1], np.ones(len(pts))])),)
    c, space, topo = fluid_system(problem, problem.front_ref)
    far = FarField()
    x, ref = far.solve(problem.fluid, space, topo), solve_direct(c)
    bg = problem.background
    assert not far._far[bg.boundary_edges[bg.boundary_markers == TOP]].any()
    assert far._far.sum() == 600 and len(far._blocks) == 2
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_far_field_corrupted_rim_block_fails_residual_check():
    # the near and far solves stay consistent with a wrong Schur block; the
    # residual on the whole system catches it
    problem = flap_problem(0.0, res=1)
    space, topo = fluid_system(problem, problem.front_ref)[1:]
    far = FarField()
    far.solve(problem.fluid, space, topo)
    far._S *= 1.01
    with pytest.raises(SingularMatrixError, match="residual"):
        far.solve(problem.fluid, space, topo)


def test_solid_set_up_once_per_run(monkeypatch):
    # one solid problem and one evaluation of the body force serve every
    # outer iteration and every Newton step
    counts = dict.fromkeys(("problem", "force"), 0)
    monkeypatch.setattr(coupling, "SolidProblem",
                        counting(counts, "problem", coupling.SolidProblem))
    problem = manufactured_fsi_problem(build_manufactured(), 0)
    problem.solid_body_force = counting(counts, "force", problem.solid_body_force)
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
        ssol, _, front, topo, iface = outer_pass(problem, us, um)
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
        xv = interpolate(space, mf.u, mf.p)
        free = np.ones(space.ndof, bool)
        free[space.dirichlet_dofs] = False
        norms.append(np.linalg.norm((sys.matrix() @ xv - sys.rhs)[free]))
    assert norms[1] <= 0.6 * norms[0]
