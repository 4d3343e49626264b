import numpy as np
import pytest
import scipy.sparse.linalg as spla

from olmfsi.mesh import (Mesh, build_rect_mesh, LEFT, RIGHT, BOTTOM, TOP,
                         FLUID, SOLID, region_interface_vertices)
from olmfsi.geometry import CutRules, build_topology
from olmfsi.stokes import (BG, FRONT, CompositeSpace, FluidProblem, FluidSolution,
                           assemble, solve_stokes, error_norms, _volume_terms,
                           _interface_terms, _overlap_terms)
from olmfsi.linalg import SparseSystem, apply_dirichlet, solve_direct, condition_estimate, \
    SingularMatrixError, ConstraintConflictError, _factor
from olmfsi.verification import (build_manufactured, build_manufactured_stokes,
                                 manufactured_fsi_problem, stokes_patch_setup, flap_problem)

from fixtures import constant, interpolate, rowwise
from oracles import (dense_stokes_single_mesh, error_norms_loop,
                     stokes_item_terms_loop)

ALL_SIDES = (LEFT, RIGHT, BOTTOM, TOP)


def empty_mesh():
    return Mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=int))


def patch_setup(front_box, bg_n=6, fr_n=(4, 3), pin_value=0.0):
    bg = build_rect_mesh(bg_n, bg_n, [(0, 0), (1, 1)])
    fr = build_rect_mesh(fr_n[0], fr_n[1], front_box)
    topo = build_topology(bg, fr)
    return bg, fr, topo


# -- reduction to a single mesh -------------------------------------------------

def test_empty_front_reduces_to_single_mesh_assembler():
    nu, delta = 0.7, 0.5
    bg = build_rect_mesh(4, 4, [(0, 0), (1, 1)])
    fr = empty_mesh()
    topo = build_topology(bg, fr)
    space = CompositeSpace(bg, fr, topo)
    assert space.n2 == 0 and space.n1 == bg.nv

    def f(p):
        return np.column_stack([1.0 + 2.0 * p[:, 0] - p[:, 1], -0.5 + p[:, 1]])  # linear

    prob = FluidProblem(viscosity=nu, body_force=f, delta=delta)
    sys = assemble(prob, space, topo)
    A = sys.matrix().toarray()
    A_ref, rhs_ref = dense_stokes_single_mesh(bg, nu, delta, f)
    assert np.abs(A - A_ref).max() <= 1e-12 * max(1.0, np.abs(A_ref).max())
    assert np.abs(sys.rhs - rhs_ref).max() <= 1e-12 * max(1.0, np.abs(rhs_ref).max())


# -- consistency -----------------------------------------------------------------

def test_linear_shear_field_consistency():
    # u = (y, x) is divergence free with zero Laplacian; its interpolant
    # must satisfy the discrete equations exactly for any front position
    u = lambda p: p[:, ::-1]
    pr = constant(0.0)
    bg, fr, topo = patch_setup([(0.23, 0.31), (0.68, 0.77)])
    space = CompositeSpace(bg, fr, topo, bg_dirichlet={m: u for m in ALL_SIDES},
                           pin_pressure=True, pin_value=0.0)
    sys = assemble(FluidProblem(viscosity=1.0), space, topo)
    x = interpolate(space, u, pr)
    free = np.ones(space.ndof, bool)
    free[space.dirichlet_dofs] = False
    resid = sys.matrix() @ x - sys.rhs
    assert np.abs(resid[free]).max() < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_patch_test_random_front_positions(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2, 2))
    A[1, 1] = -A[0, 0]  # divergence free
    b = rng.standard_normal(2)
    c = float(rng.standard_normal())
    u = lambda p: (A @ p[..., None])[..., 0] + b
    pr = constant(c)

    x0, y0 = rng.uniform(0.05, 0.45, 2)
    w, h = rng.uniform(0.25, 0.45, 2)
    bg, fr, topo = patch_setup([(x0, y0), (x0 + w, y0 + h)],
                               fr_n=(rng.integers(2, 5), rng.integers(2, 5)))
    space = CompositeSpace(bg, fr, topo, bg_dirichlet={m: u for m in ALL_SIDES},
                           pin_pressure=True, pin_value=c)
    prob = FluidProblem(viscosity=1.0)
    sys = assemble(prob, space, topo)
    x = interpolate(space, u, pr)
    free = np.ones(space.ndof, bool)
    free[space.dirichlet_dofs] = False
    resid = sys.matrix() @ x - sys.rhs
    assert np.abs(resid[free]).max() < 1e-10
    # and the solver reproduces the interpolant
    sol = solve_stokes(prob, space, topo)
    assert np.abs(sol.coeffs - x).max() < 1e-9


def test_matrix_symmetry():
    bg, fr, topo = patch_setup([(0.19, 0.27), (0.66, 0.81)])
    space = CompositeSpace(bg, fr, topo)
    sys = assemble(FluidProblem(viscosity=0.37), space, topo)
    M = sys.matrix()
    assert abs(M - M.T).max() <= 1e-12 * abs(M).max()


def test_zero_data_zero_solution():
    bg, fr, topo = patch_setup([(0.3, 0.3), (0.7, 0.7)])
    zero = constant(np.zeros(2))
    space = CompositeSpace(bg, fr, topo, bg_dirichlet={m: zero for m in ALL_SIDES},
                           pin_pressure=True)
    sol = solve_stokes(FluidProblem(viscosity=1.0), space, topo)
    assert np.abs(sol.coeffs).max() < 1e-12


def test_unpinned_pure_dirichlet_is_singular():
    bg, fr, topo = patch_setup([(0.3, 0.3), (0.7, 0.7)])
    zero = constant(np.zeros(2))
    space = CompositeSpace(bg, fr, topo, bg_dirichlet={m: zero for m in ALL_SIDES},
                           pin_pressure=False)
    sys = assemble(FluidProblem(viscosity=1.0), space, topo)
    with pytest.raises(SingularMatrixError):
        solve_direct(apply_dirichlet(sys, space.dirichlet_dofs, space.dirichlet_values))


# -- Poiseuille ------------------------------------------------------------------

def poiseuille_solution(L=1.0, H=0.5, nu=1.0, c=1.0):
    # u = (c y (H - y), 0), p = 2 nu c (L - x): satisfies the momentum
    # balance and the zero-traction outflow of the full-gradient form
    def u(p):
        return np.column_stack([c * p[:, 1] * (H - p[:, 1]), np.zeros(len(p))])

    def grad_u(p):
        g = np.zeros((len(p), 2, 2))
        g[:, 0, 1] = c * (H - 2 * p[:, 1])
        return g

    def pr(p):
        return 2.0 * nu * c * (L - p[:, 0])

    return u, grad_u, pr


def test_poiseuille_eoc():
    # no front mesh; inflow profile, no-slip walls, natural outflow
    L, H, nu, c = 1.0, 0.5, 1.0, 1.0
    u, grad_u, pr = poiseuille_solution(L, H, nu, c)
    errs = []
    for n in (4, 8, 16):
        bg = build_rect_mesh(2 * n, n, [(0, 0), (L, H)])
        fr = empty_mesh()
        topo = build_topology(bg, fr)
        space = CompositeSpace(bg, fr, topo,
                               bg_dirichlet={LEFT: u, BOTTOM: u, TOP: u})
        sol = solve_stokes(FluidProblem(viscosity=nu), space, topo)
        eu, ep = error_norms(sol, grad_u, pr, topo)
        errs.append(eu)
        # Dirichlet nodes are reproduced exactly
        for d, v in zip(space.dirichlet_dofs, space.dirichlet_values):
            assert sol.coeffs[d] == v
    eocs = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert eocs[-1] >= 0.9


# -- conditioning robustness --------------------------------------------------------

def cond_for_offset(offset_frac, use_ih=True, jh_extension=True, N=8):
    h = 1.0 / N
    d = offset_frac * h
    bg = build_rect_mesh(N, N, [(0, 0), (1, 1)])
    fr = build_rect_mesh(4, 4, [(0.25 + d, 0.25 + d), (0.75 + d, 0.75 + d)])
    topo = build_topology(bg, fr)
    zero = constant(np.zeros(2))
    space = CompositeSpace(bg, fr, topo, bg_dirichlet={m: zero for m in ALL_SIDES},
                           pin_pressure=True)
    prob = FluidProblem(viscosity=1.0, use_ih=use_ih, jh_extension=jh_extension)
    sys = apply_dirichlet(assemble(prob, space, topo), space.dirichlet_dofs,
                          space.dirichlet_values)
    return condition_estimate(sys.matrix)


def test_condition_robust_under_cut_position():
    conds = [cond_for_offset(off) for off in (0.0, 1e-2, 1e-4, 0.49)]
    assert max(conds) / min(conds) < 10.0


def test_sliver_negative_control():
    stabilized = cond_for_offset(1e-6)
    control = cond_for_offset(1e-6, use_ih=False, jh_extension=False)
    assert control >= 100.0 * stabilized


def test_lu_fill_guard_on_patch_study_system():
    # second-finest system of the 4-level patch study (n = 3864): the
    # symmetric-mode LU keeps well under the fill of stock COLAMD splu; a
    # silent fall back into off-diagonal pivoting would exceed it
    ms = build_manufactured_stokes(1.0)
    bg, fr = stokes_patch_setup(2)
    topo = build_topology(bg, fr)
    space = CompositeSpace(bg, fr, topo, bg_dirichlet={m: ms.u for m in ALL_SIDES},
                           pin_pressure=True)
    prob = FluidProblem(viscosity=1.0, body_force=ms.f, gamma=10.0, delta=0.5)
    sys = apply_dirichlet(assemble(prob, space, topo), space.dirichlet_dofs,
                          space.dirichlet_values)
    A = sys.matrix
    assert A.shape == (3864, 3864)
    lu, stock = _factor(A), spla.splu(A.tocsc())
    assert lu.L.nnz + lu.U.nnz <= 0.7 * (stock.L.nnz + stock.U.nnz)
    ref = stock.solve(sys.rhs)
    x = solve_direct(sys)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


# -- solver invariances ----------------------------------------------------------------

def test_solution_invariant_under_cell_permutation():
    u = lambda p: np.column_stack([np.sin(p[:, 0]), -np.cos(p[:, 1])])
    f = lambda p: np.column_stack([p[:, 0] * p[:, 1], 1.0 - p[:, 0]])
    bg0 = build_rect_mesh(5, 5, [(0, 0), (1, 1)])
    rng = np.random.default_rng(0)
    perm = rng.permutation(bg0.nc)
    bg1 = Mesh(bg0.vertices, bg0.cells[perm], bg0.boundary_edges,
               bg0.boundary_markers, bg0.region_tags[perm])
    sols = []
    for bg in (bg0, bg1):
        fr = build_rect_mesh(3, 3, [(0.28, 0.22), (0.74, 0.69)])
        topo = build_topology(bg, fr)
        space = CompositeSpace(bg, fr, topo,
                               bg_dirichlet={m: u for m in ALL_SIDES},
                               pin_pressure=True)
        sols.append(solve_stokes(FluidProblem(viscosity=1.0, body_force=f),
                                 space, topo).coeffs)
    scale = np.abs(sols[0]).max()
    assert np.abs(sols[0] - sols[1]).max() <= 1e-9 * max(scale, 1.0)


# -- error norms --------------------------------------------------------------------

def test_error_norm_zero_for_interpolated_linear_field():
    u = lambda p: np.column_stack([0.3 * p[:, 0] + 0.7 * p[:, 1] - 0.2,
                                   -0.5 * p[:, 0] - 0.3 * p[:, 1] + 1.0])
    gu = constant([[0.3, 0.7], [-0.5, -0.3]])
    pr = constant(0.25)
    bg, fr, topo = patch_setup([(0.22, 0.28), (0.69, 0.76)])
    space = CompositeSpace(bg, fr, topo)
    x = interpolate(space, u, pr)
    sol = FluidSolution(space, x)
    eu, ep = error_norms(sol, gu, pr, topo)
    assert eu < 1e-12
    assert ep < 1e-12


def test_error_norm_analytic_value():
    # zero discrete field against u = (y, 0) on the unit square: the H1
    # seminorm error is exactly 1
    bg = build_rect_mesh(4, 4, [(0, 0), (1, 1)])
    fr = empty_mesh()
    topo = build_topology(bg, fr)
    space = CompositeSpace(bg, fr, topo)
    sol = FluidSolution(space, np.zeros(space.ndof))
    gu = constant([[0.0, 1.0], [0.0, 0.0]])
    pr = constant(0.0)
    eu, ep = error_norms(sol, gu, pr, topo)
    assert eu == pytest.approx(1.0, abs=1e-12)
    assert ep == pytest.approx(0.0, abs=1e-14)


def test_error_norm_against_refined_quadrature_oracle():
    # smooth field on an overlapping configuration: the physically-integrated
    # error must match re-integration on uniformly refined quadrature
    gu = lambda p: np.stack([np.cos(p[:, 0] + p[:, 1]), np.cos(p[:, 0] + p[:, 1]),
                             -np.sin(p[:, 0]), np.zeros(len(p))], axis=-1).reshape(-1, 2, 2)
    pr = lambda p: p[:, 0] ** 2 - p[:, 1]
    bg, fr, topo = patch_setup([(0.22, 0.28), (0.69, 0.76)])
    space = CompositeSpace(bg, fr, topo)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(space.ndof)  # arbitrary discrete field
    sol = FluidSolution(space, x)
    eu4, ep4 = error_norms(sol, gu, pr, topo)
    eu5, ep5 = error_norms_loop(sol, gu, pr, topo, order=5)
    assert eu4 == pytest.approx(eu5, rel=1e-6)
    assert ep4 == pytest.approx(ep5, rel=1e-6)


def test_composite_space_dof_counts():
    bg = build_rect_mesh(12, 12, [(0, 0), (1, 1)])
    fr = build_rect_mesh(4, 4, [(0.2, 0.2), (0.7, 0.8)],
                         region_fn=lambda c: SOLID if (0.3 < c[0] < 0.6
                                                       and 0.35 < c[1] < 0.65)
                         else FLUID)
    topo = build_topology(bg, fr)
    space = CompositeSpace(bg, fr, topo)
    reduced_verts = np.unique(bg.cells[topo.reduced_cells])
    fluid_verts = np.unique(fr.cells[fr.region_tags == FLUID])
    assert space.n1 == len(reduced_verts)
    assert space.n2 == len(fluid_verts)
    assert space.ndof == 3 * (space.n1 + space.n2)
    # velocity and pressure blocks do not overlap across meshes
    assert space.offset_u2 == 2 * space.n1
    assert space.offset_p2 - space.offset_p1 == space.n1
    # the active vertices of both meshes carry every dof exactly once
    hits = np.zeros(space.ndof, dtype=int)
    for mesh_id in (BG, FRONT):
        act = np.flatnonzero(space.sides[mesh_id][1] >= 0)
        for d in space.dofs(mesh_id, act):
            np.add.at(hits, d.ravel(), 1)
    assert (hits == 1).all()
    # the nodal fields of a solution are the interpolated nodal values
    u = lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 0] * p[:, 1]])
    pr = lambda p: np.cos(p[:, 1]) - p[:, 0]
    sol = FluidSolution(space, interpolate(space, u, pr))
    for mesh_id, mesh in ((BG, bg), (FRONT, fr)):
        act = space.sides[mesh_id][1] >= 0
        assert np.array_equal(sol.velocity(mesh_id)[act], u(mesh.vertices[act]))
        assert np.array_equal(sol.pressure(mesh_id)[act], pr(mesh.vertices[act]))
        assert not sol.velocity(mesh_id)[~act].any() and not sol.pressure(mesh_id)[~act].any()
    # vertices of solid cells only carry no dof
    solid_only = np.setdiff1d(np.arange(fr.nv), fluid_verts)
    assert len(solid_only) and (space.fr_vmap[solid_only] == -1).all()
    # the region tags alone make the fluid-solid interface no-slip and keep
    # the solid out of the overlap pairs
    iface = region_interface_vertices(fr, FLUID, SOLID)
    no_slip = (space.offset_u2 + 2 * space.fr_vmap[iface][:, None] + np.arange(2)).ravel()
    assert len(iface) and (space.fr_vmap[iface] >= 0).all()
    assert np.array_equal(space.dirichlet_dofs, np.sort(no_slip))
    assert (space.dirichlet_values == 0.0).all()
    pairs = topo.overlap_pairs
    assert len(pairs) and (fr.region_tags[pairs.front_cell] == FLUID).all()


def test_problem_validation():
    with pytest.raises(ValueError):
        FluidProblem(viscosity=-1.0)
    with pytest.raises(ValueError):
        FluidProblem(gamma=0.0)
    FluidProblem(delta=0.0)  # allowed for stabilization studies


# -- batched kernels against their per-item references ----------------------------

def _grad_u(p):
    x, y = p[..., 0], p[..., 1]
    return np.stack([np.cos(x) * y, np.sin(y), x * x - y, -np.cos(x) * y],
                    axis=-1).reshape(*np.shape(p)[:-1], 2, 2)


def _pres(p):
    return np.sin(3.0 * p[..., 0]) * p[..., 1] + 0.3


def _force(p):
    return np.stack([np.sin(p[..., 0]) + p[..., 1], p[..., 0] * p[..., 1]], axis=-1)


def _traction(pts, n):
    return np.outer(1.0 + pts[:, 1] - pts[:, 0] ** 2, n) + np.array([0.3, -0.1])


def _overlap_case(solid_core=False, aligned=False, empty_cut=False, pin_pressure=True):
    """Background square under a rotated front that crosses its right side
    (with a solid core if asked), or a grid-aligned front."""
    bg = build_rect_mesh(10, 10, [(0, 0), (1, 1)])
    if aligned:
        fr = build_rect_mesh(4, 4, [(0.2, 0.3), (0.6, 0.7)])
    else:
        solid = (lambda c: SOLID if 0.62 < c[0] < 0.84 and 0.44 < c[1] < 0.56
                 else FLUID)
        fr = build_rect_mesh(10, 6, [(0.31, 0.24), (1.24, 0.76)],
                             region_fn=solid if solid_core else None)
        t = 0.17
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        c = np.array([0.7, 0.5])
        fr = Mesh((fr.vertices - c) @ rot.T + c, fr.cells, fr.boundary_edges,
                  fr.boundary_markers, fr.region_tags)
    topo = build_topology(bg, fr)
    if empty_cut:
        # the second partial cell's rule emptied, as for a sliver cut
        r = topo.cut_rules
        drop = np.arange(r.offsets[1], r.offsets[2])
        topo.cut_rules = CutRules(np.delete(r.points, drop, axis=0), np.delete(r.weights, drop),
                                  np.append(r.offsets[:2], r.offsets[2:] - len(drop)))
    space = CompositeSpace(bg, fr, topo,
                           bg_dirichlet={LEFT: lambda p: np.column_stack(
                               [p[:, 1], np.zeros(len(p))])},
                           pin_pressure=pin_pressure)
    return topo, space


# the ids keep their numbers from when case0 and case2 ran orders 2 and 5
@pytest.mark.parametrize("case", [
    dict(), dict(pin_pressure=True), dict(pin_pressure=False), dict(pointwise=True),
    dict(solid_core=True), dict(aligned=True), dict(empty_cut=True)],
    ids=[f"case{k}" for k in (1, 3, 4, 5, 6, 7, 8)])
def test_batched_error_norms_match_per_cell_reference(case):
    case = dict(case)
    pointwise = case.pop("pointwise", False)
    topo, space = _overlap_case(**case)
    if case.get("aligned"):
        assert len(topo.class_partial) == 0
    if case.get("solid_core"):
        assert len(space.fluid_cells) < space.front.nc
    sol = FluidSolution(space, np.random.default_rng(5).standard_normal(space.ndof))
    gu, pr = (rowwise(_grad_u), rowwise(_pres)) if pointwise else (_grad_u, _pres)
    args = (sol, gu, pr, topo)
    # same cells, same per-cell sums in the same order: equal to the last bit
    assert error_norms(*args) == error_norms_loop(*args)


@pytest.mark.parametrize("force", [None, "vectorized", "pointwise"])
@pytest.mark.parametrize("use_ih", [True, False])
@pytest.mark.parametrize("jh_extension", [True, False])
def test_batched_assembly_matches_per_item_reference(jh_extension, use_ih, force):
    topo, space = _overlap_case(solid_core=True, empty_cut=True)
    f = {None: None, "vectorized": _force, "pointwise": rowwise(_force)}[force]
    prob = FluidProblem(viscosity=0.3, body_force=f, use_ih=use_ih,
                        jh_extension=jh_extension,
                        neumann=((0, RIGHT, _traction), (1, RIGHT, _traction),
                                 (1, TOP, _traction)))
    assert topo.interface_segments and topo.overlap_pairs
    new, ref = assemble(prob, space, topo), stokes_item_terms_loop(prob, space, topo)
    A, B = new.matrix(), ref.matrix()
    for x, y in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data),
                 (new.rhs, ref.rhs)):
        assert x.shape == y.shape and np.array_equal(x, y)


# -- Dirichlet data ---------------------------------------------------------------

def test_conflicting_background_markers_raise():
    # LEFT and BOTTOM meet at the corner (0, 0) with different velocities
    bg, fr, topo = patch_setup([(0.3, 0.3), (0.6, 0.55)])
    with pytest.raises(ConstraintConflictError, match="constrained to both 1.0 and 0.0"):
        CompositeSpace(bg, fr, topo,
                       bg_dirichlet={LEFT: constant([1.0, 0.0]),
                                     BOTTOM: constant([0.0, 0.0])})
    # equal values at the shared corner are consistent
    zero = constant(np.zeros(2))
    CompositeSpace(bg, fr, topo, bg_dirichlet={LEFT: zero, BOTTOM: zero})


def test_vectorized_dirichlet_callbacks_match_pointwise_wrappers():
    # boundary markers of both meshes, each evaluated once per marker on the
    # whole vertex array, merged with the no-slip fluid-solid interface
    ms = build_manufactured_stokes()
    topo, space = _overlap_case(solid_core=True)

    def build(g):
        return CompositeSpace(space.background, space.front, topo,
                              bg_dirichlet={m: g for m in ALL_SIDES},
                              front_dirichlet={LEFT: g, TOP: g},
                              pin_pressure=True, pin_value=0.25)

    vec, point = build(ms.u), build(rowwise(lambda p: ms.u(p)[0]))
    assert vec.dirichlet_dofs.dtype == np.int64
    assert np.array_equal(vec.dirichlet_dofs, point.dirichlet_dofs)
    assert vec.dirichlet_values.tobytes() == point.dirichlet_values.tobytes()
    assert np.all(np.diff(vec.dirichlet_dofs) > 0)
    assert vec.dirichlet_values[vec.dirichlet_dofs == vec.pin_dof].tolist() == [0.25]


@pytest.mark.parametrize("case", ["flap0", "flap65", "manufactured", "patch", "solid_core"])
def test_constant_velocity_in_operator_null_space(case):
    # every fluid term annihilates a velocity constant on both meshes, so a
    # Nitsche or overlap term inconsistent between the meshes shows here,
    # in the whole unconstrained operator and in its kernel of origin
    if case == "solid_core":
        topo, space = _overlap_case(solid_core=True)
        problem = FluidProblem(viscosity=0.3)
    elif case == "patch":
        bg, fr = stokes_patch_setup(0)
        topo = build_topology(bg, fr)
        space = CompositeSpace(bg, fr, topo, pin_pressure=True)
        problem = FluidProblem()
    else:
        fsi = (manufactured_fsi_problem(build_manufactured(), 0) if case == "manufactured"
               else flap_problem(float(case[4:]), res=1))
        topo = build_topology(fsi.background, fsi.front_ref)
        space = CompositeSpace(fsi.background, fsi.front_ref, topo,
                               bg_dirichlet=fsi.bg_dirichlet,
                               front_dirichlet=fsi.front_dirichlet)
        problem = fsi.fluid
    kernels = {
        "volume": lambda sys: (_volume_terms(sys, space, BG, topo.class_not, problem),
                               _volume_terms(sys, space, FRONT, space.fluid_cells, problem)),
        "cut": lambda sys: _volume_terms(sys, space, BG, topo.class_partial, problem,
                                         topo.cut_rules),
        "interface": lambda sys: _interface_terms(sys, space, problem, topo.interface_segments),
        "overlap": lambda sys: _overlap_terms(sys, space, problem, topo.overlap_pairs),
    }
    whole = assemble(problem, space, topo).matrix()
    for comp in range(2):
        e = np.zeros(space.ndof)
        for mesh_id in (BG, FRONT):
            active = np.flatnonzero(space.sides[mesh_id][1] >= 0)
            e[space.dofs(mesh_id, active)[0][:, comp]] = 1.0
        assert np.abs(whole @ e).max() <= 1e-14 * abs(whole).max()
        for name, add in kernels.items():
            sys = SparseSystem(space.ndof)
            add(sys)
            A = sys.matrix()
            assert A.nnz, name
            assert np.abs(A @ e).max() <= 1e-14 * abs(A).max(), name
