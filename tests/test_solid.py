import numpy as np
import pytest

from fixtures import constant, rowwise, l2_norm
from oracles import assemble_solid_loop, solid_load_loop
from olmfsi.linalg import ConstraintConflictError
from olmfsi.mesh import Mesh, build_rect_mesh, LEFT, RIGHT, BOTTOM, FLUID, SOLID
from olmfsi.motion import MeshMotionProblem
from olmfsi.solid import (Material, SolidProblem, first_piola, piola_tangent,
                          strain_energy, assemble_solid, solve_newton,
                          body_load, edge_load,
                          InvertedElementError, NewtonError, STVK, LINEAR,
                          p1_mass_matrix, l2_error, h1_seminorm_error)


MAT1 = Material(STVK, 1.0, 1.0)


zero_g = constant([0.0, 0.0])


def no_load(prob):
    return np.zeros((prob.mesh.nv, 2))


def marker_edges(mesh, marker):
    return mesh.boundary_edges[mesh.boundary_markers == marker]


def strip_problem(mat, traction, nx=10, ny=2):
    """A strip clamped on the left, and the load of a traction on its right end."""
    mesh = build_rect_mesh(nx, ny, [(0, 0), (1, 0.2)])
    prob = SolidProblem(mesh, mat, dirichlet={LEFT: zero_g})
    return prob, edge_load(mesh, marker_edges(mesh, RIGHT), traction)


# -- stress ----------------------------------------------------------------------

def test_piola_reference_state():
    assert np.abs(first_piola(np.eye(2), MAT1)).max() == 0.0


def test_piola_rotation_stress_free():
    th = np.deg2rad(30.0)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert np.abs(first_piola(R, MAT1)).max() < 1e-15


def test_piola_uniaxial_value():
    F = np.diag([1.1, 1.0])
    P = first_piola(F, MAT1)
    # E = diag(0.105, 0); S = diag(0.315, 0.105); P = F S
    assert P == pytest.approx(np.diag([0.3465, 0.105]), abs=1e-14)


def test_piola_inverted_element():
    with pytest.raises(InvertedElementError):
        first_piola(np.diag([-1.0, 1.0]), MAT1)


def test_piola_vs_energy_finite_differences():
    rng = np.random.default_rng(0)
    mats = [MAT1, Material.from_young_poisson(10.0, 0.3)]
    checked = 0
    while checked < 100:
        F = np.eye(2) + 0.15 * rng.standard_normal((2, 2))
        if np.linalg.det(F) <= 0.1:
            continue
        mat = mats[checked % 2]
        P = first_piola(F, mat)
        dF = rng.standard_normal((2, 2))
        h = 1e-6
        fd = (strain_energy(F + h * dF, mat)
              - strain_energy(F - h * dF, mat)) / (2 * h)
        an = float(np.sum(P * dF))
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))
        checked += 1


def test_tangent_vs_piola_finite_differences():
    rng = np.random.default_rng(1)
    for mat in (MAT1, Material(LINEAR, 2.0, 3.0)):
        for _ in range(20):
            F = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
            if np.linalg.det(F) <= 0.1:
                continue
            dF = rng.standard_normal((2, 2))
            h = 1e-6
            fd = (first_piola(F + h * dF, mat)
                  - first_piola(F - h * dF, mat)) / (2 * h)
            an = piola_tangent(F, mat, dF)
            assert np.abs(fd - an).max() <= 1e-5 * max(1.0, np.abs(an).max())


def test_material_validation():
    with pytest.raises(ValueError):
        Material(STVK, -1.0, 1.0)
    with pytest.raises(ValueError):
        Material("bogus", 1.0, 1.0)
    m = Material.from_young_poisson(10.0, 0.3)
    assert m.mu == pytest.approx(10.0 / 2.6)
    assert m.lam == pytest.approx(10.0 * 0.3 / (1.3 * 0.4))


# -- assembly ---------------------------------------------------------------------

def test_zero_state_zero_residual():
    prob = SolidProblem(build_rect_mesh(10, 2, [(0, 0), (1, 0.2)]), MAT1,
                        dirichlet={LEFT: zero_g})
    R, K = assemble_solid(prob, np.zeros(prob.ndof))
    assert np.abs(R).max() == 0.0


def test_tangent_matches_residual_fd():
    mat = Material.from_young_poisson(10.0, 0.3)
    prob = SolidProblem(build_rect_mesh(6, 2, [(0, 0), (1, 0.3)]), mat,
                        dirichlet={LEFT: zero_g})
    rng = np.random.default_rng(2)
    U = 0.02 * rng.standard_normal(prob.ndof)
    _, K = assemble_solid(prob, U)
    dU = rng.standard_normal(prob.ndof)
    h = 1e-6
    Rp, _ = assemble_solid(prob, U + h * dU)
    Rm, _ = assemble_solid(prob, U - h * dU)
    fd = (Rp - Rm) / (2 * h)
    an = K.matrix() @ dU
    assert np.linalg.norm(fd - an) <= 1e-5 * np.linalg.norm(an)


def test_tangent_symmetry():
    mat = Material.from_young_poisson(5.0, 0.25)
    prob = SolidProblem(build_rect_mesh(5, 3, [(0, 0), (1, 0.4)]), mat,
                        dirichlet={LEFT: zero_g})
    rng = np.random.default_rng(3)
    U = 0.01 * rng.standard_normal(prob.ndof)
    _, K = assemble_solid(prob, U)
    M = K.matrix()
    assert abs(M - M.T).max() <= 1e-10 * abs(M).max()


def test_assembly_reports_inverted_cell():
    prob = SolidProblem(build_rect_mesh(2, 2, [(0, 0), (1, 1)]), MAT1)
    U = np.zeros(prob.ndof)
    # collapse one vertex across the opposite edge
    U[0] = 10.0
    with pytest.raises(InvertedElementError, match="cell"):
        assemble_solid(prob, U)


# -- Newton -----------------------------------------------------------------------

def test_newton_zero_data_one_iteration():
    prob = SolidProblem(build_rect_mesh(4, 2, [(0, 0), (1, 0.5)]), MAT1,
                        dirichlet={LEFT: zero_g})
    sol = solve_newton(prob, no_load(prob), tol=1e-10)
    assert sol.iterations == 1
    assert np.abs(sol.displacement).max() == 0.0


def test_newton_linear_single_step():
    mat = Material.from_young_poisson(10.0, 0.3, LINEAR)
    sol = solve_newton(*strip_problem(mat, constant([0.0, 0.01])), tol=1e-10)
    assert sol.iterations == 1


def test_newton_small_load_matches_linear_model():
    mu = Material.from_young_poisson(10.0, 0.3).mu
    t = 1e-4 * mu
    tr = constant([0.0, t])
    sols = {}
    for model in (STVK, LINEAR):
        mat = Material.from_young_poisson(10.0, 0.3, model)
        sols[model] = solve_newton(*strip_problem(mat, tr), tol=1e-13).displacement
    scale = np.abs(sols[LINEAR]).max()
    diff = np.abs(sols[STVK] - sols[LINEAR]).max()
    # geometric nonlinearity enters at second order in the displacement
    assert diff <= 5.0 * scale ** 2 / 0.2  # O(|u|^2) with a geometry factor
    assert diff < 0.05 * scale


def test_newton_clamped_strip_quadratic_convergence():
    mat = Material.from_young_poisson(10.0, 0.3)
    sol = solve_newton(*strip_problem(mat, constant([0.0, 0.02])), tol=1e-10)
    assert sol.iterations <= 8
    r = sol.residuals
    # quadratic ratio on the last steps above the roundoff floor
    tail = [v for v in r if v > 1e-13]
    assert len(tail) >= 3
    ratio = np.log(tail[-1]) / np.log(tail[-2])
    assert ratio > 1.5


def test_newton_nonconvergence_reports_history():
    mat = Material.from_young_poisson(10.0, 0.3)
    with pytest.raises(NewtonError) as err:
        solve_newton(*strip_problem(mat, constant([0.0, 0.02])), tol=1e-30, maxit=2)
    assert len(err.value.residuals) >= 2


def test_translation_invariance():
    mat = Material.from_young_poisson(10.0, 0.3)
    mesh = build_rect_mesh(5, 2, [(0, 0), (1, 0.3)])
    # small shift: the first Newton iterate interpolates between shifted
    # boundary values and an unshifted interior, which must stay untangled
    c = np.array([0.009, -0.006])
    tr = constant([0.0, 0.01])
    base = SolidProblem(mesh, mat, dirichlet={LEFT: zero_g, RIGHT: zero_g})
    shifted = SolidProblem(mesh, mat,
                           dirichlet={LEFT: constant(c), RIGHT: constant(c)})
    load = body_load(mesh, base.cells, constant([0.0, 0.05]))
    u0 = solve_newton(base, load, tol=1e-12).displacement
    u1 = solve_newton(shifted, load, tol=1e-12).displacement
    assert np.abs(u1 - (u0 + c)).max() < 1e-9


def test_region_restricted_problem():
    mesh = build_rect_mesh(4, 4, [(0, 0), (1, 1)],
                           region_fn=lambda c: SOLID if c[1] > 0.5 else FLUID)
    mat = Material.from_young_poisson(10.0, 0.3)
    prob = SolidProblem(mesh, mat, region_tag=SOLID,
                        dirichlet={LEFT: zero_g, RIGHT: zero_g})
    assert prob.nactive == 3 * 5  # vertices of the upper half
    sol = solve_newton(prob, no_load(prob), tol=1e-12)
    lower = mesh.vertices[:, 1] < 0.5 - 1e-9
    assert np.abs(sol.displacement[lower]).max() == 0.0


def test_mass_matrix_and_l2_norm():
    mesh = build_rect_mesh(3, 3, [(0, 0), (1, 1)])
    M = p1_mass_matrix(mesh)
    ones = np.ones(mesh.nv)
    assert ones @ (M @ ones) == pytest.approx(1.0, abs=1e-12)
    # constant vector field (a, b): L2 norm sqrt(a^2 + b^2) over unit area
    fld = np.tile([0.3, -0.4], (mesh.nv, 1))
    assert l2_norm(mesh, np.arange(mesh.nc), fld) == pytest.approx(0.5, abs=1e-12)


# -- batched kernels against their per-cell forms ---------------------------------

def _jittered_mesh(nx, ny, top, region_fn=None, seed=8):
    """Rectangle mesh with moved vertices, so cells differ in shape and area."""
    m = build_rect_mesh(nx, ny, [(0, 0), top], region_fn=region_fn)
    h = min(top[0] / nx, top[1] / ny)
    v = m.vertices + 0.15 * h * np.random.default_rng(seed).uniform(-1, 1, (m.nv, 2))
    return Mesh(v, m.cells, m.boundary_edges, m.boundary_markers, m.region_tags)


def _vec_force(x):
    return np.column_stack([np.sin(3.0 * x[:, 0]), x[:, 1] ** 2 - 0.2])



@pytest.mark.parametrize("model", [STVK, LINEAR])
@pytest.mark.parametrize("region", [None, SOLID])
@pytest.mark.parametrize("force", ["vectorized", "pointwise"])
def test_batched_assembly_matches_per_cell_reference(model, region, force):
    mesh = _jittered_mesh(7, 6, (1, 0.6), lambda c: SOLID if c[1] > 0.25 else FLUID)
    rng = np.random.default_rng(4)
    prob = SolidProblem(
        mesh, Material.from_young_poisson(10.0, 0.3, model), region_tag=region,
        dirichlet={LEFT: zero_g})
    body_force = (_vec_force if force == "vectorized"
                  else rowwise(lambda x: _vec_force(x[None])[0]))
    traction = lambda x: np.column_stack([np.full(len(x), 0.1), x[:, 1]])
    right = marker_edges(mesh, RIGHT)
    assert 0 < len(prob.cells) and len(right)
    U = 0.005 * rng.standard_normal(prob.ndof)
    R, K = assemble_solid(prob, U)
    R_ref, K_ref = assemble_solid_loop(prob, U)
    # same products and sums in the same order: bitwise equal
    assert np.array_equal(R, R_ref)
    A, A_ref = K.matrix(), K_ref.matrix()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, part), getattr(A_ref, part))
    load = body_load(mesh, prob.cells, body_force) + edge_load(mesh, right, traction)
    assert np.array_equal(load, solid_load_loop(mesh, prob.cells, body_force,
                                                right, traction))


def test_batched_assembly_names_first_inverted_cell():
    mesh = build_rect_mesh(4, 4, [(0, 0), (1, 1)],
                           region_fn=lambda c: SOLID if c[0] > 0.25 else FLUID)
    prob = SolidProblem(mesh, MAT1, region_tag=SOLID)
    U = np.zeros(prob.ndof)
    # two vertices pushed across their neighbours invert several cells
    U[2 * prob.vmap[12]] = -0.6
    U[2 * prob.vmap[8] + 1] = 0.7
    with pytest.raises(InvertedElementError) as ref:
        assemble_solid_loop(prob, U)
    with pytest.raises(InvertedElementError) as got:
        assemble_solid(prob, U)
    assert str(got.value) == str(ref.value)
    assert int(str(ref.value).split()[-1]) != int(prob.cells[0])


def test_stacked_constitutive_laws_match_2x2_calls_bitwise():
    rng = np.random.default_rng(6)
    F = np.eye(2) + 0.1 * rng.standard_normal((20, 2, 2))
    dF = rng.standard_normal((20, 6, 2, 2))
    for mat in (MAT1, Material.from_young_poisson(10.0, 0.3),
                Material(LINEAR, 2.0, 3.0)):
        P = first_piola(F, mat)
        dP = piola_tangent(F[:, None], mat, dF)
        assert P.shape == (20, 2, 2) and dP.shape == (20, 6, 2, 2)
        for c in range(20):
            assert np.array_equal(P[c], first_piola(F[c], mat))
            for k in range(6):
                assert np.array_equal(dP[c, k], piola_tangent(F[c], mat, dF[c, k]))
        if mat.model == STVK:
            W = strain_energy(F, mat)
            assert all(W[c] == strain_energy(F[c], mat) for c in range(20))
    F[7] = np.diag([-1.0, 1.0])
    with pytest.raises(InvertedElementError):
        first_piola(F, MAT1)


@pytest.mark.parametrize("force", [None, _vec_force, constant([0.0, 1.0])])
def test_assembly_on_empty_region(force):
    mesh = build_rect_mesh(3, 2, [(0, 0), (1, 1)], region_fn=lambda c: FLUID)
    prob = SolidProblem(mesh, MAT1, region_tag=SOLID)
    assert len(prob.cells) == 0
    R, K = assemble_solid(prob, np.zeros(prob.ndof))
    assert R.shape == (0,) and K.n == 0 and K.matrix().nnz == 0
    load = body_load(mesh, prob.cells, force)
    assert load.shape == (mesh.nv, 2) and not load.any()
    if force is not None:
        assert not edge_load(mesh, [], force).any()
    assert prob.gather(load).shape == (0,)


def test_batched_error_norms_sum_over_cells():
    mesh = _jittered_mesh(5, 4, (1, 0.8))
    rng = np.random.default_rng(7)
    fld = rng.standard_normal((mesh.nv, 2))
    cells = np.arange(3, mesh.nc, 2)
    exact = lambda x: np.column_stack([np.cos(x[:, 0]), x[:, 0] * x[:, 1]])
    grad = lambda x: np.stack([-np.sin(x[:, 0]), np.zeros(len(x)), x[:, 1], x[:, 0]],
                              axis=-1).reshape(-1, 2, 2)
    for err, fn in ((l2_error, exact), (h1_seminorm_error, grad)):
        whole = err(mesh, cells, fld, fn) ** 2
        parts = sum(err(mesh, [c], fld, fn) ** 2 for c in cells)
        assert whole == pytest.approx(parts, rel=1e-13)
    # P1 fields are integrated exactly by the order-4 rule and the mass matrix
    zero = constant([0.0, 0.0])
    assert l2_error(mesh, cells, fld, zero) == pytest.approx(
        l2_norm(mesh, cells, fld), rel=1e-13)
    M = p1_mass_matrix(mesh, cells).toarray()
    parts = sum(p1_mass_matrix(mesh, [c]).toarray() for c in cells)
    assert np.abs(M - parts).max() <= 1e-15 * np.abs(parts).max()
    assert p1_mass_matrix(mesh, []).shape == (mesh.nv, mesh.nv)


# -- Dirichlet data ---------------------------------------------------------------

def test_conflicting_corner_values_raise():
    mesh = build_rect_mesh(4, 2, [(0, 0), (1, 0.2)])
    with pytest.raises(ConstraintConflictError):
        SolidProblem(mesh, MAT1, dirichlet={LEFT: constant([0.1, 0.0]),
                                            BOTTOM: zero_g})
    SolidProblem(mesh, MAT1, dirichlet={LEFT: zero_g, BOTTOM: zero_g})


def test_nodal_dirichlet_data_loses_to_marker_data():
    mesh = build_rect_mesh(4, 2, [(0, 0), (1, 0.2)])
    left = np.flatnonzero(mesh.vertices[:, 0] < 1e-12)
    inner = np.flatnonzero(np.abs(mesh.vertices[:, 0] - 0.5) < 1e-12)
    nodes = np.concatenate([inner, left])
    prob = SolidProblem(mesh, MAT1, dirichlet={LEFT: constant([0.1, 0.2])},
                        clamped_nodes=nodes)
    U = np.ones(prob.ndof)
    U[prob.constrained_dofs] = prob.constrained_values
    field = prob.scatter(U)
    assert len(prob.constrained_dofs) == 2 * len(nodes)
    assert (field[left] == [0.1, 0.2]).all() and (field[inner] == 0.0).all()

    # a marker without edges adds nothing; a node off the region is rejected
    layered = build_rect_mesh(4, 4, [(0, 0), (1, 1)],
                              region_fn=lambda c: SOLID if c[1] > 0.5 else FLUID)
    prob = SolidProblem(layered, MAT1, region_tag=SOLID, dirichlet={BOTTOM: zero_g},
                        clamped_nodes=[layered.nv - 1])
    assert prob.constrained_dofs.dtype == np.int64 and len(prob.constrained_dofs) == 2
    with pytest.raises(ValueError, match="clamped node 0 not in the solid region"):
        SolidProblem(layered, MAT1, region_tag=SOLID, clamped_nodes=[0])


def test_per_point_callbacks_rejected():
    # a callback written for one point returns one row for the whole array
    per_point = lambda x: np.zeros(2)
    mesh = build_rect_mesh(4, 2, [(0, 0), (1, 0.2)])
    with pytest.raises(ValueError, match=r"shape \(2,\) for 3 points"):
        SolidProblem(mesh, MAT1, dirichlet={LEFT: per_point})
    with pytest.raises(ValueError, match=r"shape \(2,\) for 48 points"):
        body_load(mesh, np.arange(mesh.nc), per_point)
    with pytest.raises(ValueError, match=r"shape \(2,\) for 12 points"):
        edge_load(mesh, marker_edges(mesh, BOTTOM), per_point)
    # at exactly two points the one row has the length of a column
    narrow = build_rect_mesh(4, 1, [(0, 0), (1, 0.2)])
    with pytest.raises(ValueError, match=r"shape \(2,\) for 2 points"):
        SolidProblem(narrow, MAT1, dirichlet={LEFT: per_point})


def test_vectorized_dirichlet_callback_matches_pointwise():
    mesh = build_rect_mesh(5, 2, [(0, 0), (1, 0.3)])

    def g(pts):
        return np.column_stack([np.sin(pts[:, 1]), pts[:, 0] * pts[:, 1]])
    vec = SolidProblem(mesh, MAT1, dirichlet={LEFT: g, RIGHT: g})
    point = SolidProblem(mesh, MAT1, dirichlet={LEFT: rowwise(lambda x: g(x[None])[0]),
                                                RIGHT: rowwise(lambda x: g(x[None])[0])})
    assert np.array_equal(vec.constrained_dofs, point.constrained_dofs)
    assert vec.constrained_values.tobytes() == point.constrained_values.tobytes()


def test_clamped_and_pinned_nodes_out_of_range():
    mesh = build_rect_mesh(4, 2, [(0, 0), (1, 0.2)])
    for node in (-1, mesh.nv):
        with pytest.raises(IndexError, match=f"clamped node {node} out of range"):
            SolidProblem(mesh, MAT1, clamped_nodes=[node])
        with pytest.raises(IndexError, match=f"clamped node {node} out of range"):
            MeshMotionProblem(mesh, [0, 1], pinned_nodes=[node])
    prob = SolidProblem(mesh, MAT1, clamped_nodes=[mesh.nv - 1])
    assert np.array_equal(prob.constrained_dofs, 2 * (mesh.nv - 1) + np.arange(2))


def test_nodal_load_and_warm_start_shapes_checked():
    prob, load = strip_problem(MAT1, constant([0.0, 0.01]))
    for bad in (np.array([0.0, -1.0]), load[:-1], load.ravel()):
        with pytest.raises(ValueError, match="nodal field of shape"):
            solve_newton(prob, bad)
        with pytest.raises(ValueError, match="nodal field of shape"):
            solve_newton(prob, load, u0=bad)
    assert np.array_equal(prob.scatter(prob.gather(load)), load)

