import numpy as np
import pytest
import scipy.sparse as sp

from olmfsi.linalg import (SparseSystem, apply_dirichlet, solve_direct,
                           condition_estimate, SingularMatrixError,
                           ConstraintConflictError)


def system_from_dense(A, b=None):
    A = np.asarray(A, float)
    sys = SparseSystem(len(A))
    r, c = np.nonzero(A)
    sys.add(r, c, A[r, c])
    if b is not None:
        sys.add_rhs(np.arange(len(A)), b)
    return sys


def random_spd(n, seed, density=0.5):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M[rng.uniform(size=(n, n)) > density] = 0.0
    return M @ M.T + n * np.eye(n)


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.5])
    sys = system_from_dense(np.eye(3), b)
    assert np.allclose(solve_direct(sys), b, atol=1e-14)


def test_solve_diagonal():
    sys = system_from_dense(np.diag([1.0, 2.0, 4.0]), [1.0, 2.0, 4.0])
    assert np.allclose(solve_direct(sys), [1.0, 1.0, 1.0], atol=1e-14)


def test_solve_matches_dense_oracle():
    A = random_spd(50, seed=0)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(50)
    sys = system_from_dense(A, b)
    x = solve_direct(sys)
    ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_solve_residual_contract():
    A = random_spd(30, seed=2)
    b = np.random.default_rng(3).standard_normal(30)
    sys = system_from_dense(A, b)
    x = solve_direct(sys)
    resid = np.linalg.norm(A @ x - b)
    norm_a = np.abs(A).sum(axis=1).max()
    assert resid <= 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_structural_singular_names_pivot():
    A = np.eye(4)
    A[2, 2] = 0.0
    sys = system_from_dense(A, np.ones(4))
    with pytest.raises(SingularMatrixError, match="dof 2"):
        solve_direct(sys)


def test_solve_numerically_singular():
    A = np.ones((3, 3))
    sys = system_from_dense(A, np.ones(3))
    with pytest.raises(SingularMatrixError):
        solve_direct(sys)


def test_dirichlet_all_zero():
    A = random_spd(8, seed=4)
    sys = system_from_dense(A, np.random.default_rng(5).standard_normal(8))
    out = apply_dirichlet(sys, np.arange(8), np.zeros(8))
    assert np.allclose(solve_direct(out), 0.0, atol=1e-15)


def test_dirichlet_2x2_identity():
    sys = system_from_dense(np.eye(2), [7.0, 3.0])
    out = apply_dirichlet(sys, [0], [5.0])
    x = solve_direct(out)
    assert x[0] == 5.0
    assert x[1] == pytest.approx(3.0, abs=1e-14)


def test_dirichlet_matches_dense_elimination_oracle():
    A = random_spd(10, seed=6)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(10)
    cdofs = np.array([1, 4, 8])
    cvals = rng.standard_normal(3)

    sys = system_from_dense(A, b)
    out = apply_dirichlet(sys, cdofs, cvals)
    x = solve_direct(out)

    # dense oracle: eliminate rows/cols directly
    free = np.setdiff1d(np.arange(10), cdofs)
    bred = b[free] - A[np.ix_(free, cdofs)] @ cvals
    xf = np.linalg.solve(A[np.ix_(free, free)], bred)
    ref = np.zeros(10)
    ref[free] = xf
    ref[cdofs] = cvals
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_dirichlet_preserves_symmetry():
    A = random_spd(12, seed=8)
    sys = system_from_dense(A, np.zeros(12))
    out = apply_dirichlet(sys, [0, 5], [1.0, -2.0])
    M = out.matrix().toarray()
    assert np.abs(M - M.T).max() < 1e-14


def test_dirichlet_exact_values_in_solution():
    A = random_spd(9, seed=9)
    sys = system_from_dense(A, np.random.default_rng(10).standard_normal(9))
    vals = np.array([0.123456789012345, -3.25, 7.5])
    out = apply_dirichlet(sys, [2, 3, 7], vals)
    x = solve_direct(out)
    assert x[2] == vals[0] and x[3] == vals[1] and x[7] == vals[2]


def test_dirichlet_matches_diagonal_scaling_bitwise():
    # reference: D A D with D the 0/1 diagonal of free dofs, then unit
    # diagonal on the constrained dofs; dof 3 has no diagonal entry
    A = random_spd(9, seed=11)
    A[3, 3] = 0.0
    A[2, 6] = A[6, 2] = 0.0
    rng = np.random.default_rng(12)
    b = rng.standard_normal(9)
    cdofs, cvals = np.array([3, 5, 0]), rng.standard_normal(3)
    sys = system_from_dense(A, b)
    out = apply_dirichlet(sys, cdofs, cvals)

    M = sys.matrix()
    x0 = np.zeros(9)
    x0[cdofs] = cvals
    rhs = b - M.tocsc() @ x0
    rhs[cdofs] = cvals
    free = np.ones(9)
    free[cdofs] = 0.0
    D = sp.diags(free)
    ref = (D @ M @ D).tolil()
    ref[cdofs, cdofs] = 1.0
    ref = ref.tocsr()
    got = out.matrix()
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)
    assert np.array_equal(out.rhs, rhs)
    assert sys.matrix() is M and M[3, 4] != 0.0   # the input stays unconstrained


def test_add_after_elimination_sums_into_eliminated_matrix():
    A = random_spd(7, seed=13)
    out = apply_dirichlet(system_from_dense(A, np.ones(7)), [1, 4], [0.5, -2.0])
    before = out.matrix().toarray()
    out.add([0, 1, 6, 6], [0, 3, 2, 2], [1.5, -2.0, 0.25, 0.5])
    extra = np.zeros((7, 7))
    extra[0, 0], extra[1, 3], extra[6, 2] = 1.5, -2.0, 0.75
    assert np.array_equal(out.matrix().toarray(), before + extra)
    assert out.constraints == {1: 0.5, 4: -2.0}


def test_dirichlet_conflict_error():
    sys = system_from_dense(np.eye(3))
    sys.set_dirichlet([1], [2.0])
    with pytest.raises(ConstraintConflictError):
        sys.set_dirichlet([1], [3.0])
    sys.set_dirichlet([1], [2.0])  # same value is fine


def test_condition_identity():
    sys = system_from_dense(np.eye(6), np.zeros(6))
    assert 0.5 <= condition_estimate(sys) <= 2.0


def test_condition_diagonal():
    sys = system_from_dense(np.diag([1.0, 10.0]))
    est = condition_estimate(sys)
    assert 5.0 <= est <= 20.0


def test_condition_against_svd_oracle():
    A = random_spd(20, seed=11)
    sys = system_from_dense(A)
    est = condition_estimate(sys)
    ref = np.linalg.cond(A)
    assert ref / 2 <= est <= 2 * ref


def test_condition_indefinite_matrix():
    # symmetric indefinite (saddle-like), still within a factor of two
    rng = np.random.default_rng(12)
    B = rng.standard_normal((6, 4))
    A = np.block([[random_spd(6, 13), B], [B.T, -0.5 * np.eye(4)]])
    sys = system_from_dense(A)
    est = condition_estimate(sys)
    ref = np.linalg.cond(A)
    assert ref / 2 <= est <= 2 * ref


def test_condition_requires_symmetry():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        condition_estimate(system_from_dense(A))
