import numpy as np
import pytest
import scipy.sparse as sp

from olmfsi.linalg import (SparseSystem, DirectSolver, apply_dirichlet, solve_direct,
                           condition_estimate, SingularMatrixError,
                           ConstraintConflictError, merge_constraints)

NONE = (np.zeros(0, dtype=np.int64), np.zeros(0))     # no constrained dofs


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
    assert np.allclose(solve_direct(apply_dirichlet(sys, *NONE)), b, atol=1e-14)


def test_solve_diagonal():
    sys = system_from_dense(np.diag([1.0, 2.0, 4.0]), [1.0, 2.0, 4.0])
    assert np.allclose(solve_direct(apply_dirichlet(sys, *NONE)), [1.0, 1.0, 1.0], atol=1e-14)


def test_solve_matches_dense_oracle():
    A = random_spd(50, seed=0)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(50)
    sys = system_from_dense(A, b)
    x = solve_direct(apply_dirichlet(sys, *NONE))
    ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_solve_residual_contract():
    A = random_spd(30, seed=2)
    b = np.random.default_rng(3).standard_normal(30)
    sys = system_from_dense(A, b)
    x = solve_direct(apply_dirichlet(sys, *NONE))
    resid = np.linalg.norm(A @ x - b)
    norm_a = np.abs(A).sum(axis=1).max()
    assert resid <= 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_structural_singular_names_pivot():
    A = np.eye(4)
    A[2, 2] = 0.0
    sys = system_from_dense(A, np.ones(4))
    with pytest.raises(SingularMatrixError, match="dof 2"):
        solve_direct(apply_dirichlet(sys, *NONE))


def test_solve_numerically_singular():
    A = np.ones((3, 3))
    sys = system_from_dense(A, np.ones(3))
    with pytest.raises(SingularMatrixError):
        solve_direct(apply_dirichlet(sys, *NONE))


def test_solve_nearly_singular_by_probe():
    # a pivot ratio of about 1e-15 behind a rotation: SuperLU factors it,
    # the probe solve's growth names it singular
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = Q @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 1e-15]) @ Q.T
    with pytest.raises(SingularMatrixError, match="probe solve growth"):
        solve_direct(apply_dirichlet(system_from_dense(A, np.ones(6)), *NONE))


def test_solve_empty_system():
    # SuperLU factors and solves the 0 x 0 system: no pivot to check
    x = DirectSolver(sp.csr_matrix((0, 0))).solve(np.zeros(0), [], [])
    assert x.shape == (0,)
    assert solve_direct(apply_dirichlet(SparseSystem(0), *NONE)).shape == (0,)


def kkt_matrix(seed):
    # [[K, B^T], [B, 0]] with a 30x30 SPD K and a zero 10x10 block
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((10, 30))
    return np.block([[random_spd(30, seed), B.T], [B, np.zeros((10, 10))]])


def weak_diagonal_nonsymmetric(n, seed):
    # a scaled permutation carries the matrix; the diagonal is 1e-6
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    A[np.arange(n), rng.permutation(n)] = rng.uniform(1.0, 2.0, n)
    noise = rng.standard_normal((n, n))
    noise[rng.uniform(size=(n, n)) > 0.05] = 0.0
    A += 0.1 * noise
    np.fill_diagonal(A, 1e-6)
    return A


@pytest.mark.parametrize("A", [
    np.array([[1e-8, 1.0], [1.0, 1e-8]]),
    kkt_matrix(seed=6),
    weak_diagonal_nonsymmetric(60, seed=7),
], ids=["2x2-weak-diagonal", "kkt-zero-block", "nonsymmetric-weak-diagonal"])
def test_solve_needs_off_diagonal_pivots(A):
    # the symmetric-mode LU must still swap in off-diagonal pivots
    b = np.random.default_rng(8).standard_normal(len(A))
    x = solve_direct(apply_dirichlet(system_from_dense(A, b), *NONE))
    ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


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
    M = out.matrix.toarray()
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
    got = out.matrix
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)
    assert np.array_equal(out.rhs, rhs)
    assert sys.matrix() is M and M[3, 4] != 0.0   # the input stays unconstrained


def test_dirichlet_leaves_input_unchanged():
    A = random_spd(7, seed=13)
    b = np.random.default_rng(14).standard_normal(7)
    sys = system_from_dense(A, b)
    M = sys.matrix()
    out = apply_dirichlet(sys, [1, 4], [0.5, -2.0])
    assert out.dofs.tolist() == [1, 4] and out.values.tolist() == [0.5, -2.0]
    # the assembled system keeps its operator and right-hand side ...
    assert sys.matrix() is M and np.array_equal(M.toarray(), A)
    assert np.array_equal(sys.rhs, b)
    # ... and still takes triplets
    sys.add([6], [6], [1.0])
    assert sys.matrix()[6, 6] == A[6, 6] + 1.0


def test_dirichlet_rejects_bad_dofs():
    sys = system_from_dense(random_spd(7, seed=13), np.ones(7))
    # a repeated dof would put 2 on the diagonal
    with pytest.raises(ValueError, match="dof 1 repeated"):
        apply_dirichlet(sys, [1, 4, 1], [0.5, -2.0, 0.5])
    with pytest.raises(IndexError, match="dof 7 out of range"):
        apply_dirichlet(sys, [1, 7], [0.5, 0.0])
    with pytest.raises(IndexError, match="dof -1 out of range"):
        apply_dirichlet(sys, [-1, 2], [0.5, 0.0])
    with pytest.raises(ValueError, match="equal length"):
        apply_dirichlet(sys, [1, 4], [0.5])


def test_merge_constraints_keeps_first_value_and_names_conflicts():
    dofs, vals = merge_constraints([], [])
    assert dofs.dtype == np.int64 and vals.dtype == float and len(dofs) == len(vals) == 0
    # repeats within 1e-12 relative keep the first value; dofs come out ascending
    dofs, vals = merge_constraints([7, 2, 7, 2], [1e6, 0.5, 1e6 * (1 + 1e-13), 0.5 + 1e-13])
    assert dofs.tolist() == [2, 7] and vals.tolist() == [0.5, 1e6]
    with pytest.raises(ConstraintConflictError,
                       match="dof 3 constrained to both 1.0 and 1.5"):
        merge_constraints([3, 4, 3], [1.0, 0.0, 1.5])


def test_condition_identity():
    sys = system_from_dense(np.eye(6), np.zeros(6))
    assert 0.5 <= condition_estimate(sys.matrix()) <= 2.0


def test_condition_diagonal():
    sys = system_from_dense(np.diag([1.0, 10.0]))
    est = condition_estimate(sys.matrix())
    assert 5.0 <= est <= 20.0


def test_condition_against_svd_oracle():
    A = random_spd(20, seed=11)
    sys = system_from_dense(A)
    est = condition_estimate(sys.matrix())
    ref = np.linalg.cond(A)
    assert ref / 2 <= est <= 2 * ref


def test_condition_indefinite_matrix():
    # symmetric indefinite (saddle-like), still within a factor of two
    rng = np.random.default_rng(12)
    B = rng.standard_normal((6, 4))
    A = np.block([[random_spd(6, 13), B], [B.T, -0.5 * np.eye(4)]])
    sys = system_from_dense(A)
    est = condition_estimate(sys.matrix())
    ref = np.linalg.cond(A)
    assert ref / 2 <= est <= 2 * ref


def test_condition_requires_symmetry():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        condition_estimate(system_from_dense(A).matrix())
