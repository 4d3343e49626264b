"""Sparse assembly containers, direct solves and condition estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Matrix is singular or structurally deficient."""


class ConstraintConflictError(ValueError):
    """The same dof was constrained to two different values."""


def merge_constraints(dofs, values):
    """Ascending unique dofs and the first value given for each.

    A repeated dof must repeat its first value to within 1e-12 relative
    (absolute below one); otherwise ConstraintConflictError names the dof
    and both values.
    """
    dofs = np.asarray(dofs, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if len(dofs) != len(values):
        raise ValueError("constraint dofs and values must have equal length")
    unique, first, inverse = np.unique(dofs, return_index=True, return_inverse=True)
    kept = values[first]
    ref = kept[inverse]
    bad = np.flatnonzero(np.abs(values - ref) > 1e-12 * np.maximum(
        1.0, np.maximum(np.abs(values), np.abs(ref))))
    if len(bad):
        k = bad[0]
        raise ConstraintConflictError(
            f"dof {int(dofs[k])} constrained to both {ref[k]} and {values[k]}")
    return unique, kept


class SparseSystem:
    """Triplet-accumulated sparse matrix with a right-hand side.

    Dirichlet data is not kept here: ``apply_dirichlet`` takes the merged
    arrays and leaves the system as assembled, so the raw operator stays
    inspectable (e.g. for symmetry checks).
    """

    def __init__(self, n):
        self.n = int(n)
        self._rows = []
        self._cols = []
        self._vals = []
        self.rhs = np.zeros(self.n)
        self._csr = None

    def add(self, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("triplet arrays must have equal length")
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals)
        self._csr = None

    def add_rhs(self, dofs, vals):
        np.add.at(self.rhs, np.asarray(dofs, dtype=np.int64).ravel(),
                  np.asarray(vals, dtype=float).ravel())

    def matrix(self):
        """Unconstrained operator as CSR (duplicate triplets summed)."""
        if self._csr is None:
            if self._rows:
                rows = np.concatenate(self._rows)
                cols = np.concatenate(self._cols)
                vals = np.concatenate(self._vals)
            else:
                rows = cols = np.zeros(0, dtype=np.int64)
                vals = np.zeros(0)
            self._csr = sp.coo_matrix((vals, (rows, cols)),
                                      shape=(self.n, self.n)).tocsr()
        return self._csr


@dataclass(frozen=True)
class Constrained:
    """An eliminated system: CSR matrix, lifted right-hand side and the
    constrained dofs with their values."""
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofs: np.ndarray
    values: np.ndarray


def apply_dirichlet(system, dofs, values):
    """Symmetric elimination of the Dirichlet constraints ``dofs`` (unique,
    as ``merge_constraints`` gives them) with ``values``.

    Constrained rows and columns are zeroed, the diagonal set to one and
    the right-hand side lifted so unconstrained equations see the
    prescribed values.  Symmetry of a symmetric input is preserved, and the
    input system is left as it was.
    """
    dofs = np.asarray(dofs, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=float).ravel()
    n = system.n
    if len(dofs) != len(values):
        raise ValueError("constraint dofs and values must have equal length")
    out = dofs[(dofs < 0) | (dofs >= n)]
    if len(out):
        raise IndexError(f"constrained dof {int(out[0])} out of range")
    count = np.bincount(dofs, minlength=n)
    if (count > 1).any():
        raise ValueError(f"constrained dof {int(np.argmax(count > 1))} repeated")
    A = system.matrix()
    rhs = dirichlet_lift(A, system.rhs, dofs, values)

    # zero constrained rows and columns, then put ones on the diagonal
    mask = count > 0
    A = A.copy()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    A.data[mask[rows] | mask[A.indices]] = 0.0
    A.eliminate_zeros()
    A = A + sp.csr_matrix((np.ones(len(dofs)), (dofs, dofs)), shape=(n, n))
    A.sort_indices()
    return Constrained(A, rhs, dofs, values)


def dirichlet_lift(A, rhs, cdofs, cvals):
    """Right-hand side of the eliminated system for the unconstrained
    operator A: the prescribed values move to the right of the free
    equations and stand in the constrained rows."""
    x0 = np.zeros(A.shape[0])
    x0[cdofs] = cvals
    out = rhs - A @ x0
    out[cdofs] = cvals
    return out


def _factor(A):
    """Sparse LU of A in SuperLU's symmetric mode.

    Every system here (Nitsche-coupled Stokes, solid tangent, mesh motion)
    is structurally symmetric, so the minimum-degree ordering of A^T + A
    with diagonal pivots preferred keeps the fill near that of a Cholesky
    factor.  A threshold of 0.01 still swaps in an off-diagonal pivot
    where the diagonal is weak (a zero pressure block, [[eps, 1], [1, eps]]);
    a larger one sends the finest Stokes systems into off-diagonal pivoting
    and several times the fill.
    """
    try:
        # the CSC copy lives only as long as the factorization call
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.01,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}") from exc


class DirectSolver:
    """Sparse LU of a square matrix, checked once when it is factored and
    on every solve, so one factorization can serve many right-hand sides."""

    def __init__(self, A):
        # structural deficiency: name the first empty row
        empty = np.flatnonzero(np.diff(A.indptr) == 0)
        if len(empty):
            raise SingularMatrixError(
                f"structurally singular: zero pivot at dof {int(empty[0])} (empty row)")
        self._A = A
        self._lu = _factor(A)
        diag = np.abs(self._lu.U.diagonal())
        if len(diag) and diag.min() <= 1e-13 * diag.max():
            raise SingularMatrixError(
                f"numerically singular: zero pivot at factor position "
                f"{int(np.argmin(diag))}")
        self._norm_a = abs(A).sum(axis=1).max() if A.nnz else 0.0

    def solve(self, rhs, cdofs, cvals):
        """Solution for rhs; the constrained entries cdofs reproduce their
        values cvals exactly."""
        x = self._lu.solve(rhs)
        if not np.isfinite(x).all():
            raise SingularMatrixError("solve produced non-finite values (zero pivot)")
        x[cdofs] = cvals
        resid = np.linalg.norm(self._A @ x - rhs)
        bound = 1e-10 * (self._norm_a * np.linalg.norm(x) + np.linalg.norm(rhs))
        if resid > max(bound, 1e-300) and resid > 1e-8 * max(np.linalg.norm(rhs), 1.0):
            raise SingularMatrixError(
                f"large solve residual {resid:.3e} (near-singular matrix)")
        return x


def solve_direct(c):
    """Direct sparse LU solve of a ``Constrained`` system; constrained
    entries reproduce their values exactly."""
    return DirectSolver(c.matrix).solve(c.rhs, c.dofs, c.values)


def _power_norm(matvec, n, seed):
    """Largest singular value of a symmetric operator by seeded power iteration."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(400):
        y = matvec(x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
        if est > 0.0 and abs(ny - est) <= 1e-3 * est:
            return ny
        est = ny
    return est


def condition_estimate(A):
    """sigma_max/sigma_min estimate of a sparse matrix by seeded power
    iteration on A and A^{-1}.

    Requires a symmetric matrix; accuracy within a factor of two is
    sufficient for the interface-position robustness checks.
    """
    A = A.tocsc()
    n = A.shape[0]
    if n == 0:
        raise SingularMatrixError("empty system")
    asym = abs(A - A.T).max() if A.nnz else 0.0
    if asym > 1e-8 * max(abs(A).max(), 1e-300):
        raise ValueError("condition_estimate requires a symmetric matrix")
    smax = _power_norm(lambda v: A @ v, n, 1234)
    lu = _factor(A)
    inv_norm = _power_norm(lu.solve, n, 1235)
    if inv_norm == 0.0 or not np.isfinite(inv_norm):
        raise SingularMatrixError("singular matrix in condition estimate")
    return float(smax * inv_norm)
