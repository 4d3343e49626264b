"""Sparse assembly containers, direct solves and condition estimation."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Matrix is singular or structurally deficient."""


class ConstraintConflictError(ValueError):
    """The same dof was constrained to two different values."""


class SparseSystem:
    """Triplet-accumulated sparse matrix with right-hand side and constraints.

    Constraints registered via set_dirichlet are kept symbolic until
    apply_dirichlet is called, so the raw operator stays inspectable (e.g.
    for symmetry checks).
    """

    def __init__(self, n):
        self.n = int(n)
        self._rows = []
        self._cols = []
        self._vals = []
        self.rhs = np.zeros(self.n)
        self.constraints = {}
        self._csr = None

    # -- assembly ---------------------------------------------------------

    def add(self, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("triplet arrays must have equal length")
        if self._csr is not None and not self._rows:
            # an eliminated system holds only its CSR: it becomes the first triplets
            coo = self._csr.tocoo()
            self._rows.append(coo.row.astype(np.int64))
            self._cols.append(coo.col.astype(np.int64))
            self._vals.append(coo.data)
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals)
        self._csr = None

    def add_rhs(self, dofs, vals):
        np.add.at(self.rhs, np.asarray(dofs, dtype=np.int64).ravel(),
                  np.asarray(vals, dtype=float).ravel())

    def set_dirichlet(self, dofs, values):
        dofs = np.asarray(dofs, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=float).ravel()
        for d, v in zip(dofs, values):
            d = int(d)
            if d < 0 or d >= self.n:
                raise IndexError(f"constrained dof {d} out of range")
            if d in self.constraints:
                old = self.constraints[d]
                if abs(old - v) > 1e-12 * max(1.0, abs(old), abs(v)):
                    raise ConstraintConflictError(
                        f"dof {d} constrained to both {old} and {v}")
            else:
                self.constraints[d] = float(v)

    # -- access -----------------------------------------------------------

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

    def _from_csr(self, A, rhs, constraints):
        out = SparseSystem(self.n)
        out._csr = A.tocsr()
        out.rhs = rhs
        out.constraints = dict(constraints)
        return out


def apply_dirichlet(system, dofs=None, values=None):
    """Symmetric elimination of Dirichlet constraints.

    Constrained rows and columns are zeroed, the diagonal set to one and
    the right-hand side lifted so unconstrained equations see the
    prescribed values.  Symmetry of a symmetric input is preserved.  If
    dofs/values are omitted, the constraints already registered on the
    system are applied.
    """
    if dofs is not None:
        system.set_dirichlet(dofs, values if values is not None else np.zeros(len(dofs)))
    if not system.constraints:
        return system._from_csr(system.matrix(), system.rhs.copy(), {})

    cdofs = np.fromiter(system.constraints.keys(), dtype=np.int64)
    cvals = np.fromiter(system.constraints.values(), dtype=float)
    A = system.matrix()
    n = system.n
    x0 = np.zeros(n)
    x0[cdofs] = cvals
    rhs = system.rhs - A @ x0

    mask = np.zeros(n, dtype=bool)
    mask[cdofs] = True
    # zero constrained rows and columns, then put ones on the diagonal
    A = A.copy()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    A.data[mask[rows] | mask[A.indices]] = 0.0
    A.eliminate_zeros()
    A = A + sp.csr_matrix((np.ones(len(cdofs)), (cdofs, cdofs)), shape=(n, n))
    A.sort_indices()
    rhs[cdofs] = cvals
    return system._from_csr(A, rhs, system.constraints)


def solve_direct(system):
    """Direct sparse LU solve; constrained entries reproduce their values exactly."""
    A = system.matrix()
    n = system.n
    if n == 0:
        return np.zeros(0)
    # structural deficiency: name the first empty row
    empty = np.flatnonzero(np.diff(A.indptr) == 0)
    if len(empty):
        raise SingularMatrixError(
            f"structurally singular: zero pivot at dof {int(empty[0])} (empty row)")
    try:
        # the CSC copy lives only as long as the factorization call
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}") from exc
    diag = np.abs(lu.U.diagonal())
    if diag.min() <= 1e-13 * diag.max():
        raise SingularMatrixError(
            f"numerically singular: zero pivot at factor position "
            f"{int(np.argmin(diag))}")
    x = lu.solve(system.rhs)
    if not np.isfinite(x).all():
        raise SingularMatrixError("solve produced non-finite values (zero pivot)")
    if system.constraints:
        cdofs = np.fromiter(system.constraints.keys(), dtype=np.int64)
        x[cdofs] = np.fromiter(system.constraints.values(), dtype=float)
    norm_a = abs(A).sum(axis=1).max() if A.nnz else 0.0
    resid = np.linalg.norm(A @ x - system.rhs)
    bound = 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(system.rhs))
    if resid > max(bound, 1e-300) and resid > 1e-8 * max(np.linalg.norm(system.rhs), 1.0):
        raise SingularMatrixError(
            f"large solve residual {resid:.3e} (near-singular matrix)")
    return x


def _power_norm(matvec, n, tol=1e-3, maxit=400, seed=1234):
    """Largest singular value of a symmetric operator by power iteration."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(maxit):
        y = matvec(x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        new = ny
        x = y / ny
        if est > 0.0 and abs(new - est) <= tol * est:
            return new
        est = new
    return est


def condition_estimate(system, tol=1e-3, maxit=400, seed=1234):
    """sigma_max/sigma_min estimate via power iteration on A and A^{-1}.

    Requires a symmetric matrix; accuracy within a factor of two is
    sufficient for the interface-position robustness checks.
    """
    A = system.matrix().tocsc()
    n = system.n
    if n == 0:
        raise SingularMatrixError("empty system")
    asym = abs(A - A.T).max() if A.nnz else 0.0
    if asym > 1e-8 * max(abs(A).max(), 1e-300):
        raise ValueError("condition_estimate requires a symmetric matrix")
    smax = _power_norm(lambda v: A @ v, n, tol, maxit, seed)
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SingularMatrixError(f"singular matrix: {exc}") from exc
    inv_norm = _power_norm(lu.solve, n, tol, maxit, seed + 1)
    if inv_norm == 0.0 or not np.isfinite(inv_norm):
        raise SingularMatrixError("singular matrix in condition estimate")
    return float(smax * inv_norm)
