"""Reference-configuration elasticity: St. Venant-Kirchhoff and linear
models, P1 elements, analytic-tangent Newton.

The 2D reduction is interpreted as plane strain, so the 3D Lame-parameter
formulas apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, region_boundary_edges, eval_field, p1_error_sums
from .geometry import ERROR_ORDER, tri_rule, seg_rule, triangle_rule
from .linalg import SparseSystem, apply_dirichlet, solve_direct, merge_constraints

STVK = "stvk"
LINEAR = "linear"
QUAD_ORDER = 2           # body-force quadrature order
EDGE_ORDER = 4           # edge-traction quadrature order

_I2 = np.eye(2)


class InvertedElementError(RuntimeError):
    """det F <= 0 somewhere during assembly."""


class NewtonError(RuntimeError):
    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class Material:
    """Elastic material with Lame parameters mu, lam."""
    model: str = STVK
    mu: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.model not in (STVK, LINEAR):
            raise ValueError(f"unknown material model {self.model!r}")
        if self.mu <= 0.0 or self.lam <= 0.0:
            raise ValueError("Lame parameters must be positive")

    @classmethod
    def from_young_poisson(cls, E, nu, model=STVK):
        if not (E > 0.0 and 0.0 < nu < 0.5):
            raise ValueError("need E > 0 and 0 < nu < 0.5")
        mu = E / (2.0 + 2.0 * nu)
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return cls(model, mu, lam)


def _T(X):
    return np.swapaxes(X, -1, -2)


def _tr(X):
    return X[..., 0, 0] + X[..., 1, 1]


def _green(F):
    return 0.5 * (_T(F) @ F - _I2)


def _stress(E, material):
    """2 mu E + lam tr(E) I: the StVK S of a Green strain, or the linear
    stress of a small strain."""
    return 2.0 * material.mu * E + material.lam * _tr(E)[..., None, None] * _I2


def strain_energy(F, material):
    """Strain energy density (St. Venant-Kirchhoff only)."""
    E = _green(np.asarray(F, float))
    return material.mu * _tr(E @ E) + 0.5 * material.lam * _tr(E) ** 2


def first_piola(F, material):
    """First Piola-Kirchhoff stress for (..., 2, 2) deformation gradients."""
    F = np.asarray(F, float)
    if material.model == STVK:
        if (np.linalg.det(F) <= 0.0).any():
            raise InvertedElementError("det F <= 0")
        return F @ _stress(_green(F), material)
    return _stress(0.5 * ((F - _I2) + _T(F - _I2)), material)


def piola_tangent(F, material, dF):
    """Directional derivative of first_piola at F in direction dF; the
    (..., 2, 2) stacks of F and dF broadcast against each other."""
    F = np.asarray(F, float)
    dF = np.asarray(dF, float)
    if material.model == STVK:
        dE = 0.5 * (_T(F) @ dF + _T(dF) @ F)
        return dF @ _stress(_green(F), material) + F @ _stress(dE, material)
    return _stress(0.5 * (dF + _T(dF)), material)


@dataclass
class SolidProblem:
    """Solid equilibrium problem on (a tagged region of) a reference mesh.

    The problem holds no load: ``solve_newton`` takes the external load as
    one nodal array over mesh vertices, (nv, 2), built from ``body_load``,
    ``edge_load`` and the fluid traction transfer, and ``gather`` maps it
    to the active dofs.  ``dirichlet`` maps exterior boundary markers to
    displacement callbacks (see ``mesh.eval_field``); two markers giving
    one vertex different values raise ConstraintConflictError.
    ``clamped_nodes`` are vertices held at zero displacement (a clamped
    flap base, the constrained nodes of the mesh-motion problem); marker
    data wins at shared vertices.
    """
    mesh: Mesh
    material: Material
    region_tag: int | None = None
    dirichlet: dict = field(default_factory=dict)
    clamped_nodes: np.ndarray = ()

    def __post_init__(self):
        if self.region_tag is None:
            self.cells = np.arange(self.mesh.nc)
        else:
            self.cells = self.mesh.region_cells(self.region_tag)
        self.vmap = self.mesh.vertex_slots(self.cells)
        self.nactive = int(self.vmap.max(initial=-1)) + 1
        self.ndof = 2 * self.nactive
        self._collect_bcs()

    def _collect_bcs(self):
        if self.region_tag is None:
            ij, markers = self.mesh.boundary_edges, self.mesh.boundary_markers
        else:   # interface edges carry marker -1
            ij, _, markers, _ = region_boundary_edges(self.mesh, self.region_tag)
        dofs, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for m, g in self.dirichlet.items():
            verts = np.unique(ij[markers == m])
            dofs.append((2 * self.vmap[verts][:, None] + np.arange(2)).ravel())
            vals.append(eval_field(g, self.mesh.vertices[verts], (2,)).ravel())
        nodes = np.asarray(self.clamped_nodes, dtype=np.int64)
        out = nodes[(nodes < 0) | (nodes >= self.mesh.nv)]
        if len(out):
            raise IndexError(f"clamped node {int(out[0])} out of range")
        off = nodes[self.vmap[nodes] < 0]
        if len(off):
            raise ValueError(f"clamped node {off[0]} not in the solid region")
        nodal = (2 * self.vmap[nodes][:, None] + np.arange(2)).ravel()
        nodal = nodal[~np.isin(nodal, np.concatenate(dofs))]   # marker data wins
        dofs.append(nodal)
        vals.append(np.zeros(len(nodal)))
        self.constrained_dofs, self.constrained_values = merge_constraints(
            np.concatenate(dofs), np.concatenate(vals))

    def scatter(self, U):
        """Active dof vector -> full (nv, 2) nodal field (zeros off-region).
        Active vertices are numbered in vertex order, two dofs each."""
        out = np.zeros((self.mesh.nv, 2))
        out[self.vmap >= 0] = np.reshape(U, (-1, 2))
        return out

    def gather(self, field_nodal):
        """Full (nv, 2) nodal field -> active dof vector; a load or warm
        start of any other shape raises ValueError."""
        field_nodal = np.asarray(field_nodal, float)
        if field_nodal.shape != (self.mesh.nv, 2):
            raise ValueError(f"nodal field of shape {field_nodal.shape}, "
                             f"expected ({self.mesh.nv}, 2)")
        return field_nodal[self.vmap >= 0].ravel()


def cell_loads(mesh, cells, force):
    """Per-cell nodal loads (c, 3, 2) of a body force over the given cells;
    the force callback is evaluated once, at every quadrature point of
    every cell."""
    lam, w = tri_rule(QUAD_ORDER)
    fv = eval_field(force, lam @ mesh.cell_points[cells], (2,)).reshape(len(cells), len(w), 2)
    return mesh.cell_areas[cells][:, None, None] * np.einsum("q,qa,cqi->cai", w, lam, fv)


def body_load(mesh, cells, force):
    """Nodal load (nv, 2) of a body force over the given cells (zeros for a
    force of None)."""
    load = np.zeros((mesh.nv, 2))
    if force is not None:
        np.add.at(load, mesh.cells[cells], cell_loads(mesh, cells, force))
    return load


def edge_load(mesh, edges, traction):
    """Nodal load (nv, 2) of a traction on the given (k, 2) vertex pairs of
    the mesh (reference configuration); the traction callback is evaluated
    once, at every quadrature point of every edge."""
    load = np.zeros((mesh.nv, 2))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    xs, ws = seg_rule(EDGE_ORDER)
    a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    d = b - a
    pts = a[:, None] + xs[None, :, None] * d[:, None]                  # (e, q, 2)
    tv = eval_field(traction, pts.reshape(-1, 2), (2,)).reshape(pts.shape)
    lam = np.column_stack([1.0 - xs, xs])
    length = np.hypot(d[:, 0], d[:, 1])[:, None, None]
    np.add.at(load, edges, length * np.einsum("q,qa,eqi->eai", ws, lam, tv))
    return load


def assemble_solid(problem, u_current):
    """Internal force vector and analytic tangent at the current displacement.

    ``u_current`` is an active dof vector.  All cells of the problem are
    assembled at once: local arrays are indexed (cell, node a, component
    i), and the tangent's columns come from the six unit directions
    dF = e_j (x) grad phi_b per cell.
    """
    mesh = problem.mesh
    mat = problem.material
    cells = problem.cells
    nc = len(cells)
    U = np.asarray(u_current, float)
    R = np.zeros(problem.ndof)
    K = SparseSystem(problem.ndof)

    G = mesh.p1_grads[cells]                                      # (c, a, j)
    A = mesh.cell_areas[cells][:, None, None]
    dofs = 2 * problem.vmap[mesh.cells[cells]][:, :, None] + np.arange(2)
    F = _I2 + _T(U[dofs]) @ G
    if mat.model == STVK:
        bad = np.flatnonzero(np.linalg.det(F) <= 0.0)
        if len(bad):
            raise InvertedElementError(f"inverted element: cell {cells[bad[0]]}")
    np.add.at(R, dofs, A * (G @ _T(first_piola(F, mat))))

    dF = np.zeros((nc, 3, 2, 2, 2))                               # (c, b, j, 2, 2)
    dF[:, :, 0, 0] = dF[:, :, 1, 1] = G
    dP = piola_tangent(F[:, None, None], mat, dF)
    Kloc = A[:, None, None] * (G[:, None, None] @ _T(dP))         # (c, b, j, a, i)
    loc = dofs.reshape(nc, 6)
    K.add(np.repeat(loc, 6, axis=1), np.tile(loc, (1, 6)),
          Kloc.transpose(0, 3, 4, 1, 2).reshape(nc, 36))
    return R, K


@dataclass
class SolidSolution:
    displacement: np.ndarray   # (nv, 2) nodal field
    iterations: int
    residuals: list


def solve_newton(problem, load, tol=1e-10, maxit=25, rtol=0.0, u0=None):
    """Full Newton iteration on internal force minus the nodal ``load``
    (nv, 2); converges when the free-dof residual norm drops below ``tol``
    (or ``rtol`` times its initial value).

    ``u0`` is an optional nodal warm start; Dirichlet values always win.
    """
    L = problem.gather(load)
    U = np.zeros(problem.ndof) if u0 is None else problem.gather(u0)
    U[problem.constrained_dofs] = problem.constrained_values
    free = np.ones(problem.ndof, dtype=bool)
    free[problem.constrained_dofs] = False

    residuals = []
    updates = 0
    r0 = None
    for _ in range(maxit + 1):
        R, K = assemble_solid(problem, U)
        R -= L
        rnorm = float(np.linalg.norm(R[free])) if free.any() else 0.0
        residuals.append(rnorm)
        if r0 is None:
            r0 = rnorm
        if rnorm <= tol or (rtol > 0.0 and rnorm <= rtol * r0):
            return SolidSolution(problem.scatter(U), max(1, updates), residuals)
        if updates >= maxit:
            break
        K.rhs = -R
        cdofs = problem.constrained_dofs
        delta = solve_direct(apply_dirichlet(K, cdofs, np.zeros(len(cdofs))))
        U = U + delta
        updates += 1
    raise NewtonError(
        f"Newton did not converge in {maxit} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)


def p1_mass_matrix(mesh, cells=None):
    """Scalar P1 mass matrix over the given cells (full vertex numbering)."""
    if cells is None:
        cells = np.arange(mesh.nc)
    cells = np.asarray(cells, dtype=np.int64)
    conn = mesh.cells[cells]
    M = mesh.cell_areas[cells][:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    return sp.coo_matrix((M.ravel(), (np.repeat(conn, 3, axis=1).ravel(),
                                      np.tile(conn, (1, 3)).ravel())),
                         shape=(mesh.nv, mesh.nv)).tocsr()


def h1_error(mesh, cells, field_nodal, exact, exact_grad):
    """Full H1 norm of (P1 field - exact field) over the given cells at
    quadrature order ERROR_ORDER, from the per-cell sums of
    ``mesh.p1_error_sums`` added cell after cell."""
    cells = np.asarray(cells, dtype=np.int64)
    rule = triangle_rule(mesh.cell_points[cells], ERROR_ORDER)
    pts = rule.points
    sums = p1_error_sums(mesh, cells, field_nodal, field_nodal, pts, rule.weights,
                         eval_field(exact_grad, pts, (2, 2)).reshape(*pts.shape, 2),
                         eval_field(exact, pts, (2,)).reshape(pts.shape))
    acc = np.cumsum(np.vstack([np.zeros((1, 4)), sums]), axis=0)[-1]
    return float(np.hypot(np.sqrt(acc[0]), np.sqrt(acc[1])))
