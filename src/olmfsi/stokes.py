"""Stabilized Nitsche overlapping-mesh Stokes solver (equal-order P1-P1).

Velocity and pressure live on both the reduced background mesh and the
front fluid mesh.  Coupling across the fluid-fluid interface uses symmetric
Nitsche terms; stability under arbitrary cuts comes from a least-squares
gradient-jump term on the overlap region together with a pressure-gradient
stabilization extended over full (uncut) cells.

Sign conventions used throughout: the interface normal points out of the
front domain and jumps are taken as (front value) - (background value);
with these pairings the scheme is consistent for smooth fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (FLUID, SOLID, region_interface_vertices,
                   barycentric as _bary, eval_field)
from .geometry import (
    QUAD_ORDER,
    tri_rule,
    seg_rule,
    triangle_rule,
    subtractive_rules,
    uncovered_pieces,
    exterior_pieces,
)
from .linalg import SparseSystem, apply_dirichlet, solve_direct, merge_constraints

BG, FRONT = 0, 1
# weights of the background and front fluxes in the interface mean: the
# front mesh is never cut, so its side carries the whole flux
ALPHA = (0.0, 1.0)


class CompositeSpace:
    """P1 vector/scalar dof maps over the reduced background mesh plus the
    front fluid mesh (its FLUID cells), with Dirichlet sets and optional
    pressure pinning.

    Dof layout: background velocity, front velocity, background pressure,
    front pressure.  No dof is shared between the meshes.  The Dirichlet
    callbacks follow ``mesh.eval_field``; the fluid-solid interface
    vertices of the front are always no-slip.  ``dirichlet_dofs``
    (ascending) and ``dirichlet_values`` are the merged data
    (``linalg.merge_constraints``).
    """

    def __init__(self, background, front, topo, bg_dirichlet=None,
                 front_dirichlet=None, pin_pressure=False, pin_value=0.0):
        self.background = background
        self.front = front
        self.topo = topo

        bg_active = np.zeros(background.nv, dtype=bool)
        if len(topo.reduced_cells):
            bg_active[background.cells[topo.reduced_cells].ravel()] = True
        fr_active = np.zeros(front.nv, dtype=bool)
        self.fluid_cells = front.region_cells(FLUID)
        if len(self.fluid_cells):
            fr_active[front.cells[self.fluid_cells].ravel()] = True

        self.bg_vmap = np.full(background.nv, -1, dtype=np.int64)
        self.bg_vmap[bg_active] = np.arange(bg_active.sum())
        self.fr_vmap = np.full(front.nv, -1, dtype=np.int64)
        self.fr_vmap[fr_active] = np.arange(fr_active.sum())
        self.n1 = int(bg_active.sum())
        self.n2 = int(fr_active.sum())
        self.offset_u2 = 2 * self.n1
        self.offset_p1 = 2 * (self.n1 + self.n2)
        self.offset_p2 = self.offset_p1 + self.n1
        self.ndof = 3 * (self.n1 + self.n2)

        self.pin_dof = None
        if pin_pressure:
            if self.n1:
                self.pin_dof = int(self.offset_p1)
            elif self.n2:
                self.pin_dof = int(self.offset_p2)
            else:
                raise ValueError("no pressure dof available to pin")
        self.dirichlet_dofs, self.dirichlet_values = self._collect_dirichlet(
            bg_dirichlet or {}, front_dirichlet or {}, pin_value)

    def _collect_dirichlet(self, bg_dirichlet, front_dirichlet, pin_value):
        """Merged Dirichlet dofs and values: marked boundary edges of both
        meshes, the no-slip fluid-solid interface and the pressure pin."""
        pin = [] if self.pin_dof is None else [self.pin_dof]
        dofs, vals = [np.array(pin, dtype=np.int64)], [np.full(len(pin), float(pin_value))]

        def add(mesh, vmap, base, verts, g):
            verts = verts[vmap[verts] >= 0]
            dofs.append((base + 2 * vmap[verts][:, None] + np.arange(2)).ravel())
            vals.append(np.zeros(2 * len(verts)) if g is None
                        else eval_field(g, mesh.vertices[verts], (2,)).ravel())

        for mesh, vmap, base, spec in (
                (self.background, self.bg_vmap, 0, bg_dirichlet),
                (self.front, self.fr_vmap, self.offset_u2, front_dirichlet)):
            for m, g in spec.items():
                add(mesh, vmap, base,
                    np.unique(mesh.boundary_edges[mesh.boundary_markers == m]), g)
        add(self.front, self.fr_vmap, self.offset_u2,
            region_interface_vertices(self.front, FLUID, SOLID), None)
        return merge_constraints(np.concatenate(dofs), np.concatenate(vals))


@dataclass
class FluidProblem:
    """Stokes problem data and stabilization parameters.

    Viscous, Nitsche and overlap terms all scale with ``viscosity``.
    ``neumann`` lists (mesh_id, boundary marker, traction callback) triples;
    background Neumann edges are automatically restricted to their physical
    (uncovered) part.  ``use_ih`` and ``jh_extension`` exist so robustness
    tests can switch the overlap and cut-cell stabilizations off.
    """
    viscosity: float = 1.0
    body_force: object = None
    gamma: float = 10.0
    delta: float = 0.5
    neumann: tuple = ()
    use_ih: bool = True
    jh_extension: bool = True

    def __post_init__(self):
        if self.viscosity <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")


def _block(rows, cols, vals):
    """Triplets (S, a * b) of per-item blocks vals (S, a, b) on row dofs
    (S, a) and column dofs (S, b), row-major within an item.  Several blocks
    are added in one call as ``map(np.hstack, zip(*blocks))``: item-major,
    then block by block, the order of a per-item loop, so the CSR sums
    duplicate entries in the same order."""
    return (np.repeat(rows, cols.shape[1], axis=1),
            np.tile(cols, (1, rows.shape[1])), vals.reshape(len(vals), -1))


def _full_cell_volume_terms(sys, mesh, cells, vmap, u_base, p_base, nu,
                            delta, f, order):
    """Vectorized P1-P1 Stokes volume terms over full (uncut) cells."""
    cells = np.asarray(cells, dtype=np.int64)
    if len(cells) == 0:
        return
    G = mesh.p1_grads[cells]          # (nc,3,2)
    A = mesh.cell_areas[cells]        # (nc,)
    h2 = mesh.cell_diameters[cells] ** 2
    conn = mesh.cells[cells]          # (nc,3)
    uslot = vmap[conn]                # (nc,3)
    udof = (u_base + 2 * uslot[:, :, None] + np.arange(2)[None, None, :])
    pdof = p_base + uslot

    M = nu * A[:, None, None] * np.einsum("cad,cbd->cab", G, G)
    for comp in range(2):
        sys.add(*_block(udof[..., comp], udof[..., comp], M))

    # b(v, p) = -(div v, q): integral of lambda_b is A/3
    Bv = -(A[:, None, None] / 3.0) * G  # (nc, a, i) for every pressure b
    for comp in range(2):
        r, c, v = _block(udof[..., comp], pdof, np.repeat(Bv[..., comp, None], 3, axis=2))
        sys.add(r, c, v)
        sys.add(c, r, v)

    J = -(delta * h2 * A)[:, None, None] * np.einsum("cad,cbd->cab", G, G)
    sys.add(*_block(pdof, pdof, J))

    if f is not None:
        lam, w = tri_rule(order)
        pts = np.einsum("qa,cax->cqx", lam, mesh.cell_points[cells])
        fv = eval_field(f, pts, (2,)).reshape(len(cells), -1, 2)
        # (f, v)
        rv = np.einsum("q,qa,cqi->cai", w, lam, fv) * A[:, None, None]
        sys.add_rhs(udof.ravel(), rv.ravel())
        # -delta h^2 (f, grad q)
        rq = -delta * (h2 * A)[:, None] * np.einsum("q,cqi,cai->ca", w, fv, G)
        sys.add_rhs(pdof.ravel(), rq.ravel())


def _cut_cell_terms(sys, mesh, cells, rules, vmap, u_base, p_base, nu, delta,
                    f, jh_extension, order):
    """Volume terms on partially covered background cells, one rule each
    (CutRules in the order of ``cells``)."""
    if len(cells) == 0:
        return
    g = mesh.p1_grads[cells]
    slot = vmap[mesh.cells[cells]]
    udof = u_base + 2 * slot[:, :, None] + np.arange(2)
    pdof = p_base + slot
    W = rules.totals()
    pts, wts, groups = rules.points, rules.weights, rules.groups()
    lam = np.empty((len(pts), 3))
    int_lam = np.zeros((len(cells), 3))
    for rows, idx in groups:
        lam[idx] = _bary(mesh, cells[rows], pts[idx])
        int_lam[rows] = (wts[idx][:, None] @ lam[idx])[:, 0]

    gg = g @ g.transpose(0, 2, 1)
    h2 = mesh.cell_diameters[cells] ** 2
    area_j = mesh.cell_areas[cells] if jh_extension else W
    trip = [_block(udof[..., comp], udof[..., comp], (nu * W)[:, None, None] * gg)
            for comp in range(2)]
    for comp in range(2):
        # -(div v, q) with int lambda_b over the cut region
        r, c, v = _block(udof[..., comp], pdof, -(g[:, :, comp, None] * int_lam[:, None]))
        trip += [(r, c, v), (c, r, v)]
    trip.append(_block(pdof, pdof, (-delta * h2 * area_j)[:, None, None] * gg))
    sys.add(*map(np.hstack, zip(*trip)))

    if f is None:
        return
    fv = eval_field(f, pts, (2,)) if len(pts) else None
    rv = np.zeros((len(cells), 3, 2))
    rq = np.zeros((len(cells), 3))
    for rows, idx in groups:
        rv[rows] = np.einsum("cq,cqa,cqi->cai", wts[idx], lam[idx], fv[idx])
        rq[rows] = np.einsum("cq,cqi,cai->ca", wts[idx], fv[idx], g[rows])
    has = np.diff(rules.offsets) > 0
    sys.add_rhs(udof[has].ravel(), rv[has].ravel())
    # rhs stabilization matches the j-term region
    if jh_extension:
        full = triangle_rule(mesh.cell_points[cells], order)
        fv = eval_field(f, full.points, (2,)).reshape(len(cells), -1, 2)
        rq = np.einsum("cq,cqi,cai->ca", full.weights, fv, g)
    has |= jh_extension
    sys.add_rhs(pdof[has].ravel(), ((-delta * h2)[:, None] * rq)[has].ravel())


def _interface_terms(sys, space, problem, segments):
    if not len(segments):
        return
    nu = problem.viscosity
    a1, a2 = ALPHA
    bg, fr = space.background, space.front
    T, K, n = segments.bg_cell, segments.front_cell, segments.normal
    pts, w = segments.points, segments.weights                 # (S, nq, 2), (S, nq)
    gT, gK = bg.p1_grads[T], fr.p1_grads[K]
    lamT, lamK = _bary(bg, T, pts), _bary(fr, K, pts)
    h = bg.cell_diameters[T]
    slotT = space.bg_vmap[bg.cells[T]]
    slotK = space.fr_vmap[fr.cells[K]]
    udofs = [np.hstack([2 * slotT + c, space.offset_u2 + 2 * slotK + c])
             for c in range(2)]
    pdofs = np.hstack([space.offset_p1 + slotT, space.offset_p2 + slotK])

    # jump = front - background ; mean = a1*background + a2*front
    jco = np.concatenate([-lamT, lamK], axis=2)                # (S, nq, 6)
    mco = np.hstack([a1 * (gT @ n[..., None])[..., 0],
                     a2 * (gK @ n[..., None])[..., 0]])        # (S, 6)
    mp = np.concatenate([a1 * lamT, a2 * lamK], axis=2)        # (S, nq, 6)

    jw = (w[:, None] @ jco)[:, 0]                              # (S, 6)
    jTw = jco.transpose(0, 2, 1) * w[:, None]                  # (S, 6, nq)
    pen = ((problem.gamma * nu / h)[:, None, None] * jTw) @ jco
    consist = -nu * (jw[:, :, None] * mco[:, None] + mco[:, :, None] * jw[:, None])
    Avv = pen + consist
    Bjp = jTw @ mp                                             # jump x mean

    trip = []
    for comp in range(2):
        trip.append(_block(udofs[comp], udofs[comp], Avv))
        r, c, v = _block(udofs[comp], pdofs, n[:, comp, None, None] * Bjp)
        trip += [(r, c, v), (c, r, v)]
    sys.add(*map(np.hstack, zip(*trip)))


def _overlap_terms(sys, space, problem, pairs):
    """Gradient-jump terms on the overlap pairs, weighted by pair area."""
    if not len(pairs):
        return
    nu = problem.viscosity
    bg, fr = space.background, space.front
    T, K, W = pairs.bg_cell, pairs.front_cell, pairs.area
    slotT = space.bg_vmap[bg.cells[T]]
    slotK = space.fr_vmap[fr.cells[K]]
    G = np.concatenate([bg.p1_grads[T], -fr.p1_grads[K]], axis=1)   # jump gradient
    M = (nu * W)[:, None, None] * (G @ G.transpose(0, 2, 1))
    dofs = [np.hstack([2 * slotT + comp, space.offset_u2 + 2 * slotK + comp])
            for comp in range(2)]
    sys.add(*map(np.hstack, zip(*[_block(d, d, M) for d in dofs])))


def _neumann_terms(sys, space, problem):
    """Boundary traction integrals; callbacks receive (points, outward normal).

    Background edges are restricted to their uncovered pieces so the
    physical boundary is integrated exactly once across both meshes.
    """
    if not problem.neumann:
        return
    xs, ws = seg_rule(QUAD_ORDER)
    for mesh_id, marker, traction in problem.neumann:
        mesh = space.background if mesh_id == BG else space.front
        vmap = space.bg_vmap if mesh_id == BG else space.fr_vmap
        base = 0 if mesh_id == BG else space.offset_u2
        ij = mesh.boundary_edges
        edges = np.flatnonzero((mesh.boundary_markers == marker)
                               & (vmap[ij] >= 0).all(axis=1))
        a, b = mesh.vertices[ij[edges, 0]], mesh.vertices[ij[edges, 1]]
        normals = mesh.boundary_normals(edges)[1]
        if mesh_id == BG:
            seg, t0, t1 = uncovered_pieces(a, b, space.front)
        else:
            # keep only pieces on the true union boundary: parts of a
            # front edge that drifted into the background interior are
            # Nitsche-coupled instead
            seg, t0, t1 = exterior_pieces(a, b, normals, space.background)
        if len(seg) == 0:
            continue
        ev = b - a
        ts = t0[:, None] + xs * (t1 - t0)[:, None]                # (P, nq)
        pts = a[seg, None] + ts[..., None] * ev[seg, None]
        w = ws * (t1 - t0)[:, None] * np.hypot(ev[:, 0], ev[:, 1])[seg, None]
        # one callback per piece: each receives its edge's normal
        tv = np.stack([np.broadcast_to(np.asarray(traction(p, normals[e]), float)
                                       .reshape(-1, 2), p.shape)
                       for p, e in zip(pts, seg)])
        lam = np.stack([1.0 - ts, ts], axis=2)  # hats of i, j
        # (piece, vertex, component, point): each load sums its own row
        terms = (w[..., None] * lam)[..., None] * tv[:, :, None]
        loads = np.sum(np.ascontiguousarray(terms.transpose(0, 2, 3, 1)), axis=3)
        vdofs = base + 2 * vmap[ij[edges[seg]]][..., None] + np.arange(2)
        sys.add_rhs(vdofs.ravel(), loads.ravel())


def assemble(problem, space, topo):
    """Assemble the coupled velocity-pressure system.

    Returns the unconstrained SparseSystem, so the raw operator can be
    checked for symmetry; the space holds the Dirichlet data.
    """
    sys = SparseSystem(space.ndof)
    bg, fr = space.background, space.front
    nu = problem.viscosity
    f = problem.body_force
    order = QUAD_ORDER

    # background: fully uncovered cells carry everything with full rules
    _full_cell_volume_terms(sys, bg, topo.class_not, space.bg_vmap, 0,
                            space.offset_p1, nu, problem.delta, f, order)
    # partially covered cells: physical terms with cut rules
    _cut_cell_terms(sys, bg, topo.class_partial, topo.cut_rules, space.bg_vmap, 0,
                    space.offset_p1, nu, problem.delta, f,
                    problem.jh_extension, order)
    # front fluid cells: full rules
    _full_cell_volume_terms(sys, fr, space.fluid_cells, space.fr_vmap,
                            space.offset_u2, space.offset_p2, nu,
                            problem.delta, f, order)
    _interface_terms(sys, space, problem, topo.interface_segments)
    if problem.use_ih:
        _overlap_terms(sys, space, problem, topo.overlap_pairs)
    _neumann_terms(sys, space, problem)
    return sys


@dataclass
class FluidSolution:
    space: CompositeSpace
    coeffs: np.ndarray
    viscosity: float = None

    def velocity(self, mesh_id):
        """Nodal velocity on one mesh, zeros at inactive vertices."""
        space = self.space
        mesh = space.background if mesh_id == BG else space.front
        vmap = space.bg_vmap if mesh_id == BG else space.fr_vmap
        base = 0 if mesh_id == BG else space.offset_u2
        out = np.zeros((mesh.nv, 2))
        act = vmap >= 0
        out[act, 0] = self.coeffs[base + 2 * vmap[act]]
        out[act, 1] = self.coeffs[base + 2 * vmap[act] + 1]
        return out

    def pressure(self, mesh_id):
        space = self.space
        mesh = space.background if mesh_id == BG else space.front
        vmap = space.bg_vmap if mesh_id == BG else space.fr_vmap
        base = space.offset_p1 if mesh_id == BG else space.offset_p2
        out = np.zeros(mesh.nv)
        act = vmap >= 0
        out[act] = self.coeffs[base + vmap[act]]
        return out


def solve_stokes(problem, space, topo):
    """Assemble, constrain and solve; Dirichlet values are exact in the result."""
    # nested, so the unconstrained system is freed before the factorization
    x = solve_direct(apply_dirichlet(assemble(problem, space, topo),
                                     space.dirichlet_dofs, space.dirichlet_values))
    return FluidSolution(space, x, viscosity=problem.viscosity)


def error_norms(solution, exact_u, exact_grad_u, exact_p, topo, order=4,
                mean_shift=None):
    """Velocity H1-seminorm and pressure L2 errors over the physical domain.

    Background cells contribute their uncovered part (cut rules on partial
    cells), front fluid cells contribute fully.  With mean_shift the
    pressure error is taken up to an additive constant, as appropriate for
    pinned-pressure problems.
    """
    space = solution.space
    if mean_shift is None:
        mean_shift = space.pin_dof is not None
    on_bg = (space.background, solution.velocity(BG), solution.pressure(BG))
    on_fr = (space.front, solution.velocity(FRONT), solution.pressure(FRONT))

    def fields(pts):
        shape = pts.shape[:-1]
        return (eval_field(exact_grad_u, pts, (2, 2)).reshape(*shape, 2, 2),
                eval_field(exact_p, pts, ()).reshape(shape))

    def sums(side, cells, pts, w, ge, pe):
        """Per-cell (grad err^2, p err^2, p err, weight) sums of rules with
        one point count: points (c, q, 2), weights (c, q), exact fields
        there.  Each row sums on its own, as np.sum of one cell's rule."""
        mesh, u_nodal, p_nodal = side
        conn = mesh.cells[cells]
        gradu = np.einsum("cai,caj->cij", u_nodal[conn], mesh.p1_grads[cells])
        dp = (_bary(mesh, cells, pts) @ p_nodal[conn][..., None])[..., 0] - pe
        diff = gradu[:, None] - ge
        return np.column_stack([
            np.sum(w * np.einsum("cqij,cqij->cq", diff, diff), axis=1),
            np.sum(w * dp * dp, axis=1), np.sum(w * dp, axis=1), np.sum(w, axis=1)])

    def full_cells(side, cells):
        if len(cells) == 0:
            return np.zeros((0, 4))
        rule = triangle_rule(side[0].cell_points[cells], order)
        return sums(side, cells, rule.points, rule.weights, *fields(rule.points))

    partial = topo.class_partial
    rules = (topo.cut_rules if order <= QUAD_ORDER else
             subtractive_rules(space.background, partial, topo.polygons, order))
    pts, wts = rules.points, rules.weights
    part = np.zeros((len(partial), 4))
    if len(pts):
        ge, pe = fields(pts)
        for rows, idx in rules.groups():
            part[rows] = sums(on_bg, partial[rows], pts[idx], wts[idx], ge[idx], pe[idx])

    # grad err^2, p err^2, p err, area: a running sum over the cells in
    # order (not covered, partial with a nonempty rule, front fluid)
    part = part[np.diff(rules.offsets) > 0]
    acc = np.cumsum(np.vstack([np.zeros((1, 4)), full_cells(on_bg, topo.class_not),
                               part, full_cells(on_fr, space.fluid_cells)]),
                    axis=0)[-1]
    p_sq = acc[1]
    if mean_shift and acc[3] > 0:
        p_sq = max(acc[1] - acc[2] ** 2 / acc[3], 0.0)
    return float(np.sqrt(acc[0])), float(np.sqrt(p_sq))
