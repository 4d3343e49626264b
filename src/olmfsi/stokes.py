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

from dataclasses import dataclass, replace

import numpy as np

from .mesh import (FLUID, SOLID, region_interface_vertices,
                   barycentric as _bary, eval_field, p1_error_sums)
from .geometry import (
    QUAD_ORDER,
    tri_rule,
    seg_rule,
    triangle_rule,
    subtractive_rules,
    uncovered_pieces,
    exterior_pieces,
)
from .linalg import (SparseSystem, DirectSolver, apply_dirichlet, check_residual,
                     solve_direct, merge_constraints)

BG, FRONT = 0, 1
# weights of the background and front fluxes in the interface mean: the
# front mesh is never cut, so its side carries the whole flux
ALPHA = (0.0, 1.0)


class CompositeSpace:
    """P1 vector/scalar dof maps over the reduced background mesh plus the
    front fluid mesh (its FLUID cells), with Dirichlet sets and optional
    pressure pinning.

    Dof layout: background velocity, front velocity, background pressure,
    front pressure.  No dof is shared between the meshes; ``dofs`` gives
    the dofs of vertices of one side.  The Dirichlet
    callbacks follow ``mesh.eval_field``; the fluid-solid interface
    vertices of the front are always no-slip.  ``dirichlet_dofs``
    (ascending) and ``dirichlet_values`` are the merged data
    (``linalg.merge_constraints``).
    """

    def __init__(self, background, front, topo, bg_dirichlet=None,
                 front_dirichlet=None, pin_pressure=False, pin_value=0.0):
        self.background = background
        self.front = front

        self.fluid_cells = front.region_cells(FLUID)
        self.bg_vmap = background.vertex_slots(topo.reduced_cells)
        self.fr_vmap = front.vertex_slots(self.fluid_cells)
        self.n1 = int(self.bg_vmap.max(initial=-1)) + 1
        self.n2 = int(self.fr_vmap.max(initial=-1)) + 1
        self.offset_u2 = 2 * self.n1
        self.offset_p1 = 2 * (self.n1 + self.n2)
        self.offset_p2 = self.offset_p1 + self.n1
        self.ndof = 3 * (self.n1 + self.n2)
        # per side, indexed by BG or FRONT: the mesh and its vertex-to-slot
        # map (-1 at vertices without dofs)
        self.sides = ((background, self.bg_vmap), (front, self.fr_vmap))

        self.pin_dof = None
        if pin_pressure:
            if not self.ndof:
                raise ValueError("no pressure dof available to pin")
            self.pin_dof = self.offset_p1      # the first pressure dof of either mesh
        self.dirichlet_dofs, self.dirichlet_values = self._collect_dirichlet(
            bg_dirichlet or {}, front_dirichlet or {}, pin_value)

    def dofs(self, mesh_id, verts):
        """Velocity dofs (..., 2) and pressure dofs (...) of active
        vertices ``verts`` (any shape) of one side."""
        slot = self.sides[mesh_id][1][verts]
        u_base, p_base = ((0, self.offset_p1) if mesh_id == BG
                          else (self.offset_u2, self.offset_p2))
        return u_base + 2 * slot[..., None] + np.arange(2), p_base + slot

    def boundary_edges(self, mesh_id, marker):
        """Boundary edges of one side marked ``marker`` whose vertices all
        have dofs."""
        mesh, vmap = self.sides[mesh_id]
        return np.flatnonzero((mesh.boundary_markers == marker)
                              & (vmap[mesh.boundary_edges] >= 0).all(axis=1))

    def _collect_dirichlet(self, bg_dirichlet, front_dirichlet, pin_value):
        """Merged Dirichlet dofs and values: marked boundary edges of both
        meshes, the no-slip fluid-solid interface and the pressure pin."""
        pin = [] if self.pin_dof is None else [self.pin_dof]
        dofs, vals = [np.array(pin, dtype=np.int64)], [np.full(len(pin), float(pin_value))]

        def add(mesh_id, verts, g):
            mesh, vmap = self.sides[mesh_id]
            verts = verts[vmap[verts] >= 0]
            dofs.append(self.dofs(mesh_id, verts)[0].ravel())
            vals.append(np.zeros(2 * len(verts)) if g is None
                        else eval_field(g, mesh.vertices[verts], (2,)).ravel())

        for mesh_id, spec in ((BG, bg_dirichlet), (FRONT, front_dirichlet)):
            mesh = self.sides[mesh_id][0]
            for m, g in spec.items():
                add(mesh_id, np.unique(mesh.boundary_edges[mesh.boundary_markers == m]), g)
        add(FRONT, region_interface_vertices(self.front, FLUID, SOLID), None)
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
    (S, a) and column dofs (S, b), row-major within an item.  Every kernel
    adds its blocks one ``sys.add`` each: block k of every item, then block
    k + 1, so the CSR sums duplicate entries in the order of a per-item loop
    that adds its local blocks block by block."""
    return (np.repeat(rows, cols.shape[1], axis=1),
            np.tile(cols, (1, rows.shape[1])), vals.reshape(len(vals), -1))


def _volume_terms(sys, space, mesh_id, cells, problem, rules=None):
    """P1-P1 Stokes volume terms on cells of one side: over the whole cell,
    or over the uncovered part of each partially covered background cell
    given by ``rules`` (CutRules in the order of ``cells``).  A whole cell
    takes its moments in closed form: measure |T| and int lambda_b = |T|/3."""
    if len(cells) == 0:
        return
    mesh = space.sides[mesh_id][0]
    udof, pdof = space.dofs(mesh_id, mesh.cells[cells])
    g = mesh.p1_grads[cells]
    gg = g @ g.transpose(0, 2, 1)
    area, h2 = mesh.cell_areas[cells], mesh.cell_diameters[cells] ** 2
    if rules is None:
        W, int_lam = area, np.repeat(area[:, None] / 3.0, 3, axis=1)
    else:
        W, int_lam, groups = rules.totals(), np.zeros((len(cells), 3)), rules.groups()
        lam = np.empty((len(rules.points), 3))
        for rows, idx in groups:
            lam[idx] = _bary(mesh, cells[rows], rules.points[idx])
            int_lam[rows] = (rules.weights[idx][:, None] @ lam[idx])[:, 0]
    # the pressure stabilization covers the whole cell unless switched off
    whole_j = rules is None or problem.jh_extension
    for comp in range(2):
        sys.add(*_block(udof[..., comp], udof[..., comp],
                        (problem.viscosity * W)[:, None, None] * gg))
    for comp in range(2):
        # b(v, q) = -(div v, q)
        r, c, v = _block(udof[..., comp], pdof, -(g[:, :, comp, None] * int_lam[:, None]))
        sys.add(r, c, v)
        sys.add(c, r, v)
    area_j = area if whole_j else W
    sys.add(*_block(pdof, pdof, (-problem.delta * h2 * area_j)[:, None, None] * gg))

    f = problem.body_force
    if f is None:
        return

    def moments(groups):
        """Per cell, int f lambda_a (c, 3, 2) and int f . grad lambda_a
        (c, 3), from (rows, weights, lambda, f) at the points of a rule."""
        rv, rq = np.zeros((len(cells), 3, 2)), np.zeros((len(cells), 3))
        for rows, w, lam_q, fv in groups:
            rv[rows] = np.einsum("cq,cqa,cqi->cai", w, lam_q, fv)
            rq[rows] = np.einsum("cq,cqi,cai->ca", w, fv, g[rows])
        return rv, rq

    if whole_j:
        full = triangle_rule(mesh.cell_points[cells], QUAD_ORDER)
        whole = moments([(slice(None), full.weights,
                          np.broadcast_to(tri_rule(QUAD_ORDER)[0], full.weights.shape + (3,)),
                          eval_field(f, full.points, (2,)).reshape(*full.weights.shape, 2))])
    if rules is None:
        part, has = whole, np.ones(len(cells), dtype=bool)
    else:
        fv = eval_field(f, rules.points, (2,)) if len(rules.points) else None
        part = moments([(rows, rules.weights[idx], lam[idx], fv[idx])
                        for rows, idx in groups])
        has = np.diff(rules.offsets) > 0
    # (f, v) over the cell's region, -delta h^2 (f, grad q) over the j-term's
    sys.add_rhs(udof[has].ravel(), part[0][has].ravel())
    has |= whole_j
    rq = (whole if whole_j else part)[1]
    sys.add_rhs(pdof[has].ravel(), ((-problem.delta * h2)[:, None] * rq)[has].ravel())


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
    (uT, pT), (uK, pK) = space.dofs(BG, bg.cells[T]), space.dofs(FRONT, fr.cells[K])
    udofs = np.concatenate([uT, uK], axis=1)                   # (S, 6, 2)
    pdofs = np.hstack([pT, pK])

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

    for comp in range(2):
        sys.add(*_block(udofs[..., comp], udofs[..., comp], Avv))
        r, c, v = _block(udofs[..., comp], pdofs, n[:, comp, None, None] * Bjp)
        sys.add(r, c, v)
        sys.add(c, r, v)


def _overlap_terms(sys, space, problem, pairs):
    """Gradient-jump terms on the overlap pairs, weighted by pair area."""
    if not len(pairs):
        return
    nu = problem.viscosity
    bg, fr = space.background, space.front
    T, K, W = pairs.bg_cell, pairs.front_cell, pairs.area
    G = np.concatenate([bg.p1_grads[T], -fr.p1_grads[K]], axis=1)   # jump gradient
    M = (nu * W)[:, None, None] * (G @ G.transpose(0, 2, 1))
    udofs = np.concatenate([space.dofs(BG, bg.cells[T])[0],
                            space.dofs(FRONT, fr.cells[K])[0]], axis=1)
    for comp in range(2):
        sys.add(*_block(udofs[..., comp], udofs[..., comp], M))


def _neumann_terms(sys, space, problem):
    """Boundary traction integrals; callbacks receive (points, outward normal).

    Background edges are restricted to their uncovered pieces so the
    physical boundary is integrated exactly once across both meshes.
    """
    if not problem.neumann:
        return
    xs, ws = seg_rule(QUAD_ORDER)
    for mesh_id, marker, traction in problem.neumann:
        mesh = space.sides[mesh_id][0]
        ij = mesh.boundary_edges
        edges = space.boundary_edges(mesh_id, marker)
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
        sys.add_rhs(space.dofs(mesh_id, ij[edges[seg]])[0].ravel(), loads.ravel())


def assemble(problem, space, topo):
    """Assemble the coupled velocity-pressure system.

    Returns the unconstrained SparseSystem, so the raw operator can be
    checked for symmetry; the space holds the Dirichlet data.
    """
    sys = SparseSystem(space.ndof)
    # uncovered and partially covered background cells, front fluid cells
    _volume_terms(sys, space, BG, topo.class_not, problem)
    _volume_terms(sys, space, BG, topo.class_partial, problem, topo.cut_rules)
    _volume_terms(sys, space, FRONT, space.fluid_cells, problem)
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
        return self._nodal(mesh_id, 0)

    def pressure(self, mesh_id):
        return self._nodal(mesh_id, 1)

    def _nodal(self, mesh_id, field):
        """Velocity (0) or pressure (1) at the vertices of one side."""
        mesh, vmap = self.space.sides[mesh_id]
        act = np.flatnonzero(vmap >= 0)
        dofs = self.space.dofs(mesh_id, act)[field]
        out = np.zeros((mesh.nv,) + dofs.shape[1:])
        out[act] = self.coeffs[dofs]
        return out


def _bg_dofs(space, verts):
    """Velocity, then pressure dofs of background vertices (all active)."""
    u, p = space.dofs(BG, verts)
    return np.concatenate([u.ravel(), p])


class _Part:
    """The dofs ``index`` (ascending) of ``space``, numbered in that order,
    with their Dirichlet data; it stands in for the space in ``assemble``
    and the kernels and only renumbers.  Which items a part assembles is
    its caller's choice (``FarField``)."""

    def __init__(self, space, index):
        self.background, self.front, self.sides = space.background, space.front, space.sides
        self.fluid_cells, self.boundary_edges = space.fluid_cells, space.boundary_edges
        self.ndof = len(index)
        self.local = np.full(space.ndof, -1)
        self.local[index] = np.arange(len(index))
        held = self.local[space.dirichlet_dofs] >= 0
        self.dirichlet_dofs = self.local[space.dirichlet_dofs[held]]
        self.dirichlet_values = space.dirichlet_values[held]
        self._dofs = space.dofs

    def dofs(self, mesh_id, verts):
        return tuple(self.local[d] for d in self._dofs(mesh_id, verts))


class FarField:
    """Static condensation of the fixed background far from the front; every
    fluid solve runs through one, with a far set that may be empty.

    The first solve of a fixed-point run marks *far* the active background
    vertices outside the box of the covered cells grown by its own size on
    each side, none of a background Neumann edge, if they hold more dofs
    than the rest (``_box_far``).  The far field decides ownership: it owns
    the not-covered cells with a far vertex, whose volume terms it
    assembles, eliminates and factors per connected component of A_FF once.
    They act on the *rim*, the other vertices of the far cells, through
    S = A_RF A_FF^-1 A_FR (dense) and w = A_RF A_FF^-1 b_F.  Each solve
    assembles every other item, with the rim block, -S and -w among its
    triplets, factors this near system, recovers the far dofs and checks
    the residual of the whole system; with no far vertex the near system is
    the whole one, in the same item order.  A front that reaches a far
    vertex rebuilds the far field; the constrained far dofs must not depend
    on the front (no pressure pin).
    """

    def __init__(self):
        self._far = None        # far background vertex mask, set by the first solve

    def solve(self, problem, space, topo):
        """Solution of the fluid system of ``problem`` on ``space``, its
        Dirichlet values exact."""
        if self._far is None or self._touched(space, topo):
            self._build(problem, space, topo, _box_far(problem, space, topo))
        far = _bg_dofs(space, np.flatnonzero(self._far))
        is_near = np.ones(space.ndof, dtype=bool)
        is_near[far] = False
        near = _Part(space, np.flatnonzero(is_near))
        r = near.local[_bg_dofs(space, self._rim)]
        cells = topo.class_not
        sys = assemble(problem, near, replace(
            topo, class_not=cells[~self._far[space.background.cells[cells]].any(axis=1)]))
        rows, cols, vals = self._rim_block
        sys.add(r[rows], r[cols], vals)
        sys.add(np.repeat(r, len(r)), np.tile(r, len(r)), -self._S)
        sys.add_rhs(r, self._rim_rhs - self._w)
        c = apply_dirichlet(sys, near.dirichlet_dofs, near.dirichlet_values)
        del sys         # the unconstrained system is freed before the factorization
        x_near = solve_direct(c)
        x_rim, x_free, r_far = x_near[r], np.empty(len(self._b_F)), np.empty(len(self._b_F))
        for idx, A_FF, A_FR, solver in self._blocks:
            rhs = self._b_F[idx] - A_FR @ x_rim
            x_free[idx] = solver.solve(rhs)
            r_far[idx] = A_FF @ x_free[idx] - rhs
        x = np.empty(space.ndof)
        x[is_near], x[far] = x_near, self._rhs_far
        x[far[self._free]] = x_free
        # against the whole system (c.rhs becomes its right-hand side): the
        # near rows with S x_R - w back on the rim and their far coupling,
        # and the far rows; a stale far block cannot pass
        c.rhs[r] += self._w
        r_near = c.matrix @ x_near - c.rhs
        r_near[r] += self._S @ x_rim + self._A_RF @ x_free
        # ||A||_inf of the whole system: S back on the rim-rim block, and the
        # rim rows' far coupling
        norm = np.asarray(abs(c.matrix).sum(axis=1)).ravel()
        C_RR = c.matrix[r][:, r].toarray()
        norm[r] += np.abs(C_RR + self._S).sum(axis=1) - np.abs(C_RR).sum(axis=1) + self._rim_norm
        check_residual(np.concatenate([r_near, r_far]), x,
                       np.concatenate([c.rhs, self._rhs_far]), max(norm.max(), self._norm_far))
        return x

    def _touched(self, space, topo):
        """Whether a cell with more than full-cell terms has a far vertex."""
        cells = np.concatenate([topo.class_fully, topo.class_partial,
                                topo.interface_segments.bg_cell,
                                topo.overlap_pairs.bg_cell])
        return bool(self._far[space.background.cells[cells]].any())

    def _build(self, problem, space, topo, far):
        """Condense the far vertex mask ``far`` (possibly empty)."""
        bg, cells = space.background, topo.class_not
        cells = cells[far[bg.cells[cells]].any(axis=1)]
        verts = np.zeros(bg.nv, dtype=bool)
        verts[bg.cells[cells]] = True
        self._far, self._rim = far, np.flatnonzero(verts & ~far)
        # the far cells' system in far/rim numbering: velocity, then pressure
        # dofs of the far and rim vertices
        verts = np.flatnonzero(verts)
        part = _Part(space, _bg_dofs(space, verts))
        sys = SparseSystem(part.ndof)
        _volume_terms(sys, part, BG, cells, problem)
        c = apply_dirichlet(sys, part.dirichlet_dofs, part.dirichlet_values)
        in_far = np.concatenate([np.repeat(far[verts], 2), far[verts]])
        fixed = np.zeros(len(in_far), dtype=bool)
        fixed[c.dofs] = True
        F, R = np.flatnonzero(in_far & ~fixed), np.flatnonzero(~in_far)
        A, A_F, A_R = c.matrix, c.matrix[F], c.matrix[R]
        A_FF, A_FR, self._A_RF = A_F[:, F], A_F[:, R], A_R[:, F]
        rim_block = A_R[:, R].tocoo()
        self._rim_block = (rim_block.row, rim_block.col, rim_block.data)
        # the far dofs' right-hand side (their values where constrained),
        # which the constrained far dofs take as their solution
        self._rhs_far, self._free = c.rhs[in_far], ~fixed[in_far]
        self._b_F, self._rim_rhs = c.rhs[F], c.rhs[R]
        # ||A||_inf of the whole system: the far rows, and the rim rows'
        # far coupling, which each solve adds to its near rows
        self._norm_far = np.asarray(abs(A[in_far]).sum(axis=1)).max(initial=0.0)
        self._rim_norm = np.asarray(abs(self._A_RF).sum(axis=1)).ravel()
        self._S, self._w = np.zeros((len(R), len(R))), np.zeros(len(R))
        self._blocks = []
        for comp in _components(A_FF):
            A_CC, A_CR, A_RC = A_FF[comp][:, comp], A_FR[comp], self._A_RF[:, comp]
            solver = DirectSolver(A_CC)
            self._blocks.append((comp, A_CC, A_CR, solver))
            self._w += A_RC @ solver.solve(self._b_F[comp])
            # the rim columns the component touches, a few at a time: the
            # dense far solutions stay small
            cols, A_CR = np.flatnonzero(A_CR.getnnz(axis=0)), A_CR.tocsc()
            for j in range(0, len(cols), 16):
                some = cols[j:j + 16]
                self._S[:, some] += A_RC @ solver.solve(A_CR[:, some].toarray())


def _box_far(problem, space, topo):
    """The far vertex mask of a fixed-point run (see ``FarField``)."""
    bg, far = space.background, np.zeros(space.background.nv, dtype=bool)
    pts = bg.vertices[bg.cells[np.concatenate([topo.class_fully, topo.class_partial])]]
    if len(pts):
        lo, hi = pts.min(axis=(0, 1)), pts.max(axis=(0, 1))
        lo, hi = 2 * lo - hi, 2 * hi - lo
        far = (space.bg_vmap >= 0) & ((bg.vertices < lo) | (bg.vertices > hi)).any(axis=1)
    for mesh_id, marker, _ in problem.neumann:
        if mesh_id == BG:       # a traction load stays in the near system
            far[bg.boundary_edges[bg.boundary_markers == marker]] = False
    return far & (2 * 3 * far.sum() > space.ndof)      # the far dofs must outnumber the rest


def _components(A):
    """Connected components of the graph of A; csgraph loads only for a nonempty A."""
    if not A.shape[0]:
        return []
    from scipy.sparse.csgraph import connected_components
    n, labels = connected_components(A, directed=False)
    return [np.flatnonzero(labels == k) for k in range(n)]


def solve_stokes(problem, space, topo, far=None):
    """Assemble, constrain and solve through ``far``, the ``FarField`` of a
    fixed-point run, or one with no far vertex; Dirichlet values are exact."""
    if far is None:
        far = FarField()
        far._build(problem, space, topo, np.zeros(space.background.nv, dtype=bool))
    return FluidSolution(space, far.solve(problem, space, topo), viscosity=problem.viscosity)


def error_norms(solution, exact_grad_u, exact_p, topo, order=4, mean_shift=None):
    """Velocity H1-seminorm and pressure L2 errors over the physical domain.

    Background cells contribute their uncovered part (cut rules on partial
    cells), front fluid cells contribute fully; ``mesh.p1_error_sums`` gives
    each cell's sums, with the pressure as a one-component field.  With
    mean_shift the pressure error is taken up to an additive constant, as
    appropriate for pinned-pressure problems.
    """
    space = solution.space
    if mean_shift is None:
        mean_shift = space.pin_dof is not None
    bg, fr = space.background, space.front
    on_bg = (solution.velocity(BG), solution.pressure(BG)[:, None])
    on_fr = (solution.velocity(FRONT), solution.pressure(FRONT)[:, None])

    def fields(pts):
        shape = pts.shape[:-1]
        return (eval_field(exact_grad_u, pts, (2, 2)).reshape(*shape, 2, 2),
                eval_field(exact_p, pts, ()).reshape(*shape, 1))

    def full_cells(mesh, cells, u_nodal, p_nodal):
        if len(cells) == 0:
            return np.zeros((0, 4))
        rule = triangle_rule(mesh.cell_points[cells], order)
        return p1_error_sums(mesh, cells, u_nodal, p_nodal, rule.points, rule.weights,
                             *fields(rule.points))

    partial = topo.class_partial
    rules = (topo.cut_rules if order <= QUAD_ORDER else
             subtractive_rules(bg, partial, topo.polygons, order))
    pts, wts = rules.points, rules.weights
    part = np.zeros((len(partial), 4))
    if len(pts):
        ge, pe = fields(pts)
        for rows, idx in rules.groups():
            part[rows] = p1_error_sums(bg, partial[rows], *on_bg, pts[idx], wts[idx],
                                       ge[idx], pe[idx])

    # grad err^2, p err^2, p err, area: a running sum over the cells in
    # order (not covered, partial with a nonempty rule, front fluid)
    part = part[np.diff(rules.offsets) > 0]
    acc = np.cumsum(np.vstack([np.zeros((1, 4)), full_cells(bg, topo.class_not, *on_bg),
                               part, full_cells(fr, space.fluid_cells, *on_fr)]),
                    axis=0)[-1]
    p_sq = acc[1]
    if mean_shift and acc[3] > 0:
        p_sq = max(acc[1] - acc[2] ** 2 / acc[3], 0.0)
    return float(np.sqrt(acc[0])), float(np.sqrt(p_sq))
