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

from .mesh import (SOLID, region_interface_vertices, barycentric as _bary,
                   eval_field as _eval_vec)
from .geometry import (
    tri_rule,
    seg_rule,
    triangle_rule,
    uncovered_intervals_on_segment,
    exterior_intervals_on_segment,
)
from .linalg import SparseSystem, apply_dirichlet, solve_direct

BG, FRONT = 0, 1


class CompositeSpace:
    """P1 vector/scalar dof maps over the reduced background mesh plus the
    front fluid mesh, with Dirichlet sets and optional pressure pinning.

    Dof layout: background velocity, front velocity, background pressure,
    front pressure.  No dof is shared between the meshes.
    """

    def __init__(self, background, front, topo, fluid_tag=None,
                 bg_dirichlet=None, front_dirichlet=None,
                 interface_g="zero", solid_tag=SOLID,
                 pin_pressure=False, pin_value=0.0):
        self.background = background
        self.front = front
        self.topo = topo
        self.fluid_tag = fluid_tag

        bg_active = np.zeros(background.nv, dtype=bool)
        if len(topo.reduced_cells):
            bg_active[background.cells[topo.reduced_cells].ravel()] = True
        fr_active = np.zeros(front.nv, dtype=bool)
        self.fluid_cells = (np.arange(front.nc) if fluid_tag is None
                            else front.region_cells(fluid_tag))
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

        self._dirichlet = {}
        self._collect_dirichlet(bg_dirichlet or {}, front_dirichlet or {},
                                interface_g, solid_tag)
        self.pin_dof = None
        if pin_pressure:
            if self.n1:
                self.pin_dof = int(self.offset_p1)
            elif self.n2:
                self.pin_dof = int(self.offset_p2)
            else:
                raise ValueError("no pressure dof available to pin")
            self._dirichlet[self.pin_dof] = float(pin_value)

    # -- dof helpers -------------------------------------------------------

    def u_dof(self, mesh_id, vertex, comp):
        if mesh_id == BG:
            s = self.bg_vmap[vertex]
            base = 0
        else:
            s = self.fr_vmap[vertex]
            base = self.offset_u2
        if np.any(np.asarray(s) < 0):
            raise IndexError("inactive vertex")
        return base + 2 * s + comp

    def p_dof(self, mesh_id, vertex):
        if mesh_id == BG:
            s = self.bg_vmap[vertex]
            base = self.offset_p1
        else:
            s = self.fr_vmap[vertex]
            base = self.offset_p2
        if np.any(np.asarray(s) < 0):
            raise IndexError("inactive vertex")
        return base + s

    def _collect_dirichlet(self, bg_dirichlet, front_dirichlet, interface_g, solid_tag):
        def add_edges(mesh, vmap, base, spec):
            for (i, j), m in zip(mesh.boundary_edges, mesh.boundary_markers):
                g = spec.get(int(m))
                if g is None:
                    continue
                for v in (i, j):
                    if vmap[v] < 0:
                        continue
                    val = np.asarray(g(mesh.vertices[v]), float)
                    for c in range(2):
                        self._set(base + 2 * vmap[v] + c, val[c])

        add_edges(self.background, self.bg_vmap, 0, bg_dirichlet)
        add_edges(self.front, self.fr_vmap, self.offset_u2, front_dirichlet)

        if interface_g is not None and self.fluid_tag is not None:
            iverts = region_interface_vertices(self.front, self.fluid_tag, solid_tag)
            for v in iverts:
                if self.fr_vmap[v] < 0:
                    continue
                if interface_g == "zero":
                    val = np.zeros(2)
                else:
                    val = np.asarray(interface_g(self.front.vertices[v]), float)
                for c in range(2):
                    self._set(self.offset_u2 + 2 * self.fr_vmap[v] + c, val[c])

    def _set(self, dof, value):
        dof = int(dof)
        old = self._dirichlet.get(dof)
        if old is not None and abs(old - value) > 1e-12 * max(1.0, abs(old), abs(value)):
            raise ValueError(f"conflicting Dirichlet values at dof {dof}: {old} vs {value}")
        self._dirichlet[dof] = float(value)

    @property
    def dirichlet_dofs(self):
        return np.fromiter(self._dirichlet.keys(), dtype=np.int64)

    @property
    def dirichlet_values(self):
        return np.fromiter(self._dirichlet.values(), dtype=float)


@dataclass
class FluidProblem:
    """Stokes problem data and stabilization parameters.

    ``neumann`` lists (mesh_id, boundary marker, traction callback) triples;
    background Neumann edges are automatically restricted to their physical
    (uncovered) part.  ``use_ih`` and ``jh_extension`` exist so robustness
    tests can switch the overlap and cut-cell stabilizations off.
    """
    viscosity: float = 1.0
    body_force: object = None
    gamma: float = 10.0
    delta: float = 0.5
    alpha: tuple = (0.0, 1.0)
    neumann: tuple = ()
    use_ih: bool = True
    jh_extension: bool = True
    nu_scale_a: bool = True
    quad_order: int = 2

    def __post_init__(self):
        if self.viscosity <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")
        a1, a2 = self.alpha
        if a1 < 0 or a2 < 0 or abs(a1 + a2 - 1.0) > 1e-12:
            raise ValueError("interface weights must be convex")


class AssemblyError(RuntimeError):
    pass


def _full_cell_volume_terms(sys, mesh, cells, vmap, u_base, p_base, nu_a,
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

    M = nu_a * A[:, None, None] * np.einsum("cad,cbd->cab", G, G)
    for comp in range(2):
        r = np.repeat(udof[:, :, comp], 3, axis=1)
        c = np.tile(udof[:, :, comp], (1, 3))
        sys.add(r, c, M.reshape(len(cells), 9))

    # b(v, p) = -(div v, q): integral of lambda_b is A/3
    Bv = -(A[:, None, None] / 3.0) * G  # (nc, a, i) for every pressure b
    for comp in range(2):
        vals = np.repeat(Bv[:, :, comp], 3, axis=1)           # (nc, 9) a-major
        r = np.repeat(udof[:, :, comp], 3, axis=1)
        c = np.tile(pdof, (1, 3))
        sys.add(r, c, vals)
        sys.add(c, r, vals)

    J = -(delta * h2 * A)[:, None, None] * np.einsum("cad,cbd->cab", G, G)
    r = np.repeat(pdof, 3, axis=1)
    c = np.tile(pdof, (1, 3))
    sys.add(r, c, J.reshape(len(cells), 9))

    if f is not None:
        lam, w = tri_rule(order)
        pts = np.einsum("qa,cax->cqx", lam, mesh.cell_points[cells])
        fv = _eval_vec(f, pts.reshape(-1, 2)).reshape(len(cells), -1, 2)
        # (f, v)
        rv = np.einsum("q,qa,cqi->cai", w, lam, fv) * A[:, None, None]
        sys.add_rhs(udof.ravel(), rv.ravel())
        # -delta h^2 (f, grad q)
        rq = -delta * (h2 * A)[:, None] * np.einsum("q,cqi,cai->ca", w, fv, G)
        sys.add_rhs(pdof.ravel(), rq.ravel())


def _cut_cell_terms(sys, mesh, cell, rule, vmap, u_base, p_base, nu_a, delta,
                    f, jh_extension, order):
    """Volume terms on one partially covered background cell."""
    g = mesh.p1_grads[cell]
    conn = mesh.cells[cell]
    slot = vmap[conn]
    udof = u_base + 2 * slot[:, None] + np.arange(2)[None, :]
    pdof = p_base + slot
    W = rule.total
    lam = _bary(mesh, cell, rule.points) if len(rule.points) else np.zeros((0, 3))

    M = nu_a * W * (g @ g.T)
    for comp in range(2):
        r = np.repeat(udof[:, comp], 3)
        c = np.tile(udof[:, comp], 3)
        sys.add(r, c, M.ravel())

    # -(div v, q) with int lambda_b over the cut region
    int_lam = rule.weights @ lam if len(rule.points) else np.zeros(3)
    for comp in range(2):
        vals = -np.outer(g[:, comp], int_lam)
        r = np.repeat(udof[:, comp], 3)
        c = np.tile(pdof, 3)
        sys.add(r, c, vals.ravel())
        sys.add(c, r, vals.ravel())

    h2 = mesh.cell_diameters[cell] ** 2
    area_j = mesh.cell_areas[cell] if jh_extension else W
    J = -delta * h2 * area_j * (g @ g.T)
    sys.add(np.repeat(pdof, 3), np.tile(pdof, 3), J.ravel())

    if f is not None:
        if len(rule.points):
            fv = _eval_vec(f, rule.points)
            rv = np.einsum("q,qa,qi->ai", rule.weights, lam, fv)
            sys.add_rhs(udof.ravel(), rv.ravel())
        # rhs stabilization matches the j-term region
        if jh_extension:
            frule = triangle_rule(mesh.cell_points[cell], order)
            fpts, fw = frule.points, frule.weights
        else:
            fpts, fw = rule.points, rule.weights
        if len(fpts):
            fv = _eval_vec(f, fpts)
            rq = -delta * h2 * np.einsum("q,qi,ai->a", fw, fv, g)
            sys.add_rhs(pdof, rq)


def _interface_terms(sys, space, problem, segments):
    nu_a = problem.viscosity if problem.nu_scale_a else 1.0
    a1, a2 = problem.alpha
    bg, fr = space.background, space.front
    for s in segments:
        gT = bg.p1_grads[s.bg_cell]
        gK = fr.p1_grads[s.front_cell]
        lamT = _bary(bg, s.bg_cell, s.points)
        lamK = _bary(fr, s.front_cell, s.points)
        n = s.normal
        w = s.weights
        h = bg.cell_diameters[s.bg_cell]

        connT = bg.cells[s.bg_cell]
        connK = fr.cells[s.front_cell]
        slotT = space.bg_vmap[connT]
        slotK = space.fr_vmap[connK]
        udofs = [np.concatenate([2 * slotT + c, space.offset_u2 + 2 * slotK + c])
                 for c in range(2)]
        pdofs = np.concatenate([space.offset_p1 + slotT, space.offset_p2 + slotK])

        # jump = front - background ; mean = a1*background + a2*front
        jco = np.hstack([-lamT, lamK])                       # (nq, 6)
        mco = np.concatenate([a1 * (gT @ n), a2 * (gK @ n)])  # (6,)
        mp = np.hstack([a1 * lamT, a2 * lamK])               # (nq, 6)

        jw = w @ jco                                          # (6,)
        pen = (problem.gamma * nu_a / h) * (jco.T * w) @ jco
        consist = -nu_a * (np.outer(jw, mco) + np.outer(mco, jw))
        Avv = pen + consist
        Bjp = (jco.T * w) @ mp                                # (6, 6) jump x mean

        for comp in range(2):
            r = np.repeat(udofs[comp], 6)
            c = np.tile(udofs[comp], 6)
            sys.add(r, c, Avv.ravel())
            bv = n[comp] * Bjp
            r = np.repeat(udofs[comp], 6)
            c = np.tile(pdofs, 6)
            sys.add(r, c, bv.ravel())
            sys.add(c, r, bv.ravel())


def _overlap_terms(sys, space, problem, pairs):
    nu_a = problem.viscosity if problem.nu_scale_a else 1.0
    bg, fr = space.background, space.front
    for p in pairs:
        gT = bg.p1_grads[p.bg_cell]
        gK = fr.p1_grads[p.front_cell]
        slotT = space.bg_vmap[bg.cells[p.bg_cell]]
        slotK = space.fr_vmap[fr.cells[p.front_cell]]
        G = np.vstack([gT, -gK])                              # jump gradient
        M = nu_a * p.rule.total * (G @ G.T)
        for comp in range(2):
            dofs = np.concatenate([2 * slotT + comp,
                                   space.offset_u2 + 2 * slotK + comp])
            sys.add(np.repeat(dofs, 6), np.tile(dofs, 6), M.ravel())


def _neumann_terms(sys, space, problem):
    """Boundary traction integrals; callbacks receive (points, outward normal).

    Background edges are restricted to their uncovered pieces so the
    physical boundary is integrated exactly once across both meshes.
    """
    if not problem.neumann:
        return
    xs, ws = seg_rule(max(problem.quad_order, 2))
    for mesh_id, marker, traction in problem.neumann:
        mesh = space.background if mesh_id == BG else space.front
        vmap = space.bg_vmap if mesh_id == BG else space.fr_vmap
        base = 0 if mesh_id == BG else space.offset_u2
        for e, ((i, j), m) in enumerate(zip(mesh.boundary_edges,
                                            mesh.boundary_markers)):
            if int(m) != marker:
                continue
            if vmap[i] < 0 or vmap[j] < 0:
                continue
            a, b = mesh.vertices[i], mesh.vertices[j]
            _, n = mesh.boundary_normal(e)
            if mesh_id == BG:
                pieces = uncovered_intervals_on_segment(a, b, space.front)
            else:
                # keep only pieces on the true union boundary: parts of a
                # front edge that drifted into the background interior are
                # Nitsche-coupled instead
                pieces = exterior_intervals_on_segment(a, b, n, space.background)
            ev = b - a
            length = np.hypot(*ev)
            for t0, t1 in pieces:
                ts = t0 + xs * (t1 - t0)
                pts = a[None, :] + ts[:, None] * ev[None, :]
                w = ws * (t1 - t0) * length
                tv = np.asarray(traction(pts, n), float).reshape(-1, 2)
                lam = np.column_stack([1.0 - ts, ts])  # hats of i, j
                for vloc, v in enumerate((i, j)):
                    for comp in range(2):
                        sys.add_rhs([base + 2 * vmap[v] + comp],
                                    [np.sum(w * lam[:, vloc] * tv[:, comp])])


def assemble(problem, space, topo):
    """Assemble the coupled velocity-pressure system.

    Returns a SparseSystem with Dirichlet constraints registered but not yet
    applied, so the raw operator can be checked for symmetry.
    """
    sys = SparseSystem(space.ndof)
    bg, fr = space.background, space.front
    nu = problem.viscosity
    nu_a = nu if problem.nu_scale_a else 1.0
    f = problem.body_force
    order = problem.quad_order

    # background: fully uncovered cells carry everything with full rules
    _full_cell_volume_terms(sys, bg, topo.class_not, space.bg_vmap, 0,
                            space.offset_p1, nu_a, problem.delta, f, order)
    # partially covered cells: physical terms with cut rules
    for c in topo.class_partial:
        c = int(c)
        rule = topo.cut_rules.get(c)
        if rule is None:
            raise AssemblyError(f"missing cut rule for partial cell {c}")
        _cut_cell_terms(sys, bg, c, rule, space.bg_vmap, 0, space.offset_p1,
                        nu_a, problem.delta, f, problem.jh_extension, order)
    # front fluid cells: full rules
    _full_cell_volume_terms(sys, fr, space.fluid_cells, space.fr_vmap,
                            space.offset_u2, space.offset_p2, nu_a,
                            problem.delta, f, order)
    _interface_terms(sys, space, problem, topo.interface_segments)
    if problem.use_ih:
        _overlap_terms(sys, space, problem, topo.overlap_pairs)
    _neumann_terms(sys, space, problem)

    if len(space.dirichlet_dofs):
        sys.set_dirichlet(space.dirichlet_dofs, space.dirichlet_values)
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
    x = solve_direct(apply_dirichlet(assemble(problem, space, topo)))
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
    bg, fr = space.background, space.front
    u_bg, p_bg = solution.velocity(BG), solution.pressure(BG)
    u_fr, p_fr = solution.velocity(FRONT), solution.pressure(FRONT)

    acc = np.zeros(4)  # grad err^2, p err^2, p err, area

    def cell_contrib(mesh, cell, u_nodal, p_nodal, rule):
        if len(rule.points) == 0:
            return
        g = mesh.p1_grads[cell]
        conn = mesh.cells[cell]
        gradu = np.einsum("ai,aj->ij", u_nodal[conn], g)
        lam = _bary(mesh, cell, rule.points)
        ph = lam @ p_nodal[conn]
        ge = _eval_vec(exact_grad_u, rule.points)
        pe = _eval_vec(exact_p, rule.points).reshape(-1)
        diff = gradu[None, :, :] - ge
        acc[0] += np.sum(rule.weights * np.einsum("qij,qij->q", diff, diff))
        dp = ph - pe
        acc[1] += np.sum(rule.weights * dp * dp)
        acc[2] += np.sum(rule.weights * dp)
        acc[3] += rule.total

    for c in topo.class_not:
        cell_contrib(bg, int(c), u_bg, p_bg,
                     triangle_rule(bg.cell_points[int(c)], order))
    for c in topo.class_partial:
        cell_contrib(bg, int(c), u_bg, p_bg, topo.physical_rule(int(c), order))
    for c in space.fluid_cells:
        cell_contrib(fr, int(c), u_fr, p_fr,
                     triangle_rule(fr.cell_points[int(c)], order))

    p_sq = acc[1]
    if mean_shift and acc[3] > 0:
        p_sq = max(acc[1] - acc[2] ** 2 / acc[3], 0.0)
    return float(np.sqrt(acc[0])), float(np.sqrt(p_sq))
