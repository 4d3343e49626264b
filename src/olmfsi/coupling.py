"""Partitioned FSI driver: fluid traction transfer, dynamic relaxation and
the Dirichlet-Neumann fixed-point iteration.

Each outer iteration deforms the composite moving mesh, rebuilds the overlap
topology, solves the fluid on the current configuration, feeds the weighted
boundary traction to the solid as a nodal load, relaxes the displacement
update and re-extends it into the fluid mesh.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, FLUID, SOLID, region_interface_vertices
from .geometry import build_topology, tri_rule
from .stokes import (CompositeSpace, FluidProblem, solve_stokes,
                     FluidSolution, FRONT, _eval_vec)
from .solid import (Material, SolidProblem, solve_newton, p1_mass_matrix,
                    InvertedElementError)
from .motion import MeshMotionProblem, solve_mesh_motion, deform_mesh


class FixedPointError(RuntimeError):
    def __init__(self, message, increments):
        super().__init__(message)
        self.increments = increments


class TractionMappingError(RuntimeError):
    pass


def aitken_update(omega_prev, du_k, du_next, omega_max, omega_min=0.05):
    """Dynamic relaxation factor from two successive displacement increments.

    Degenerate increments keep the previous factor; the result is clamped
    into [omega_min, omega_max].
    """
    du_k = np.asarray(du_k, float).ravel()
    du_next = np.asarray(du_next, float).ravel()
    diff = du_next - du_k
    denom = float(diff @ diff)
    if denom == 0.0 or not np.isfinite(denom):
        return float(omega_prev)
    omega = -float(omega_prev) * float(du_k @ diff) / denom
    return float(min(max(omega, omega_min), omega_max))


def traction_functional(solution, body_force, space, topo, interface_nodes):
    """Nodal fluid load on the structure at the interface nodes.

    Each interface node's hat function on the front fluid mesh acts as the
    extension of the corresponding structure test function; the functional
    pairs the discrete fluid stress against its gradient over the one-ring,
    which evaluates the weighted boundary traction far more accurately than
    direct line integration of the stress.
    """
    front = space.front
    nu = solution.viscosity
    if nu is None:
        raise ValueError("solution carries no viscosity; use solve_stokes")
    u2 = solution.velocity(FRONT)
    p2 = solution.pressure(FRONT)
    fluid_set = set(int(c) for c in space.fluid_cells)
    lam_q, w_q = tri_rule(2)

    out = np.zeros((len(interface_nodes), 2))
    for idx, v in enumerate(interface_nodes):
        ring = [c for c in front.vertex_cells[int(v)] if c in fluid_set]
        if not ring:
            raise TractionMappingError(
                f"interface node {int(v)} has no adjacent fluid cell")
        val = np.zeros(2)
        for c in ring:
            conn = front.cells[c]
            g = front.p1_grads[c]
            a = front.cell_areas[c]
            local = int(np.flatnonzero(conn == v)[0])
            gv = g[local]
            gradu = np.einsum("ai,aj->ij", u2[conn], g)
            sig = nu * gradu - np.mean(p2[conn]) * np.eye(2)
            val -= a * (sig @ gv)
            if body_force is not None:
                pts = lam_q @ front.cell_points[c]
                fv = _eval_vec(body_force, pts)
                val += a * np.einsum("q,q,qi->i", w_q, lam_q[:, local], fv)
        out[idx] = val
    return out


@dataclass
class FsiConfig:
    """Outer-loop controls for the fixed-point iteration.

    ``load_ramp`` > 0 scales the fluid traction by min(1, k/load_ramp) over
    the first outer iterations; with a linear fluid this equals ramping the
    flow data itself and tames strongly loaded first iterates.  Convergence
    is only declared once the full load is active.
    """
    tol: float = 1e-3
    max_outer: int = 50
    omega_max: float = 1.5
    omega0: float = 1.0
    omega_min: float = 0.05
    use_aitken: bool = True
    newton_tol: float = 1e-10
    newton_maxit: int = 25
    quad_order: int = 2
    load_ramp: int = 0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if not (0.0 < self.omega0 <= self.omega_max):
            raise ValueError("need 0 < omega0 <= omega_max")
        if self.load_ramp < 0:
            raise ValueError("load_ramp must be non-negative")


@dataclass
class FsiProblem:
    """Geometry and physics inputs of one stationary FSI problem."""
    background: Mesh
    front_ref: Mesh
    fluid: FluidProblem
    solid_material: Material
    bg_dirichlet: dict = field(default_factory=dict)
    front_dirichlet: dict = field(default_factory=dict)
    ff_markers: object = None
    solid_body_force: object = None
    solid_dirichlet: dict = field(default_factory=dict)
    solid_dirichlet_nodes: tuple = None      # (node_ids, values (k, 2))
    solid_extra_load: np.ndarray | None = None
    motion_mu: float = 1.0
    motion_lam: float = 1.0
    motion_extra_dirichlet: tuple = None     # (node_ids, values (k, 2))
    fluid_tag: int = FLUID
    solid_tag: int = SOLID
    pin_pressure: bool = False


@dataclass
class FsiState:
    """Converged (or last) iterate of the fixed-point loop."""
    solid_displacement: np.ndarray
    mesh_displacement: np.ndarray
    fluid: FluidSolution
    omegas: list
    increments: list
    iterations: int
    front_current: Mesh = None
    topo: object = None
    space: object = None
    solid_newton_iters: list = field(default_factory=list)


def combined_displacement(front_ref, us, um, fluid_tag=FLUID, solid_tag=SOLID):
    """Per-vertex composite displacement: solid values on solid vertices,
    mesh-motion values elsewhere (they agree at the interface)."""
    disp = np.array(um, float, copy=True)
    solid_verts = np.unique(front_ref.cells[front_ref.region_tags == solid_tag])
    disp[solid_verts] = us[solid_verts]
    return disp


def fsi_outer_iteration(problem, config, us, um, load_scale=1.0):
    """One pass of the fixed-point loop body; returns the raw solid update
    and the solved fluid state on the current configuration."""
    front = deform_mesh(problem.front_ref, combined_displacement(
        problem.front_ref, us, um, problem.fluid_tag, problem.solid_tag))
    topo = build_topology(problem.background, front,
                          order=problem.fluid.quad_order,
                          ff_markers=problem.ff_markers,
                          solid_tag=problem.solid_tag,
                          fluid_tag=problem.fluid_tag)
    space = CompositeSpace(problem.background, front, topo,
                           fluid_tag=problem.fluid_tag,
                           bg_dirichlet=problem.bg_dirichlet,
                           front_dirichlet=problem.front_dirichlet,
                           interface_g="zero",
                           solid_tag=problem.solid_tag,
                           pin_pressure=problem.pin_pressure)
    sol = solve_stokes(problem.fluid, space, topo)

    iface = region_interface_vertices(problem.front_ref, problem.fluid_tag,
                                      problem.solid_tag)
    load = np.zeros((problem.front_ref.nv, 2))
    load[iface] = traction_functional(sol, problem.fluid.body_force, space, topo,
                                      iface)
    if problem.solid_extra_load is not None:
        load = load + problem.solid_extra_load
    if load_scale != 1.0:
        load = load_scale * load

    solid = SolidProblem(problem.front_ref, problem.solid_material,
                         region_tag=problem.solid_tag,
                         body_force=problem.solid_body_force,
                         dirichlet=problem.solid_dirichlet,
                         dirichlet_nodes=problem.solid_dirichlet_nodes or (),
                         interface_load=load,
                         quad_order=config.quad_order)
    ssol = _solve_solid(solid, config, us)
    return ssol, sol, front, topo, space, iface


def _scaled(fn, s):
    if fn is None:
        return None
    wrapped = lambda x, _f=fn, _s=s: _s * np.asarray(_f(x))
    wrapped.vectorized = getattr(fn, "vectorized", False)
    return wrapped


def _scaled_loads(solid, s):
    scaled_n = {m: _scaled(t, s) for m, t in solid.neumann.items()}
    load = None if solid.interface_load is None else s * solid.interface_load
    return SolidProblem(solid.mesh, solid.material, solid.region_tag,
                        _scaled(solid.body_force, s), solid.dirichlet,
                        solid.dirichlet_nodes, scaled_n, load, solid.quad_order)


def _solve_solid(solid, config, warm_start):
    """Newton solve warm-started at the current outer iterate.

    If a full Newton step inverts an element, the loads are ramped by
    adaptive bisection continuation: each stage re-solves at an
    intermediate load factor starting from the last good state.
    """
    try:
        return solve_newton(solid, tol=config.newton_tol,
                            maxit=config.newton_maxit, rtol=1e-12,
                            u0=warm_start)
    except InvertedElementError:
        pass
    u = warm_start
    s_done = 0.0
    targets = [1.0]
    total_iters = 0
    sol = None
    while targets:
        s = targets[-1]
        try:
            sol = solve_newton(_scaled_loads(solid, s), tol=config.newton_tol,
                               maxit=config.newton_maxit, rtol=1e-12, u0=u)
        except InvertedElementError:
            if s - s_done < 1.0 / 64.0:
                raise
            targets.append(0.5 * (s_done + s))
            continue
        targets.pop()
        total_iters += sol.iterations
        u = sol.displacement
        s_done = s
    sol.iterations = total_iters
    return sol


def fsi_fixed_point(problem, config=None, log_path=None):
    """Dirichlet-Neumann iteration with dynamic relaxation.

    Starts from zero displacements, rebuilds the overlap geometry on every
    pass and stops when the relative L2 increment of the solid displacement
    drops below config.tol.
    """
    config = config or FsiConfig()
    mesh = problem.front_ref
    solid_cells = mesh.region_cells(problem.solid_tag)
    mass = p1_mass_matrix(mesh, solid_cells)

    def mnorm(fld):
        return float(np.sqrt(sum(col @ (mass @ col) for col in fld.T)))

    us = np.zeros((mesh.nv, 2))
    um = np.zeros((mesh.nv, 2))
    omega = config.omega0
    r_prev = None
    omegas, increments, newton_iters = [], [], []
    log_rows = []
    state = None

    for k in range(1, config.max_outer + 1):
        alpha = 1.0 if config.load_ramp == 0 else min(1.0, k / config.load_ramp)
        ssol, fluid_sol, front, topo, space, iface = fsi_outer_iteration(
            problem, config, us, um, load_scale=alpha)
        newton_iters.append(ssol.iterations)
        r = (ssol.displacement - us).ravel()
        if config.use_aitken and r_prev is not None:
            omega = aitken_update(omega, r_prev, r, config.omega_max,
                                  config.omega_min)
        elif not config.use_aitken:
            omega = 1.0
        us_new = us + omega * r.reshape(-1, 2)
        omegas.append(omega)

        inc = us_new - us
        denom = mnorm(us_new)
        rel = 0.0 if denom <= 1e-300 else mnorm(inc) / denom
        increments.append(rel)

        extra_nodes = extra_vals = None
        if problem.motion_extra_dirichlet is not None:
            extra_nodes, extra_vals = problem.motion_extra_dirichlet
        motion = MeshMotionProblem(mesh, iface, us_new[iface],
                                   region_tag=problem.fluid_tag,
                                   mu=problem.motion_mu, lam=problem.motion_lam,
                                   extra_nodes=extra_nodes,
                                   extra_values=extra_vals)
        um = solve_mesh_motion(motion)
        r_prev = r
        us = us_new
        log_rows.append((k, omega, rel, space.ndof, len(topo.class_partial)))

        state = FsiState(us, um, fluid_sol, omegas, increments, k,
                         front_current=front, topo=topo, space=space,
                         solid_newton_iters=newton_iters)
        if rel <= config.tol and alpha >= 1.0:
            break
    else:
        _write_log(log_path, log_rows)
        raise FixedPointError(
            f"fixed point did not converge in {config.max_outer} iterations "
            f"(last relative increment {increments[-1]:.3e})", increments)

    _write_log(log_path, log_rows)
    return state


def _write_log(log_path, rows):
    if log_path is None or not rows:
        return
    new = not os.path.exists(log_path)
    with open(log_path, "a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(["k", "omega", "increment", "fluid_dofs", "cut_cells"])
        for row in rows:
            w.writerow(row)
