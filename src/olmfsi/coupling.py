"""Partitioned FSI driver: fluid traction transfer, dynamic relaxation and
the Dirichlet-Neumann fixed-point iteration.

``fsi_outer_iteration`` is one pass: deform the composite moving mesh,
rebuild the overlap topology, solve the fluid on the current configuration
and solve the solid under the weighted boundary traction as a nodal load.
``fsi_fixed_point`` is the loop around it: the load ramp, Aitken
relaxation, the mesh motion, the stop test and one row per iteration.  A
run sets up once the solid problem with its body load, the factored
mesh-motion operator and one ``stokes.FarField`` for all its fluid solves:
the background far from the front, if it holds most of the fluid dofs, is
factored once and condensed onto a rim; with an empty far set each pass
solves the whole fluid system.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .mesh import Mesh, FLUID, SOLID, region_interface_vertices
from .geometry import build_topology
from .stokes import (CompositeSpace, FarField, FluidProblem, solve_stokes,
                     FluidSolution, FRONT)
from .solid import (Material, SolidProblem, solve_newton, body_load, cell_loads,
                    p1_mass_matrix, InvertedElementError)
from .motion import MeshMotionProblem, solve_mesh_motion, deform_mesh


class FixedPointError(RuntimeError):
    def __init__(self, message, increments):
        super().__init__(message)
        self.increments = increments


class TractionMappingError(RuntimeError):
    pass


def aitken_update(omega_prev, du_k, du_next, omega_max):
    """Dynamic relaxation factor from two successive displacement increments.

    Degenerate increments keep the previous factor; the result is clamped
    into [0.05, omega_max].
    """
    du_k = np.asarray(du_k, float).ravel()
    du_next = np.asarray(du_next, float).ravel()
    diff = du_next - du_k
    denom = float(diff @ diff)
    if denom == 0.0 or not np.isfinite(denom):
        return float(omega_prev)
    omega = -float(omega_prev) * float(du_k @ diff) / denom
    return float(min(max(omega, 0.05), omega_max))


def traction_functional(solution, fluid, interface_nodes):
    """Nodal fluid load on the structure at the interface nodes, from a
    solution of the ``FluidProblem`` fluid, whose viscosity and body force
    it reads.

    Each interface node's hat function on the front fluid mesh acts as the
    extension of the corresponding structure test function; the functional
    pairs the discrete fluid stress against its gradient over the one-ring,
    which evaluates the weighted boundary traction far more accurately than
    direct line integration of the stress.
    """
    space = solution.space
    front = space.front
    nodes = np.asarray(interface_nodes, dtype=np.int64)
    cells = space.fluid_cells
    conn = front.cells[cells]
    dry = nodes[space.fr_vmap[nodes] < 0]
    if len(dry):
        raise TractionMappingError(
            f"interface node {int(dry[0])} has no adjacent fluid cell")
    G = front.p1_grads[cells]                                     # (c, a, j)
    A = front.cell_areas[cells][:, None, None]
    u2, p2 = solution.velocity(FRONT)[conn], solution.pressure(FRONT)[conn]
    gradu = np.einsum("cai,caj->cij", u2, G)
    sig = fluid.viscosity * gradu - p2.mean(axis=1)[:, None, None] * np.eye(2)
    terms = [-(A * (sig[:, None] @ G[..., None])[..., 0])]      # (c, a, i)
    if fluid.body_force is not None:
        terms.append(cell_loads(front, cells, fluid.body_force))
    # stress, then body term, cell after cell: every node sums its one-ring
    # in the order of a loop over the ring
    load = np.zeros((front.nv, 2))
    np.add.at(load, np.repeat(conn[:, None], len(terms), axis=1), np.stack(terms, axis=1))
    return load[nodes]


@dataclass
class FsiConfig:
    """Outer-loop controls for the fixed-point iteration.

    ``load_ramp`` > 0 scales the fluid traction and the auxiliary solid load
    (not the solid body force) by min(1, k/load_ramp) over the first outer
    iterations; with a linear fluid this equals ramping the
    flow data itself and tames strongly loaded first iterates.  Convergence
    is only declared once the full load is active.
    """
    tol: float = 1e-3
    max_outer: int = 50
    omega_max: float = 1.5
    omega0: float = 1.0
    load_ramp: int = 0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if not (0.0 < self.omega0 <= self.omega_max):
            raise ValueError("need 0 < omega0 <= omega_max")
        if self.load_ramp < 0:
            raise ValueError("load_ramp must be non-negative")


@dataclass
class FsiProblem:
    """Geometry and physics inputs of one stationary FSI problem.  All fluid
    boundary edges of the FLUID/SOLID front may couple, the fluid has no
    pressure pin and the mesh motion has a unit pseudo-material."""
    background: Mesh
    front_ref: Mesh
    fluid: FluidProblem
    solid_material: Material
    bg_dirichlet: dict = field(default_factory=dict)
    front_dirichlet: dict = field(default_factory=dict)
    solid_body_force: object = None
    solid_dirichlet: dict = field(default_factory=dict)
    solid_clamped_nodes: np.ndarray = ()     # held at zero displacement
    solid_extra_load: np.ndarray | None = None
    motion_pinned_nodes: np.ndarray = ()     # fluid vertices the motion keeps in place


@dataclass
class FsiState:
    """Converged (or last) iterate of the fixed-point loop."""
    solid_displacement: np.ndarray
    mesh_displacement: np.ndarray
    fluid: FluidSolution
    omegas: list
    increments: list
    iterations: int
    topo: object            # of the last pass; topo.front is the current front
    solid_newton_iters: list


def _setup(problem):
    """What a run sets up once: the solid problem, its body load, the
    auxiliary load (0.0 for none), the solid's P1 mass matrix, the solid
    and interface vertices, the factored mesh-motion operator and the fluid
    ``FarField`` (its far set chosen on the first fluid solve)."""
    mesh = problem.front_ref
    solid = SolidProblem(mesh, problem.solid_material, SOLID,
                         problem.solid_dirichlet, problem.solid_clamped_nodes)
    extra = problem.solid_extra_load
    if extra is None:
        extra = 0.0
    else:
        solid.gather(extra)      # raises ValueError unless shaped (nv, 2)
    body = body_load(mesh, solid.cells, problem.solid_body_force)
    mass = p1_mass_matrix(mesh, solid.cells)
    solid_verts = np.flatnonzero(solid.vmap >= 0)
    iface = region_interface_vertices(mesh, FLUID, SOLID)
    motion = MeshMotionProblem(mesh, iface, FLUID, problem.motion_pinned_nodes)
    return SimpleNamespace(problem=problem, solid=solid, body=body, extra=extra,
                           mass=mass, solid_verts=solid_verts, iface=iface,
                           motion=motion, far=FarField())


def fsi_outer_iteration(run, us, um, alpha):
    """One Dirichlet-Neumann pass of a run set up by ``_setup`` at the
    configuration of the solid displacement us and the mesh motion um:
    deform, fluid through the run's ``FarField``, traction, and the solid
    under body + alpha * (traction + extra), warm-started at us.  Returns
    the solid and fluid solutions, the deformed front and its topology."""
    problem = run.problem
    disp = um.copy()             # mesh motion, solid values on the solid
    disp[run.solid_verts] = us[run.solid_verts]
    front = deform_mesh(problem.front_ref, disp)
    topo = build_topology(problem.background, front)
    space = CompositeSpace(problem.background, front, topo,
                           bg_dirichlet=problem.bg_dirichlet,
                           front_dirichlet=problem.front_dirichlet)
    fluid_sol = solve_stokes(problem.fluid, space, topo, run.far)
    traction = np.zeros((problem.front_ref.nv, 2))
    traction[run.iface] = traction_functional(fluid_sol, problem.fluid, run.iface)
    ssol = _solve_solid(run.solid, run.body + alpha * (traction + run.extra), us)
    return ssol, fluid_sol, front, topo


def _solve_solid(solid, load, warm_start):
    """Newton solve warm-started at the current outer iterate.

    One loop over a stack of load factors, the full load first: a stage
    whose Newton step inverts an element pushes the midpoint between the
    last good factor and its own (adaptive bisection continuation), and
    every stage starts from the last good state.
    """
    u = warm_start
    s_done = 0.0
    targets = [1.0]
    total_iters = 0
    while targets:
        s = targets[-1]
        try:
            sol = solve_newton(solid, s * load, rtol=1e-12, u0=u)
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

    Starts from zero displacements, runs ``fsi_outer_iteration`` under the
    ramped load factor, relaxes its solid update by Aitken's method and
    stops when the relative mass-norm increment of the solid displacement
    drops below config.tol under the full load.  Each iteration keeps one
    row (k, omega, increment, fluid dofs, cut cells, solid Newton
    iterations); the state, the error and the log, written also when the
    run fails, are read off the rows.
    """
    config = config or FsiConfig()
    run = _setup(problem)

    def mnorm(fld):
        return float(np.sqrt(sum(col @ (run.mass @ col) for col in fld.T)))

    us = np.zeros((problem.front_ref.nv, 2))
    um = np.zeros((problem.front_ref.nv, 2))
    omega = config.omega0
    r_prev = None
    rows = []

    try:
        for k in range(1, config.max_outer + 1):
            alpha = 1.0 if config.load_ramp == 0 else min(1.0, k / config.load_ramp)
            ssol, fluid_sol, _, topo = fsi_outer_iteration(run, us, um, alpha)
            r = (ssol.displacement - us).ravel()
            if r_prev is not None:
                omega = aitken_update(omega, r_prev, r, config.omega_max)
            us_new = us + omega * r.reshape(-1, 2)
            inc = us_new - us
            denom = mnorm(us_new)
            rel = 0.0 if denom <= 1e-300 else mnorm(inc) / denom
            um = solve_mesh_motion(run.motion, us_new[run.iface])
            r_prev = r
            us = us_new
            rows.append((k, omega, rel, fluid_sol.space.ndof, len(topo.class_partial),
                         ssol.iterations))
            if rel <= config.tol and alpha >= 1.0:
                _, omegas, increments, _, _, newton = map(list, zip(*rows))
                return FsiState(us, um, fluid_sol, omegas, increments, k, topo, newton)
        raise FixedPointError(
            f"fixed point did not converge in {config.max_outer} iterations "
            f"(last relative increment {rel:.3e})", [row[2] for row in rows])
    finally:
        _write_log(log_path, rows)


def _write_log(log_path, rows):
    if log_path is None or not rows:
        return
    new = not os.path.exists(log_path)
    with open(log_path, "a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(["k", "omega", "increment", "fluid_dofs", "cut_cells"])
        w.writerows(row[:5] for row in rows)
