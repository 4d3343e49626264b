"""Manufactured solutions, convergence studies and the elastic-flap demo.

The coupled manufactured problem is a layered strip: a channel-like fluid
on (0, L) x (0, Rf) whose upper part moves, topped by an elastic layer of
thickness Hs.  The solid displacement is a prescribed vertical bump
H(x) = Hs * 2 x (1 - x); the fluid map stretches the strip vertically,
(x, y) -> (x, y (1 + H(x)/Rf)), and the fluid velocity is the Piola
transform of a reference parabolic profile, which keeps it exactly
divergence free on the deformed domain.  All forcing terms, the outflow
traction and the auxiliary interface traction (compensating the stress
jump the constructed fields leave behind) are written in closed form
through the chain rule in H, H' and J = 1 + H/Rf.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .mesh import (Mesh, build_rect_mesh, build_tensor_mesh, region_boundary_edges,
                   FLUID, SOLID, LEFT, RIGHT, BOTTOM, TOP, GAMMA_FF)
from .geometry import build_topology
from .stokes import CompositeSpace, FluidProblem, solve_stokes, error_norms, BG, FRONT
from .solid import Material, STVK, edge_load, h1_error
from .coupling import FsiProblem, FsiConfig, fsi_fixed_point
from .vtkio import write_vtk_mesh, write_vtk_topology


# -- closed-form field helpers ------------------------------------------------


def _xy(pts):
    pts = np.asarray(pts, float).reshape(-1, 2)
    return pts[:, 0], pts[:, 1]


def _vec(a, b):
    """(n, 2) stack of the components a, b (arrays or scalars)."""
    return np.stack(np.broadcast_arrays(a, b), axis=-1)


def _mat(a, b, c, d):
    """(n, 2, 2) stack of [[a, b], [c, d]]."""
    return np.stack(np.broadcast_arrays(a, b, c, d), axis=-1).reshape(-1, 2, 2)


# -- fluid-only manufactured problem ---------------------------------------


@dataclass
class ManufacturedStokes2d:
    """Smooth divergence-free field on the unit square with matching force."""
    viscosity: float
    u: object
    grad_u: object
    p: object
    f: object


def build_manufactured_stokes(viscosity=1.0):
    """u = curl of psi = sin(pi x) sin(pi y) / pi, so -lap u = 2 pi^2 u;
    p = sin(pi x) sin(pi y) - 4/pi^2 and f = 2 nu pi^2 u + grad p."""
    pi = np.pi

    def trig(pts):
        x, y = _xy(pts)
        return np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)

    def u(pts):
        sx, cx, sy, cy = trig(pts)
        return _vec(sx * cy, -cx * sy)

    def grad_u(pts):
        sx, cx, sy, cy = trig(pts)
        return _mat(pi * cx * cy, -pi * sx * sy, pi * sx * sy, -pi * cx * cy)

    def p(pts):
        sx, _, sy, _ = trig(pts)
        return sx * sy - 4.0 / pi ** 2

    def f(pts):
        sx, cx, sy, cy = trig(pts)
        return 2.0 * viscosity * pi ** 2 * u(pts) + pi * _vec(cx * sy, sx * cy)

    return ManufacturedStokes2d(viscosity=viscosity, u=u, grad_u=grad_u, p=p, f=f)


# -- coupled manufactured problem -------------------------------------------


@dataclass
class ManufacturedFsi2d:
    """Closed-form fields of the layered-strip FSI reference problem."""
    L: float
    Rf: float
    R1: float
    Hs: float
    U0: float
    viscosity: float
    material: Material
    u: object
    grad_u: object
    p: object
    f: object
    fluid_traction: object       # (points, normal) -> traction of nu*grad(u) - p I
    us: object                   # solid displacement, reference coords
    grad_us: object
    f_solid: object
    t_a: object                  # auxiliary traction on the reference interface
    um: object                   # exact fluid-domain stretching displacement
    div_u: object


def build_manufactured(L=1.0, Rf=0.4, R1=0.3, Hs=0.1, U0=1.0,
                       viscosity=0.001, E_s=10.0, nu_s=0.3):
    if min(L, Rf, R1, Hs, U0, viscosity, E_s) <= 0 or not 0 < nu_s < 0.5 \
            or R1 >= Rf:
        raise ValueError("need positive parameters, R1 < Rf and nu_s in (0, 0.5)")
    nu, Hpp = viscosity, -4.0 * Hs       # H'' (H is quadratic)

    def bump(x):
        """H, H' and a = 1/J, J = 1 + H/Rf, with its x-derivatives a', a''."""
        H, Hp = Hs * 2 * x * (1 - x), 2 * Hs * (1 - 2 * x)
        a = 1.0 / (1 + H / Rf)
        return H, Hp, a, -Hp / Rf * a ** 2, -Hpp / Rf * a ** 2 + 2 * (Hp / Rf) ** 2 * a ** 3

    def flow(x, y):
        """Velocity, its gradient and its Laplacian.  The velocity is the
        Piola transform of U0 (y (Rf - y), 0) under (x, y) -> (x, y J):
        u_x = U0 (Rf y a^2 - y^2 a^3) and u_y = u_x q with q = y H' a / Rf."""
        _, Hp, a, ap, app = bump(x)
        ux = U0 * (Rf * y * a ** 2 - y ** 2 * a ** 3)
        ux_x = U0 * (2 * Rf * y * a - 3 * y ** 2 * a ** 2) * ap
        ux_y = U0 * (Rf * a ** 2 - 2 * y * a ** 3)
        lap_x = U0 * (2 * Rf * y * (ap ** 2 + a * app)
                      - 3 * y ** 2 * (2 * a * ap ** 2 + a ** 2 * app) - 2 * a ** 3)
        q, q_x, q_y = y * Hp * a / Rf, y * (Hpp * a + Hp * ap) / Rf, Hp * a / Rf
        q_xx = y * (2 * Hpp * ap + Hp * app) / Rf
        grad = _mat(ux_x, ux_y, ux_x * q + ux * q_x, ux_y * q + ux * q_y)
        lap = _vec(lap_x, lap_x * q + 2 * (ux_x * q_x + ux_y * q_y) + ux * q_xx)
        return _vec(ux, ux * q), grad, lap

    def sigma(x, y):
        return nu * flow(x, y)[1] - (1 - x)[:, None, None] * np.eye(2)

    # solid: vertical bump, St. Venant-Kirchhoff, plane strain; with
    # F = [[1, 0], [H', 1]] the Green strain is [[H'^2, H'], [H', 0]] / 2
    # and Pi = F S = [[c H'^2, mu H'], [c H'^3 + mu H', c H'^2]], c = mu + lam/2
    material = Material.from_young_poisson(E_s, nu_s, STVK)
    mu, c = material.mu, material.mu + material.lam / 2

    def f_solid(pts):                    # -d/dx Pi[:, 0]; fields depend on x only
        Hp = bump(_xy(pts)[0])[1]
        return _vec(-2 * c * Hp * Hpp, -(3 * c * Hp ** 2 + mu) * Hpp)

    def t_a(pts):
        # auxiliary traction on the reference interface y = Rf: Pi applied to
        # the solid-outward normal (0, -1), minus sigma on the deformed
        # interface y = Rf J applied to the Nanson vector J F^{-T} n = (H', -1)
        x, _ = _xy(pts)
        _, Hp, a, _, _ = bump(x)
        return (-_vec(mu * Hp, c * Hp ** 2)
                - np.einsum("nij,nj->ni", sigma(x, Rf / a), _vec(Hp, -1.0)))

    return ManufacturedFsi2d(
        L=L, Rf=Rf, R1=R1, Hs=Hs, U0=U0, viscosity=viscosity, material=material,
        fluid_traction=lambda pts, n: sigma(*_xy(pts)) @ np.asarray(n, float),
        u=lambda pts: flow(*_xy(pts))[0],
        grad_u=lambda pts: flow(*_xy(pts))[1],
        p=lambda pts: 1 - _xy(pts)[0],
        f=lambda pts: -nu * flow(*_xy(pts))[2] - [1.0, 0.0],
        div_u=lambda pts: np.trace(flow(*_xy(pts))[1], axis1=1, axis2=2),
        us=lambda pts: _vec(0.0, bump(_xy(pts)[0])[0]),
        grad_us=lambda pts: _mat(0.0, 0.0, bump(_xy(pts)[0])[1], 0.0),
        f_solid=f_solid,
        t_a=t_a,
        um=lambda pts: _vec(0.0, _xy(pts)[1] * bump(_xy(pts)[0])[0] / Rf))


def remark_edges(mesh, markers):
    """The mesh with new boundary markers, one per boundary edge."""
    return Mesh(mesh.vertices, mesh.cells, mesh.boundary_edges,
                np.asarray(markers, dtype=np.int64), mesh.region_tags, validate=False)


def manufactured_meshes(level, mf=None):
    """Background (8 s x 4 s squares on (0, L) x (0, 0.38), s = 2^level) and
    composite front (8 s columns, 2 s fluid rows on (R1, Rf), 2 s solid above)."""
    mf = mf or build_manufactured()
    s = 2 ** level
    bg = build_rect_mesh(8 * s, 4 * s, [(0.0, 0.0), (mf.L, 0.38)])
    xs = np.linspace(0.0, mf.L, 8 * s + 1)
    ys = np.concatenate([np.linspace(mf.R1, mf.Rf, 2 * s + 1),
                         np.linspace(mf.Rf, mf.Rf + mf.Hs, 2 * s + 1)[1:]])
    front = build_tensor_mesh(xs, ys,
                              region_fn=lambda c: SOLID if c[1] > mf.Rf else FLUID)
    m = front.boundary_markers
    front = remark_edges(front, np.where(m == BOTTOM, GAMMA_FF, m))
    return bg, front


def interface_load_vector(mesh, traction_fn):
    """Nodal load from a traction prescribed on the reference interface
    (the solid region's edges shared with another region)."""
    edges, _, _, other = region_boundary_edges(mesh, SOLID)
    return edge_load(mesh, edges[other >= 0], traction_fn)


def manufactured_fsi_problem(mf, level):
    """Assemble the FsiProblem for one refinement level."""
    bg, front = manufactured_meshes(level, mf)
    fluid = FluidProblem(
        viscosity=mf.viscosity,
        body_force=mf.f,
        neumann=((BG, RIGHT, mf.fluid_traction), (FRONT, RIGHT, mf.fluid_traction)),
    )

    extra = interface_load_vector(front, mf.t_a)
    # pin the moving mesh at the channel ends: the exact stretching keeps
    # the inlet/outlet planes fixed, and letting them drift would punch
    # uncovered slivers into the mesh union near the background corners
    fluid_verts = np.flatnonzero(front.vertex_slots(front.region_cells(FLUID)) >= 0)
    on_ends = fluid_verts[(np.abs(front.vertices[fluid_verts, 0]) < 1e-12)
                          | (np.abs(front.vertices[fluid_verts, 0] - mf.L) < 1e-12)]
    # all fluid-adjacent boundary edges may couple: any part interior to
    # the background must be tied to the background field
    return FsiProblem(
        background=bg,
        front_ref=front,
        fluid=fluid,
        solid_material=mf.material,
        bg_dirichlet={LEFT: mf.u, BOTTOM: mf.u},
        front_dirichlet={LEFT: mf.u},
        solid_body_force=mf.f_solid,
        solid_dirichlet={LEFT: mf.us, RIGHT: mf.us, TOP: mf.us},
        solid_extra_load=extra,
        motion_pinned_nodes=on_ends,
    )


# -- convergence reporting ---------------------------------------------------


def eoc_sequence(errors):
    """log2 of successive error ratios; first entry is None."""
    out = [None]
    for a, b in zip(errors[:-1], errors[1:]):
        out.append(float(np.log2(a / b)) if a > 0 and b > 0 else None)
    return out


@dataclass
class ConvergenceReport:
    """Per-level mesh sizes, errors, convergence orders and iteration counts."""
    hs: list = field(default_factory=list)
    err_u: list = field(default_factory=list)
    err_p: list = field(default_factory=list)
    err_s: list = field(default_factory=list)      # may hold None entries
    iters: list = field(default_factory=list)
    eoc_u: list = field(default_factory=list)
    eoc_p: list = field(default_factory=list)
    eoc_s: list = field(default_factory=list)

    def add(self, h, err_u, err_p, err_s=None, iters=None):
        self.hs.append(float(h))
        self.err_u.append(float(err_u))
        self.err_p.append(float(err_p))
        self.err_s.append(None if err_s is None else float(err_s))
        self.iters.append(iters)
        self._recompute()

    def _recompute(self):
        self.eoc_u = eoc_sequence(self.err_u)
        self.eoc_p = eoc_sequence(self.err_p)
        if any(e is not None for e in self.err_s):
            self.eoc_s = eoc_sequence([e for e in self.err_s])
        else:
            self.eoc_s = [None] * len(self.err_s)

    def rows(self):
        def fmt(v):
            return "" if v is None else repr(v)
        for k in range(len(self.hs)):
            yield [k, repr(self.hs[k]), repr(self.err_u[k]), fmt(self.eoc_u[k]),
                   repr(self.err_p[k]), fmt(self.eoc_p[k]),
                   fmt(self.err_s[k]), fmt(self.eoc_s[k]), fmt(self.iters[k])]

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["level", "h", "err_u_h1", "eoc_u", "err_p_l2", "eoc_p",
                        "err_s_h1", "eoc_s", "iters"])
            for row in self.rows():
                w.writerow(row)


# -- runners ------------------------------------------------------------------


def stokes_patch_setup(level, patch=(0.2731, 0.3231, 0.6331, 0.6831)):
    """The unit-square background (8 s x 8 s squares, s = 2^level) and the
    patch (x0, y0, x1, y1) meshed with 4 s x 4 s squares."""
    s = 2 ** level
    bg = build_rect_mesh(8 * s, 8 * s, [(0.0, 0.0), (1.0, 1.0)])
    x0, y0, x1, y1 = patch
    fr = build_rect_mesh(4 * s, 4 * s, [(x0, y0), (x1, y1)])
    return bg, fr


def run_stokes_convergence(levels=4, viscosity=1.0, gamma=10.0, delta=0.5,
                           out_dir=None, verbose=False):
    """Fluid-only convergence study on overlapping meshes.

    A smooth manufactured solution is solved on a fixed background square
    overlapped by an interior patch mesh; both meshes are refined uniformly.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    ms = build_manufactured_stokes(viscosity)

    report = ConvergenceReport()
    for lvl in range(levels):
        bg, fr = stokes_patch_setup(lvl)
        topo = build_topology(bg, fr)
        space = CompositeSpace(bg, fr, topo,
                               bg_dirichlet={m: ms.u for m in (LEFT, RIGHT, BOTTOM, TOP)},
                               pin_pressure=True)
        prob = FluidProblem(viscosity=viscosity, body_force=ms.f,
                            gamma=gamma, delta=delta)
        sol = solve_stokes(prob, space, topo)
        eu, ep = error_norms(sol, ms.grad_u, ms.p, topo, order=4)
        report.add(bg.cell_diameters.max(), eu, ep)
        if verbose:
            print(f"level {lvl}: h={report.hs[-1]:.4f} "
                  f"err_u={eu:.4e} err_p={ep:.4e}")
    if out_dir:
        write_outputs(None, report, out_dir)
        _write_fluid_fields(out_dir, sol, topo)
    return report


def run_convergence(levels=3, config=None, out_dir=None, verbose=False,
                    mf=None):
    """Full FSI manufactured convergence study (one fixed-point run per level)."""
    if levels < 2:
        raise ValueError("need at least 2 levels")
    mf = mf or build_manufactured()
    config = config or FsiConfig()
    log_path = _fresh_log(out_dir)

    report = ConvergenceReport()
    state = None
    for lvl in range(levels):
        problem = manufactured_fsi_problem(mf, lvl)
        state = fsi_fixed_point(problem, config, log_path=log_path)
        eu, ep = error_norms(state.fluid, mf.grad_u, mf.p, state.topo, order=4)
        es = h1_error(problem.front_ref,
                      problem.front_ref.region_cells(SOLID),
                      state.solid_displacement, mf.us, mf.grad_us)
        report.add(problem.background.cell_diameters.max(), eu, ep, es,
                   state.iterations)
        if verbose:
            print(f"level {lvl}: err_u={eu:.4e} err_p={ep:.4e} err_s={es:.4e} "
                  f"iters={state.iterations}")
    if out_dir:
        write_outputs(state, report, out_dir)
    return report


# -- elastic flap demo --------------------------------------------------------


FLAP_CHANNEL = (2.5, 0.41)
FLAP_SIZE = (0.06, 0.24)
FLAP_BASE = (1.25, 0.0)
FLAP_MARGIN = 0.08       # width of the fluid collar of the box around the flap
FLAP_UBAR = 0.45         # mean inflow velocity
FLAP_LOAD_RAMP = 4       # strong flap loads: ramp the first outer iterations


def _rotate(points, angle_deg, center):
    th = np.deg2rad(angle_deg)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return (np.asarray(points) - center) @ R.T + center


def flap_meshes(angle_deg=0.0, res=1):
    """Channel background mesh and the composite box around the flap.

    Upright (angle 0) the flap stands on the channel floor and the box
    bottom is flush with it.  Rotated, the whole box pivots about the flap
    base center; the flap is then fully surrounded by a fluid collar
    (including below its base, which acts as an immersed mount) and box
    parts leaving the channel simply stop participating in the coupling.
    Returns (background, box, clamp_nodes).
    """
    if res < 1:
        raise ValueError("res must be at least 1")
    Lc, Hc = FLAP_CHANNEL
    Ws, Hs = FLAP_SIZE
    cx, cy = FLAP_BASE
    margin = FLAP_MARGIN
    bg = build_rect_mesh(72 * res, 12 * res, [(0.0, 0.0), (Lc, Hc)])

    x0, x1 = cx - Ws / 2 - margin, cx + Ws / 2 + margin
    nm = max(2, int(np.ceil(margin / 0.03)) * res)      # cells across the collar
    nxf = max(2, int(np.ceil(Ws / 0.03)) * res)
    nyf = max(6, int(np.ceil(Hs / 0.03)) * res)
    xs = np.concatenate([np.linspace(x0, cx - Ws / 2, nm + 1),
                         np.linspace(cx - Ws / 2, cx + Ws / 2, nxf + 1)[1:],
                         np.linspace(cx + Ws / 2, x1, nm + 1)[1:]])
    ys = np.concatenate([np.linspace(0.0, Hs, nyf + 1),
                         np.linspace(Hs, Hs + margin, nm + 1)[1:]])
    if angle_deg != 0.0:
        # immersed mount: fluid collar below the flap base as well
        ys = np.concatenate([np.linspace(-margin, 0.0, nm + 1)[:-1], ys])

    def region(c):
        return SOLID if (abs(c[0] - cx) < Ws / 2 and 0.0 < c[1] < Hs) else FLUID

    box = build_tensor_mesh(xs, ys, region_fn=region)
    clamp = np.flatnonzero((np.abs(box.vertices[:, 1]) < 1e-12)
                           & (np.abs(box.vertices[:, 0] - cx) < Ws / 2 + 1e-12))

    # upright, the box bottom is flush with the channel floor
    flush = (box.boundary_markers == BOTTOM) & (angle_deg == 0.0)
    box = remark_edges(box, np.where(flush, BOTTOM, GAMMA_FF))

    if angle_deg != 0.0:
        box = Mesh(_rotate(box.vertices, angle_deg, np.array([cx, cy])),
                   box.cells, box.boundary_edges, box.boundary_markers,
                   box.region_tags, validate=False)
    return bg, box, clamp


def flap_problem(angle_deg=0.0, E_s=15.0, nu_s=0.3, viscosity=0.001,
                 res=1, gamma=10.0, delta=0.5):
    """Channel flow around an elastic flap, optionally rotated."""
    bg, box, clamp = flap_meshes(angle_deg, res)
    Lc, Hc = FLAP_CHANNEL

    def inflow(pts):
        y = pts[:, 1]
        return _vec(FLAP_UBAR * 4.0 * y * (Hc - y) / Hc ** 2, 0.0)

    def noslip(pts):
        return np.zeros((len(pts), 2))

    fluid = FluidProblem(viscosity=viscosity, body_force=None,
                         gamma=gamma, delta=delta)
    front_dirichlet = {} if angle_deg != 0.0 else {BOTTOM: noslip}
    floor = ()
    if angle_deg == 0.0:
        # the fluid collar rests on the channel floor and must not lift off,
        # otherwise covered floor cells next to the clamped flap base turn
        # into cut cells touching the solid
        fluid_verts = np.flatnonzero(box.vertex_slots(box.region_cells(FLUID)) >= 0)
        floor = fluid_verts[np.abs(box.vertices[fluid_verts, 1]) < 1e-12]
    return FsiProblem(
        background=bg,
        front_ref=box,
        fluid=fluid,
        solid_material=Material.from_young_poisson(E_s, nu_s, STVK),
        # the do-nothing outlet on the right fixes the pressure level
        bg_dirichlet={LEFT: inflow, BOTTOM: noslip, TOP: noslip},
        front_dirichlet=front_dirichlet,
        solid_clamped_nodes=clamp,
        motion_pinned_nodes=floor,
    )


def flap2d(angle_deg=0.0, config=None, out_dir=None, **kw):
    """Run the flap case to convergence and optionally write field output.

    The default configuration ramps the fluid load over the first outer
    iterations: the flap deforms strongly, and the uncoupled initial load
    overshoots what a static equilibrium supports on fine meshes.
    """
    problem = flap_problem(angle_deg, **kw)
    config = config or FsiConfig(load_ramp=FLAP_LOAD_RAMP)
    state = fsi_fixed_point(problem, config, log_path=_fresh_log(out_dir))
    if out_dir:
        write_outputs(state, None, out_dir)
    return state, problem


# -- output -------------------------------------------------------------------


def _fresh_log(out_dir):
    """Path of the iteration log in out_dir (None without one), with the log
    of any earlier run removed: fsi_fixed_point appends to it."""
    if not out_dir:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "iterations.csv")
    if os.path.exists(path):
        os.remove(path)
    return path


def _write_fluid_fields(out_dir, sol, topo):
    """Velocity and pressure of one fluid solve on both meshes, and its cut
    geometry (legacy VTK)."""
    space = sol.space
    for name, mesh, mesh_id, title in (
            ("background.vtk", space.background, BG, "background fluid"),
            ("front.vtk", space.front, FRONT, "moving fluid mesh (current configuration)")):
        write_vtk_mesh(os.path.join(out_dir, name), mesh,
                       {"velocity": sol.velocity(mesh_id), "pressure": sol.pressure(mesh_id)},
                       title=title)
    write_vtk_topology(os.path.join(out_dir, "cut_geometry.vtk"), topo)


def write_outputs(state, report, out_dir):
    """Field output (legacy VTK) plus the convergence table."""
    os.makedirs(out_dir, exist_ok=True)
    if report is not None:
        report.to_csv(os.path.join(out_dir, "convergence.csv"))
    if state is None:
        return
    _write_fluid_fields(out_dir, state.fluid, state.topo)
    ref = state.front_current  # same connectivity as the reference mesh
    write_vtk_mesh(os.path.join(out_dir, "displacement.vtk"), ref,
                   {"solid_displacement": state.solid_displacement,
                    "mesh_displacement": state.mesh_displacement},
                   title="composite mesh displacements")
