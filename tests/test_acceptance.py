"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from olmfsi.mesh import Mesh, build_rect_mesh, LEFT, RIGHT, BOTTOM, TOP, \
    FLUID, SOLID, region_interface_vertices
from olmfsi.geometry import (build_topology, classify, cut_cell_quadrature,
                             interface_quadrature)
from olmfsi.stokes import CompositeSpace, FluidProblem, assemble, solve_stokes, BG, FRONT, _bary
from olmfsi.linalg import apply_dirichlet, condition_estimate
from olmfsi.solid import (Material, SolidProblem, first_piola, strain_energy,
                          assemble_solid, solve_newton, edge_load, STVK)
from olmfsi.coupling import aitken_update, traction_functional, FsiConfig, \
    fsi_fixed_point
from olmfsi.verification import (run_stokes_convergence, run_convergence,
                                 flap_problem)

from fixtures import constant, interpolate
from oracles import (scanline_mesh_overlap_area, mc_mesh_overlap_area,
                     halfplane_cut_area)

ALL_SIDES = (LEFT, RIGHT, BOTTOM, TOP)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_fluid_only_convergence():
    t0 = time.time()
    rep = run_stokes_convergence(levels=4)
    elapsed = time.time() - t0
    eoc_u, eoc_p = rep.eoc_u[-1], rep.eoc_p[-1]
    ok = eoc_u >= 0.9 and eoc_p >= 1.0 and elapsed <= 300.0
    report(1, ok, f"fluid-only OLM: velocity H1 EOC {eoc_u:.3f} (>=0.9), "
                  f"pressure L2 EOC {eoc_p:.3f} (>=1.0), {elapsed:.0f}s (<=300s)")


def test_criterion_2_full_fsi_convergence():
    t0 = time.time()
    rep = run_convergence(levels=3, config=FsiConfig(tol=1e-3))
    elapsed = time.time() - t0
    eocs = [e for e in rep.eoc_s if e is not None]
    ok = (all(e >= 1.0 for e in eocs)
          and all(it <= 15 for it in rep.iters)
          and elapsed <= 900.0)
    report(2, ok, f"full FSI: displacement H1 EOCs {[round(e, 3) for e in eocs]} "
                  f"(>=1.0), outer iterations {rep.iters} (<=15 at tol 1e-3), "
                  f"{elapsed:.0f}s (<=900s)")


def _condition_for(offset_frac, use_ih=True, jh_extension=True, N=8):
    h = 1.0 / N
    d = offset_frac * h
    bg = build_rect_mesh(N, N, [(0, 0), (1, 1)])
    fr = build_rect_mesh(4, 4, [(0.25 + d, 0.25 + d), (0.75 + d, 0.75 + d)])
    topo = build_topology(bg, fr)
    zero = constant([0.0, 0.0])
    space = CompositeSpace(bg, fr, topo, bg_dirichlet={m: zero for m in ALL_SIDES},
                           pin_pressure=True)
    prob = FluidProblem(viscosity=1.0, use_ih=use_ih, jh_extension=jh_extension)
    sys = apply_dirichlet(assemble(prob, space, topo), space.dirichlet_dofs,
                          space.dirichlet_values)
    return condition_estimate(sys.matrix)


def test_criterion_3_interface_position_robustness():
    conds = [_condition_for(off) for off in (0.0, 1e-2, 1e-4, 0.49)]
    variation = max(conds) / min(conds)
    stabilized = _condition_for(1e-6)
    control = _condition_for(1e-6, use_ih=False, jh_extension=False)
    degradation = control / stabilized
    ok = variation < 10.0 and degradation >= 100.0
    report(3, ok, f"conditioning: sweep variation {variation:.2f}x (<10x), "
                  f"sliver control degrades {degradation:.0f}x (>=100x)")


def test_criterion_4_consistency_patch_test():
    worst = 0.0
    rng = np.random.default_rng(42)
    for trial in range(5):
        A = rng.standard_normal((2, 2))
        A[1, 1] = -A[0, 0]
        b = rng.standard_normal(2)
        c = float(rng.standard_normal())
        u = lambda p: (A @ p[..., None])[..., 0] + b
        x0, y0 = rng.uniform(0.05, 0.45, 2)
        w, h = rng.uniform(0.25, 0.45, 2)
        bg = build_rect_mesh(6, 6, [(0, 0), (1, 1)])
        fr = build_rect_mesh(int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                             [(x0, y0), (x0 + w, y0 + h)])
        topo = build_topology(bg, fr)
        space = CompositeSpace(bg, fr, topo,
                               bg_dirichlet={m: u for m in ALL_SIDES},
                               pin_pressure=True, pin_value=c)
        sys = assemble(FluidProblem(viscosity=1.0), space, topo)
        x = interpolate(space, u, constant(c))
        free = np.ones(space.ndof, bool)
        free[space.dirichlet_dofs] = False
        worst = max(worst, np.abs((sys.matrix() @ x - sys.rhs)[free]).max())
    ok = worst <= 1e-10
    report(4, ok, f"patch test: worst residual {worst:.2e} (<=1e-10) over "
                  f"5 random front placements")


def test_criterion_5_geometry_exactness():
    # (a) 20+ constructed cut cases against analytic half-plane areas
    tri = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               np.array([[0, 1, 2]]))
    worst_analytic = 0.0
    cases = 0
    for axis in (0, 1):
        for cval in np.linspace(0.08, 0.88, 11):
            box = ([(cval, -1.0), (3.0, 3.0)] if axis == 0
                   else [(-1.0, cval), (3.0, 3.0)])
            fr = build_rect_mesh(1, 1, box)
            rule = cut_cell_quadrature(0, tri, fr)
            exact = halfplane_cut_area(tri.cell_points[0], cval, axis)
            worst_analytic = max(worst_analytic, abs(rule.total - exact))
            cases += 1

    # (b) interface length equals the front perimeter
    bg = build_rect_mesh(6, 6, [(0, 0), (1, 1)])
    fr = build_rect_mesh(3, 4, [(0.18, 0.22), (0.73, 0.81)])
    topo = classify(bg, fr)
    segs = interface_quadrature(fr, bg, topo)
    perim = 2 * (0.55 + 0.59)
    len_err = abs(sum(segs.length) - perim)  # summed in order, as printed before

    # (c) randomized configurations against the independent scanline oracle
    rng = np.random.default_rng(7)
    worst_oracle = 0.0
    for trial in range(100):
        nx, ny = rng.integers(2, 5, 2)
        x0, y0 = rng.uniform(0.0, 0.55, 2)
        w, h = rng.uniform(0.2, 0.42, 2)
        fr = build_rect_mesh(int(nx), int(ny), [(x0, y0), (x0 + w, y0 + h)])
        bgn = int(rng.integers(3, 7))
        bg = build_rect_mesh(bgn, bgn, [(0, 0), (1, 1)])
        topo = classify(bg, fr)
        for c in topo.class_partial:
            rule = cut_cell_quadrature(int(c), bg, fr)
            covered = scanline_mesh_overlap_area(bg.cell_points[int(c)], fr)
            expected = bg.cell_areas[int(c)] - covered
            worst_oracle = max(worst_oracle, abs(rule.total - expected))
    # Monte-Carlo spot check on a handful of cells (statistical floor ~1e-3)
    fr = build_rect_mesh(3, 3, [(0.21, 0.26), (0.67, 0.74)])
    bg = build_rect_mesh(4, 4, [(0, 0), (1, 1)])
    topo = classify(bg, fr)
    mc_worst = 0.0
    for c in topo.class_partial[:3]:
        rule = cut_cell_quadrature(int(c), bg, fr)
        mc = bg.cell_areas[int(c)] - mc_mesh_overlap_area(
            bg.cell_points[int(c)], fr, n=400_000, seed=int(c))
        mc_worst = max(mc_worst, abs(rule.total - mc))

    ok = (worst_analytic <= 1e-10 and len_err <= 1e-10
          and worst_oracle <= 1e-6 and mc_worst <= 2e-3)
    report(5, ok, f"geometry: {cases} analytic cut cases worst {worst_analytic:.1e} "
                  f"(<=1e-10), interface length error {len_err:.1e} (<=1e-10), "
                  f"100 random configs vs oracle worst {worst_oracle:.1e} (<=1e-6), "
                  f"MC spot check {mc_worst:.1e}")


def test_criterion_6_solid_gradient_checks():
    rng = np.random.default_rng(11)
    mat = Material.from_young_poisson(10.0, 0.3, STVK)
    worst_energy = 0.0
    checked = 0
    while checked < 100:
        F = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        if np.linalg.det(F) <= 0.2:
            continue
        P = first_piola(F, mat)
        dF = rng.standard_normal((2, 2))
        h = 1e-6
        fd = (strain_energy(F + h * dF, mat)
              - strain_energy(F - h * dF, mat)) / (2 * h)
        an = float(np.sum(P * dF))
        worst_energy = max(worst_energy, abs(fd - an) / max(1.0, abs(an)))
        checked += 1

    mesh = build_rect_mesh(8, 2, [(0, 0), (1, 0.2)])
    prob = SolidProblem(mesh, mat, dirichlet={LEFT: constant([0.0, 0.0])})
    U = 0.01 * rng.standard_normal(prob.ndof)
    _, K = assemble_solid(prob, U)
    dU = rng.standard_normal(prob.ndof)
    h = 1e-6
    Rp, _ = assemble_solid(prob, U + h * dU)
    Rm, _ = assemble_solid(prob, U - h * dU)
    tangent_err = np.linalg.norm((Rp - Rm) / (2 * h) - K.matrix() @ dU) \
        / np.linalg.norm(K.matrix() @ dU)

    right = mesh.boundary_edges[mesh.boundary_markers == RIGHT]
    sol = solve_newton(prob, edge_load(mesh, right, constant([0.0, 0.02])), tol=1e-10)
    tail = [v for v in sol.residuals if v > 1e-13]
    ratio = np.log(tail[-1]) / np.log(tail[-2])

    ok = (worst_energy <= 1e-6 and tangent_err <= 1e-5
          and sol.iterations <= 8 and ratio > 1.5)
    report(6, ok, f"solid: energy-gradient worst {worst_energy:.1e} (<=1e-6, "
                  f"100 samples), tangent FD error {tangent_err:.1e} (<=1e-5), "
                  f"clamped strip {sol.iterations} Newton iterations with "
                  f"convergence exponent {ratio:.2f}")


def test_criterion_7_traction_drag():
    L, H, nu, c = 1.0, 0.5, 1.0, 1.0
    exact = nu * c * H * L
    u = lambda p: np.column_stack([c * p[:, 1] * (H - p[:, 1]), np.zeros(len(p))])
    errs = []
    for n in (24, 48, 96):
        front = build_rect_mesh(2 * n, n, [(0, 0), (L, H)])
        bg = build_rect_mesh(2, 2, [(0.4, 0.2), (0.6, 0.3)])
        topo = build_topology(bg, front)
        space = CompositeSpace(bg, front, topo,
                               front_dirichlet={LEFT: u, BOTTOM: u, TOP: u})
        sol = solve_stokes(FluidProblem(viscosity=nu), space, topo)
        wall = np.flatnonzero(np.abs(front.vertices[:, 1]) < 1e-12)
        drag = traction_functional(sol, FluidProblem(viscosity=nu), wall)[:, 0].sum()
        errs.append(abs(drag - exact) / exact)
    ok = errs[-1] <= 0.02 and errs[2] < errs[1] < errs[0]
    report(7, ok, f"wall drag errors {['%.3f%%' % (100 * e) for e in errs]} "
                  f"under refinement; finest {100 * errs[-1]:.2f}% (<=2%)")


def test_criterion_8_aitken_oracle():
    F = lambda x: 0.5 * x + 1.0
    x0 = 0.0
    r0 = F(x0) - x0
    x1 = x0 + r0
    r1 = F(x1) - x1
    omega = aitken_update(1.0, [r0], [r1], omega_max=10.0)
    x2 = x1 + omega * r1
    fixed_point_err = abs(x2 - 2.0)

    clamped = aitken_update(1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]),
                            omega_max=1.5)
    ok = fixed_point_err <= 1e-12 and clamped == 1.5
    report(8, ok, f"Aitken: scalar fixed point error {fixed_point_err:.1e} "
                  f"(<=1e-12), clamp 2.0 -> {clamped}")


def test_criterion_9_flap_demo():
    results = {}
    for angle in (0.0, 65.0):
        jumps = []
        for res in (1, 2):
            problem = flap_problem(angle, res=res)
            state = fsi_fixed_point(problem, FsiConfig(tol=1e-3, load_ramp=4))
            # watertight interface: solid and mesh maps agree nodally
            iface = region_interface_vertices(problem.front_ref, FLUID, SOLID)
            gap = np.abs(state.solid_displacement[iface]
                         - state.mesh_displacement[iface]).max()
            assert gap <= 1e-14
            assert all(0.05 - 1e-12 <= w <= 1.5 + 1e-12 for w in state.omegas)
            u1 = state.fluid.velocity(BG)
            u2 = state.fluid.velocity(FRONT)
            segs = state.topo.interface_segments
            space = state.fluid.space
            l1 = _bary(space.background, segs.bg_cell, segs.points)
            l2 = _bary(space.front, segs.front_cell, segs.points)
            jump = l2 @ u2[space.front.cells[segs.front_cell]] \
                - l1 @ u1[space.background.cells[segs.bg_cell]]
            jmax = np.abs(jump).max()
            jumps.append(jmax)
            results[(angle, res)] = (state.iterations, jmax)
        results[angle] = jumps
    ok = all(results[a][1] < results[a][0] for a in (0.0, 65.0))
    detail = "; ".join(
        f"angle {a:g}: converged ({results[(a, 1)][0]}/{results[(a, 2)][0]} its), "
        f"interface jump {results[a][0]:.3e} -> {results[a][1]:.3e}"
        for a in (0.0, 65.0))
    report(9, ok, "3D reference cases replaced by 2D criteria; flap demo: "
                  + detail)
