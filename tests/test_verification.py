import os
import subprocess
import sys

import numpy as np
import pytest

from olmfsi.mesh import FLUID, SOLID, region_interface_vertices
from olmfsi.verification import (build_manufactured, build_manufactured_stokes,
                                 manufactured_meshes, manufactured_fsi_problem,
                                 interface_load_vector, eoc_sequence,
                                 ConvergenceReport, write_outputs,
                                 flap_meshes, stokes_patch_setup, run_convergence)
from olmfsi.coupling import FixedPointError, FsiConfig
from olmfsi.vtkio import write_vtk_mesh
from olmfsi.cli import parse_config, load_config, ConfigError, CONFIG_KEYS, main

from oracles import build_manufactured_stokes_sympy, build_manufactured_sympy
from vtkparse import parse_vtk


# -- manufactured FSI fields ----------------------------------------------------

@pytest.fixture(scope="module")
def mf():
    return build_manufactured()


def test_divergence_free_at_random_points(mf):
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0.02, 0.98, 20),
                           rng.uniform(0.02, 0.43, 20)])
    assert np.abs(mf.div_u(pts)).max() <= 1e-10


def test_bump_values(mf):
    us = mf.us(np.array([[0.0, 0.45], [1.0, 0.45], [0.5, 0.45]]))
    assert np.allclose(us[:, 0], 0.0)
    assert us[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert us[1, 1] == pytest.approx(0.0, abs=1e-15)
    assert us[2, 1] == pytest.approx(0.05, abs=1e-15)


def test_velocity_vanishes_on_interface_and_wall(mf):
    xs = np.linspace(0.0, 1.0, 17)
    H = mf.Hs * 2 * xs * (1 - xs)
    iface = np.column_stack([xs, mf.Rf + H])
    wall = np.column_stack([xs, np.zeros_like(xs)])
    assert np.abs(mf.u(iface)).max() < 1e-13
    assert np.abs(mf.u(wall)).max() < 1e-13


def test_strong_residual_by_finite_differences(mf):
    # insert (u, p) into the momentum operator with the generated force and
    # cross-check with second-order finite differences of the closed forms
    rng = np.random.default_rng(1)
    h = 1e-5
    nu = mf.viscosity
    for _ in range(20):
        x0 = rng.uniform(0.1, 0.9)
        y0 = rng.uniform(0.05, 0.35)
        lap = np.zeros(2)
        for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h)):
            lap += mf.u(np.array([[x0 + dx, y0 + dy]]))[0]
        lap = (lap - 4 * mf.u(np.array([[x0, y0]]))[0]) / h ** 2
        dp = np.array([
            (mf.p(np.array([[x0 + h, y0]]))[0] - mf.p(np.array([[x0 - h, y0]]))[0]) / (2 * h),
            (mf.p(np.array([[x0, y0 + h]]))[0] - mf.p(np.array([[x0, y0 - h]]))[0]) / (2 * h)])
        resid = -nu * lap + dp - mf.f(np.array([[x0, y0]]))[0]
        assert np.abs(resid).max() < 1e-5  # FD truncation dominates
    # the symbolic force itself satisfies the operator to roundoff; verify
    # gradient consistency instead of FD at one point
    pts = np.column_stack([rng.uniform(0.1, 0.9, 5), rng.uniform(0.05, 0.35, 5)])
    g = mf.grad_u(pts)
    for k, p in enumerate(pts):
        gfd = np.zeros((2, 2))
        gfd[:, 0] = (mf.u(np.array([p + [h, 0]]))[0] - mf.u(np.array([p - [h, 0]]))[0]) / (2 * h)
        gfd[:, 1] = (mf.u(np.array([p + [0, h]]))[0] - mf.u(np.array([p - [0, h]]))[0]) / (2 * h)
        assert np.abs(g[k] - gfd).max() < 1e-9


def test_solid_force_balances_stress_divergence(mf):
    # -d/dx Pi(:, 0) equals the generated body force (fields depend on x only)
    from olmfsi.solid import first_piola
    h = 1e-6
    for x0 in (0.2, 0.5, 0.8):
        def Pi(x):
            F = np.array([[1.0, 0.0],
                          [mf.Hs * 2 * (1 - 2 * x), 1.0]])
            return first_piola(F, mf.material)
        dPi = (Pi(x0 + h) - Pi(x0 - h)) / (2 * h)
        fs = mf.f_solid(np.array([[x0, 0.45]]))[0]
        assert np.abs(-dPi[:, 0] - fs).max() < 1e-6


def test_interface_load_vector_partition(mf):
    # the assembled nodal loads sum to the integral of the traction
    _, front = manufactured_meshes(0, mf)
    load = interface_load_vector(front, mf.t_a)
    xs = np.linspace(0, 1, 2001)
    ta = mf.t_a(np.column_stack([xs, np.full_like(xs, mf.Rf)]))
    ref = np.trapezoid(ta, xs, axis=0)
    assert np.abs(load.sum(axis=0) - ref).max() < 1e-6


def test_manufactured_problem_geometry(mf):
    bg, front = manufactured_meshes(0, mf)
    assert bg.bbox[1][1] <= mf.Rf  # background stays clear of the solid
    iface = region_interface_vertices(front, FLUID, SOLID)
    assert np.allclose(front.vertices[iface, 1], mf.Rf)
    problem = manufactured_fsi_problem(mf, 0)
    assert problem.solid_extra_load is not None


def test_run_convergence_raises_typed_solver_errors(mf):
    # the coupled study lets the fixed point's own error through
    with pytest.raises(FixedPointError):
        run_convergence(levels=2, config=FsiConfig(max_outer=1), mf=mf)


# -- fluid-only manufactured problem ------------------------------------------

def test_manufactured_stokes_force_consistency():
    ms = build_manufactured_stokes(viscosity=0.7)
    rng = np.random.default_rng(2)
    h = 1e-5
    pts = np.column_stack([rng.uniform(0.1, 0.9, 10), rng.uniform(0.1, 0.9, 10)])
    for p in pts:
        lap = np.zeros(2)
        for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h)):
            lap += ms.u(np.array([p + [dx, dy]]))[0]
        lap = (lap - 4 * ms.u(np.array([p]))[0]) / h ** 2
        dp = np.array([
            (ms.p(np.array([p + [h, 0]]))[0] - ms.p(np.array([p - [h, 0]]))[0]) / (2 * h),
            (ms.p(np.array([p + [0, h]]))[0] - ms.p(np.array([p - [0, h]]))[0]) / (2 * h)])
        resid = -0.7 * lap + dp - ms.f(np.array([p]))[0]
        assert np.abs(resid).max() < 1e-4


# -- closed forms against the symbolic references ---------------------------------

FSI_FIELDS = ("u", "grad_u", "p", "f", "us", "grad_us", "f_solid", "t_a", "um",
              "div_u")


def _assert_fields_match(got, want, names, pts, scale_of=None):
    for name in names:
        fn = getattr(got, name)
        a, b = fn(pts), getattr(want, name)(pts)
        assert a.shape == b.shape, name
        scale = np.abs(b if scale_of is None else scale_of.get(name, b)).max()
        assert np.abs(a - b).max() <= 1e-13 * scale, name


@pytest.mark.parametrize("kw", [{}, dict(viscosity=0.7, E_s=25.0, nu_s=0.4,
                                         Rf=0.5, Hs=0.05)])
def test_manufactured_fsi_matches_sympy_reference(kw):
    mf, ref = build_manufactured(**kw), build_manufactured_sympy(**kw)
    for name in ("L", "Rf", "R1", "Hs", "U0", "viscosity", "material"):
        assert getattr(mf, name) == getattr(ref, name), name
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0.0, mf.L, 200),
                           rng.uniform(0.0, mf.Rf + mf.Hs, 200)])
    # the reference divergence is identically zero: compare at the scale
    # of the velocity gradient it is summed from
    _assert_fields_match(mf, ref, FSI_FIELDS, pts,
                         scale_of={"div_u": ref.grad_u(pts)})
    n = np.array([0.6, -0.8])
    a, b = mf.fluid_traction(pts, n), ref.fluid_traction(pts, n)
    assert a.shape == b.shape == (200, 2)
    assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
    assert mf.u(pts[0]).shape == (1, 2)


@pytest.mark.parametrize("viscosity", [1.0, 0.7])
def test_manufactured_stokes_matches_sympy_reference(viscosity):
    ms = build_manufactured_stokes(viscosity)
    ref = build_manufactured_stokes_sympy(viscosity)
    assert ms.viscosity == ref.viscosity
    pts = np.random.default_rng(8).uniform(0.0, 1.0, (200, 2))
    _assert_fields_match(ms, ref, ("u", "grad_u", "p", "f"), pts)


@pytest.mark.parametrize("kw", [dict(L=0.0), dict(Hs=-0.1), dict(viscosity=0.0),
                                dict(E_s=-1.0), dict(R1=0.4), dict(nu_s=0.5),
                                dict(nu_s=0.0)])
def test_manufactured_fsi_rejects_like_reference(kw):
    for build in (build_manufactured, build_manufactured_sympy):
        with pytest.raises(ValueError):
            build(**kw)


def test_package_imports_without_sympy():
    import olmfsi
    code = ("import sys, olmfsi, olmfsi.verification, olmfsi.cli; "
            "sys.exit('sympy' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(olmfsi.__file__)))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# -- reporting -------------------------------------------------------------------

def test_eoc_formula_exact_halving():
    errors = [3.7 * 2.0 ** (-k) for k in range(5)]
    eocs = eoc_sequence(errors)
    assert eocs[0] is None
    assert all(e == pytest.approx(1.0, abs=1e-12) for e in eocs[1:])


def test_report_recompute_matches_stored():
    rep = ConvergenceReport()
    rng = np.random.default_rng(3)
    errs = np.exp(rng.uniform(-8, 0, 4))
    for k in range(4):
        rep.add(2.0 ** (-k), errs[k], errs[k] / 2, errs[k] / 3, 5)
    for k in range(1, 4):
        assert rep.eoc_u[k] == pytest.approx(
            np.log2(rep.err_u[k - 1] / rep.err_u[k]), abs=1e-12)
        assert rep.eoc_s[k] == pytest.approx(
            np.log2(rep.err_s[k - 1] / rep.err_s[k]), abs=1e-12)


def test_csv_empty_report(tmp_path):
    rep = ConvergenceReport()
    rep.to_csv(tmp_path / "convergence.csv")
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines == ["level,h,err_u_h1,eoc_u,err_p_l2,eoc_p,err_s_h1,eoc_s,iters"]


def test_csv_single_level(tmp_path):
    rep = ConvergenceReport()
    rep.add(0.1, 1e-2, 1e-3)
    rep.to_csv(tmp_path / "convergence.csv")
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert cells[3] == "" and cells[5] == ""  # EOC columns empty
    assert cells[6] == "" and cells[8] == ""  # no solid error, no iters


# -- VTK -------------------------------------------------------------------------

def test_vtk_roundtrip(tmp_path):
    from olmfsi.mesh import build_rect_mesh
    mesh = build_rect_mesh(3, 2, [(0, 0), (1, 0.5)])
    rng = np.random.default_rng(4)
    vel = rng.standard_normal((mesh.nv, 2))
    pre = rng.standard_normal(mesh.nv)
    path = tmp_path / "fields.vtk"
    write_vtk_mesh(path, mesh, {"velocity": vel, "pressure": pre})
    data = parse_vtk(path)
    assert data["dataset"] == "UNSTRUCTURED_GRID"
    assert np.allclose(data["points"][:, :2], mesh.vertices)
    assert np.allclose(data["points"][:, 2], 0.0)
    assert [c for c in data["cells"]] == [list(c) for c in mesh.cells]
    assert np.allclose(data["point_data"]["velocity"][:, :2], vel, atol=1e-6)
    assert np.allclose(data["point_data"]["pressure"], pre, atol=1e-6)



def _vtk_cases():
    from olmfsi.geometry import build_topology
    from olmfsi.mesh import Mesh, build_rect_mesh
    tagged = build_rect_mesh(3, 2, [(0, 0), (1, 0.5)],
                             region_fn=lambda c: SOLID if c[0] > 0.5 else FLUID)
    vals = np.resize([0.0, -0.0, 1e-5, 1e16, 1 / 3, np.nan], 2 * tagged.nv)
    # the meshes of `olmfsi cutdump --n 6` (front turned by 15 degrees)
    bg = build_rect_mesh(6, 6, [(0.0, 0.0), (1.0, 1.0)])
    fr = build_rect_mesh(3, 3, [(0.31, 0.27), (0.83, 0.71)])
    th, c = np.deg2rad(15.0), np.array([0.57, 0.49])
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    fr = Mesh((fr.vertices - c) @ R.T + c, fr.cells, fr.boundary_edges,
              fr.boundary_markers, fr.region_tags)
    return ([("fields", tagged, {"velocity": vals.reshape(-1, 2), "pressure": vals[::-1][:tagged.nv]}),
             ("no point data", bg, None),
             ("no cells", Mesh(bg.vertices, np.zeros((0, 3), dtype=int)), {"p": bg.vertices[:, 0]})],
            build_topology(bg, fr))


def test_vtk_writers_match_line_by_line_writers(tmp_path):
    from olmfsi.vtkio import write_vtk_topology
    from oracles import write_vtk_mesh_loop, write_vtk_topology_loop
    meshes, topo = _vtk_cases()
    for name, mesh, data in meshes:
        write_vtk_mesh(tmp_path / "a.vtk", mesh, data, title=name)
        write_vtk_mesh_loop(tmp_path / "b.vtk", mesh, data, title=name)
        assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes(), name
    assert len(topo.class_partial) and len(topo.interface_segments)
    write_vtk_topology(tmp_path / "a.vtk", topo)
    write_vtk_topology_loop(tmp_path / "b.vtk", topo)
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()

def test_write_outputs_report_only(tmp_path):
    rep = ConvergenceReport()
    rep.add(0.2, 1.0, 0.1, 0.01, 4)
    rep.add(0.1, 0.5, 0.05, 0.005, 4)
    write_outputs(None, rep, tmp_path)
    assert (tmp_path / "convergence.csv").exists()


# -- geometry builders -------------------------------------------------------------

def test_flap_meshes_upright():
    bg, box, clamp = flap_meshes(0.0)
    assert (box.region_tags == SOLID).sum() > 0
    sv = np.unique(box.cells[box.region_tags == SOLID])
    lo, hi = box.vertices[sv].min(0), box.vertices[sv].max(0)
    assert lo == pytest.approx([1.22, 0.0], abs=1e-12)
    assert hi == pytest.approx([1.28, 0.24], abs=1e-12)
    assert len(clamp) >= 2
    assert np.allclose(box.vertices[clamp, 1], 0.0)


def test_flap_meshes_rotated_pivot():
    bg, box, clamp = flap_meshes(65.0)
    # the base center stays put under the rotation
    d = np.hypot(box.vertices[:, 0] - 1.25, box.vertices[:, 1])
    assert d.min() < 1e-12
    # clamp nodes remain on the rotated base line through the pivot
    th = np.deg2rad(65.0)
    t = np.array([np.cos(th), np.sin(th)])
    rel = box.vertices[clamp] - np.array([1.25, 0.0])
    assert np.abs(rel @ np.array([-t[1], t[0]])).max() < 1e-12


def test_stokes_patch_refines_uniformly():
    bg0, fr0 = stokes_patch_setup(0)
    bg1, fr1 = stokes_patch_setup(1)
    assert bg1.nc == 4 * bg0.nc
    assert fr1.nc == 4 * fr0.nc
    assert np.allclose(fr0.bbox[0], fr1.bbox[0])


def test_stokes_convergence_three_levels():
    from olmfsi.verification import run_stokes_convergence
    rep = run_stokes_convergence(levels=3)
    assert rep.eoc_u[-1] >= 0.9
    assert rep.err_s == [None, None, None]


def test_flap_rigid_limit():
    # a nearly rigid flap barely moves: displacement well below 1e-5 of the
    # channel height, and the loop converges almost immediately
    from olmfsi.verification import flap_problem, FLAP_CHANNEL
    from olmfsi.coupling import FsiConfig, fsi_fixed_point
    state = fsi_fixed_point(flap_problem(0.0, E_s=1e6), FsiConfig(tol=1e-3))
    assert np.abs(state.solid_displacement).max() <= 1e-5 * FLAP_CHANNEL[1]
    assert state.iterations <= 3


def test_write_outputs_full_state(tmp_path):
    from olmfsi.verification import flap2d
    from olmfsi.coupling import FsiConfig
    state, _ = flap2d(0.0, config=FsiConfig(tol=1e-2, load_ramp=2),
                      out_dir=tmp_path)
    for name in ("background.vtk", "front.vtk", "displacement.vtk",
                 "cut_geometry.vtk", "iterations.csv"):
        assert (tmp_path / name).exists(), name
    data = parse_vtk(tmp_path / "front.vtk")
    assert "velocity" in data["point_data"]
    assert "pressure" in data["point_data"]
    disp = parse_vtk(tmp_path / "displacement.vtk")
    assert "solid_displacement" in disp["point_data"]
    assert "mesh_displacement" in disp["point_data"]


def test_reruns_start_the_iteration_log_afresh(tmp_path, mf):
    # a second run into the same directory replaces the first run's rows
    from olmfsi.verification import flap2d
    for _ in range(2):
        rep = run_convergence(levels=2, config=FsiConfig(tol=5e-3),
                              out_dir=tmp_path / "fsi", mf=mf)
        state, _ = flap2d(0.0, config=FsiConfig(tol=1e-2, load_ramp=2),
                          out_dir=tmp_path / "flap")
    for name, rows in (("fsi", sum(rep.iters)), ("flap", state.iterations)):
        lines = (tmp_path / name / "iterations.csv").read_text().splitlines()
        assert lines[0] == "k,omega,increment,fluid_dofs,cut_cells"
        assert len(lines) == 1 + rows, name


# -- config / CLI ---------------------------------------------------------------

def test_parse_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("""
# comment
nu_f = 0.002
gamma = 12.5
max_outer = 9
""")
    vals = parse_config(p, "flap")
    assert vals == {"nu_f": 0.002, "gamma": 12.5, "max_outer": 9}
    with pytest.raises(ConfigError, match="key 'gamma' is not used by 'convergence'"):
        parse_config(p, "convergence")
    merged = load_config(p, "flap")
    assert merged["delta"] == 0.5
    assert merged["tol"] == 0.001
    assert merged["omega_max"] == 1.5
    every = tmp_path / "all.cfg"       # flap reads every key
    every.write_text("".join(f"{key} = 1\n" for key in CONFIG_KEYS))
    assert load_config(every, "flap") == {key: 1 for key in CONFIG_KEYS}


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("viscosity = 1.0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(p, "flap")


def test_parse_config_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("max_outer = soon\n")
    with pytest.raises(ConfigError):
        parse_config(p, "flap")


def test_cli_unknown_key_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nope = 1\n")
    code = main(["stokes", "--levels", "2", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_cutdump(tmp_path, capsys):
    out = tmp_path / "dump"
    assert main(["cutdump", "--n", "6", "--out", str(out)]) == 0
    topo = _vtk_cases()[1]
    assert 0 < topo.clipped_pairs
    assert f"; {topo.clipped_pairs} cell pairs clipped;" in capsys.readouterr().out
    data = parse_vtk(out / "cut_geometry.vtk")
    assert data["dataset"] == "POLYDATA"
    assert len(data["polygons"]) > 0
    assert len(data["lines"]) > 0


def test_cli_rejects_max_outer_below_one(tmp_path, capsys):
    # rejected as a config error before any solve
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_outer = 0\n")
    code = main(["convergence", "--levels", "2", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: max_outer must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config", [
    (["flap"], "nu_s = 0.5\n"),
    (["flap"], "res = 0\n"),
    (["flap"], "nu_f = 0\n"),
    (["stokes", "--levels", "1"], ""),
    (["convergence", "--levels", "1"], ""),
    # keys the subcommand would ignore
    (["convergence", "--levels", "2"], "gamma = 7\n"),
    (["convergence", "--levels", "2"], "res = 7\n"),
    (["stokes", "--levels", "2"], "tol = 7\n"),
    (["stokes", "--levels", "2"], "E_s = 7\n"),
])
def test_cli_rejects_bad_values(command, config, tmp_path, capsys):
    # a one-line config error and exit code 2 before any solve, no traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code = main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_stokes_end_to_end(tmp_path):
    out = tmp_path / "stokes"
    assert main(["stokes", "--levels", "2", "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert (out / "cut_geometry.vtk").exists()


def test_cli_convergence_end_to_end(tmp_path):
    out = tmp_path / "fsi"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 0.005\nmax_outer = 20\n")
    assert main(["convergence", "--levels", "2", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert (out / "iterations.csv").exists()
    assert (out / "displacement.vtk").exists()
