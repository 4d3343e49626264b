"""Command-line entry point.

Subcommands: ``convergence`` (coupled manufactured study), ``stokes``
(fluid-only overlapping-mesh study), ``flap`` (elastic flap demo) and
``cutdump`` (overlap-geometry debug output).  Run options live in a plain
``key = value`` config file; unknown keys and keys the subcommand does not
read are rejected.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .coupling import FsiConfig
from .stokes import FluidProblem

CONFIG_KEYS = {
    "nu_f": (float, 0.001),
    "gamma": (float, 10.0),
    "delta": (float, 0.5),
    "E_s": (float, None),        # default depends on the subcommand
    "nu_s": (float, 0.3),
    "tol": (float, 0.001),
    "omega_max": (float, 1.5),
    "omega0": (float, 1.0),
    "max_outer": (int, 50),
    "res": (int, 1),
}
# the config keys each subcommand reads
USED_KEYS = {
    "convergence": ("nu_f", "E_s", "nu_s", "tol", "omega_max", "omega0", "max_outer"),
    "stokes": ("nu_f", "gamma", "delta"),
    "flap": tuple(CONFIG_KEYS),
}


class ConfigError(ValueError):
    pass


def parse_config(path, command):
    """Read ``key = value`` lines; '#' starts a comment.  An unknown key, or
    one the subcommand does not read, is rejected."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key not in USED_KEYS[command]:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is not used by {command!r}")
            typ, _ = CONFIG_KEYS[key]
            try:
                values[key] = typ(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def load_config(path, command, **defaults):
    cfg = {k: d for k, (_, d) in CONFIG_KEYS.items()}
    cfg.update(defaults)
    if path:
        cfg.update(parse_config(path, command))
    return {k: cfg[k] for k in USED_KEYS[command]}


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), its ValueError (a bad value) a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fsi_config(cfg, load_ramp=0):
    return _checked(FsiConfig, tol=cfg["tol"], max_outer=cfg["max_outer"],
                    omega_max=cfg["omega_max"], omega0=cfg["omega0"], load_ramp=load_ramp)


def cmd_convergence(args):
    from .verification import build_manufactured, run_convergence
    cfg = load_config(args.config, args.command, E_s=10.0)
    if args.levels < 2:
        raise ConfigError("--levels must be at least 2")
    mf = _checked(build_manufactured, viscosity=cfg["nu_f"], E_s=cfg["E_s"], nu_s=cfg["nu_s"])
    report = run_convergence(levels=args.levels, config=_fsi_config(cfg),
                             out_dir=args.out, verbose=True, mf=mf)
    print("eoc_u:", report.eoc_u)
    print("eoc_p:", report.eoc_p)
    print("eoc_s:", report.eoc_s)
    return 0


def cmd_stokes(args):
    from .verification import run_stokes_convergence
    cfg = load_config(args.config, args.command, nu_f=1.0)
    if args.levels < 2:
        raise ConfigError("--levels must be at least 2")
    _checked(FluidProblem, viscosity=cfg["nu_f"], gamma=cfg["gamma"], delta=cfg["delta"])
    report = run_stokes_convergence(levels=args.levels, viscosity=cfg["nu_f"],
                                    gamma=cfg["gamma"], delta=cfg["delta"],
                                    out_dir=args.out, verbose=True)
    print("eoc_u:", report.eoc_u)
    print("eoc_p:", report.eoc_p)
    return 0


def cmd_flap(args):
    from .verification import flap2d, flap_problem, FLAP_LOAD_RAMP
    cfg = load_config(args.config, args.command, E_s=15.0)
    fsi_cfg = _fsi_config(cfg, FLAP_LOAD_RAMP)
    params = dict(E_s=cfg["E_s"], nu_s=cfg["nu_s"], viscosity=cfg["nu_f"], res=cfg["res"],
                  gamma=cfg["gamma"], delta=cfg["delta"])
    _checked(flap_problem, args.angle, **params)    # bad values fail here, before any solve
    state, _problem = flap2d(args.angle, config=fsi_cfg, out_dir=args.out, **params)
    print(f"converged in {state.iterations} outer iterations; "
          f"max displacement {np.abs(state.solid_displacement).max():.4e}")
    return 0


def cmd_cutdump(args):
    import os
    from .mesh import build_rect_mesh, Mesh
    from .geometry import build_topology
    from .verification import _rotate
    from .vtkio import write_vtk_topology, write_vtk_mesh

    bg = _checked(build_rect_mesh, args.n, args.n, [(0.0, 0.0), (1.0, 1.0)])
    fr = _checked(build_rect_mesh, max(2, args.n // 2), max(2, args.n // 2),
                  [(0.31, 0.27), (0.83, 0.71)])
    if args.angle:
        fr = Mesh(_rotate(fr.vertices, args.angle, np.array([0.57, 0.49])), fr.cells,
                  fr.boundary_edges, fr.boundary_markers, fr.region_tags)
    topo = build_topology(bg, fr)
    os.makedirs(args.out, exist_ok=True)
    write_vtk_topology(os.path.join(args.out, "cut_geometry.vtk"), topo)
    write_vtk_mesh(os.path.join(args.out, "background.vtk"), bg)
    write_vtk_mesh(os.path.join(args.out, "front.vtk"), fr)
    print(f"classified {len(topo.class_not)} / {len(topo.class_fully)} / "
          f"{len(topo.class_partial)} cells (not/fully/partially covered); "
          f"{topo.clipped_pairs} cell pairs clipped; "
          f"{len(topo.interface_segments)} interface segments; "
          f"{topo.dropped_corner_length:.3e} corner sliver length dropped")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="olmfsi",
        description="Stationary FSI on overlapping meshes: verification runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", help="coupled manufactured-solution study")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="out_convergence")
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("stokes", help="fluid-only overlapping-mesh study")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="out_stokes")
    p.set_defaults(fn=cmd_stokes)

    p = sub.add_parser("flap", help="elastic flap in a channel")
    p.add_argument("--angle", type=float, default=0.0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="out_flap")
    p.set_defaults(fn=cmd_flap)

    p = sub.add_parser("cutdump", help="dump cut polygons and interface segments")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--angle", type=float, default=15.0)
    p.add_argument("--out", default="out_cutdump")
    p.set_defaults(fn=cmd_cutdump)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
