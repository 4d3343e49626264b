"""The three studies the benchmark times, with the check of each answer.

Every workload has a set-up step (the inputs the study takes as arguments,
built the way the CLI builds them), one timed solve that writes the CLI's
output files, and a check against the numbers of the seed commit.  The
workload seed does not change any input; see README.md for why.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from olmfsi import coupling, verification
from olmfsi.coupling import FsiConfig
from olmfsi.mesh import FLUID, SOLID, region_interface_vertices

# maximum solid displacement of `olmfsi flap` (angle 0, res 2) at the seed
FLAP_MAX_DISP = 0.12087689856553369
# `olmfsi stokes` (4 levels) EOCs at the seed, to the digits criterion 1 prints
STOKES_EOC_U = ["0.986", "0.999", "1.001"]
STOKES_EOC_P = ["1.071", "0.701", "1.063"]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def output_digest(out_dir):
    """Hash of every file a solve wrote, by name and content."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _missing(out_dir, names):
    return [f"output file {n} not written" for n in names
            if not os.path.isfile(os.path.join(out_dir, n))]


class FlapRes2:
    """`olmfsi flap`: the elastic flap at angle 0 solved by the fixed point."""

    def __init__(self, res=2):
        self.res = res

    def prepare(self):
        return verification.flap_problem(0.0, res=self.res)

    def run(self, problem, out_dir):
        state = coupling.fsi_fixed_point(
            problem, FsiConfig(load_ramp=4),
            log_path=os.path.join(out_dir, "iterations.csv"))
        verification.write_outputs(state, None, out_dir)
        us, um = state.solid_displacement, state.mesh_displacement
        iface = region_interface_vertices(problem.front_ref, FLUID, SOLID)
        return {
            "outer_iters": state.iterations,
            "newton_iters": list(state.solid_newton_iters),
            "max_disp": float(np.abs(us).max()),
            "gap": float(np.abs(us[iface] - um[iface]).max()),
            "solution": _digest(us, um, state.fluid.coeffs),
        }

    def check(self, r, out_dir):
        bad = _missing(out_dir, ["iterations.csv", "background.vtk", "front.vtk",
                                 "displacement.vtk", "cut_geometry.vtk"])
        if r["outer_iters"] != 9:
            bad.append(f"{r['outer_iters']} outer iterations, expected 9")
        if abs(r["max_disp"] / FLAP_MAX_DISP - 1.0) > 1e-8:
            bad.append(f"max displacement {r['max_disp']!r}, expected {FLAP_MAX_DISP!r}")
        if not r["gap"] <= 1e-14:
            bad.append(f"interface gap {r['gap']:.3e} > 1e-14")
        return bad


class ManufacturedFsi:
    """`olmfsi convergence`: the coupled manufactured-solution study."""

    def __init__(self, levels=3):
        self.levels = levels

    def prepare(self):
        return verification.build_manufactured()

    def run(self, mf, out_dir):
        rep = verification.run_convergence(levels=self.levels, config=FsiConfig(),
                                           out_dir=out_dir, mf=mf)
        return {"outer_iters": list(rep.iters), "err_u": rep.err_u,
                "err_p": rep.err_p, "err_s": rep.err_s, "eoc_s": rep.eoc_s}

    def check(self, r, out_dir):
        bad = _missing(out_dir, ["iterations.csv", "convergence.csv", "background.vtk",
                                 "front.vtk", "displacement.vtk", "cut_geometry.vtk"])
        if r["outer_iters"] != [3, 3, 3]:
            bad.append(f"outer iterations {r['outer_iters']}, expected [3, 3, 3]")
        eocs = [e for e in r["eoc_s"] if e is not None]
        if not eocs or min(eocs) < 1.0:
            bad.append(f"solid H1 EOCs {eocs}, expected >= 1.0")
        return bad


class StokesPatch:
    """`olmfsi stokes`: the fluid-only overlapping-patch study.

    The study builds its meshes and manufactured solution itself, per level,
    so they count in the solve and set-up is the import alone.
    """

    def __init__(self, levels=4):
        self.levels = levels

    def prepare(self):
        return None

    def run(self, _inputs, out_dir):
        rep = verification.run_stokes_convergence(levels=self.levels, out_dir=out_dir)
        return {"err_u": rep.err_u, "err_p": rep.err_p,
                "eoc_u": rep.eoc_u, "eoc_p": rep.eoc_p}

    def check(self, r, out_dir):
        bad = _missing(out_dir, ["convergence.csv", "background.vtk", "front.vtk",
                                 "cut_geometry.vtk"])
        eoc_u, eoc_p = r["eoc_u"][-1], r["eoc_p"][-1]
        if not (eoc_u >= 0.9 and eoc_p >= 1.0):
            bad.append(f"EOCs u {eoc_u} (>= 0.9), p {eoc_p} (>= 1.0)")
        printed = ([f"{e:.3f}" for e in r["eoc_u"][1:]],
                   [f"{e:.3f}" for e in r["eoc_p"][1:]])
        if printed != (STOKES_EOC_U, STOKES_EOC_P):
            bad.append(f"EOCs {printed} differ from the seed's "
                       f"{(STOKES_EOC_U, STOKES_EOC_P)}")
        return bad


WORKLOADS = {
    "flap-res2": FlapRes2,
    "manufactured-fsi": ManufacturedFsi,
    "stokes-patch": StokesPatch,
}
