"""Per-layer tracing of olmfsi from outside the package.

Most olmfsi modules bind their collaborators with ``from .x import y``, so a
call goes through the name in the *calling* module's namespace.  The tracer
therefore installs its wrappers there (``coupling.build_topology``,
``stokes.apply_dirichlet``, ``solid.solve_direct``, ...) and restores the
originals afterwards.  A wrapper records one span per call: name, duration
and the time covered by its child spans, so that a layer's self time is its
span time minus its children.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter

from olmfsi import coupling, geometry, motion, solid, stokes, verification

# Spans whose self time is the coupling driver's own residual; trace
# coverage counts every other span.
COUPLING_SELF = ("coupling.fixed_point", "coupling.outer_iteration")
MOTION_ROOT = "motion.solve"


def _caller(tracer):
    """Solid-module kernels serve both the solid and the mesh motion."""
    return "motion" if tracer.active[MOTION_ROOT] else "solid"


# (module, attribute, span name); a callable name is resolved per call
# from the open spans.
WRAPPED = [
    (coupling, "fsi_fixed_point", "coupling.fixed_point"),
    (coupling, "fsi_outer_iteration", "coupling.outer_iteration"),
    (coupling, "build_topology", "geometry.topology"),
    (coupling, "CompositeSpace", "stokes.space"),
    (coupling, "solve_stokes", "stokes.solve"),
    (coupling, "traction_functional", "coupling.traction"),
    (coupling, "solve_newton", "solid.newton"),
    (coupling, "SolidProblem", "solid.problem"),
    (coupling, "p1_mass_matrix", "solid.mass"),
    (coupling, "MeshMotionProblem", "motion.problem"),
    (coupling, "solve_mesh_motion", MOTION_ROOT),
    (coupling, "deform_mesh", "mesh.deform"),
    (coupling, "region_interface_vertices", "mesh.interface_vertices"),
    (verification, "fsi_fixed_point", "coupling.fixed_point"),
    (verification, "build_topology", "geometry.topology"),
    (verification, "CompositeSpace", "stokes.space"),
    (verification, "solve_stokes", "stokes.solve"),
    (verification, "error_norms", "stokes.error_norms"),
    (verification, "h1_error", "solid.error_norms"),
    (verification, "build_manufactured_stokes", "verification.manufactured"),
    (verification, "manufactured_fsi_problem", "verification.problem"),
    (verification, "stokes_patch_setup", "mesh.build"),
    (verification, "write_outputs", "vtkio.write"),
    (verification, "write_vtk_mesh", "vtkio.write"),
    (verification, "write_vtk_topology", "vtkio.write"),
    (geometry, "classify", "geometry.classify"),
    (geometry, "cut_cell_quadrature", "geometry.cut_rules"),
    (geometry, "interface_quadrature", "geometry.interface"),
    (geometry, "overlap_region_pairs", "geometry.overlap_pairs"),
    (stokes, "assemble", "stokes.assemble"),
    (stokes, "apply_dirichlet", "linalg.dirichlet.fluid"),
    (stokes, "solve_direct", "linalg.lu.fluid"),
    (solid, "assemble_solid", lambda t: "solid.assemble." + _caller(t)),
    (solid, "apply_dirichlet", lambda t: "linalg.dirichlet." + _caller(t)),
    (solid, "solve_direct", lambda t: "linalg.lu." + _caller(t)),
    (motion, "solve_newton", "motion.newton"),
]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.active = Counter()      # span name -> number of open spans
        self.stack = []              # open spans: [name, child seconds]
        self.total = Counter()       # outermost-span seconds per name
        self.self_time = Counter()   # span seconds minus child spans
        self.calls = Counter()
        self.counts = Counter()
        self.outer_iter_s = []       # one entry per outer iteration
        self._iter_starts = []

    def call(self, name, fn, args, kwargs):
        if callable(name):
            name = name(self)
        frame = [name, 0.0]
        self.stack.append(frame)
        self.active[name] += 1
        t0 = time.perf_counter()
        if name == "coupling.outer_iteration":
            self._iter_starts.append(t0)
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            self.stack.pop()
            self.active[name] -= 1
            self.self_time[name] += dt - frame[1]
            if self.stack:
                self.stack[-1][1] += dt
            if not self.active[name]:
                self.total[name] += dt
            self.calls[name] += 1
            if name == "coupling.fixed_point":
                # an outer iteration runs from its fsi_outer_iteration call to
                # the next one; the last ends when the fixed point returns
                marks = self._iter_starts + [t1]
                self.outer_iter_s += [b - a for a, b in zip(marks, marks[1:])]
                self._iter_starts = []
        self._count(name, out)
        return out

    def _count(self, name, out):
        if name == "geometry.topology":
            self.counts["partial_cells"] += len(out.class_partial)
            self.counts["overlap_pairs"] += len(out.overlap_pairs)
            self.counts["interface_segments"] += len(out.interface_segments)
        elif name == "stokes.space":
            self.counts["ndof"] = max(self.counts["ndof"], out.ndof)
        elif name == "solid.newton":
            self.counts["newton_iters"] += out.iterations

    def clip(self, fn):
        """Counting wrapper for the hot clipping kernel (no span: too cheap)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            poly = fn(*args, **kwargs)
            counts["clip_calls"] += 1
            if len(poly):
                counts["clip_hits"] += 1
            return poly
        return counted

    def layer_metrics(self, wall_s):
        """Per-layer figures of one traced run whose total time is wall_s."""
        t, c, n = self.total, self.counts, self.calls
        covered = sum(s for name, s in self.self_time.items()
                      if name not in COUPLING_SELF)
        return {
            "geometry.topology_s": t["geometry.topology"],
            "geometry.classify_s": t["geometry.classify"],
            "geometry.cut_rules_s": t["geometry.cut_rules"],
            "geometry.interface_s": t["geometry.interface"],
            "geometry.overlap_pairs_s": t["geometry.overlap_pairs"],
            "geometry.clip_calls": c["clip_calls"],
            "geometry.clip_hit_ratio": (c["clip_hits"] / c["clip_calls"]
                                        if c["clip_calls"] else 0.0),
            "geometry.partial_cells": c["partial_cells"],
            "geometry.overlap_pair_count": c["overlap_pairs"],
            "geometry.interface_segment_count": c["interface_segments"],
            "stokes.space_s": t["stokes.space"],
            "stokes.assemble_s": t["stokes.assemble"],
            "stokes.error_norms_s": t["stokes.error_norms"],
            "stokes.ndof": c["ndof"],
            **{f"linalg.{kind}_s.{who}": t[f"linalg.{kind}.{who}"]
               for kind in ("dirichlet", "lu")
               for who in ("fluid", "solid", "motion")},
            **{f"linalg.lu_calls.{who}": n[f"linalg.lu.{who}"]
               for who in ("fluid", "solid", "motion")},
            "solid.assemble_s.solid": t["solid.assemble.solid"],
            "solid.assemble_s.motion": t["solid.assemble.motion"],
            "solid.assemble_calls": (n["solid.assemble.solid"]
                                     + n["solid.assemble.motion"]),
            "solid.newton_self_s": self.self_time["solid.newton"],
            "solid.newton_iters": c["newton_iters"],
            "motion.solve_s": t[MOTION_ROOT],
            "coupling.traction_s": t["coupling.traction"],
            "coupling.outer_iter_s": (statistics.median(self.outer_iter_s)
                                      if self.outer_iter_s else 0.0),
            "coupling.outer_iters": n["coupling.outer_iteration"],
            "coupling.self_s": sum(self.self_time[s] for s in COUPLING_SELF),
            "mesh.deform_s": t["mesh.deform"],
            "vtkio.write_s": t["vtkio.write"],
            "trace.coverage": covered / wall_s,
        }


@contextlib.contextmanager
def traced():
    """Install the wrappers for the duration of the block; yields the Tracer."""
    tracer = Tracer()
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
    saved.append((geometry, "intersect_convex", geometry.intersect_convex))
    try:
        for mod, attr, name in WRAPPED:
            setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name))
        geometry.intersect_convex = tracer.clip(geometry.intersect_convex)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _wrap(tracer, fn, name):
    @functools.wraps(fn, updated=())     # some wrapped names are classes
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapped
