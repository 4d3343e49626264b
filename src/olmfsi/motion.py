"""Pseudo-elastic mesh motion and discrete mesh deformation.

The interface displacement is extended into the surrounding fluid mesh by
solving a linear elasticity problem with Dirichlet data at the interface
nodes and zero traction everywhere else; the outer boundary floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh
from .solid import Material, SolidProblem, solve_newton, LINEAR


class MeshTangleError(RuntimeError):
    """Deformation inverted or degenerated a cell."""


@dataclass
class MeshMotionProblem:
    """Extension of given interface displacements into a mesh region.

    The outer boundary is traction free by default; ``extra_nodes`` can pin
    additional vertices (e.g. to keep a channel inlet plane in place) and
    lose against interface data at shared nodes.  The pseudo-material is
    homogeneous linear elasticity with mu = lam = 1; stiffening small cells
    (scaling the local parameters by 1/|T|) is a known extension if severe
    distortions ever require it.
    """
    mesh: Mesh
    interface_nodes: np.ndarray
    interface_values: np.ndarray        # (k, 2)
    region_tag: int | None = None
    extra_nodes: np.ndarray = None
    extra_values: np.ndarray = None

    def __post_init__(self):
        self.interface_nodes = np.asarray(self.interface_nodes, dtype=np.int64)
        self.interface_values = np.asarray(self.interface_values, float).reshape(-1, 2)
        if len(self.interface_nodes) == 0:
            raise ValueError("mesh motion requires Dirichlet interface nodes")
        if len(self.interface_nodes) != len(self.interface_values):
            raise ValueError("interface nodes/values length mismatch")
        if self.extra_nodes is None:
            self.extra_nodes = np.zeros(0, dtype=np.int64)
            self.extra_values = np.zeros((0, 2))
        else:
            self.extra_nodes = np.asarray(self.extra_nodes, dtype=np.int64)
            self.extra_values = np.asarray(self.extra_values, float).reshape(-1, 2)


def solve_mesh_motion(problem):
    """Nodal mesh displacement, exactly matching the data at interface nodes."""
    keep = ~np.isin(problem.extra_nodes, problem.interface_nodes)
    nodes = np.concatenate([problem.interface_nodes, problem.extra_nodes[keep]])
    values = np.vstack([problem.interface_values, problem.extra_values[keep]])
    solid = SolidProblem(
        mesh=problem.mesh,
        material=Material(LINEAR, 1.0, 1.0),
        region_tag=problem.region_tag,
        dirichlet_nodes=(nodes, values),
    )
    # linear problem: one Newton update reaches machine precision; the
    # absolute floor keeps near-zero data (nearly rigid couplings) converging
    scale = float(np.abs(values).max()) if len(values) else 0.0
    sol = solve_newton(solid, tol=1e-15 * (1.0 + scale), rtol=1e-8, maxit=3)
    u = sol.displacement
    # nodal Dirichlet data is reproduced exactly
    u[nodes] = values
    return u


def deform_mesh(ref_mesh, displacement):
    """Apply a nodal displacement field; connectivity is unchanged.

    Any cell whose deformed area drops below 1e-12 of its reference area
    raises MeshTangleError naming the cell.
    """
    displacement = np.asarray(displacement, float)
    if displacement.shape != (ref_mesh.nv, 2):
        raise ValueError("displacement must be defined at every vertex")
    verts = ref_mesh.vertices + displacement
    p = verts[ref_mesh.cells]
    if len(p):
        areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                       - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
        bad = areas <= 1e-12 * ref_mesh.cell_areas
        if bad.any():
            cell = int(np.flatnonzero(bad)[0])
            raise MeshTangleError(f"mesh tangling: cell {cell} inverted or degenerate")
    return Mesh(verts, ref_mesh.cells, ref_mesh.boundary_edges,
                ref_mesh.boundary_markers, ref_mesh.region_tags, validate=False)
