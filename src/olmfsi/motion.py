"""Pseudo-elastic mesh motion and discrete mesh deformation.

The interface displacement is extended into the surrounding fluid mesh by
solving a linear elasticity problem with Dirichlet data at the interface
nodes and zero traction everywhere else; the outer boundary floats.  The
operator and its constrained nodes do not change between outer iterations,
so it is assembled, eliminated and factored once per fixed-point run; each
solve lifts the new interface values into a right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .linalg import DirectSolver, apply_dirichlet, dirichlet_lift
from .solid import Material, SolidProblem, assemble_solid, LINEAR
from .solid import solve_newton  # noqa: F401  (perfbench/tracing.py wraps it by name)


class MeshTangleError(RuntimeError):
    """Deformation inverted or degenerated a cell."""


@dataclass
class MeshMotionProblem:
    """Extension of interface displacements into a mesh region, factored
    once for all interface values.

    The outer boundary is traction free; ``pinned_nodes`` are additional
    vertices held at zero displacement (e.g. to keep a channel inlet plane
    in place) and lose against interface data at shared nodes.  The
    pseudo-material is homogeneous linear elasticity with mu = lam = 1;
    stiffening small cells (scaling the local parameters by 1/|T|) is a
    known extension if severe distortions ever require it.
    """
    mesh: Mesh
    interface_nodes: np.ndarray
    region_tag: int | None = None
    pinned_nodes: np.ndarray = ()

    def __post_init__(self):
        self.interface_nodes = np.asarray(self.interface_nodes, dtype=np.int64)
        if len(self.interface_nodes) == 0:
            raise ValueError("mesh motion requires Dirichlet interface nodes")
        nodes = np.union1d(self.interface_nodes,
                           np.asarray(self.pinned_nodes, dtype=np.int64))
        self._elasticity = SolidProblem(
            self.mesh, Material(LINEAR, 1.0, 1.0), self.region_tag,
            clamped_nodes=nodes)
        cdofs = self._elasticity.constrained_dofs
        _, K = assemble_solid(self._elasticity, np.zeros(self._elasticity.ndof))
        self._solver = DirectSolver(apply_dirichlet(K, cdofs, np.zeros(len(cdofs))).matrix)
        self._operator = K.matrix()


def solve_mesh_motion(problem, interface_values):
    """Nodal mesh displacement, exactly matching the data at interface nodes."""
    values = np.asarray(interface_values, float).reshape(-1, 2)
    if len(values) != len(problem.interface_nodes):
        raise ValueError("interface nodes/values length mismatch")
    elasticity = problem._elasticity
    data = np.zeros((problem.mesh.nv, 2))
    data[problem.interface_nodes] = values          # interface data wins
    cdofs = elasticity.constrained_dofs
    cvals = elasticity.gather(data)[cdofs]
    rhs = dirichlet_lift(problem._operator, np.zeros(elasticity.ndof), cdofs, cvals)
    return elasticity.scatter(problem._solver.solve(rhs, cdofs, cvals))


def deform_mesh(ref_mesh, displacement):
    """Apply a nodal displacement field; connectivity is unchanged.

    Any cell whose deformed signed area drops below 1e-12 of its
    reference area (an inverted or degenerate cell) raises MeshTangleError
    naming the cell.
    """
    displacement = np.asarray(displacement, float)
    if displacement.shape != (ref_mesh.nv, 2):
        raise ValueError("displacement must be defined at every vertex")
    mesh = Mesh(ref_mesh.vertices + displacement, ref_mesh.cells, ref_mesh.boundary_edges,
                ref_mesh.boundary_markers, ref_mesh.region_tags, validate=False)
    bad = mesh.cell_areas <= 1e-12 * ref_mesh.cell_areas
    if bad.any():
        cell = int(np.flatnonzero(bad)[0])
        raise MeshTangleError(f"mesh tangling: cell {cell} inverted or degenerate")
    return mesh
