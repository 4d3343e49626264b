"""Stationary FSI on overlapping 2D meshes.

A fixed background fluid mesh is coupled to a moving boundary-fitted fluid
mesh surrounding a hyperelastic solid.  The fluid-fluid coupling uses a
stabilized Nitsche formulation on the cut background mesh; the coupled
problem is driven by a Dirichlet-Neumann fixed-point iteration with Aitken
relaxation.
"""

from .mesh import Mesh, build_rect_mesh, build_tensor_mesh
from .geometry import (
    OverlapTopology,
    classify,
    intersect_convex,
    interface_quadrature,
    build_topology,
)
from .linalg import SparseSystem, apply_dirichlet, solve_direct, condition_estimate
from .stokes import CompositeSpace, FluidProblem, assemble, solve_stokes, error_norms
from .solid import Material, SolidProblem, first_piola, assemble_solid, solve_newton
from .motion import MeshMotionProblem, solve_mesh_motion, deform_mesh
from .coupling import (
    FsiConfig,
    FsiState,
    aitken_update,
    traction_functional,
    fsi_fixed_point,
)

__all__ = [
    "Mesh",
    "build_rect_mesh",
    "build_tensor_mesh",
    "OverlapTopology",
    "classify",
    "intersect_convex",
    "interface_quadrature",
    "build_topology",
    "SparseSystem",
    "apply_dirichlet",
    "solve_direct",
    "condition_estimate",
    "CompositeSpace",
    "FluidProblem",
    "assemble",
    "solve_stokes",
    "error_norms",
    "Material",
    "SolidProblem",
    "first_piola",
    "assemble_solid",
    "solve_newton",
    "MeshMotionProblem",
    "solve_mesh_motion",
    "deform_mesh",
    "FsiConfig",
    "FsiState",
    "aitken_update",
    "traction_functional",
    "fsi_fixed_point",
]
