"""Exact-arithmetic invariants of p-divisible groups given as Dieudonne
modules over truncated Witt rings: Newton slopes, slope-stable lattices,
trace duality, deformation connections, and stratum dimension formulas."""

__version__ = "0.1.0"

from .witt import WittContext, make_context
from .lattices import (Lattice, SemilinearMap, intersect, lattice_sum,
                       mod_p_dimension, saturate)
from .isocrystal import (FIsocrystal, dim_codim, end_decompose,
                         newton_slopes, slope_split)
from .core import (TangentSpace, check_axioms, hodge_splitting,
                   largest_sub_dieudonne, lie_element, nu_image, sigma_phi,
                   smallest_super_dieudonne)
from .signs import SlopePairSet, dual_lattice, sign_modules
from .deformation import (DeformationBasis, solve_connection,
                          trivialize_at_point, correction_factor)
from .strata import traverso_dimension, polarized_dim

__all__ = [
    "WittContext", "make_context",
    "Lattice", "SemilinearMap", "intersect", "lattice_sum",
    "mod_p_dimension", "saturate",
    "FIsocrystal", "dim_codim", "end_decompose", "newton_slopes",
    "slope_split",
    "TangentSpace", "check_axioms", "hodge_splitting",
    "largest_sub_dieudonne", "lie_element", "nu_image", "sigma_phi",
    "smallest_super_dieudonne",
    "SlopePairSet", "dual_lattice", "sign_modules",
    "DeformationBasis", "solve_connection", "trivialize_at_point",
    "correction_factor",
    "traverso_dimension", "polarized_dim",
]
