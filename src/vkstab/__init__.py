"""Relative equilibria of Hamiltonian systems and their stability certificates.

The toolkit computes solitons, coupled solitons, torus plane waves and a
rotation-invariant mechanical equilibrium, then certifies orbital stability
by spectral analysis of the constrained-energy Hessian, the slope matrix of
the reduced energy, and index matching, cross-validated by time evolution.
"""

from .core import Coupled, Field, Grid, SingleNLS, inner, invariants_of, make_grid
from .profiles import (
    Family,
    Profile,
    SolverError,
    boost,
    continue_family,
    coupled_soliton,
    make_family,
    plane_wave,
    soliton_explicit,
    soliton_solve,
)
from .hessian import Eigenvalue, HessOp, SpectralReport, assemble, eigenvalue, grad_L, kernel_matches_orbit, spectrum
from .slope import SlopeReport, d2w_closed, d2w_fd, d2w_tilde, vk_integral, vk_slope_sign
from .planewave import ModeTable, c_plusminus, coercivity_condition, hessian_mode_eigs, linearization_eigs, mode_table
from .dynamics import OrbitDistanceSeries, Trajectory, align_to_orbit, evolve, stability_experiment
from .so3 import SO3State, circular_orbit, hessian6, integrate_so3, orbit_distance, w_so3
from .certify import Certificate, certify, certify_so3, coupled_stability_criteria

__version__ = "0.1.0"

__all__ = [
    "Coupled", "Field", "Grid", "SingleNLS", "inner", "invariants_of", "make_grid",
    "Family", "Profile", "SolverError", "boost", "continue_family",
    "coupled_soliton", "make_family", "plane_wave", "soliton_explicit", "soliton_solve",
    "Eigenvalue", "HessOp", "SpectralReport", "assemble", "eigenvalue", "grad_L",
    "kernel_matches_orbit", "spectrum",
    "SlopeReport", "d2w_closed", "d2w_fd", "d2w_tilde", "vk_integral", "vk_slope_sign",
    "ModeTable", "c_plusminus", "coercivity_condition", "hessian_mode_eigs",
    "linearization_eigs", "mode_table",
    "OrbitDistanceSeries", "Trajectory", "align_to_orbit", "evolve", "stability_experiment",
    "SO3State", "circular_orbit", "hessian6", "integrate_so3", "orbit_distance", "w_so3",
    "Certificate", "certify", "certify_so3", "coupled_stability_criteria",
]
