"""viscolab: a numerical laboratory for isothermal viscoelasticity.

Constitutive catalogue (stored energies and viscous stress tensors with
their axioms), coercivity / rank-one ellipticity checks for the frozen
viscous tangent, a clamped-boundary semi-implicit solver on structured
grids, and dissipation / breakdown diagnostics.
"""

from .constitutive import (AxiomReport, ConstitutiveModel, EnergyModel,
                           ViscosityModel, dissipation_density, energy,
                           piola_stress, validate_axioms, viscous_stress,
                           viscous_tangent_field, viscous_tangent_q)
from .diagnostics import (EnergyReport, ThetaReport, energy_report,
                          min_det_series, theta_norm)
from .pde_solver import (FieldState, Grid, SolverConfig,
                         Termination, Trajectory, build_grid, gradient_field,
                         heat_extension, init_state, manufactured_default,
                         manufactured_run, run, semi_implicit_step,
                         stress_divergence)
from .tensor_core import frob, random_rotation, skew, sym
from .wellposedness import (CoercivityConfig, RankOneResult, SpectrumReport,
                            UniformGammaReport, acoustic_spectrum,
                            check_initial_data, closed_form_gamma,
                            fourier_korn_sample, rank_one_min, sector_scan)

__version__ = "0.1.0"
