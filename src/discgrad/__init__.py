"""Energy-preserving discrete-gradient integrators for one-dimensional
Hamiltonian systems, with exact-solution oracles and benchmark tooling."""

from .hamiltonian import (HamiltonianSystem, LinearSystem, PhaseState,
                          eval_energy, eval_partials, linearize,
                          make_crossterm, make_harmonic, make_pendulum,
                          system_from_name, taylor_flow_coeffs)
from .jets import Jet
from .exactlin import (AffineStepMap, exact_exp_growth_delta,
                       exact_harmonic_momentum, exact_harmonic_recurrence,
                       exact_step_map)
from .schemes import (DeltaRule, SolverConfig, delta_lex,
                      delta_series, delta_series_coefficients,
                      discrete_gradient_residual, local_exactness_matrix,
                      step_gradient, step_gradient_info)
from .baselines import (SymplecticCoeffs, sp_coefficients, step_leapfrog,
                        step_rk4, step_symplectic, step_taylor)
from .reference import (PendulumOrbit, elliptic_K, jacobi_sn_cn_dn,
                        pendulum_exact, pendulum_period)
from .harness import (ExperimentSpec, TrajectoryRecord, emit_csv,
                      emit_plotscript, estimate_order, make_stepper,
                      run_trajectory, sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
