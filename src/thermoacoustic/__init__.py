"""Desk-scale 1D coupled thermo-acoustics.

A finite-difference library for the coupled system of the Westervelt
pressure equation and the Pennes bioheat equation under the Cattaneo flux
law, with per-step fixed-point decoupling, a full set of energy and
dissipation diagnostics, non-degeneracy guarding, and a relaxation-limit
study against the Fourier reference.
"""

from .acoustics import (
    AcousticState,
    Degenerate,
    FrozenCoefficients,
    acoustic_identity_residual,
    assemble_coefficients,
    check_nondegeneracy,
    westervelt_linear_step,
)
from .config import (
    ConfigError,
    ParseError,
    SimConfig,
    UnknownKey,
    ValidationError,
    initial_fields,
    load_config,
    load_config_file,
    make_grid,
)
from .coupling import (
    CompatibilityData,
    CoupledState,
    PicardDiverged,
    SimulationResult,
    SweepResult,
    TauZeroFluxDerivative,
    compatibility_data,
    coupled_step,
    simulate,
    tau_sweep,
)
from .energy import (
    EnergyReport,
    TIMESERIES_COLUMNS,
    XNormAccumulator,
    acoustic_energy,
    coefficient_diagnostics,
    gronwall_bound,
    heat_balance_residual,
    heat_dissipation,
    heat_energy,
    theta_higher_energy,
    x_norm,
)
from .grid import (
    FaceField,
    Grid1D,
    GridMismatch,
    NodeField,
    NonFinite,
    SingularSystem,
    divergence_from_faces,
    gradient_to_faces,
    h1_seminorm,
    l2_inner,
    l2_norm,
    laplacian_dirichlet,
    linf_norm,
    solve_tridiagonal,
)
from .heat import (
    InsufficientHistory,
    InvalidMode,
    ThermalState,
    cattaneo_step,
    fourier_step,
    fourier_thermal_step,
    reconstruct_time_derivatives,
    telegraph_mode_oracle,
)
from .model import (
    FloorViolated,
    PhysicalParams,
    SpeedOfSoundModel,
    h_eval,
    k_eval,
    q_source,
    validate_params,
)

__version__ = "0.1.0"
