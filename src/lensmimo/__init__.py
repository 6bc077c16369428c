"""Uplink multiuser interference simulation for lens antenna arrays.

The library models a base station whose antenna elements sit on the focal
arc of an electromagnetic lens, giving each terminal a sinc-shaped
beamspace signature. It provides exact and closed-form pairwise
interference under maximum-ratio combining, the mainlobe "effective
interferer" approximation, the induced probability distributions under
uniform sector drops, and a reproducible multiuser ensemble harness.
"""

__version__ = "0.1.0"

from .array_model import (
    GRID_SNAP_TOL,
    LensArrayConfig,
    channel_vectors,
    sinc,
    snap_to_grid,
)
from .harness import (
    ApproximationReport,
    ScenarioConfig,
    ScenarioResult,
    approximation_quality,
    run_scenario,
)
from .interference import (
    NullNotFoundError,
    PatternSeries,
    effective_interference,
    first_null,
    pairwise_interference_closed,
    pairwise_interference_direct,
    power_to_db,
    sidelobe_ratio_db,
    sweep_pattern,
)
from .selfcheck import CheckResult, run_checks
from .stochastic import (
    ProbEstimate,
    QuadratureError,
    SectorModel,
    effective_prob_closed,
    effective_prob_mc,
    effective_prob_quadrature,
    sample_doas,
    spatial_freq_pdf,
    theta_pdf,
)

__all__ = [
    "__version__",
    "GRID_SNAP_TOL",
    "LensArrayConfig",
    "channel_vectors",
    "sinc",
    "snap_to_grid",
    "NullNotFoundError",
    "PatternSeries",
    "effective_interference",
    "first_null",
    "pairwise_interference_closed",
    "pairwise_interference_direct",
    "power_to_db",
    "sidelobe_ratio_db",
    "sweep_pattern",
    "ProbEstimate",
    "QuadratureError",
    "SectorModel",
    "effective_prob_closed",
    "effective_prob_mc",
    "effective_prob_quadrature",
    "sample_doas",
    "spatial_freq_pdf",
    "theta_pdf",
    "ApproximationReport",
    "ScenarioConfig",
    "ScenarioResult",
    "approximation_quality",
    "run_scenario",
    "CheckResult",
    "run_checks",
]
