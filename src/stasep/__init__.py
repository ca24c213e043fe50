"""Stationary TASEP / bordered last-passage percolation workbench.

Simulation side: counter-based random weight fields (rng, weights), a
last-passage kernel swept one anti-diagonal at a time (lpp), and an
event-driven exclusion process with the exact pathwise bridge between the
two (tasep).

Analysis side: deterministic scaling maps (scaling), Airy/quadrature
primitives (specfun), and the multi-point limit law as a block Fredholm
determinant with its resolvent correction (limitlaw).

The experiments module confronts the two sides; cli wraps everything.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    DomainError,
    FrameError,
    InvertibilityError,
    ParameterError,
    RefusalError,
    WindowError,
)
from .limitlaw import (
    LimitLawResult,
    MultiPointSpec,
    QuadratureConfig,
    khat,
    khat_dual_check,
    limit_cdf,
)
from .lpp import (
    PassageResult,
    brute_force_last_passage,
    last_passage,
    last_passage_batch,
)
from .rng import SeedSpec
from .scaling import (
    ScalingFrame,
    characteristic_ratio,
    rescale_at_point,
    rescale_sample,
    scale_dpp,
    scale_height,
    scale_particle,
)
from .specfun import (
    QuadratureRule,
    airy_ai,
    gaussian_tail_integral,
    legendre_rule,
)
from .tasep import (
    TasepState,
    WaitingTimes,
    evolve,
    init_stationary,
    lpp_bridge_check,
    queue_exit_time,
    stationary_window,
)
from .weights import ModelKind, ModelParams, WeightOracle
