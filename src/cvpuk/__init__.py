"""Simulation of continuous-variable authentication of optical scattering keys.

Models multiple-scattering keys as rows of complex Gaussian reflection
matrices, simulates wavefront-shaped coherent interrogation with
homodyne readout, runs the enrollment/verification protocol, and
quantifies collision resistance and clone detectability through seeded
Monte Carlo campaigns.
"""

from .adversary import clone_key, false_key
from .experiments import (
    CampaignConfig,
    run_campaign,
    run_clone_experiments,
    run_collision_histogram,
    run_enhancement_condition,
    run_response_cloud,
)
from .homodyne import (
    HALF_PI,
    HomodyneChannel,
    ProbeSet,
    p_in_theoretical,
)
from .protocol import (
    CrpDatabase,
    VerificationConfig,
    e_threshold,
    enroll_exact,
    enroll_sampled,
    enrollment_error,
    m_threshold,
    radii,
    verify,
)
from .scattering import (
    DegenerateKeyError,
    PhaseMask,
    ScatteringKey,
    enhancement,
    generate_key,
    optimal_mask,
    wrap_phase,
)
from .streams import substream, substreams

__version__ = "0.1.0"

__all__ = [
    "clone_key",
    "false_key",
    "CampaignConfig",
    "run_campaign",
    "run_clone_experiments",
    "run_collision_histogram",
    "run_enhancement_condition",
    "run_response_cloud",
    "HALF_PI",
    "HomodyneChannel",
    "ProbeSet",
    "p_in_theoretical",
    "CrpDatabase",
    "VerificationConfig",
    "e_threshold",
    "enroll_exact",
    "enroll_sampled",
    "enrollment_error",
    "m_threshold",
    "radii",
    "verify",
    "DegenerateKeyError",
    "PhaseMask",
    "ScatteringKey",
    "enhancement",
    "generate_key",
    "optimal_mask",
    "wrap_phase",
    "substream",
    "substreams",
    "__version__",
]
