"""Shooting-method construction of the localized ground state of the
two-dimensional focusing cubic Dirac equation, with the blow-up rescaling
analysis and remainder estimates exposed as testable operations."""

import types

from .asymptotics import (
    LogLawFit,
    PerturbationRecord,
    bubble,
    bubble_residual,
    convergence_study,
    first_order_log_fit,
    integrate_first_order,
    integrate_remainder,
    integrate_rescaled,
    node_radius,
    rescaled_params,
)
from .equations import (
    autonomous_flow,
    equilibria,
    first_node,
    hamiltonian,
    hamiltonian_rate,
    r2h_rate,
    radial_flow,
    series_start,
)
from .integrator import (
    Detector,
    Event,
    EventKind,
    IntegrationError,
    Trajectory,
    solve,
)
from .params import Params, Tolerances
from .phaseflow import (
    AttractionReport,
    NotCapturedError,
    attraction_report,
    level_set,
    stability_compare,
)
from .shooting import (
    Bracket,
    BracketError,
    Certificate,
    Classification,
    DecayWindowError,
    GroundState,
    bisect,
    bracket_search,
    classify,
    decay_fit,
    decide,
    extend_with_decay_tail,
    ground_state,
    horizon_run,
    universal_constant,
)

# the public names are those imported above, not listed a second time
__all__ = sorted(
    k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, types.ModuleType)
)

__version__ = "0.1.0"
