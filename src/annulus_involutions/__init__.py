"""Numerical construction and verification of flow-built involutions on
planar period annuli: the half-period symmetry and section-fixing
reversibilities."""

from .expr import PlanarField, differentiate, evaluate, parse, to_source, tokenize
from .fields import builtin_field, builtin_names
from .flow import EventSpec, IntegratorConfig, Trajectory, flow_to_event, jacobian_fd
from .period import Cycle, detect_cycle
from .reversibility import (
    BranchTag,
    ReversibilityInvolution,
    classify,
    conjugate_section,
    sigma_reversible,
    tau,
    tau_star,
    verify_reversibility,
)
from .sections import Section, make_section
from .symmetry import (
    SymmetryInvolution,
    sigma_symmetric,
    uniqueness_probe,
    verify_sigma_symmetry,
)
from .verify import CheckResult, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "PlanarField",
    "parse",
    "evaluate",
    "differentiate",
    "to_source",
    "tokenize",
    "builtin_field",
    "builtin_names",
    "IntegratorConfig",
    "EventSpec",
    "Trajectory",
    "flow_to_event",
    "jacobian_fd",
    "Cycle",
    "detect_cycle",
    "Section",
    "make_section",
    "SymmetryInvolution",
    "sigma_symmetric",
    "uniqueness_probe",
    "verify_sigma_symmetry",
    "BranchTag",
    "ReversibilityInvolution",
    "classify",
    "conjugate_section",
    "sigma_reversible",
    "tau",
    "tau_star",
    "verify_reversibility",
    "CheckResult",
    "VerificationReport",
    "__version__",
]
