"""Coherence tools for conditional prevision assessments.

Exact-rational checking of finite conditional probability and prevision
assessments, compounds of conditional events (conjunction, negation,
disjunction, quasi conjunction, iterated conditioning), which are
conditional random quantities themselves, coherent-extension intervals
for them, and seeded Monte Carlo cross-checks.
"""

from .bounds import (
    ExtensionInterval,
    ExtensionVerificationError,
    disjunction_bounds,
    extension_interval,
    frechet_conjunction_bounds,
    quasi_conjunction_bounds,
)
from .coherence import (
    Assessment,
    CertificateVerificationError,
    CoherenceLevel,
    CoherenceReport,
    DutchBook,
    IncoherentAssessmentError,
    LinearSystem,
    build_system,
    check_coherence,
    random_gain,
    upper_conditioning_masses,
)
from .crq import (
    ConditionalRandomQuantity,
    add,
    conditional_event,
    conjunction,
    disjunction,
    gn_inclusion,
    iterated,
    negation,
    quasi_conjunction,
    scale,
    values_agree_on_union,
)
from .events import (
    AtomLimitError,
    Constituent,
    ConstituentPartition,
    Event,
    EventSyntaxError,
    ImpossibleConditioningError,
    InputError,
    Universe,
    constituents,
    logically_independent,
)
from .simulate import (
    JointDistribution,
    SimEstimate,
    conjunction_prevision,
    finite_n_fixed_point,
    simulate_conditional,
    simulate_conjunction,
)

__version__ = "0.1.0"

__all__ = [
    "Assessment",
    "AtomLimitError",
    "CertificateVerificationError",
    "CoherenceLevel",
    "CoherenceReport",
    "ConditionalRandomQuantity",
    "Constituent",
    "ConstituentPartition",
    "DutchBook",
    "Event",
    "EventSyntaxError",
    "ExtensionInterval",
    "ExtensionVerificationError",
    "ImpossibleConditioningError",
    "IncoherentAssessmentError",
    "InputError",
    "JointDistribution",
    "LinearSystem",
    "SimEstimate",
    "Universe",
    "add",
    "build_system",
    "check_coherence",
    "conditional_event",
    "conjunction",
    "conjunction_prevision",
    "constituents",
    "disjunction",
    "disjunction_bounds",
    "extension_interval",
    "finite_n_fixed_point",
    "frechet_conjunction_bounds",
    "gn_inclusion",
    "iterated",
    "logically_independent",
    "negation",
    "quasi_conjunction",
    "quasi_conjunction_bounds",
    "random_gain",
    "scale",
    "simulate_conditional",
    "simulate_conjunction",
    "upper_conditioning_masses",
    "values_agree_on_union",
]
