"""resgrass: first resonance varieties of hyperplane arrangements.

The pipeline intersects the Grassmannian G(2, n) with the linear span of
the degree-2 Orlik-Solomon relations and reports the Hilbert polynomial of
the resulting projective scheme, all in exact prime-field arithmetic.  An
independent Aomoto-complex oracle cross-validates resonance pointwise and
by exhaustive enumeration over small fields.
"""

from .arrangement import Arrangement, dependent_sets, fixture, from_matrix, load_arrangement
from .errors import BudgetError, DuplicateHyperplaneError, InputError
from .exterior import ExtElement, Subspace, boundary, os_ideal_part, wedge
from .field import DEFAULT_MODULUS, is_prime
from .grobner import (
    GroebnerBasis,
    PluckerRing,
    Poly,
    PolyRing,
    buchberger,
    normal_form,
    plucker_ideal,
)
from .hilbert import (
    HilbertPoly,
    MonomialIdeal,
    format_hp,
    hilbert_numerator,
    hilbert_polynomial,
    leading_ideal,
)
from .oracle import (
    AomotoComplex,
    CohomologyProfile,
    KResonance,
    Prop21Report,
    aomoto_profile,
    check_prop21,
    enumerate_r1,
    is_resonant_1,
    is_resonant_k,
)
from .resonance import (
    Plane,
    ResonanceReport,
    decomposables_in_I2_bruteforce,
    is_decomposable,
    os_points,
    r1_hilbert,
    span_forms,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "AomotoComplex",
    "BudgetError",
    "CohomologyProfile",
    "DEFAULT_MODULUS",
    "DuplicateHyperplaneError",
    "ExtElement",
    "GroebnerBasis",
    "HilbertPoly",
    "InputError",
    "KResonance",
    "MonomialIdeal",
    "Plane",
    "PluckerRing",
    "Poly",
    "PolyRing",
    "Prop21Report",
    "ResonanceReport",
    "Subspace",
    "aomoto_profile",
    "boundary",
    "buchberger",
    "check_prop21",
    "decomposables_in_I2_bruteforce",
    "dependent_sets",
    "enumerate_r1",
    "fixture",
    "format_hp",
    "from_matrix",
    "hilbert_numerator",
    "hilbert_polynomial",
    "is_decomposable",
    "is_prime",
    "is_resonant_1",
    "is_resonant_k",
    "leading_ideal",
    "load_arrangement",
    "normal_form",
    "os_ideal_part",
    "os_points",
    "plucker_ideal",
    "r1_hilbert",
    "span_forms",
    "wedge",
    "__version__",
]
