"""Exact Cech cohomology of finitely presented diffeological spaces."""

from .coeff import (
    ALPHA,
    CoefficientSES,
    GroupElement,
    Scalar,
    group_from_tag,
    parse_ses,
    ses_mod,
    ses_z_r_qmodz,
    smith_normal_form,
)
from .errors import (
    ClassError,
    CocycleError,
    CompatibilityError,
    DegreeError,
    DiffCechError,
    FiberError,
    FreenessError,
    ParseError,
    TagError,
)
from .funclass import AffineMap, FunctionClass, FunctionElement, act
from .presentation import (
    FiniteNerve,
    Generator,
    GroupQuotient,
    PresentationMorphism,
    circle_arc_nerve,
    common_refinement,
)
from .cech import (
    ClassComparison,
    Cochain,
    CohomologyReport,
    GroupHom,
    classes_equal,
    coboundary,
    cohomology,
    connecting_map,
    h0_global_sections,
    is_cocycle,
    pullback_cochain,
    push_coefficients,
    zero_cochain,
)
from .bundle import (
    BundlePoint,
    BundlePresentation,
    bundle_from_cocycle,
    cocycle_from_bundle,
    division,
    is_trivializable,
    pullback_bundle,
)
from .grpcoh import CrossedHom, cocycle_from_crossed, crossed_from_cocycle, h1_group
from .average import FiniteTranslationGroupoid, haar_average, trivializing_homotopy

__version__ = "0.1.0"
