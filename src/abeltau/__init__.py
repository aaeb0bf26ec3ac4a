"""abeltau: theta constants, hypergeometric elliptic integrals, and
tau-representations of Abelian integrals.  The verification registry that
certifies every shipped identity numerically is the submodule
abeltau.registry, which this package does not import."""

from .errors import (
    AbeltauError,
    AccuracyError,
    CriticalPointError,
    DomainError,
    DomainNotSupported,
    PoleError,
)
from .numerics import (
    Polyline,
    contour_quadrature,
    holomorphic_derivatives,
    principal_power,
)
from .modular import (
    dedekind_eta,
    hauptmodul_equianharmonic,
    hauptmodul_hyperelliptic,
    hauptmodul_lemniscatic,
    sqrt_theta_ratio,
    theta2,
    theta3,
    theta4,
)
from .hypergeom import (
    HypergeometricParams,
    IncompleteIntegralSpec,
    elliptic_F,
    elliptic_K,
    euler_beta,
    gamma_fn,
    gauss_2f1,
    incomplete_integral_2f1,
    oracle_incomplete_integral,
)
from .weier import (
    EQUIANHARMONIC,
    LEMNISCATIC,
    EllipticInvariants,
    ThirdKindParam,
    integral_second_kind,
    integral_third_kind,
    u0_constant,
    weier_sigma,
    weier_zeta,
    wp,
    wp_inverse_equianharmonic,
    wp_inverse_lemniscatic,
    wp_prime,
)
from .uniform import (
    CoverConstants,
    CurvePoint,
    EQUIANHARMONIC_Z_EQUATION,
    LEMNISCATIC_CHI_EQUATION,
    bracket_schwarzian,
    covering_map,
    eq5_equation,
    k_pm,
    reduce_differential,
    schwarz_residual,
    u_equianharmonic_root,
    u_equianharmonic_rootfree,
    u_hyperelliptic,
    u_lemniscatic,
)

__version__ = "0.1.0"
