"""Matched-witness machinery: the product-state maximum of a Gaussian detector,
the detection ratio, and the min-max search for the matched detector.

A detector is a `QuadratureForm`, the type of the standard forms too, with
parameters M1..M6 (`DetectorSpec`).  For both supported detector families
det(gamma_M + gamma_A (+) gamma_B) factorizes into two scalar factors g1, g2.
For a generic detector the product-state maximum Lambda
(`lambda_closed_form`) takes the minimum of g1 g2 over y in closed form and
bisects one monotone slope in log x.  The matched witness lies on the
degenerate cone m5^2 = m1 m3, m6^2 = m2 m4: m1 = t w1, m3 = t/w1, m2 = t w2,
m4 = t/w2, m5 = +-t, m6 = +-t.  There, with s = u + 1/u and u = sqrt(w1 w2),

    min g1 g2 = (1 + 2 t s)^2 / 16            at x = sqrt(w1/w2), y = 1/x,
    factor i of det(gamma + gamma_M) = t n_i + d_i,
    n_i = w_i b_i + a_i/w_i - 2|c_i|,   d_i = a_i b_i - c_i^2,

over the quadrature triples (a_i, b_i, c_i) of the standard form.  So
Lambda = (4 / (1 + 2 t s))^(2 power) and ell(t)^(1/power) = 16 (t n1 + d1)
(t n2 + d2) / (1 + 2 t s)^2, with power 1/2 for two modes and 1 for
Werner-Wolf, and no determinant is formed.  The min-max over directions is
closed form too: one quadratic root, compared with its edge limits.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import NonPositiveDeterminantError
from .standard_form import (DetectorSpec, Family, QuadratureForm,
                            detect_family, reduce_to_standard_form)
from .symplectic import CovMatrix

#: boundary band on |ell - 1| below which no binary verdict is issued.
TOL_ELL_BOUNDARY = 1e-9

#: relative gain over the edge limits below which the interior root of the
#: limit ratio is taken to lie at infinity (a few ulps of rounding).
_EDGE_MARGIN = 1e-14

#: relative tolerance on m1 m3 - m5^2 >= 0 and m2 m4 - m6^2 >= 0: the cone
#: detectors of the matched witness lie on m5^2 = m1 m3 up to rounding.
_BLOCK_RTOL = 1e-12

#: detector scales t of the scaling audit; the matched detector is the last.
AUDIT_SCALES = (1e2, 1e3, 1e4)

#: an edge or product minimum lies at infinity; its finite direction puts the
#: far coordinate at eps = t^(-1/2) of the matched scale.
_EDGE_EPS = AUDIT_SCALES[-1] ** -0.5


def _min_det_factors(d: QuadratureForm) -> tuple[float, tuple[float, float]]:
    """Minimize g1(x, y) * g2(x, y) = G1 G2 / (x y) over x, y > 0.

    G1 = (m1 + x/2)(m3 + y/2) - m5^2 and G2 = (m2 x + 1/2)(m4 y + 1/2)
    - m6^2 x y are positive on the whole quadrant exactly when both blocks
    [[m1, m5], [m5, m3]] and [[m2, m6], [m6, m4]] are positive semidefinite
    with m1..m4 > 0; anything else is refused.  At fixed x, G_i = alpha_i +
    beta_i y, so the y-minimum is y* = sqrt(alpha1 alpha2 / (beta1 beta2)).
    The objective is convex in (log x, log y), so its profile in u = log x
    is convex and, by the envelope theorem, its slope x (dG1/dx / G1 +
    dG2/dx / G2) - 1 at y* rises from -1 to 1: doubling [-1, 1] brackets
    the root, which is then bisected.  A detector whose parameters or block
    products overflow, or whose search leaves double precision, is refused
    too, instead of returning nan.
    """
    m1, m2, m3, m4, m5, m6 = d.params
    d1, d2 = m1 * m3 - m5 * m5, m2 * m4 - m6 * m6   # inf, where ** 2 raises
    # d1, d2 are finite exactly when the parameters and the block products
    # m1 m3, m5^2, m2 m4, m6^2 are
    if not all(map(math.isfinite, (*d.params, d1, d2))):
        raise NonPositiveDeterminantError(
            "det(gamma_M + gamma_A (+) gamma_B) cannot be evaluated: a detector "
            "parameter or block product is not finite in double precision")
    if not (min(m1, m2, m3, m4) > 0
            and d1 >= -_BLOCK_RTOL * m1 * m3 and d2 >= -_BLOCK_RTOL * m2 * m4):
        raise NonPositiveDeterminantError(
            "det(gamma_M + gamma_A (+) gamma_B) is non-positive for some "
            "product state: a detector quadrature block is not positive "
            "semidefinite")

    def at(u):
        """The profile's slope in u, x = e^u, y* and G1 G2 / (x y*)."""
        x = math.exp(u)
        a1, b1 = d1 + m3 * x / 2, m1 / 2 + x / 4
        a2, b2 = 0.25 + m2 * x / 2, m4 / 2 + d2 * x
        # d1, d2 < 0 within tolerance: a1 <= 0 far left, b2 <= 0 far right
        if a1 <= 0 or b2 <= 0:
            return (1.0 if b2 <= 0 else -1.0), x, math.nan, math.nan
        y = math.sqrt(a1 * a2 / (b1 * b2))
        g1, g2 = a1 + b1 * y, a2 + b2 * y
        slope = x * ((m3 / 2 + y / 4) / g1 + (m2 / 2 + d2 * y) / g2) - 1
        return slope, x, y, g1 * g2 / (x * y)

    try:
        lo, hi = -1.0, 1.0
        while at(lo)[0] > 0:
            lo *= 2
        while at(hi)[0] < 0:
            hi *= 2
        for _ in range(64):   # pins x = e^u to machine precision
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if at(mid)[0] > 0 else (mid, hi)
        _, x, y, val = at((lo + hi) / 2)
    except (OverflowError, ZeroDivisionError):   # x, y* or a product left the range
        val = math.nan
    if not 0 < val < math.inf:
        raise NonPositiveDeterminantError(
            "det(gamma_M + gamma_A (+) gamma_B) cannot be evaluated: the search "
            "over product states leaves double precision")
    return val, (x, y)


def lambda_closed_form(d: QuadratureForm) -> tuple[float, tuple[float, float]]:
    """Maximal detector mean over product pure states and the minimizing (x, y)."""
    val, xy = _min_det_factors(d)
    if d.family is Family.TWO_MODE:
        return 1.0 / np.sqrt(val), xy
    # four-mode determinant is the square of the factor product
    return 1.0 / val, xy


def _abs_triples(form: QuadratureForm) -> list[tuple[float, float, float]]:
    """The form's quadrature triples (a, b, |c|) as Python floats, so that an
    overflow in the closed forms is inf, not a warning."""
    return [(float(a), float(b), abs(float(c))) for a, b, c in (form.x, form.p)]


def _cone_lambda(w1: float, w2: float, t: float,
                 power: float) -> tuple[float, tuple[float, float]]:
    """Lambda of the cone detector of direction (w1, w2) at scale t and its
    maximizing (x, y): min g1 g2 = (1 + 2 t s)^2 / 16 at x = sqrt(w1/w2),
    y = 1/x (module docstring), inverted as in `lambda_closed_form`."""
    u = math.sqrt(w1) * math.sqrt(w2)
    x = math.sqrt(w1 / w2)
    return (4 / (1 + 2 * t * (u + 1 / u))) ** (2 * power), (x, 1 / x)


def _cone_ratio(form: QuadratureForm, w1: float, w2: float,
                t: float = math.inf) -> tuple[float, float]:
    """ell^(1/power) = 16 (t n1 + d1)(t n2 + d2) / (1 + 2 t s)^2 of the cone
    detector of direction (w1, w2) at scale t (module docstring), and a
    first-order bound on its relative rounding error in units of the machine
    epsilon.  It is evaluated divided through by t^2, so t = inf gives the
    large-detector limit 4 n1 n2 / s^2."""
    u = math.sqrt(w1) * math.sqrt(w2)
    den = 2 * (u + 1 / u) + 1 / t
    ratio, cond = 16.0, 0.0
    for (a, b, c), w in zip(_abs_triples(form), (w1, w2)):
        f = w * b + a / w - 2 * c + (a * b - c * c) / t
        if not f > 0:   # rounding when |c| ~ sqrt(ab) at a very large scale
            where = ("in the large-detector limit" if t == math.inf
                     else f"at detector scale {t:g}")
            raise NonPositiveDeterminantError(
                f"det(gamma + gamma_M) is non-positive {where}")
        ratio *= f / den
        cond = max(cond, (w * b + a / w + 2 * c + (a * b + c * c) / t) / f)
    return ratio, cond


def _limit_argmin(form: QuadratureForm) -> tuple[float, tuple[float, float], str]:
    """Minimum of the limit ratio over cone directions, in closed form.

    With x = w1, y = w2 the ratio is 4 n1(x) n2(y) / (x y + 1)^2, where
    n_i(z) = b_i z^2 - 2 c_i z + a_i.  Its stationarity conditions are the
    bilinear maps y = (b1 x - c1) / (a1 - c1 x) and y = (a2 x + c2) /
    (c2 x + b2); equating them leaves (a2 c1 + b1 c2) x^2 + (b1 b2 - a1 a2) x
    - (a1 c2 + b2 c1) = 0, whose leading coefficient is >= 0 and constant
    term <= 0, so it has exactly one positive root unless c1 = c2 = 0.  The
    root is compared with the limits along the four edges x -> 0, inf (at
    y = c2/b2, a2/c2) and y -> 0, inf (at x = c1/b1, a1/c1).  For a product
    form (c1 = c2 = 0) the infimum is the least edge, 4 min(a1 a2, b1 b2).

    Returns (minimum, direction (w1, w2), path) with path "root", "edge" or
    "product".  Edge and product minima are approached only at infinity, so
    they report the finite direction on the winning edge with the far
    coordinate at eps (or 1/eps) and the other clipped to [eps, 1/eps].
    """
    (a1, b1, c1), (a2, b2, c2) = _abs_triples(form)
    eps = _EDGE_EPS

    def clip(z):
        return min(max(z, eps), 1 / eps)

    edges = [(a1 * (a2 - c2 ** 2 / b2), (eps, clip(c2 / b2))),
             (b1 * (b2 - c2 ** 2 / a2), (1 / eps, 1 / clip(c2 / a2))),
             (a2 * (a1 - c1 ** 2 / b1), (clip(c1 / b1), eps)),
             (b2 * (b1 - c1 ** 2 / a1), (1 / clip(c1 / a1), 1 / eps))]
    edge, w_edge = min(edges, key=lambda e: e[0])
    edge *= 4
    if c1 == 0 and c2 == 0:
        return edge, w_edge, "product"
    qa, qb, qc = a2 * c1 + b1 * c2, b1 * b2 - a1 * a2, a1 * c2 + b2 * c1
    disc = math.sqrt(qb * qb + 4 * qa * qc)
    # the positive root, in the form free of cancellation for the sign of qb
    if qb > 0:
        x = 2 * qc / (qb + disc)
    elif qa > 0:
        x = (disc - qb) / (2 * qa)
    else:
        x = math.inf   # qa underflowed: the root is at the edge
    y = (a2 * x + c2) / (c2 * x + b2)
    if 0 < x < math.inf and 0 < y < math.inf:
        val = _cone_ratio(form, x, y)[0]
        # a root that does not beat the edges by more than rounding lies at
        # infinity to working precision (|c| -> 0 sends x or 1/x -> inf)
        if val < edge * (1 - _EDGE_MARGIN):
            return val, (x, y), "root"
    return edge, w_edge, "edge"


@dataclass(frozen=True)
class WitnessReport:
    lam: float
    ell: float
    ell_limit: float
    matched_params: QuadratureForm
    argmax_xy: tuple[float, float]
    trace_mean: float
    scaling_audit: tuple[tuple[float, float], ...]
    entangled: bool
    boundary: bool
    diagnostics: dict


def minmax_optimize(gamma: CovMatrix) -> WitnessReport:
    """Minimize the detection ratio over detectors of the state's family.

    The outer minimum over detector directions on the degenerate cone is the
    closed-form `_limit_argmin`; its path is reported in `diagnostics`.  The
    matched detector is realized at the scales `AUDIT_SCALES`, where Lambda
    (`_cone_lambda`) and ell (`_cone_ratio`) are closed forms too; the ratio
    along t is the scaling audit, and `diagnostics["ell_rel_err"]` bounds the
    relative rounding error of the reported ell to first order.
    """
    family = detect_family(gamma)
    form, _ = reduce_to_standard_form(gamma, family)
    power = family.power
    limit, (w1, w2), path = _limit_argmin(form)
    if not limit > 0:   # rounding when |c| ~ sqrt(ab) at a very large scale
        raise NonPositiveDeterminantError(
            "det(gamma + gamma_M) is non-positive in the large-detector limit")
    ell_limit = float(limit ** power)
    direction = DetectorSpec(family, w1, w2, 1 / w1, 1 / w2,
                             np.sign(form.x[2]) or 1.0, np.sign(form.p[2]) or 1.0)
    audit = []
    for t in AUDIT_SCALES:
        ratio, cond = _cone_ratio(form, w1, w2, t)
        audit.append((t, ratio ** power))
    ell = audit[-1][1]
    lam, xy = _cone_lambda(w1, w2, AUDIT_SCALES[-1], power)
    boundary = abs(ell - 1) <= TOL_ELL_BOUNDARY or abs(ell_limit - 1) <= TOL_ELL_BOUNDARY
    return WitnessReport(
        lam=lam, ell=ell, ell_limit=ell_limit,
        matched_params=direction.scaled(AUDIT_SCALES[-1]), argmax_xy=xy,
        trace_mean=lam / ell, scaling_audit=tuple(audit),
        entangled=(not boundary) and ell < 1, boundary=boundary,
        diagnostics={"path": path,
                     "ell_rel_err": sys.float_info.epsilon * power * cond})
