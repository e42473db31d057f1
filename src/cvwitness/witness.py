"""Matched-witness machinery: the product-state maximum of a Gaussian detector,
the detection ratio, and the min-max search for the matched detector.

A detector is a `QuadratureForm`, the type of the standard forms too, with
parameters M1..M6 (`DetectorSpec`).  For both supported detector families
det(gamma_M + gamma_A (+) gamma_B) factorizes into two scalar factors g1, g2.
For a generic detector the product-state maximum Lambda
(`lambda_closed_form`) is computed on the balanced detector m1 = m2, m3 = m4,
to which a local squeeze brings any detector without changing Lambda: there
the minimum of g1 g2 over y is closed form, one monotone slope in log x is
bisected, and every term is of the order of 1 or the balanced parameters,
so Lambda is returned wherever it is a normal double.  The matched witness
lies on the degenerate cone m5^2 = m1 m3, m6^2 = m2 m4: m1 = t w1, m3 = t/w1,
m2 = t w2, m4 = t/w2, m5 = +-t, m6 = +-t.  There, with s = u + 1/u and
u = sqrt(w1 w2),

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

from .criteria import _is_product_state, admitted_family
from .exceptions import NonPositiveDeterminantError, ScaleOverflowError
from .standard_form import (DetectorSpec, Family, QuadratureForm,
                            reduce_to_standard_form)
from .symplectic import TOL_PSD, CovMatrix, _integers, _quotient

#: relative gain over the edge limits below which the interior root of the
#: limit ratio is taken to lie at infinity (a few ulps of rounding).
_EDGE_MARGIN = 1e-14

#: relative tolerance on m1 m3 - m5^2 >= 0 and m2 m4 - m6^2 >= 0: the cone
#: detectors of the matched witness lie on m5^2 = m1 m3 up to rounding.
_BLOCK_RTOL = 1e-12

#: largest |log x| of the Lambda search, where e^u is still finite; the
#: minimum lies inside wherever Lambda is a normal double.
_LOG_X_MAX = 709.78

#: detector scales t of the scaling audit; the matched detector is the last.
AUDIT_SCALES = (1e2, 1e3, 1e4)

#: an edge or product minimum lies at infinity; its finite direction puts the
#: far coordinate at eps = t^(-1/2) of the matched scale.
_EDGE_EPS = AUDIT_SCALES[-1] ** -0.5


def _block_gap(m1: float, m3: float, m5: float) -> float:
    """1 - m5^2 / (m1 m3) of a detector block, rounded once from the exact
    doubles: a product rounded first errs by about 1e-16, which decides
    Lambda near the cone at large scale.  -1, which is refused, for a
    non-finite entry or a non-positive diagonal."""
    if not (0 < m1 < math.inf and 0 < m3 < math.inf and math.isfinite(m5)):
        return -1.0
    (n1, n3, n5), _ = _integers(m1, m3, m5)
    return _quotient(n1 * n3 - n5 * n5, n1 * n3)


def _min_det_factors(d: QuadratureForm) -> tuple[float, tuple[float, float]]:
    """sqrt(min g1 g2) over product pure states and the minimizing (x, y),
    where g1 g2 = det(gamma_M + gamma_A (+) gamma_B) for two modes.

    g1 = (m1 + x/2)(m3 + y/2) - m5^2 and g2 = (m2 + 1/(2x))(m4 + 1/(2y))
    - m6^2 are positive on the whole quadrant exactly when both blocks
    [[m1, m5], [m5, m3]] and [[m2, m6], [m6, m4]] are positive semidefinite
    with m1..m4 > 0; anything else is refused.  The detector with m1 / k,
    m2 k, m5 / sqrt(k), m6 sqrt(k) has at x / k the g1 g2 of the given one
    at x (a local squeeze), so the search runs on the balanced detector
    m1 = m2 = alpha = sqrt(m1 m2), m3 = m4 = beta = sqrt(m3 m4), with the
    given block gaps d5, d6 (`_block_gap`).  With a = x/2 + alpha d5,
    b = 1/(2x) + alpha d6, p = alpha + x/2 and q = alpha + 1/(2x), g1 =
    beta a + y p / 2 and g2 = beta b + q / (2y), whose minimum over y, at
    y* = sqrt(a q / (b p)), is H(x)^2 with

        H(x) = beta sqrt(a b) + sqrt(p q) / 2.

    H is convex in log x; its slope there has the sign of beta (d6 x - d5/x)
    / sqrt(a b) + (x - 1/x) / (2 sqrt(p q)), whose root is bracketed by
    doubling [-1, 1] and bisected.  Every term is of the order of 1, alpha
    or beta, so nothing leaves double precision before H does.  (x, y) map
    back as (x sqrt(m1 / m2), y sqrt(m3 / m4)).  Python floats make an
    overflow inf, not a numpy warning.
    """
    m1, m2, m3, m4, m5, m6 = map(float, d.params)
    d5, d6 = _block_gap(m1, m3, m5), _block_gap(m2, m4, m6)
    if not min(d5, d6) >= -_BLOCK_RTOL:
        raise NonPositiveDeterminantError(
            "det(gamma_M + gamma_A (+) gamma_B) is non-positive for some "
            "product state: a detector quadrature block is not finite and "
            "positive semidefinite")
    d5, d6 = max(d5, 0.0), max(d6, 0.0)   # within tolerance: on the cone
    s1, s2, s3, s4 = map(math.sqrt, (m1, m2, m3, m4))
    alpha, beta = s1 * s2, s3 * s4

    def terms(u):
        """x = e^u and the square roots of a, b, p, q."""
        x = math.exp(u)
        return x, *map(math.sqrt, (x / 2 + alpha * d5, 0.5 / x + alpha * d6,
                                   alpha + x / 2, alpha + 0.5 / x))

    def slope(u):
        x, ra, rb, rp, rq = terms(u)
        return beta * ((d6 * x - d5 / x) / (ra * rb)) + (x - 1 / x) / (2 * rp * rq)

    lo, hi = -1.0, 1.0
    while lo > -_LOG_X_MAX and slope(lo) > 0:
        lo = max(2 * lo, -_LOG_X_MAX)
    while hi < _LOG_X_MAX and slope(hi) < 0:
        hi = min(2 * hi, _LOG_X_MAX)
    for _ in range(64):   # pins x = e^u to machine precision
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if slope(mid) > 0 else (mid, hi)
    x, ra, rb, rp, rq = terms((lo + hi) / 2)
    return (beta * (ra * rb) + rp * rq / 2,
            (x * (s1 / s2), ra / rb * (rq / rp) * (s3 / s4)))


def lambda_closed_form(d: QuadratureForm) -> tuple[float, tuple[float, float]]:
    """Maximal detector mean over product pure states and the maximizing
    (x, y): 1 / H for two modes and 1 / H^2 for Werner-Wolf, whose
    determinant is the square of the two-mode factor product, with H from
    `_min_det_factors`.  A Lambda below the least normal double is refused,
    and so is a maximizer (x, y) that is no product state in double
    precision, one with a mode variance x/2, y/2, 1/(2x) or 1/(2y) that is
    not a positive finite double (`criteria._is_product_state`): x maps back
    from the balanced detector times sqrt(m1 / m2), which overflows for m1
    = 1.7e308 and m2 = 5e-324 and puts 1/(2x) past double precision for the
    mirrored detector."""
    h, xy = _min_det_factors(d)
    lam = 1 / h if d.family is Family.TWO_MODE else 1 / (h * h)
    if not lam >= sys.float_info.min:
        raise NonPositiveDeterminantError(
            "the product-state maximum of the detector underflows double precision")
    if not _is_product_state(*xy):
        raise ScaleOverflowError(
            f"the product-state maximizer {xy} of the detector leaves double precision")
    return lam, xy


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


def _cone_ratio(triples: list[tuple[float, float, float]], w1: float, w2: float,
                scales: tuple[float, ...] = (math.inf,)) -> tuple[list[float], float]:
    """ell^(1/power) = 16 (t n1 + d1)(t n2 + d2) / (1 + 2 t s)^2 of the cone
    detector of direction (w1, w2) at each scale t of `scales` (module
    docstring), and a first-order bound on the relative rounding error of
    the last one in units of the machine epsilon, over the form's
    `_abs_triples`.  It is evaluated divided through by t^2, so t = inf
    gives the large-detector limit 4 n1 n2 / s^2; the terms that do not
    depend on t are formed once for every scale.  The bound sums the two
    factors' condition terms (the sum of |terms| of t n_i + d_i over its
    value), each at least the factor's running error less one unit, and
    adds one unit per factor, six for the squared denominator and two for
    the quotients and the product; the form's inherited rounding is not in it."""
    u = math.sqrt(w1) * math.sqrt(w2)
    s2 = 2 * (u + 1 / u)
    (a1, b1, c1), (a2, b2, c2) = triples
    g1, g2 = w1 * b1 + a1 / w1, w2 * b2 + a2 / w2
    n1, n2, d1, d2 = g1 - 2 * c1, g2 - 2 * c2, a1 * b1 - c1 * c1, a2 * b2 - c2 * c2
    ratios = []
    for t in scales:
        den = s2 + 1 / t
        f1, f2 = n1 + d1 / t, n2 + d2 / t
        if not (f1 > 0 and f2 > 0):   # rounding when |c| ~ sqrt(ab) at a very large scale
            where = ("in the large-detector limit" if t == math.inf
                     else f"at detector scale {t:g}")
            raise NonPositiveDeterminantError(
                f"det(gamma + gamma_M) is non-positive {where}")
        ratios.append(16.0 * (f1 / den) * (f2 / den))
    # at the last scale, the t the loop leaves
    cond = ((g1 + 2 * c1 + (a1 * b1 + c1 * c1) / t) / f1
            + (g2 + 2 * c2 + (a2 * b2 + c2 * c2) / t) / f2 + 10)
    return ratios, cond


def _limit_argmin(triples: list[tuple[float, float, float]]
                  ) -> tuple[float, float, tuple[float, float], str]:
    """Minimum of the limit ratio over cone directions of a form with
    `_abs_triples` `triples`, in closed form.

    With x = w1, y = w2 the ratio is 4 n1(x) n2(y) / (x y + 1)^2, where
    n_i(z) = b_i z^2 - 2 c_i z + a_i.  Its stationarity conditions are the
    bilinear maps y = (b1 x - c1) / (a1 - c1 x) and y = (a2 x + c2) /
    (c2 x + b2); equating them leaves (a2 c1 + b1 c2) x^2 + (b1 b2 - a1 a2) x
    - (a1 c2 + b2 c1) = 0, whose leading coefficient is >= 0 and constant
    term <= 0, so it has exactly one positive root unless c1 = c2 = 0.  The
    root is compared with the limits along the four edges x -> 0, inf (at
    y = c2/b2, a2/c2) and y -> 0, inf (at x = c1/b1, a1/c1), each of the
    form 4 a (b - c^2/d).  For a product form (c1 = c2 = 0) the infimum is
    the least edge, 4 min(a1 a2, b1 b2).  A non-positive minimum, rounding
    when |c| ~ sqrt(ab), is refused.

    Returns (minimum, bound, direction (w1, w2), path) with path "root",
    "edge" or "product", and bound a first-order bound on the minimum's
    relative rounding error in units of the machine epsilon: `_cone_ratio`'s
    at the root, and on an edge the cancellation (b + c^2/d) / (b - c^2/d)
    plus two units.  Edge and product minima are approached only at
    infinity, so they report the finite direction on the winning edge with
    the far coordinate at eps (or 1/eps) and the other clipped to [eps, 1/eps].
    """
    (a1, b1, c1), (a2, b2, c2) = triples
    eps = _EDGE_EPS

    def clip(z):
        return min(max(z, eps), 1 / eps)

    edges = ((a1, a2, c2 * c2 / b2, (eps, clip(c2 / b2))),
             (b1, b2, c2 * c2 / a2, (1 / eps, 1 / clip(c2 / a2))),
             (a2, a1, c1 * c1 / b1, (clip(c1 / b1), eps)),
             (b2, b1, c1 * c1 / a1, (1 / clip(c1 / a1), 1 / eps)))
    a, b, q, w_edge = min(edges, key=lambda e: e[0] * (e[1] - e[2]))   # the first least
    edge = 4 * (a * (b - q))
    if not edge > 0:
        raise NonPositiveDeterminantError(
            "det(gamma + gamma_M) is non-positive in the large-detector limit")
    cond = (b + q) / (b - q) + 2
    if c1 == 0 and c2 == 0:
        return edge, cond, w_edge, "product"
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
        (val,), root_cond = _cone_ratio(triples, x, y)
        # a root that does not beat the edges by more than rounding lies at
        # infinity to working precision (|c| -> 0 sends x or 1/x -> inf)
        if val < edge * (1 - _EDGE_MARGIN):
            return val, root_cond, (x, y), "root"
    return edge, cond, w_edge, "edge"


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


def minmax_optimize(gamma: CovMatrix, partition: list[int] | None = None,
                    tol: float = TOL_PSD) -> WitnessReport:
    """Minimize the detection ratio over detectors of the state's family.
    The state and its cut are admitted by `admitted_family`, as in
    `decide_separability`: a CM that fails `require_physical` at `tol` is
    refused, since no witness is matched to a state that does not exist, and
    so is a `partition` that names neither party of the family's cut.  Either
    party's label gives the same report.  `tol` reaches nothing else.

    The outer minimum over detector directions on the degenerate cone is the
    closed-form `_limit_argmin`; its path is reported in `diagnostics`.  The
    matched detector is realized at the scales `AUDIT_SCALES`, where Lambda
    (`_cone_lambda`) and ell (`_cone_ratio`) are closed forms too; the ratio
    along t is the scaling audit.  `diagnostics` bounds the relative
    rounding error of ell and ell_limit from the standard form's doubles to
    first order, as `ell_rel_err` and `ell_limit_rel_err`.  The report is
    `boundary` where either lies within its own bound of 1, or where the
    two fall on either side of 1, so that the audit has not settled the sign.
    """
    family = admitted_family(gamma, partition, tol)
    form, _ = reduce_to_standard_form(gamma, family)
    power = family.power
    triples = _abs_triples(form)
    limit, limit_cond, (w1, w2), path = _limit_argmin(triples)
    ell_limit = float(limit ** power)
    t = AUDIT_SCALES[-1]
    matched = DetectorSpec(family, t * w1, t * w2, t * (1 / w1), t * (1 / w2),
                           -t if form.x[2] < 0 else t, -t if form.p[2] < 0 else t)
    ratios, cond = _cone_ratio(triples, w1, w2, AUDIT_SCALES)
    audit = tuple((scale, ratio ** power) for scale, ratio in zip(AUDIT_SCALES, ratios))
    ell = audit[-1][1]
    lam, xy = _cone_lambda(w1, w2, t, power)
    ell_err, limit_err = (sys.float_info.epsilon * power * c for c in (cond, limit_cond))
    boundary = (abs(ell - 1) <= ell * ell_err or abs(ell_limit - 1) <= ell_limit * limit_err
                or (ell < 1) != (ell_limit < 1))
    return WitnessReport(
        lam=lam, ell=ell, ell_limit=ell_limit,
        matched_params=matched, argmax_xy=xy,
        trace_mean=lam / ell, scaling_audit=audit,
        entangled=(not boundary) and ell < 1, boundary=boundary,
        diagnostics={"path": path, "ell_rel_err": ell_err, "ell_limit_rel_err": limit_err})
