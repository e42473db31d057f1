"""Matched-witness machinery: the product-state maximum of a Gaussian detector,
the detection ratio, and the min-max search for the matched detector.

For both supported detector families det(gamma_M + gamma_A (+) gamma_B)
factorizes into two scalar factors g1, g2.  For a generic detector the
product-state maximum Lambda is a safeguarded Newton minimization of g1 g2
(`lambda_closed_form`).  The matched witness lies on the degenerate cone
m5^2 = m1 m3, m6^2 = m2 m4: m1 = t w1, m3 = t/w1, m2 = t w2, m4 = t/w2,
m5 = +-t, m6 = +-t.  There, with s = u + 1/u and u = sqrt(w1 w2),

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

from .exceptions import (DimensionMismatchError, NonPositiveDeterminantError,
                         NotEntangledError, OptimizerStalledError)
from .standard_form import (Family, WernerWolfForm, detect_family,
                            quadrature_triples, reduce_to_standard_form)
from .symplectic import CovMatrix

#: boundary band on |ell - 1| below which no binary verdict is issued.
TOL_ELL_BOUNDARY = 1e-9

#: relative gain over the edge limits below which the interior root of the
#: limit ratio is taken to lie at infinity (a few ulps of rounding).
_EDGE_MARGIN = 1e-14

#: detector scales t of the scaling audit; the matched detector is the last.
AUDIT_SCALES = (1e2, 1e3, 1e4)

#: an edge or product minimum lies at infinity; its finite direction puts the
#: far coordinate at eps = t^(-1/2) of the matched scale.
_EDGE_EPS = AUDIT_SCALES[-1] ** -0.5


@dataclass(frozen=True)
class DetectorSpec:
    """Gaussian detector with family-patterned CM, parameters M1..M6."""

    family: Family
    m1: float
    m2: float
    m3: float
    m4: float
    m5: float
    m6: float

    @property
    def params(self) -> tuple[float, ...]:
        return (self.m1, self.m2, self.m3, self.m4, self.m5, self.m6)

    def to_cm(self) -> CovMatrix:
        if self.family is Family.TWO_MODE:
            m = np.diag(np.array([self.m1, self.m2, self.m3, self.m4], dtype=float))
            m[0, 2] = m[2, 0] = self.m5
            m[1, 3] = m[3, 1] = -self.m6
            return CovMatrix(m)
        return WernerWolfForm(self.m1, self.m2, self.m3, self.m4,
                              self.m5, self.m6).to_cm()

    def scaled(self, t: float) -> "DetectorSpec":
        return DetectorSpec(self.family, *(t * p for p in self.params))

    @property
    def n_modes(self) -> int:
        return 2 if self.family is Family.TWO_MODE else 4


def detector_from_cm(gamma: CovMatrix) -> DetectorSpec:
    """Read detector parameters off a family-patterned CM (no reduction)."""
    family = detect_family(gamma)
    form, s = reduce_to_standard_form(gamma, family)
    if np.max(np.abs(s.mat - np.eye(gamma.dim))) > 1e-8:
        raise DimensionMismatchError("CM is not already in the family pattern")
    if family is Family.TWO_MODE:
        m = gamma.mat
        return DetectorSpec(family, m[0, 0], m[1, 1], m[2, 2], m[3, 3],
                            m[0, 2], -m[1, 3])
    return DetectorSpec(family, form.A, form.B, form.C, form.D, form.E, form.F)


def _bilinear(c: tuple[float, float, float, float], x: float,
              y: float) -> tuple[float, float, float, float]:
    """G = c0 + cx x + cy y + cxy x y and its (log x, log y) derivatives
    G_u, G_v, G_uv; since G is linear in each variable, G_uu = G_u and
    G_vv = G_v."""
    c0, cx, cy, cxy = c
    gu = x * (cx + cxy * y)
    gv = y * (cy + cxy * x)
    return c0 + cy * y + gu, gu, gv, cxy * x * y


def _min_det_factors(d: DetectorSpec, tol: float = 1e-16,
                     max_iter: int = 100) -> tuple[float, tuple[float, float]]:
    """Minimize g1(x, y) * g2(x, y) over x, y > 0.

    With g1 = G1 and g2 = G2 / (x y), where G1 = (m1 + x/2)(m3 + y/2) - m5^2
    and G2 = (m2 x + 1/2)(m4 y + 1/2) - m6^2 x y are bilinear, the objective
    in u = log x, v = log y is F = log G1 + log G2 - u - v.  It is convex for
    a physical detector (both G are then posynomials in e^u, e^v).  A coarse
    log grid seeds a Newton iteration with a backtracking line search; the
    iteration stops once the Newton decrement, half of which estimates the
    relative distance of the value from the minimum, falls below `tol`.
    """
    m1, m2, m3, m4, m5, m6 = d.params
    c1 = (m1 * m3 - m5 ** 2, m3 / 2, m1 / 2, 0.25)
    c2 = (0.25, m2 / 2, m4 / 2, m2 * m4 - m6 ** 2)
    xs = np.exp(np.linspace(-3, 3, 13))
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    prod = _bilinear(c1, xg, yg)[0] * _bilinear(c2, xg, yg)[0] / (xg * yg)
    if np.min(prod) <= 0:
        raise NonPositiveDeterminantError(
            "det(gamma_M + gamma_A (+) gamma_B) is non-positive on the grid")
    i, j = np.unravel_index(np.argmin(prod), prod.shape)
    u, v = np.log(xs[i]), np.log(xs[j])

    def objective(u, v):
        x, y = math.exp(u), math.exp(v)
        t1, t2 = _bilinear(c1, x, y), _bilinear(c2, x, y)
        if t1[0] <= 0 or t2[0] <= 0:
            return math.inf, t1, t2
        return math.log(t1[0]) + math.log(t2[0]) - u - v, t1, t2

    f, t1, t2 = objective(u, v)
    if math.isinf(f):
        raise NonPositiveDeterminantError("determinant factor is non-positive")
    decrement = math.inf
    for it in range(max_iter):
        (g1, g1u, g1v, g1uv), (g2, g2u, g2v, g2uv) = t1, t2
        pu, pv, qu, qv = g1u / g1, g1v / g1, g2u / g2, g2v / g2
        gu, gv = pu + qu - 1, pv + qv - 1
        huu = pu - pu * pu + qu - qu * qu
        hvv = pv - pv * pv + qv - qv * qv
        huv = g1uv / g1 - pu * pv + g2uv / g2 - qu * qv
        det = huu * hvv - huv * huv
        if huu > 0 and det > 0:
            su, sv = (huv * gv - hvv * gu) / det, (huv * gu - huu * gv) / det
        else:   # not convex here: steepest descent
            su, sv = -gu, -gv
        decrement = -(gu * su + gv * sv)
        if decrement <= tol:
            break
        t = 1.0
        for _ in range(60):
            f_new, t1_new, t2_new = objective(u + t * su, v + t * sv)
            if f_new <= f - 1e-4 * t * decrement:
                break
            t /= 2
        if not f_new < f:
            if decrement <= 1e-12:   # F is flat to rounding: converged
                break
            raise OptimizerStalledError(
                "determinant minimization: line search failed",
                diagnostics={"iterations": it, "decrement": decrement,
                             "value": math.exp(f)})
        u, v = u + t * su, v + t * sv
        f, t1, t2 = f_new, t1_new, t2_new
    else:
        raise OptimizerStalledError(
            "determinant minimization did not converge",
            diagnostics={"iterations": max_iter, "decrement": decrement,
                         "value": math.exp(f)})
    x, y = math.exp(u), math.exp(v)
    return t1[0] * t2[0] / (x * y), (x, y)


def lambda_closed_form(d: DetectorSpec) -> tuple[float, tuple[float, float]]:
    """Maximal detector mean over product pure states and the minimizing (x, y)."""
    val, xy = _min_det_factors(d)
    if d.family is Family.TWO_MODE:
        return 1.0 / np.sqrt(val), xy
    # four-mode determinant is the square of the factor product
    return 1.0 / val, xy


def _abs_triples(form) -> list[tuple[float, float, float]]:
    """The form's quadrature triples (a, b, |c|) as Python floats, so that an
    overflow in the closed forms is inf, not a warning."""
    return [(float(a), float(b), abs(float(c)))
            for a, b, c in quadrature_triples(form)]


def _cone_lambda(w1: float, w2: float, t: float,
                 power: float) -> tuple[float, tuple[float, float]]:
    """Lambda of the cone detector of direction (w1, w2) at scale t and its
    maximizing (x, y): min g1 g2 = (1 + 2 t s)^2 / 16 at x = sqrt(w1/w2),
    y = 1/x (module docstring), inverted as in `lambda_closed_form`."""
    u = math.sqrt(w1) * math.sqrt(w2)
    x = math.sqrt(w1 / w2)
    return (4 / (1 + 2 * t * (u + 1 / u))) ** (2 * power), (x, 1 / x)


def _cone_ratio(form, w1: float, w2: float,
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


def _limit_argmin(form) -> tuple[float, tuple[float, float], str]:
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
    matched_params: DetectorSpec
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
    power = 0.5 if family is Family.TWO_MODE else 1.0
    limit, (w1, w2), path = _limit_argmin(form)
    if not limit > 0:   # rounding when |c| ~ sqrt(ab) at a very large scale
        raise NonPositiveDeterminantError(
            "det(gamma + gamma_M) is non-positive in the large-detector limit")
    ell_limit = float(limit ** power)
    (_, _, c5), (_, _, c6) = quadrature_triples(form)
    direction = DetectorSpec(family, w1, w2, 1 / w1, 1 / w2,
                             np.sign(c5) or 1.0, np.sign(c6) or 1.0)
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


def matched_witness(gamma: CovMatrix) -> tuple[float, DetectorSpec, float]:
    """(Lambda, matched detector, violation) with violation = Lambda - Tr(rho M*)."""
    report = minmax_optimize(gamma)
    if not report.entangled:
        raise NotEntangledError(f"state has ell = {report.ell:.6g} >= 1")
    violation = report.lam - report.trace_mean
    return report.lam, report.matched_params, float(violation)
