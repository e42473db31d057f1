"""Closed-form separability criteria and feasibility certificates.

The two-mode decision is Simon's condition; the four-mode decision is the
generalized Werner-Wolf condition.  Both come with a product-squeezed-state
feasibility search that produces an explicit separability certificate (x, y).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as la
import scipy.optimize as opt

from .exceptions import ConstraintViolatedError, PatternMismatchError
from .standard_form import (Family, TwoModeStandardForm, WernerWolfForm,
                            detect_family, reduce_to_standard_form)
from .symplectic import TOL_PSD, CovMatrix, symplectic_form, validate_cm

#: |lhs| below this is reported as Boundary instead of a binary verdict.
TOL_BOUNDARY = 1e-9

#: minimum slack accepted for a feasibility certificate.
TOL_CERT = 1e-10


class Verdict(str, Enum):
    ENTANGLED = "Entangled"
    SEPARABLE = "Separable"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class PptReport:
    is_ppt: bool
    min_pt_symplectic_eig: float


@dataclass(frozen=True)
class CriterionReport:
    verdict: Verdict
    lhs_value: float
    criterion_name: str
    certificate: tuple[float, float] | None = None
    ppt: PptReport | None = None
    bound_entangled: bool = False
    note: str = ""


@dataclass(frozen=True)
class WWFamilyParams:
    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d, self.e) <= 0:
            raise ConstraintViolatedError("all five parameters must be positive")
        if self.a * self.d - self.b * self.c <= 0:
            raise ConstraintViolatedError("ad - bc must be positive")
        if self.c * self.e - self.a <= 0:
            raise ConstraintViolatedError("ce - a must be positive")


def simon_lhs(f: TwoModeStandardForm) -> float:
    """Simon's separability quantity; negative means entangled."""
    a, b, c1, c2 = f.a, f.b, f.c1, f.c2
    return ((a * b - c1 ** 2) * (a * b - c2 ** 2) - 0.5 * abs(c1 * c2)
            - 0.25 * (a ** 2 + b ** 2) + 1.0 / 16)


def werner_wolf_lhs(f: WernerWolfForm) -> float:
    """Generalized Werner-Wolf separability quantity; negative means entangled."""
    return ((f.A * f.C - f.E ** 2) * (f.B * f.D - f.F ** 2) - 0.5 * abs(f.E * f.F)
            - 0.25 * (f.C * f.D + f.A * f.B) + 1.0 / 16)


def werner_wolf_family(p: WWFamilyParams) -> WernerWolfForm:
    """Six-scalar CM parameters of the five-parameter Werner-Wolf state family."""
    a, b, c, d, e = p.a, p.b, p.c, p.d, p.e
    den = 2 * (c * e - a)
    return WernerWolfForm(
        A=(d * e - b) / den,
        B=a / (2 * b),
        C=c * (d * a - b * c) / den,
        D=(e * b + d) / (2 * b * (a * d - b * c)),
        E=(a * d - b * c) / den,
        F=1 / (2 * b),
    )


def werner_wolf_family_lhs_claim(p: WWFamilyParams) -> float:
    """Closed-form family value quoted for the criterion LHS (audited, not normative)."""
    return -(p.a * p.d - p.b * p.c) / (16 * p.b * (p.c * p.e - p.a))


def momentum_flip(n_modes: int, party_b: list[int]) -> np.ndarray:
    p = np.ones(2 * n_modes)
    for mode in party_b:
        p[2 * mode + 1] = -1.0
    return np.diag(p)


def ppt_decide(gamma: CovMatrix, partition: list[int] | None = None,
               tol: float = TOL_PSD) -> PptReport:
    """Momentum-flip partial transpose test.

    `partition` lists party A's modes; momenta of the remaining modes are flipped.
    Defaults to the first half of the modes.  `tol` is the bona-fide tolerance
    of `validate_cm` on the partial transpose.
    """
    n = gamma.n_modes
    if partition is None:
        partition = list(range(n // 2))
    party_b = [m for m in range(n) if m not in partition]
    p = momentum_flip(n, party_b)
    pt = p @ gamma.mat @ p
    rep = validate_cm(CovMatrix(pt), tol)
    eigs = la.eigvals(1j * symplectic_form(n) @ pt)
    min_nu = float(np.min(np.abs(eigs.real)))
    return PptReport(is_ppt=rep.is_physical, min_pt_symplectic_eig=min_nu)


def _feasibility_conditions(form) -> tuple[tuple, tuple]:
    """(alpha, beta, c) per condition: (alpha - x/2)(beta - y/2) >= c^2 and the
    reciprocal-squeeze analogue."""
    if isinstance(form, TwoModeStandardForm):
        return (form.a, form.b, form.c1), (form.a, form.b, form.c2)
    if isinstance(form, WernerWolfForm):
        return (form.A, form.C, form.E), (form.B, form.D, form.F)
    raise PatternMismatchError(f"unsupported form {type(form).__name__}")


def _slacks(x, y, cond1, cond2):
    a1, b1, c1 = cond1
    a2, b2, c2 = cond2
    s1 = min(a1 - x / 2, b1 - y / 2, (a1 - x / 2) * (b1 - y / 2) - c1 ** 2)
    s2 = min(a2 - 1 / (2 * x), b2 - 1 / (2 * y),
             (a2 - 1 / (2 * x)) * (b2 - 1 / (2 * y)) - c2 ** 2)
    return min(s1, s2)


def _quadratic_candidates(cond1, cond2):
    """Intersection points of the two equality curves: the combination reduces
    to a quadratic in x after clearing denominators."""
    a1, b1, c1 = cond1
    a2, b2, c2 = cond2
    # y(x) = N(x)/D(x) on the first equality curve
    n_poly = np.poly1d([-b1, 2 * a1 * b1 - 2 * c1 ** 2])
    d_poly = np.poly1d([-0.5, a1])
    lhs = np.poly1d([2 * a2, -1]) * (2 * b2 * n_poly - d_poly)
    rhs = 4 * c2 ** 2 * np.poly1d([1, 0]) * n_poly
    p = lhs - rhs
    cands = []
    for x in np.roots(p.coeffs):
        if abs(x.imag) > 1e-9 or x.real <= 0:
            continue
        x = float(x.real)
        d = d_poly(x)
        if abs(d) < 1e-14:
            continue
        y = float(n_poly(x) / d)
        if y > 0:
            cands.append((x, y))
    return cands


def product_cm(form, x: float, y: float) -> CovMatrix:
    """CM of the product squeezed-vacuum state used as separability certificate."""
    ga = np.diag([x / 2, 1 / (2 * x)])
    gb = np.diag([y / 2, 1 / (2 * y)])
    if isinstance(form, TwoModeStandardForm):
        return CovMatrix(la.block_diag(ga, gb))
    return CovMatrix(la.block_diag(ga, ga, gb, gb))


def certificate_min_eig(form, x: float, y: float) -> float:
    diff = form.to_cm().mat - product_cm(form, x, y).mat
    return float(np.min(la.eigvalsh(diff)))


def feasibility_search(form, grid: int = 256) -> tuple[float, float] | None:
    """Search for (x, y) making the state a classical mixture of displaced
    product squeezed states.  None when no such point exists."""
    cond1, cond2 = _feasibility_conditions(form)
    a1, b1, c1 = cond1
    a2, b2, c2 = cond2
    x_lo, x_hi = 1 / (2 * a2), 2 * a1
    y_lo, y_hi = 1 / (2 * b2), 2 * b1
    if x_lo > x_hi or y_lo > y_hi:
        return None

    candidates = [(1.0, 1.0)] if x_lo <= 1 <= x_hi and y_lo <= 1 <= y_hi else []
    candidates += _quadratic_candidates(cond1, cond2)
    # equality-curve intersection may be reported in either variable order
    candidates += [(x, y) for (y, x) in _quadratic_candidates(
        (b1, a1, c1), (b2, a2, c2))]

    best = None
    best_slack = -np.inf
    for x, y in candidates:
        if not (x_lo - 1e-12 <= x <= x_hi + 1e-12 and y_lo - 1e-12 <= y <= y_hi + 1e-12):
            continue
        s = _slacks(x, y, cond1, cond2)
        if s > best_slack:
            best, best_slack = (x, y), s

    if best_slack < TOL_CERT:
        # adaptive grid fallback (also the independent oracle for the roots path)
        xs = np.linspace(x_lo, x_hi, grid)
        ys = np.linspace(y_lo, y_hi, grid)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        s1 = np.minimum((a1 - xg / 2) * (b1 - yg / 2) - c1 ** 2,
                        np.minimum(a1 - xg / 2, b1 - yg / 2))
        s2 = np.minimum((a2 - 1 / (2 * xg)) * (b2 - 1 / (2 * yg)) - c2 ** 2,
                        np.minimum(a2 - 1 / (2 * xg), b2 - 1 / (2 * yg)))
        s = np.minimum(s1, s2)
        i, j = np.unravel_index(np.argmax(s), s.shape)
        x0, y0 = xs[i], ys[j]
        res = opt.minimize(
            lambda v: -_slacks(np.exp(v[0]), np.exp(v[1]), cond1, cond2),
            [np.log(x0), np.log(y0)], method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": 2000})
        x1, y1 = np.exp(res.x)
        for x, y in [(x0, y0), (x1, y1)]:
            srefined = _slacks(x, y, cond1, cond2)
            if srefined > best_slack:
                best, best_slack = (x, y), srefined

    if best is None or best_slack < -TOL_CERT:
        return None
    x, y = best
    if certificate_min_eig(form, x, y) < -TOL_CERT:
        return None
    return float(x), float(y)


def _default_partition(family: Family) -> list[int]:
    return [0] if family is Family.TWO_MODE else [0, 1]


def decide_separability(gamma: CovMatrix, partition: list[int] | None = None,
                        tol: float = TOL_PSD) -> CriterionReport:
    """Full closed-form decision: standard-form reduction, family criterion,
    feasibility certificate and PPT annotation.  `tol` is the bona-fide
    tolerance of `validate_cm`, applied to the state and its partial
    transpose."""
    if not validate_cm(gamma, tol).is_physical:
        raise PatternMismatchError("covariance matrix is not physical")
    family = detect_family(gamma)
    if partition is not None and sorted(partition) != _default_partition(family):
        raise PatternMismatchError(
            f"family {family.value} fixes partition {_default_partition(family)}")
    form, _ = reduce_to_standard_form(gamma, family)
    if family is Family.TWO_MODE:
        lhs = simon_lhs(form)
        name = "simon"
    else:
        lhs = werner_wolf_lhs(form)
        name = "werner_wolf"
    ppt = ppt_decide(gamma, _default_partition(family), tol)

    if lhs < -TOL_BOUNDARY:
        return CriterionReport(
            verdict=Verdict.ENTANGLED, lhs_value=lhs, criterion_name=name,
            ppt=ppt, bound_entangled=ppt.is_ppt,
            note="bound entanglement (PPT but entangled)" if ppt.is_ppt else "")
    cert = feasibility_search(form)
    if cert is None:
        # nonnegative criterion but no certificate: boundary / undecided
        note = "" if abs(lhs) <= TOL_BOUNDARY else \
            "criterion nonnegative but certificate search failed"
        return CriterionReport(
            verdict=Verdict.BOUNDARY, lhs_value=lhs, criterion_name=name,
            ppt=ppt, note=note)
    # an explicit certificate proves separability even on the boundary
    return CriterionReport(
        verdict=Verdict.SEPARABLE, lhs_value=lhs, criterion_name=name,
        certificate=cert, ppt=ppt)
