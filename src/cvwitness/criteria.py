"""Closed-form separability criteria and separability certificates.

The two-mode decision is Simon's condition (Simon, PRL 84, 2726 (2000)); the
four-mode decision is the generalized Werner-Wolf condition.  On the
quadrature triples of the standard form both are one polynomial,
`separability_lhs`.  A state with a nonnegative criterion is
certified separable by an explicit product squeezed state (x, y) that its CM
dominates (Werner & Wolf, PRL 86, 3658 (2001)).  The certificate is closed
form: the vacuum point (1, 1) when it works, otherwise the maximum of a
log-concave function of x at the root of one quadratic.  Domination is two
2x2 inequalities, one per quadrature triple, so `certificate_min_eig` checks
the certificate on those two blocks in closed form, with no eigensolver.

A decision takes its criterion and PPT annotation from one exact pass over
the standard form's doubles (`_form_criterion`): x and p decouple, so the
squared symplectic eigenvalues of the partial transpose are the roots of
one quadratic whose constant term is the criterion's determinant D, and a
decision calls no eigensolver after its admission.  `ppt_decide` tests any
cut of any mode count by eigensolves (`_ppt_report`): the partial
transpose flips party B's momenta, so it is
the CM's array times a sign matrix, cached per mode count and party A.  A
local symplectic keeps the sign of its bona-fide test, so that test is
taken on the local normal form, an image of gamma at the scale of its
symplectic eigenvalues.  On gamma a squeeze e^r shrinks the eigenvalue like
e^-2r and grows rounding like e^2r, so a squeezed entangled state would
read PPT.

`ppt_decide` and `decide_separability` refuse a CM that is not a state
(`require_physical`), and their `tol` reaches that admission and nothing
else.  Every least-eigenvalue sign is read against its own rounding, 2 eps
per dimension times the scale of the matrix whose eigenvalue it is (the
rule of `validate_cm`, `symplectic._EIG_ROUNDING`), with no absolute floor:
the PPT test, on the standard form (`_form_criterion`) or on the image
(`_ppt_report`), lifted by that matrix's own deficit, which carries the
rounding it inherits from gamma and lets a tolerance admit a noisy state
but not turn an entangled one PPT; and the certificate slack on its 2x2
blocks (`_certifies`), at the scale of the rounding the standard form
inherits (`QuadratureForm.rounding_scale`).  So is the sign of the
criterion (`_form_criterion`): the criterion of the form's doubles is
rounded once, so its band is half an ulp plus the rounding the form's
entries inherit.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .exceptions import (ConstraintViolatedError, DimensionMismatchError, PartitionError,
                         PatternMismatchError, ScaleOverflowError)
from .standard_form import (Family, QuadratureForm, WernerWolfForm,
                            detect_family, local_normal_form, reduce_to_standard_form)
from .symplectic import (_EIG_ROUNDING, TOL_PSD, CovMatrix, _bona_fide_floor, _bona_fide_min_eig,
                         _integers, _quotient, _williamson_spectrum, validate_cm)


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
    lhs_rounding: float
    criterion_name: str
    ppt: PptReport
    certificate: tuple[float, float] | None = None
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


def separability_lhs(form: QuadratureForm) -> float:
    """Simon's quantity of a two-mode standard form, the generalized
    Werner-Wolf quantity of a Werner-Wolf one; negative means entangled.

    With the triples (a1, b1, c1) of x and (a2, b2, c2) of p it is
    (a1 b1 - c1^2)(a2 b2 - c2^2) - |c1 c2|/2 - (a1 a2 + b1 b2)/4 + 1/16,
    formed exactly from the form's doubles and rounded once
    (`_form_criterion`), or inf of its exact sign past double precision.

    `criteria.simon_lhs` and `criteria.werner_wolf_lhs` are aliases of it,
    kept only for the benchmark's workloads, which call them by those names;
    the package does not export them, and they go with ROADMAP item 11 once
    item 1 points the workloads here."""
    return _form_criterion(form)[0]


simon_lhs = werner_wolf_lhs = separability_lhs


def werner_wolf_family(p: WWFamilyParams) -> QuadratureForm:
    """Six-scalar CM parameters of the five-parameter Werner-Wolf state family."""
    a, b, c, d, e = p.a, p.b, p.c, p.d, p.e
    den = 2 * (c * e - a)
    return WernerWolfForm(
        (d * e - b) / den,
        a / (2 * b),
        c * (d * a - b * c) / den,
        (e * b + d) / (2 * b * (a * d - b * c)),
        (a * d - b * c) / den,
        1 / (2 * b),
    )


@lru_cache
def _pt_flip(n_modes: int, party_a: frozenset) -> np.ndarray:
    """s s^T with s = -1 on party B's momenta, so that the partial transpose
    is gamma * flip; cached per mode count and party A, read-only."""
    s = np.array([(1.0, 1.0 if mode in party_a else -1.0) for mode in range(n_modes)]).ravel()
    flip = np.outer(s, s)
    flip.flags.writeable = False
    return flip


def _splits(partition: list[int], n_modes: int) -> bool:
    """Whether party A = `partition` and its complement are both nonempty
    sets of the modes 0..n_modes - 1."""
    modes = set(partition)
    return bool(modes) and modes < set(range(n_modes))


def _ppt_report(gamma: CovMatrix, image: CovMatrix, party_a: frozenset) -> PptReport:
    """The bona-fide test of the partial transpose of `image`, gamma under a
    local symplectic, and the symplectic spectrum of gamma's own, by
    eigensolves: the route of `ppt_decide`, for any cut of any mode count.
    A decision takes the closed form `_form_criterion` on its standard form.

    The floor is the eigensolve's rounding at the image's scale, with no
    absolute part, widened by the image's own deficit d = min(0, least
    eigenvalue of image + i sigma/2): PT(image - d I) = PT(image) - d I, so
    this tests the PT of the image lifted onto the states by local noise.
    For a state, d is the rounding the image inherits from gamma, which a
    local squeeze grows past the image's own: a product of vacua squeezed
    to r = 2 has an image whose PT misses the states by about 100 eps, and
    d by the same.  For an input admitted at a `tol` above 0, d is what
    makes a noisy product read PPT.  As d only lowers the floor, it is
    taken only where the PT reads NPT without it, from the image's kept
    `_min_eig`: one eigensolve more for an NPT reading, none for a PPT one."""
    flip = _pt_flip(gamma.n_modes, party_a)
    floor = _bona_fide_floor(image, 0.0)
    pt = _bona_fide_min_eig(image.mat * flip)
    return PptReport(
        is_ppt=pt >= floor or pt >= floor + min(0.0, image._min_eig),
        min_pt_symplectic_eig=float(_williamson_spectrum(gamma.mat * flip)[0]))


def _form_criterion(form: QuadratureForm) -> tuple[float, float, PptReport]:
    """(lhs, rounding, PPT annotation) of a standard form, from one exact
    pass over its doubles, as integers over a common power of two
    (`_integers`): D = P1 P2 with P_i = a_i b_i - c_i^2, the criterion
    D - |c1 c2|/2 - (a1 a2 + b1 b2)/4 + 1/16, and the PPT quadratic's T and
    T^2 - 4D, each output rounded once.  So lhs is correctly rounded, or inf
    of its exact sign.  A form with an entry that is not a finite number is
    refused.

    rounding bounds lhs's distance from the criterion of the state the form
    was reduced from, to first order: half an ulp, plus 2 eps per dimension
    times `QuadratureForm.rounding_scale` (the rounding each entry inherits,
    as the certificate reads it) times the sum of |d lhs / d entry|, at most
    s1 (|P2| + 1/4) + s2 (|P1| + 1/4) with s_i = a_i + b_i + 2 |c_i| (the
    variances of a reduced state are positive), formed exactly.

    The x and p quadratures decouple, so the partial transpose's squared
    symplectic eigenvalues solve lambda^2 - T lambda + D = 0, with
    T = a1 a2 + b1 b2 + 2 k c1 c2: k = 1 for two modes (Simon, PRL 84, 2726
    (2000)), and k = 0 for Werner-Wolf, whose T sees the p correlation only
    squared, so that the partial transpose keeps the state's own spectrum,
    each root twice.  D, T and T^2 - 4D are scaled by a power of two to the
    largest |entry| so that nothing leaves double precision; the least
    eigenvalue is sqrt(2D / (T + sqrt(T^2 - 4D))), which does not cancel.

    It reads PPT at 1/2 less the eigensolve's rounding at the form's scale
    (`_EIG_ROUNDING` 2n max |entry|), and wherever k c1 c2 is not positive
    beyond the rounding the entries carry (`QuadratureForm.rounding_scale`).
    At k c1 c2 <= 0 the form's own T is at least the partial transpose's,
    so the partial transpose's least symplectic eigenvalue is at least the
    form's own: the form lifted onto the states by its own deficit has a PPT
    partial transpose, as `_ppt_report` lifts the image.  A separable state
    with det C = 0 on the PPT boundary, locally squeezed, reduces to a c2 of
    the size of that rounding, of either sign."""
    values = (*form.x, *form.p)
    if not all(map(math.isfinite, values)):
        raise DimensionMismatchError(f"form entries {values} are not all finite")
    (a1, b1, c1, a2, b2, c2), big = _integers(*values)
    big2 = big * big
    p1, p2 = a1 * b1 - c1 * c1, a2 * b2 - c2 * c2
    det = p1 * p2
    sums = a1 * a2 + b1 * b2
    # the criterion times 16 big^4 and the slope times 4 big^3 are integers
    lhs = _quotient(16 * det - 4 * big2 * (2 * abs(c1 * c2) + sums) + big2 * big2,
                    16 * big2 * big2)
    s1, s2 = a1 + b1 + 2 * abs(c1), a2 + b2 + 2 * abs(c2)
    slope = _quotient(4 * (s1 * abs(p2) + s2 * abs(p1)) + big2 * (s1 + s2), 4 * big2 * big)
    eig_rounding = _EIG_ROUNDING * 2 * form.n_modes
    scale = float(max(map(abs, values)))
    # scaled by 2^-k, below 1, the entries are n / unit with unit = big 2^k,
    # an integer: a nonzero entry is at least 1 / big
    k = math.frexp(scale)[1]
    unit = big << k if k >= 0 else big >> -k
    u2 = unit * unit
    u4 = u2 * u2
    two_mode = form.family is Family.TWO_MODE
    trace = sums + (2 * c1 * c2 if two_mode else 0)
    d, t = det / u4, trace / u2
    den = t + math.sqrt(max((trace * trace - 4 * det) / u4, 0.0))
    nu = math.ldexp(math.sqrt(2 * d / den), k) if d > 0 and den > 0 else 0.0
    cx, cp = float(values[2]), float(values[5])
    lhs_rounding = math.ulp(lhs) / 2 + eig_rounding * form.rounding_scale * slope
    return lhs, lhs_rounding, PptReport(
        is_ppt=nu >= 0.5 - eig_rounding * scale or not two_mode
        or cx * cp <= eig_rounding * form.rounding_scale * max(abs(cx), abs(cp)),
        min_pt_symplectic_eig=nu)


def ppt_decide(gamma: CovMatrix, partition: list[int] | None = None,
               tol: float = TOL_PSD) -> PptReport:
    """Momentum-flip partial transpose test.

    `partition` lists party A's modes; momenta of the remaining modes are flipped.
    Defaults to the first half of the modes.  A CM that fails
    `require_physical` at `tol` is refused, as is a partition that leaves a
    party empty or names a mode outside the state.  The test is taken on
    `local_normal_form(gamma)`, which refuses a CM squeezed past rounding,
    at the floor of `_ppt_report`: `tol` admits the input and nothing else.
    """
    require_physical(gamma, tol)
    n = gamma.n_modes
    if partition is None:
        partition = list(range(n // 2))
    if not _splits(partition, n):
        raise PartitionError(
            f"partition {partition} must name between 1 and {n - 1} of the "
            f"modes 0..{n - 1}")
    return _ppt_report(gamma, local_normal_form(gamma), frozenset(partition))


def _peak(cond1, cond2) -> tuple[float, float, float]:
    """(x*, f1(x*), f2(x*)) at the maximum of phi = 4 f1 f2 over x, where
    f1 = b1 - c1^2/(a1 - x/2) and f2 = b2 - c2^2/(a2 - 1/(2x)).

    log phi is concave where both factors are positive, so its maximum is the
    one stationary point there: the root of c1^2 (2a2x - 1)(b2(2a2x - 1) -
    2c2^2 x) = c2^2 (2a1 - x)(b1(2a1 - x) - 2c1^2).  For |c1| <= |c2| it is
    solved for the offset u = a1 - x/2 from the end x = 2a1, near which the
    root lies when c1 is small, so a small c1 costs no precision; at c1 = 0,
    phi increases in x and the maximum is that end, u = 0.  For |c1| > |c2|
    the problem is mirrored: x -> 1/x swaps the two conditions.  Returns
    zero factors when phi is nowhere positive.
    """
    if abs(cond1[2]) > abs(cond2[2]):
        x, f2, f1 = _peak(cond2, cond1)
        return 1 / x, f1, f2
    (a1, b1, c1), (a2, b2, c2) = cond1, cond2
    k1, k2 = c1 * c1, c2 * c2   # a correlation that squares to 0 is 0
    u = 0.0
    if k1 > 0:
        # k = 4 a1 (b2 w - c2^2) with w = a2 - 1/(4 a1), the sign of f2 at
        # x = 2a1; f2 increases in x, so k <= 0 leaves no x with both f > 0
        k = 4 * a1 * (a2 * b2 - k2) - b2
        if k <= 0:
            return 2 * a1, 0.0, 0.0
        # the quadratic in u, divided by c2^2 >= c1^2 against underflow; as
        # qb > 0 > qc, its valid root is the smaller positive one, qc/q: the
        # other is negative or lies at x < 1/(2 a2), where f2 < 0
        r = k1 / k2
        qa = 4 * (b1 - 4 * a2 * r * (a2 * b2 - k2))
        qb = 8 * a2 * r * k
        qc = -r * (4 * a1 * a2 - 1) * k
        u = -2 * qc / (qb + math.sqrt(max(qb * qb - 4 * qa * qc, 0.0)))
    x = 2 * (a1 - u)
    w = a2 - 1 / (2 * x) if x > 0 else -1.0
    f1 = b1 - k1 / u if k1 > 0 else b1
    f2 = b2 - k2 / w if w > 0 else (b2 if w == 0 and k2 == 0 else 0.0)
    return (x, f1, f2) if f1 > 0 and f2 > 0 else (x, 0.0, 0.0)


def _is_product_state(x: float, y: float) -> bool:
    """Whether the product squeezed state (x, y) has every mode variance,
    x/2, y/2, 1/(2x) and 1/(2y), a positive finite double."""
    # x, y > 0 first: 0.5 / 0.0 raises
    return (x > 0 and y > 0 and 0 < x / 2 < math.inf and 0 < y / 2 < math.inf
            and 0 < 0.5 / x < math.inf and 0 < 0.5 / y < math.inf)


def certificate_min_eig(form: QuadratureForm, x: float, y: float) -> float:
    """Least eigenvalue of the form's CM minus the diagonal CM of the product
    squeezed-vacuum state, mode state (x, y) on every mode of party A (B).

    The difference is the x block [[a1 - x/2, c1], [c1, b1 - y/2]] and the
    p block [[a2 - 1/(2x), c2], [c2, b2 - 1/(2y)]], each on every mode pair
    across the cut up to the sign of c, which leaves the spectrum alone; the
    least eigenvalue of [[p, c], [c, q]] is (p + q)/2 - hypot((p - q)/2, c).
    A product state with a mode variance that is not a positive finite
    double is refused."""
    x, y = float(x), float(y)
    if not _is_product_state(x, y):
        raise DimensionMismatchError(f"mode variance at ({x}, {y}) is non-finite or non-positive")
    (a1, b1, c1), (a2, b2, c2) = form.x, form.p
    p1, q1, p2, q2 = a1 - x / 2, b1 - y / 2, a2 - 0.5 / x, b2 - 0.5 / y
    return float(min((p1 + q1) / 2 - math.hypot((p1 - q1) / 2, c1),
                     (p2 + q2) / 2 - math.hypot((p2 - q2) / 2, c2)))


def _certifies(form: QuadratureForm, x: float, y: float) -> bool:
    """Whether the product state (x, y) is dominated to within rounding: the
    slack `certificate_min_eig`, the least eigenvalue of the difference of
    two CMs, is at least -2 eps per dimension of that difference times M,
    the larger of the form's `rounding_scale` (its largest |entry|, or the
    rounding it inherits from the state it was reduced from) and the shifts
    x/2, y/2, 1/(2x) and 1/(2y).  Unlike the PPT test, the slack is not
    lifted by the form's deficit: the certificate holds for the input as
    given.  The tests hold the closed form to 4 eps times the scale of the
    block that attains it against a 50-digit slack."""
    slack = certificate_min_eig(form, x, y)   # refuses (x, y) first
    scale = max(form.rounding_scale, x / 2, y / 2, 0.5 / x, 0.5 / y)
    return slack >= -_EIG_ROUNDING * 2 * form.n_modes * scale


def feasibility_search(form: QuadratureForm) -> tuple[float, float] | None:
    """Product squeezed state (x, y) whose CM the form's CM dominates (to
    within rounding, `_certifies`): the separability certificate.  None when
    there is none.

    With the form's quadrature triples (a_i, b_i, c_i), the conditions are
    (a1 - x/2)(b1 - y/2) >= c1^2 and (a2 - 1/(2x))(b2 - 1/(2y)) >= c2^2.
    The vacuum point (1, 1) comes first.  Otherwise the two conditions bound
    y between g2(x) = 1/(2 f2(x)) and g1(x) = 2 f1(x), so a certificate
    exists iff phi = g1/g2 = 4 f1 f2 reaches 1; `_peak` gives the maximum of
    phi in closed form and y* = sqrt(g1 g2) is the geometric mean of the two
    bounds.  `certificate_min_eig`, the least eigenvalue of the two 2x2
    quadrature blocks of the difference in closed form (no eigensolver), is
    the final check.  On Simon's boundary max phi is 1 only to within the
    rounding of the form, and where it falls short, y* falls short of both
    bounds: a block whose diagonal entry at x is near 0 hardly feels y, and
    the other takes the whole shortfall.  The bounds g1 and g2 are then
    tried, each of which meets its own block.
    """
    if _certifies(form, 1.0, 1.0):
        return 1.0, 1.0
    x, f1, f2 = _peak(form.x, form.p)
    if not (f1 > 0 and f2 > 0):
        return None
    for y in (math.sqrt(f1 / f2), 2 * f1, 0.5 / f2):
        if _is_product_state(x, y) and _certifies(form, x, y):
            return float(x), float(y)
    return None


def require_physical(gamma: CovMatrix, tol: float = TOL_PSD) -> None:
    """Refuse a CM whose `validate_cm` report at `tol` is not physical: no
    criterion decides, and no witness or mean is taken on, a state that does
    not exist.  Every public Gaussian entry admits its input here."""
    if not validate_cm(gamma, tol).is_physical:
        raise PatternMismatchError("covariance matrix is not physical")


def admitted_family(gamma: CovMatrix, partition: list[int] | None,
                    tol: float = TOL_PSD) -> Family:
    """The family of a physical CM whose `partition` names party A or party
    B of the family's cut; None stands for that cut.  Refuses a CM that
    fails `require_physical` at `tol` and another cut (`PatternMismatchError`),
    and a partition that leaves a party empty or names a mode the state
    lacks (`PartitionError`)."""
    require_physical(gamma, tol)
    family = detect_family(gamma)
    if partition is None:
        return family
    default = list(range(family.n_modes_a))
    complement = list(range(family.n_modes_a, family.n_modes))
    if sorted(partition) not in (default, complement):
        error = PatternMismatchError if _splits(partition, family.n_modes) else PartitionError
        raise error(f"family {family.value} fixes partition {default} (or {complement})")
    return family


def decide_separability(gamma: CovMatrix, partition: list[int] | None = None,
                        tol: float = TOL_PSD) -> CriterionReport:
    """Full closed-form decision: standard-form reduction, family criterion,
    feasibility certificate and PPT annotation.  `tol` is the bona-fide
    tolerance of `validate_cm` that admits the state, and nothing else; no
    eigensolver runs after that admission.  The criterion, its rounding and
    the PPT annotation come from one exact pass over the standard form
    (`_form_criterion`), so the criterion and the PPT test read the same D.

    The criterion of the form's doubles is rounded once, and its sign is
    read against its own rounding, reported as `lhs_rounding`: half an ulp
    of lhs plus the rounding the form inherits from gamma.  Below -rounding
    the state is Entangled; otherwise a certificate makes it Separable, and
    without one it is Boundary, with a note that says whether the criterion
    lay within its rounding.  A criterion past double precision is refused
    (`ScaleOverflowError`).
    PPT is separability at 1x1 (Simon), so a two-mode binary verdict needs
    the PPT annotation to agree: Entangled against a PPT reading, or
    Separable against an NPT one, is Boundary with a note that says so, and
    without the certificate.  So no two-mode state is reported bound
    entangled; a Werner-Wolf state can be.

    `partition` may name party A or party B of the family's cut
    (`admitted_family`): both labels give the same report, since
    entanglement and PPT do not depend on which party is called A."""
    family = admitted_family(gamma, partition, tol)
    form, _ = reduce_to_standard_form(gamma, family)
    lhs, rounding, ppt = _form_criterion(form)
    if not math.isfinite(lhs):
        raise ScaleOverflowError(
            f"{family.criterion} criterion cannot be evaluated: its terms "
            f"overflow double precision")
    cert = None
    if lhs < -rounding:
        verdict = Verdict.ENTANGLED
        note = "bound entanglement (PPT but entangled)" if ppt.is_ppt else ""
    else:
        # an explicit certificate proves separability even on the boundary
        cert = feasibility_search(form)
        verdict = Verdict.SEPARABLE if cert else Verdict.BOUNDARY
        note = "" if cert else (
            "criterion within its rounding and no certificate found" if lhs <= rounding
            else "criterion nonnegative but certificate search failed")
    if (family is Family.TWO_MODE and verdict is not Verdict.BOUNDARY
            and ppt.is_ppt is not (verdict is Verdict.SEPARABLE)):
        # PPT is separability at 1x1 (Simon), so the two disagree within
        # rounding: a CM admitted just below the states, or a certificate
        # accepted within the rounding the form inherits
        note = ("criterion negative but the partial transpose reads PPT" if ppt.is_ppt
                else "certificate found but the partial transpose reads NPT"
                ) + ": they disagree within rounding"
        verdict, cert = Verdict.BOUNDARY, None
    return CriterionReport(
        verdict=verdict, lhs_value=lhs, lhs_rounding=rounding,
        criterion_name=family.criterion, ppt=ppt, certificate=cert,
        bound_entangled=verdict is Verdict.ENTANGLED and ppt.is_ppt, note=note)
