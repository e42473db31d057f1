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

The PPT annotation flips party B's momenta: the partial transpose is the
CM's array times a sign matrix, cached per mode count and party A.  A local
symplectic keeps the sign of its bona-fide test, so the test is taken on an
image of gamma at the scale of its symplectic eigenvalues: the standard form
in a decision, the local normal form otherwise.  On gamma a squeeze e^r
shrinks the eigenvalue like e^-2r and grows rounding like e^2r, so a
squeezed entangled state would read PPT.

`ppt_decide` and `decide_separability` refuse a CM that is not a state
(`require_physical`), and their `tol` reaches that admission and nothing
else.  Every least-eigenvalue sign is read against its own rounding, 2 eps
per dimension times the scale of the matrix whose eigenvalue it is (the
rule of `validate_cm`, `symplectic._EIG_ROUNDING`), with no absolute floor:
the PPT test on the image (`_ppt_report`), lifted by the image's own
deficit, which carries the rounding the image inherits from gamma and lets
a tolerance admit a noisy state but not turn an entangled one PPT; and the
certificate slack on its 2x2 blocks (`_certifies`), at the scale of the
rounding the standard form inherits (`QuadratureForm.rounding_scale`).
The bands that stay absolute on purpose are the reported Boundary bands,
`TOL_BOUNDARY` here and `witness.TOL_ELL_BOUNDARY`.
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
from .symplectic import (_EIG_ROUNDING, TOL_PSD, CovMatrix, _bona_fide_floor,
                         _bona_fide_min_eig, _williamson_spectrum, validate_cm)

#: |lhs| below this is reported as Boundary instead of a binary verdict.
TOL_BOUNDARY = 1e-9


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


def separability_lhs(form: QuadratureForm) -> float:
    """Simon's quantity of a two-mode standard form, the generalized
    Werner-Wolf quantity of a Werner-Wolf one; negative means entangled.

    With the triples (a1, b1, c1) of x and (a2, b2, c2) of p it is
    (a1 b1 - c1^2)(a2 b2 - c2^2) - |c1 c2|/2 - (a1 a2 + b1 b2)/4 + 1/16.

    `simon_lhs` and `werner_wolf_lhs` are aliases of it.  They stay only
    while the benchmark's workloads call them, and go with ROADMAP item 11
    after item 1."""
    (a1, b1, c1), (a2, b2, c2) = form.x, form.p
    return ((a1 * b1 - c1 * c1) * (a2 * b2 - c2 * c2) - 0.5 * abs(c1 * c2)
            - 0.25 * (a1 * a2 + b1 * b2) + 1.0 / 16)


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
    local symplectic, and the symplectic spectrum of gamma's own.

    The floor is the eigensolve's rounding at the image's scale, with no
    absolute part, widened by the image's own deficit d = min(0, least
    eigenvalue of image + i sigma/2): PT(image - d I) = PT(image) - d I, so
    this tests the PT of the image lifted onto the states by local noise.
    For a state, d is the rounding the image inherits from gamma, which a
    local squeeze grows past the image's own: a product of vacua squeezed
    to r = 2 has an image whose PT misses the states by about 100 eps, and
    d by the same.  For an input admitted at a `tol` above 0, d is what
    makes a noisy product read PPT.  As d only lowers the floor, it is
    taken only where the PT reads NPT without it: one eigensolve more for
    an NPT reading, none for a PPT one."""
    flip = _pt_flip(gamma.n_modes, party_a)
    floor = _bona_fide_floor(image, 0.0)
    pt = _bona_fide_min_eig(image.mat * flip)
    return PptReport(
        is_ppt=pt >= floor or pt >= floor + min(0.0, _bona_fide_min_eig(image.mat)),
        min_pt_symplectic_eig=float(_williamson_spectrum(gamma.mat * flip)[0]))


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
    return x > 0 and y > 0 and all(0 < s < math.inf for s in (x / 2, y / 2, 0.5 / x, 0.5 / y))


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
    return float(min((p + q) / 2 - math.hypot((p - q) / 2, c) for p, q, c in (
        (a1 - x / 2, b1 - y / 2, c1), (a2 - 0.5 / x, b2 - 0.5 / y, c2))))


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
    the final check.
    """
    if _certifies(form, 1.0, 1.0):
        return 1.0, 1.0
    x, f1, f2 = _peak(form.x, form.p)
    if not (f1 > 0 and f2 > 0):
        return None
    y = math.sqrt(f1 / f2)
    if not _certifies(form, x, y):
        return None
    return float(x), float(y)


def require_physical(gamma: CovMatrix, tol: float = TOL_PSD) -> None:
    """Refuse a CM that fails `validate_cm` at `tol`: no criterion decides,
    and no witness or mean is taken on, a state that does not exist."""
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
    tolerance of `validate_cm` that admits the state, and nothing else.  The
    PPT annotation tests the partial transpose of the standard form at the
    floor of `_ppt_report`, so the criterion and the PPT test read the same
    numbers, and a wider `tol` cannot report a two-mode state bound
    entangled.

    `partition` may name party A or party B of the family's cut
    (`admitted_family`): both labels give the same report, since
    entanglement and PPT do not depend on which party is called A."""
    family = admitted_family(gamma, partition, tol)
    default = list(range(family.n_modes_a))
    form, _ = reduce_to_standard_form(gamma, family)
    lhs = separability_lhs(form)
    # NaN is inf - inf: terms past double precision.  An inf criterion keeps
    # its sign and is reported.
    if lhs != lhs:
        raise ScaleOverflowError(
            f"{family.criterion} criterion cannot be evaluated: its terms "
            f"overflow double precision")
    name = family.criterion
    ppt = _ppt_report(gamma, form.to_cm(), frozenset(default))

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
