"""One type for the family-patterned CMs of states and detectors, and the
standard-form reduction of a state to it.

Each such CM is two 2x2 quadrature blocks [[a, +-c], [+-c, b]], one over the
x and one over the p quadratures: party A's variance a, party B's variance b
and their correlation c.  `QuadratureForm` holds the family and the two
triples (a, b, c), c signed; `TwoModeStandardForm`, `WernerWolfForm` and
`DetectorSpec` are positional constructors of it.  The members of `Family`
are the table of each family's data.

Two-mode states are brought to diag-blocks (a, a), (b, b) with cross block
diag(c1, -c2) by local rotations and squeezers; the first step, each mode's
own block to nu_j I, is `local_normal_form` for any mode count.  Werner-Wolf
states keep the 8x8 sparsity pattern and are equalized by per-mode squeezers.

A decision and a witness of the same state both need its standard form, so
`reduce_to_standard_form` keeps its result on the `CovMatrix` instance, as
`QuadratureForm.to_cm` keeps a form's CM (a matrix's family is fixed by its
mode count), and a second call returns it without reducing again.  The
matrix is frozen and read-only, the form frozen and S a read-only array, so
a kept result cannot go stale.  A refusal is not kept and raises on every call.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import PatternMismatchError, ScaleOverflowError
from .symplectic import CovMatrix, _laid_out, block_diag

#: largest residual accepted between a reduced CM and its standard form, in
#: units of max(1, the CM's scale), with which its rounding grows.
TOL_REDUCE = 1e-10

# CM layouts: entry +-k is +-M_k of the parameters M1..M6 = (x a, p a, x b,
# p b, x c, p c), 0 is zero.  Party A holds the first modes.
_TWO_MODE_LAYOUT = ((1, 0, 5, 0),
                    (0, 2, 0, -6),
                    (5, 0, 3, 0),
                    (0, -6, 0, 4))
_WERNER_WOLF_LAYOUT = ((1, 0, 0, 0, 5, 0, 0, 0),
                       (0, 2, 0, 0, 0, 0, 0, -6),
                       (0, 0, 1, 0, 0, 0, -5, 0),
                       (0, 0, 0, 2, 0, -6, 0, 0),
                       (5, 0, 0, 0, 3, 0, 0, 0),
                       (0, 0, 0, -6, 0, 4, 0, 0),
                       (0, 0, -5, 0, 0, 0, 3, 0),
                       (0, -6, 0, 0, 0, 0, 0, 4))


class Family(str, Enum):
    """A CM pattern and its data: `cm_index` and `cm_sign` (CM entry (i, j)
    is cm_sign[i, j] M_cm_index[i, j], with M_0 = 0), `n_modes`, `n_modes_a`
    (party A's modes, the first ones), `power` (the witness ratio is that
    power of the determinant ratio), `criterion` (the report's criterion
    name) and `oracle_cutoff`."""

    #              value          layout               modes A  power criterion      cutoff
    TWO_MODE =    ("two_mode",    _TWO_MODE_LAYOUT,    2,    1, 0.5,  "simon",       25)
    WERNER_WOLF = ("werner_wolf", _WERNER_WOLF_LAYOUT, 4,    2, 1.0,  "werner_wolf", 6)

    def __new__(cls, value, layout, *data):
        member = str.__new__(cls, value)
        member._value_ = value
        member.cm_index, member.cm_sign = np.abs(layout), np.sign(layout)
        member.cm_index.flags.writeable = member.cm_sign.flags.writeable = False
        (member.n_modes, member.n_modes_a, member.power, member.criterion,
         member.oracle_cutoff) = data
        return member


@dataclass(frozen=True)
class QuadratureForm:
    """A family-patterned CM given by its x triple and p triple (a, b, c):
    party A's variance, party B's variance and their signed correlation."""

    family: Family
    x: tuple
    p: tuple

    @property
    def params(self) -> tuple:
        """The parameters M1..M6 = (x a, p a, x b, p b, x c, p c)."""
        (xa, xb, xc), (pa, pb, pc) = self.x, self.p
        return (xa, pa, xb, pb, xc, pc)

    @property
    def n_modes(self) -> int:
        return self.family.n_modes

    @property
    def rounding_scale(self) -> float:
        """The scale of the rounding the entries carry: their largest |entry|,
        or, for a form that `reduce_to_standard_form` computed as S gamma
        S^T, the largest entry of |S| |gamma| |S|^T (Higham, ch. 3), kept in
        the `_rounding_scale` slot.  A local squeeze of e^r grows the latter
        by about e^(2r), which the entries do not show: a product of vacua
        squeezed to r = 2 reduces to entries near 1/2 that err by about 100
        eps."""
        own = max(map(abs, (*self.x, *self.p)))
        return float(max(own, self.__dict__.get("_rounding_scale", own)))

    def to_cm(self) -> CovMatrix:
        """The form's CM, built on the first call and kept on the instance:
        the form is frozen and the CM read-only, so it cannot go stale.
        Repeated means on one detector reuse it, where a build costs up to a
        tenth of a mean.  It is not a dataclass field, so `==`, `hash` and
        `repr` ignore it, and `scaled` or `dataclasses.replace` give a form
        that builds its own."""
        cm = self.__dict__.get("_cm")
        if cm is None:
            family = self.family
            mat = np.array((0.0, *self.params))[family.cm_index] * family.cm_sign
            # laid out here, square, even and symmetric: only entries that
            # are not floats take the checks of a matrix from outside
            cm = _laid_out(mat) if mat.dtype == float else CovMatrix(mat)
            object.__setattr__(self, "_cm", cm)
        return cm

    def scaled(self, t: float) -> "QuadratureForm":
        return DetectorSpec(self.family, *(t * v for v in self.params))


def TwoModeStandardForm(a, b, c1, c2) -> QuadratureForm:
    """Two-mode standard form: diag-blocks (a, a), (b, b), cross block
    diag(c1, -c2)."""
    return QuadratureForm(Family.TWO_MODE, (a, b, c1), (a, b, c2))


def WernerWolfForm(A, B, C, D, E, F) -> QuadratureForm:
    """Scalars (A..F) of the 8x8 generalized Werner-Wolf pattern."""
    return QuadratureForm(Family.WERNER_WOLF, (A, C, E), (B, D, F))


def DetectorSpec(family: Family, m1, m2, m3, m4, m5, m6) -> QuadratureForm:
    """Gaussian detector with family-patterned CM, parameters M1..M6."""
    return QuadratureForm(family, (m1, m3, m5), (m2, m4, m6))


def _single_mode_normal(block: np.ndarray, nu: float) -> np.ndarray:
    """Symplectic S with S block S^T = nu * I for a 2x2 PD block, given
    nu = sqrt(det block).

    S = sqrt(nu) M^{-1/2} in closed form: the square root of a 2x2 PD
    matrix is (M + nu I) / sqrt(tr M + 2 nu), so
    M^{-1/2} = (adj M + nu I) / (nu sqrt(tr M + 2 nu)).
    """
    s = np.array([[block[1, 1], -block[0, 1]], [-block[1, 0], block[0, 0]]])
    s[0, 0] += nu
    s[1, 1] += nu
    # det = 1, hence symplectic
    return s / (np.sqrt(nu) * np.sqrt(block.trace() + 2 * nu))


def _signed_svd_2x2(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Proper rotations (o1, o2) with o1.T @ c @ o2 = diag(d1, d2), d1 >= |d2|."""
    u, _, vt = np.linalg.svd(c)
    # u and vt are orthogonal: only the sign of their determinants matters;
    # flipping u's second column or vt's second row flips the sign of d2
    if u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] < 0:
        u[:, 1] = -u[:, 1]
    if vt[0, 0] * vt[1, 1] - vt[0, 1] * vt[1, 0] < 0:
        vt[1] = -vt[1]
    return u, vt.T


def _require_reduced(gamma: CovMatrix, residual: float, failure: str) -> None:
    """Refuse a reduction whose residual exceeds `TOL_REDUCE` at gamma's scale."""
    if not residual <= TOL_REDUCE * max(1.0, gamma._scale):
        raise PatternMismatchError(f"{failure} (residual {residual:g})")


def _require_squarable(gamma: CovMatrix, failure: str) -> None:
    """Refuse a CM whose largest entry squares past double precision: 2x2
    determinants and squeezed entries multiply pairs of entries, and a
    Python float overflows to inf without a warning."""
    if not gamma._scale * gamma._scale < math.inf:
        raise ScaleOverflowError(f"{failure}: the square of the largest entry "
                                 f"{gamma._scale:g} overflows double precision")


def _local_normal(gamma: CovMatrix, failure: str) -> tuple[np.ndarray, np.ndarray]:
    """(S, S gamma S^T) for the local symplectic S that brings every mode's
    own block to nu_j I.  Refuses, with `failure`, a local block that is not
    positive definite, as no state has one."""
    m = gamma.mat
    blocks = [m[j:j + 2, j:j + 2] for j in range(0, gamma.dim, 2)]
    dets = np.linalg.det(blocks)   # one stacked call: the bits of a call per block
    if not (min(b[0, 0] for b in blocks) > 0 and dets.min() > 0):
        raise PatternMismatchError(f"{failure}: a local block is not positive definite")
    s = block_diag(*map(_single_mode_normal, blocks, np.sqrt(dets)))
    return s, s @ m @ s.T


def local_normal_form(gamma: CovMatrix) -> CovMatrix:
    """gamma with every mode's own block brought to nu_j I by a local
    symplectic: its scale is that of its symplectic eigenvalues, not of its
    local squeezes.  Refused where a block misses nu_j I by more than
    `TOL_REDUCE` at gamma's scale: rounding has then taken the squeeze."""
    failure = "cannot bring every mode to its normal form"
    _require_squarable(gamma, failure)
    m = _local_normal(gamma, failure)[1]
    d = np.diagonal(m)
    _require_reduced(gamma, max(abs(d[::2] - d[1::2]).max(),
                                abs(np.diagonal(m, 1)[::2]).max()), failure)
    return CovMatrix((m + m.T) / 2)


def _reduce_two_mode(gamma: CovMatrix) -> tuple[QuadratureForm, np.ndarray]:
    m = gamma.mat
    s, m1 = _local_normal(gamma, "cannot reach two-mode standard form")
    # local blocks are now nu_A*I, nu_B*I; rotate to diagonalize the cross block
    o1, o2 = _signed_svd_2x2(m1[:2, 2:])
    s = block_diag(o1.T, o2.T) @ s
    m2 = s @ m @ s.T
    form = TwoModeStandardForm(m2[0, 0], m2[2, 2], m2[0, 2], -m2[1, 3])
    _require_reduced(gamma, abs(m2 - form.to_cm().mat).max(),
                     "cannot reach two-mode standard form")
    return form, s


def _reduce_werner_wolf(gamma: CovMatrix) -> tuple[QuadratureForm, np.ndarray]:
    m = gamma.mat
    _require_reduced(gamma, abs(m[Family.WERNER_WOLF.cm_index == 0]).max(),
                     "matrix does not match the Werner-Wolf sparsity pattern")
    # Per-mode squeezes diag(s_j, 1/s_j); solve for log squeezes equalizing the
    # pattern entries, which is linear in u_j = 2 log s_j.
    x = np.array([m[0, 0], m[2, 2], m[4, 4], m[6, 6]])
    p = np.array([m[1, 1], m[3, 3], m[5, 5], m[7, 7]])
    e = np.array([m[0, 4], -m[2, 6]])
    f = np.array([-m[1, 7], -m[3, 5]])
    if (x <= 0).any() or (p <= 0).any() or (e == 0).any() != (e == 0).all() \
            or (f == 0).any() != (f == 0).all():
        raise PatternMismatchError("degenerate Werner-Wolf entries")
    if (e * e[0] < 0).any() or (f * f[0] < 0).any():
        raise PatternMismatchError("inconsistent cross-block signs for the Werner-Wolf pattern")
    # equations (in u): x-var equality per party, p-var equality per party,
    # |E| equality, |F| equality
    rows = [
        ([1, -1, 0, 0], np.log(x[1] / x[0])),
        ([-1, 1, 0, 0], np.log(p[1] / p[0])),
        ([0, 0, 1, -1], np.log(x[3] / x[2])),
        ([0, 0, -1, 1], np.log(p[3] / p[2])),
    ]
    if (e != 0).all():
        # E entries transform as s1 s3 and s2 s4
        rows.append(([1, -1, 1, -1], 2 * np.log(abs(e[1] / e[0]))))
    if (f != 0).all():
        # F entries transform as 1/(s1 s4) and 1/(s2 s3)
        rows.append(([-1, 1, 1, -1], 2 * np.log(abs(f[1] / f[0]))))
    a_mat = np.array([r[0] for r in rows], dtype=float)
    rhs = np.array([r[1] for r in rows])
    u, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    sq = np.exp(u / 2)
    s = np.diag(np.column_stack([sq, 1.0 / sq]).ravel())
    m2 = s @ m @ s.T
    form = WernerWolfForm(
        (m2[0, 0] + m2[2, 2]) / 2, (m2[1, 1] + m2[3, 3]) / 2,
        (m2[4, 4] + m2[6, 6]) / 2, (m2[5, 5] + m2[7, 7]) / 2,
        (m2[0, 4] - m2[2, 6]) / 2, -(m2[1, 7] + m2[3, 5]) / 2)
    _require_reduced(gamma, abs(m2 - form.to_cm().mat).max(),
                     "cannot equalize Werner-Wolf pattern by local squeezing")
    return form, s


def reduce_to_standard_form(gamma: CovMatrix, family: Family):
    """Return (form, S) with S a local symplectic, as a read-only array, and
    S gamma S^T the form's CM, whose rounding the form keeps
    (`QuadratureForm.rounding_scale`); computed once per matrix instance and
    kept in its `_reduced` slot."""
    family = Family(family)
    if gamma.n_modes != family.n_modes:
        raise PatternMismatchError(
            f"{family.value} family needs {family.n_modes} modes, got {gamma.n_modes}")
    result = gamma.__dict__.get("_reduced")
    if result is not None:
        return result
    _require_squarable(gamma, "cannot reduce to standard form")
    reduce = _reduce_two_mode if family is Family.TWO_MODE else _reduce_werner_wolf
    result = form, s = reduce(gamma)
    a = abs(s)
    with np.errstate(over="ignore"):
        rounding = float((a @ abs(gamma.mat) @ a.T).max())
    if not rounding < math.inf:
        raise ScaleOverflowError("cannot reduce to standard form: the rounding it "
                                 "inherits overflows double precision")
    object.__setattr__(form, "_rounding_scale", rounding)
    s.flags.writeable = False
    object.__setattr__(gamma, "_reduced", result)
    return result


def detect_family(gamma: CovMatrix) -> Family:
    for family in Family:
        if family.n_modes == gamma.n_modes:
            return family
    raise PatternMismatchError(f"no supported family for {gamma.n_modes} modes")
