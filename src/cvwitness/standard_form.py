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
states keep the 8x8 sparsity pattern and are equalized by per-mode squeezers;
a labelling of the modes that swaps the two modes of a party is relabelled
first, and the relabelling folded into S.  Both reductions are closed forms
on the entries as Python floats, with no LAPACK call; numpy only lays out
S.  The two-mode one is 2x2 arithmetic in the four basic operations and
`sqrt` (per-mode normalisers, then the signed SVD of the cross block), with
each mode's determinant formed exactly and rounded once, so IEEE arithmetic
fixes its bytes on every platform; the Werner-Wolf one solves the 2x2
normal equations of its log squeezes with `math.log` and `math.exp`.

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
from .symplectic import CovMatrix, _integers, _laid_out, _quotient

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
        S^T, the larger of that and the largest entry of |S| |gamma| |S|^T
        (Higham, ch. 3), kept in the `_rounding_scale` slot.  A local squeeze
        of e^r grows the latter by about e^(2r), which the entries do not
        show: a product of vacua squeezed to r = 2 reduces to entries near
        1/2 that err by about 100 eps."""
        kept = self.__dict__.get("_rounding_scale")
        return kept if kept is not None else float(max(map(abs, (*self.x, *self.p))))

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


def _mode_normal(a: float, b: float, d: float, failure: str) -> tuple[tuple, tuple]:
    """(S, S M S^T) for the mode block M = [[a, b], [b, d]]: S symplectic,
    S M S^T = nu I with nu = sqrt(det M), both as 2x2 tuples.  Refuses, with
    `failure`, a block that is not positive definite, as no state has one,
    or whose determinant rounds to 0.

    S = sqrt(nu) M^{-1/2} in closed form: the square root of a 2x2 PD
    matrix is (M + nu I) / sqrt(tr M + 2 nu), so S = (adj M + nu I) / k with
    k = sqrt(nu (tr M + 2 nu)), taken as 2 sqrt(nu (tr M / 4 + nu / 2)),
    which cannot overflow where a d does not and is exact on a block a I,
    whose S is then exactly I.  det S = 1, hence S is symplectic.

    A squeeze e^r makes a d and b^2 cancel to det M by e^(4r), and the
    entries of S M S^T to nu from e^(4r) nu.  So det M is formed exactly
    from the doubles and rounded once (`symplectic._integers`), and S M is
    taken as (nu / k) (M + nu I) (adj M M = det M I = nu^2 I), which
    cancels nothing: S M S^T then errs by eps e^(2r) nu, the size of what
    rounding S to doubles leaves, not by eps e^(4r) nu.
    """
    (na, nb, nd), den = _integers(a, b, d)
    det = _quotient(na * nd - nb * nb, den * den)
    if not (a > 0 and det > 0):
        raise PatternMismatchError(f"{failure}: a local block is not positive definite")
    nu = math.sqrt(det)
    k = 2 * math.sqrt(nu * ((a + d) / 4 + nu / 2))
    h, off = nu / k, -b / k
    s = ((d + nu) / k, off), (off, (a + nu) / k)
    return s, _mul(((h * (a + nu), h * b), (h * b, h * (d + nu))), s, transpose=True)


def _mul(p: tuple, q: tuple, transpose: bool = False) -> tuple:
    """The 2x2 product p q, or p q^T with `transpose`."""
    (p00, p01), (p10, p11) = p
    (q00, q01), (q10, q11) = q
    if transpose:
        q01, q10 = q10, q01
    return ((p00 * q00 + p01 * q10, p00 * q01 + p01 * q11),
            (p10 * q00 + p11 * q10, p10 * q01 + p11 * q11))


def _sandwich(s: tuple, m: tuple, t: tuple) -> tuple:
    """The 2x2 product s m t^T."""
    return _mul(_mul(s, m), t, transpose=True)


def _half_angle(c: float, s: float) -> tuple[float, float]:
    """(cos t/2, sin t/2) of the unit vector (c, s) = (cos t, sin t), with no
    cancellation: the larger of the two comes from a square root."""
    if c >= 0:
        h = math.sqrt((1 + c) / 2)
        return h, s / (2 * h)
    h = math.sqrt((1 - c) / 2)
    return s / (2 * h), h


def _svd_rotations(c: tuple) -> tuple[tuple, tuple]:
    """Proper rotations (L, R) with L c R^T = diag(d1, d2), d1 >= |d2|: the
    signed SVD of a 2x2 block, with the four basic operations and `sqrt`.

    With e, f = (c00 +- c11)/2 and g, h = (c10 +- c01)/2, c = R(phi)
    diag(q + r, q - r) R(theta), where q = |(e, h)|, r = |(f, g)|, and
    2 theta, 2 phi = a2 -+ a1 for the angles a2 of (e, h) and a1 of (f, g)
    (Blinn, "Consider the lowly 2x2 matrix", IEEE CG&A 16, 82 (1996)).
    Where q or r is 0 its angle is free and taken as 0.  Rather than
    angles, unit vectors: theta's is the half of a2 - a1's, and phi's that
    of a2 less theta, so phi and theta keep the sum and difference of a1
    and a2 on whatever branch the half angle takes.

    A block whose squares overflow is refused (`ScaleOverflowError`): q =
    inf would zero a unit vector, and S lose a mode.  A CM below the
    squarable scale reaches one once its modes are normalised, where one
    mode is squeezed far and the correlation is large: diag(1e150, 1e-150,
    0.5, 0.5) with a p correlation of 1e100 normalises to 1e175.
    """
    (c00, c01), (c10, c11) = c
    e, f, g, h = (c00 + c11) / 2, (c00 - c11) / 2, (c10 + c01) / 2, (c10 - c01) / 2
    q, r = math.sqrt(e * e + h * h), math.sqrt(f * f + g * g)
    if not (q < math.inf and r < math.inf):
        raise ScaleOverflowError("cannot reach two-mode standard form: the square of "
                                 "the normalised cross block overflows double precision")
    cos2, sin2 = (e / q, h / q) if q > 0 else (1.0, 0.0)
    cos1, sin1 = (f / r, g / r) if r > 0 else (1.0, 0.0)
    ct, st = _half_angle(cos2 * cos1 + sin2 * sin1, sin2 * cos1 - cos2 * sin1)
    cp, sp = cos2 * ct + sin2 * st, sin2 * ct - cos2 * st
    return ((cp, sp), (-sp, cp)), ((ct, -st), (st, ct))


def _local_symplectic(blocks) -> np.ndarray:
    """The local symplectic with the given 2x2 blocks, mode by mode."""
    dim = 2 * len(blocks)
    rows = []
    for j, block in enumerate(blocks):
        for row in block:
            rows.append([0.0] * dim)
            rows[-1][2 * j:2 * j + 2] = row
    return np.array(rows)


def _abs(p: tuple) -> tuple:
    (p00, p01), (p10, p11) = p
    return (abs(p00), abs(p01)), (abs(p10), abs(p11))


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


def local_normal_form(gamma: CovMatrix) -> CovMatrix:
    """gamma with every mode's own block brought to nu_j I by a local
    symplectic: its scale is that of its symplectic eigenvalues, not of its
    local squeezes.  Each mode's own block is the one `_mode_normal` forms
    without cancellation, the blocks across modes S_i gamma_ij S_j^T.
    Refused where a local block is not positive definite, or misses nu_j I
    by more than `TOL_REDUCE` at gamma's scale: rounding has then taken the
    squeeze.  Refused too where the image's largest entry squares past
    double precision, as gamma's may not: normalising a far-squeezed mode
    grows its cross blocks, and the PPT test's eigensolves run at that
    scale."""
    failure = "cannot bring every mode to its normal form"
    _require_squarable(gamma, failure)
    rows = gamma.mat.tolist()
    normals = [_mode_normal(rows[j][j], rows[j][j + 1], rows[j + 1][j + 1], failure)
               for j in range(0, gamma.dim, 2)]
    s = _local_symplectic([s_j for s_j, _ in normals])
    m = s @ gamma.mat @ s.T
    for j, (_, block) in enumerate(normals):   # each mode's own, without the cancellation
        m[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    d = np.diagonal(m)
    _require_reduced(gamma, max(abs(d[::2] - d[1::2]).max(),
                                abs(np.diagonal(m, 1)[::2]).max()), failure)
    image = CovMatrix((m + m.T) / 2)
    _require_squarable(image, failure)
    return image


def _reduce_two_mode(gamma: CovMatrix) -> tuple[QuadratureForm, np.ndarray, float]:
    """(form, S, rounding): each mode's block to nu_j I (`_mode_normal`),
    then the cross block diagonalized by its signed SVD (`_svd_rotations`),
    all in 2x2 arithmetic on the entries as Python floats, each mode's
    determinant correctly rounded; rounding is the largest entry of
    |S| |gamma| |S|^T."""
    failure = "cannot reach two-mode standard form"
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (*_, b11) = gamma.mat.tolist()
    block_a, block_b, cross = ((a00, a01), (a01, a11)), ((b00, b01), (b01, b11)), \
        ((c00, c01), (c10, c11))
    s_a, normal_a = _mode_normal(a00, a01, a11, failure)
    s_b, normal_b = _mode_normal(b00, b01, b11, failure)
    rot_a, rot_b = _svd_rotations(_sandwich(s_a, cross, s_b))
    (a, ra01), (ra10, ra11) = _sandwich(rot_a, normal_a, rot_a)
    (b, rb01), (rb10, rb11) = _sandwich(rot_b, normal_b, rot_b)
    s_a, s_b = _mul(rot_a, s_a), _mul(rot_b, s_b)
    (c1, rc01), (rc10, c2) = _sandwich(s_a, cross, s_b)
    form = TwoModeStandardForm(a, b, c1, -c2)
    _require_reduced(gamma, max(abs(ra01), abs(ra10), abs(ra11 - a), abs(rb01), abs(rb10),
                                abs(rb11 - b), abs(rc01), abs(rc10)), failure)
    abs_a, abs_b = _abs(s_a), _abs(s_b)
    # the rows of its blocks over A, across the cut and over B
    (a_0, a_1), (c_0, c_1), (b_0, b_1) = (_sandwich(abs_a, _abs(block_a), abs_a),
                                          _sandwich(abs_a, _abs(cross), abs_b),
                                          _sandwich(abs_b, _abs(block_b), abs_b))
    # rounding is finite.  A mode block's exact a d - b^2 is a positive
    # multiple of its spacing in doubles, above a d 2^-107, and its det, that
    # rounded once, is at least half of it, so nu > sqrt(a d) 2^-54 > |b| 2^-54.
    # With k >= sqrt(nu (a + d)), the normaliser's entry (max(a, d) + nu)/k
    # is below 1e128 and its other three below 2^28, so after the rotations
    # an entry of |S| |block| |S|^T is below 2^60 times the CM's scale, and
    # one across the cut below 2^32 1e128 times it, about 1e292, except the
    # product of the two large entries with a cross entry: that is at most
    # the normalised cross block's entry, which squares in double precision
    # (`_svd_rotations`), plus the other three products of that sum.
    rounding = max(*a_0, *a_1, *c_0, *c_1, *b_0, *b_1)
    (sa00, sa01), (sa10, sa11) = s_a
    (sb00, sb01), (sb10, sb11) = s_b
    s = np.array(((sa00, sa01, 0.0, 0.0), (sa10, sa11, 0.0, 0.0),
                  (0.0, 0.0, sb00, sb01), (0.0, 0.0, sb10, sb11)))
    return form, s, rounding


# The zeros of the Werner-Wolf layout's upper triangle.
_WW_ZEROS = tuple((i, j) for i, row in enumerate(_WERNER_WOLF_LAYOUT)
                  for j, v in enumerate(row) if j > i and v == 0)
# Quadrature orders that relabel the modes within party A or party B.  The
# pattern cannot tell swapping both parties' modes from the sign of E, which
# it keeps free, so the two swaps cover every labelling of the cut.
_WW_ORDERS = ((0, 1, 2, 3, 4, 5, 6, 7), (2, 3, 0, 1, 4, 5, 6, 7), (0, 1, 2, 3, 6, 7, 4, 5))


def _log_ratio(p: float, q: float) -> float:
    """log(p / q) of two positive finite doubles, which p / q could take
    past double precision."""
    return math.log(p) - math.log(q)


def _reduce_werner_wolf(gamma: CovMatrix) -> tuple[QuadratureForm, np.ndarray, float]:
    """(form, S, rounding): per-mode squeezes diag(s_j, 1/s_j) that equalize
    the pattern entries, after relabelling the modes within a party where
    the given order misses the pattern; the relabelling is folded into S.
    S permutes and scales, so S gamma S^T is s_i m_ij s_j, whose largest
    |entry| is the rounding, that of |S| |gamma| |S|^T.  It is finite: an inf
    off the pattern or in one entry of a pair leaves an inf residual, which
    is refused, and both entries of a pair are not inf, as their product is
    that of two entries of gamma, which squares in double precision."""
    m = gamma.mat.tolist()
    residuals = []
    for order in _WW_ORDERS:   # the order that misses the pattern least
        residuals.append(max(abs(m[order[i]][order[j]]) for i, j in _WW_ZEROS))
        if residuals[-1] == 0:
            break
    _require_reduced(gamma, min(residuals),
                     "matrix does not match the Werner-Wolf sparsity pattern")
    order = _WW_ORDERS[residuals.index(min(residuals))]
    if order is not _WW_ORDERS[0] and m[order[0]][order[4]] < 0:
        # the other swap, which differs by swapping both parties' modes,
        # misses the pattern alike and flips E: a relabelled form has E >= 0
        order = _WW_ORDERS[3 - _WW_ORDERS.index(order)]
    if order is not _WW_ORDERS[0]:
        m = [[m[i][j] for j in order] for i in order]
    x = m[0][0], m[2][2], m[4][4], m[6][6]
    p = m[1][1], m[3][3], m[5][5], m[7][7]
    e = m[0][4], -m[2][6]
    f = -m[1][7], -m[3][5]
    if min(x) <= 0 or min(p) <= 0 or (e[0] == 0) != (e[1] == 0) \
            or (f[0] == 0) != (f[1] == 0):
        raise PatternMismatchError("degenerate Werner-Wolf entries")
    if (e[0] < 0) != (e[1] < 0) or (f[0] < 0) != (f[1] < 0):
        raise PatternMismatchError("inconsistent cross-block signs for the Werner-Wolf pattern")
    # The squeezes are linear in u_j = 2 log s_j; least squares over the rows
    # x-variance and p-variance equality per party (u1 - u2 = log(x2/x1),
    # u2 - u1 = log(p2/p1), and the same in u3 - u4), |E| equality (E
    # entries go as s1 s3 and s2 s4: u1 - u2 + u3 - u4 = 2 log|e2/e1|) and
    # |F| equality (F entries go as 1/(s1 s4) and 1/(s2 s3): u2 - u1 + u3 -
    # u4 = 2 log|f2/f1|), the last two only where E and F are not 0.  The
    # rows see only d1 = u1 - u2 and d2 = u3 - u4, so the least-squares u of
    # least norm is (d1, -d1, d2, -d2)/2, with (d1, d2) the solution of the
    # 2x2 normal equations n (d1, d2) = rhs.
    n11, n12 = 2, 0
    rhs1 = _log_ratio(x[1], x[0]) - _log_ratio(p[1], p[0])
    rhs2 = _log_ratio(x[3], x[2]) - _log_ratio(p[3], p[2])
    if e[0]:
        row = 2 * _log_ratio(abs(e[1]), abs(e[0]))
        n11, n12, rhs1, rhs2 = n11 + 1, n12 + 1, rhs1 + row, rhs2 + row
    if f[0]:
        row = 2 * _log_ratio(abs(f[1]), abs(f[0]))
        n11, n12, rhs1, rhs2 = n11 + 1, n12 - 1, rhs1 - row, rhs2 + row
    det = n11 * n11 - n12 * n12
    d1, d2 = (n11 * rhs1 - n12 * rhs2) / det, (n11 * rhs2 - n12 * rhs1) / det
    # entries are positive doubles below the squarable scale (1.3e154), so a
    # log ratio is below 1100 in size and |d1|, |d2| / 4 below 413: exp
    # neither overflows nor reaches 0
    sq = [math.exp(u / 4) for u in (d1, -d1, d2, -d2)]
    d = [v for s in sq for v in (s, 1 / s)]
    # S gamma S^T on the pattern: the pairs each triple entry averages, and
    # the largest |entry| where the pattern has a 0
    diag = [d[i] * m[i][i] * d[i] for i in range(8)]
    pairs = ((diag[0], diag[2]), (diag[1], diag[3]), (diag[4], diag[6]), (diag[5], diag[7]),
             (d[0] * m[0][4] * d[4], -(d[2] * m[2][6] * d[6])),
             (-(d[1] * m[1][7] * d[7]), -(d[3] * m[3][5] * d[5])))
    off = max(abs(d[i] * m[i][j] * d[j]) for i, j in _WW_ZEROS)
    form = WernerWolfForm(*((one + other) / 2 for one, other in pairs))
    _require_reduced(gamma, max(off, *(abs(v - w) for v, pair in zip(form.params, pairs)
                                       for w in pair)),
                     "cannot equalize Werner-Wolf pattern by local squeezing")
    s = np.diag(d)
    if order is not _WW_ORDERS[0]:
        s = s[:, np.argsort(order)]
    return form, s, max(off, *(abs(v) for pair in pairs for v in pair))


def reduce_to_standard_form(gamma: CovMatrix, family: Family):
    """Return (form, S) with S a local symplectic, as a read-only array, and
    S gamma S^T the form's CM, whose rounding the form keeps
    (`QuadratureForm.rounding_scale`); computed once per matrix instance and
    kept in its `_reduced` slot."""
    if not isinstance(family, Family):
        family = Family(family)
    if gamma.n_modes != family.n_modes:
        raise PatternMismatchError(
            f"{family.value} family needs {family.n_modes} modes, got {gamma.n_modes}")
    result = gamma.__dict__.get("_reduced")
    if result is not None:
        return result
    _require_squarable(gamma, "cannot reduce to standard form")
    reduce = _reduce_two_mode if family is Family.TWO_MODE else _reduce_werner_wolf
    form, s, rounding = reduce(gamma)
    # rounding is finite (`_reduce_two_mode`, `_reduce_werner_wolf`): an inf
    # scale would let the certificate pass any product state
    object.__setattr__(form, "_rounding_scale", float(max(form.rounding_scale, rounding)))
    s.flags.writeable = False
    result = form, s
    object.__setattr__(gamma, "_reduced", result)
    return result


# Each family by its mode count, which fixes it.
_FAMILY_BY_MODES = {family.n_modes: family for family in Family}


def detect_family(gamma: CovMatrix) -> Family:
    family = _FAMILY_BY_MODES.get(gamma.n_modes)
    if family is None:
        raise PatternMismatchError(f"no supported family for {gamma.n_modes} modes")
    return family
