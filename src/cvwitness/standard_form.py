"""Standard-form reduction for the two supported covariance-matrix families.

Two-mode states are brought to diag-blocks (a, a), (b, b) with cross block
diag(c1, -c2) by local rotations and squeezers.  Werner-Wolf states keep the
8x8 sparsity pattern and are equalized by per-mode squeezers.

A decision and a witness of the same state both need its standard form, so
`reduce_to_standard_form` keeps each result per `CovMatrix` instance, family
and tolerance, and a second call returns it without reducing again.  The memo
is weak-keyed: an entry lives no longer than its matrix.  `CovMatrix` is
frozen and read-only, and the form and `LocalSymplectic` are immutable, so a
kept result cannot go stale.  A refusal is not kept and raises on every call.
"""

import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import PatternMismatchError
from .symplectic import CovMatrix, LocalSymplectic, block_diag


class Family(str, Enum):
    TWO_MODE = "two_mode"
    WERNER_WOLF = "werner_wolf"


@dataclass(frozen=True)
class TwoModeStandardForm:
    a: float
    b: float
    c1: float
    c2: float

    def to_cm(self) -> CovMatrix:
        m = np.diag(np.array([self.a, self.a, self.b, self.b], dtype=float))
        m[0, 2] = m[2, 0] = self.c1
        m[1, 3] = m[3, 1] = -self.c2
        return CovMatrix(m)


@dataclass(frozen=True)
class WernerWolfForm:
    """Scalars (A..F) of the 8x8 generalized Werner-Wolf pattern."""

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def to_cm(self) -> CovMatrix:
        m = np.diag(np.array([self.A, self.B, self.A, self.B,
                             self.C, self.D, self.C, self.D], dtype=float))
        m[0, 4] = m[4, 0] = self.E
        m[2, 6] = m[6, 2] = -self.E
        m[1, 7] = m[7, 1] = -self.F
        m[3, 5] = m[5, 3] = -self.F
        return CovMatrix(m)


def quadrature_triples(form) -> tuple[tuple, tuple]:
    """The form's CM splits into two 2x2 blocks [[a, +-c], [+-c, b]], one per
    quadrature pair (x then p); returns their (a, b, c), c signed."""
    if isinstance(form, TwoModeStandardForm):
        return (form.a, form.b, form.c1), (form.a, form.b, form.c2)
    if isinstance(form, WernerWolfForm):
        return (form.A, form.C, form.E), (form.B, form.D, form.F)
    raise PatternMismatchError(f"unsupported form {type(form).__name__}")


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _single_mode_normal(block: np.ndarray) -> np.ndarray:
    """Symplectic S with S block S^T = sqrt(det block) * I for a 2x2 PD block.

    S = sqrt(nu) M^{-1/2} in closed form: with nu = sqrt(det M), the square
    root of a 2x2 PD matrix is (M + nu I) / sqrt(tr M + 2 nu), so
    M^{-1/2} = (adj M + nu I) / (nu sqrt(tr M + 2 nu)).
    """
    nu = np.sqrt(np.linalg.det(block))
    adj = np.array([[block[1, 1], -block[0, 1]], [-block[1, 0], block[0, 0]]])
    # det = 1, hence symplectic
    return (adj + nu * np.eye(2)) / (np.sqrt(nu) * np.sqrt(np.trace(block) + 2 * nu))


def _signed_svd_2x2(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c = o1 @ diag(d1, d2) @ o2.T with o1, o2 proper rotations, d1 >= |d2|."""
    u, s, vt = np.linalg.svd(c)
    d = np.diag(s.copy())
    if np.linalg.det(u) < 0:
        u = u @ np.diag([1.0, -1.0])
        d[1, 1] *= -1
    if np.linalg.det(vt) < 0:
        vt = np.diag([1.0, -1.0]) @ vt
        d[1, 1] *= -1
    return u, d, vt.T


def _reduce_two_mode(gamma: CovMatrix, tol: float) -> tuple[TwoModeStandardForm, LocalSymplectic]:
    if gamma.n_modes != 2:
        raise PatternMismatchError(f"two-mode family needs 2 modes, got {gamma.n_modes}")
    m = gamma.mat
    sa = _single_mode_normal(m[:2, :2])
    sb = _single_mode_normal(m[2:, 2:])
    s = block_diag(sa, sb)
    m1 = s @ m @ s.T
    # local blocks are now nu_A*I, nu_B*I; rotate to diagonalize the cross block
    o1, d, o2 = _signed_svd_2x2(m1[:2, 2:])
    s = block_diag(o1.T, o2.T) @ s
    m2 = s @ m @ s.T
    form = TwoModeStandardForm(a=m2[0, 0], b=m2[2, 2], c1=m2[0, 2], c2=-m2[1, 3])
    residual = np.max(np.abs(m2 - form.to_cm().mat))
    if residual > tol:
        raise PatternMismatchError(
            f"cannot reach two-mode standard form (residual {residual:g})", residual=residual)
    return form, LocalSymplectic(s, n_modes_a=1)


_WW_ZERO_MASK = WernerWolfForm(1, 2, 3, 4, 5, 6).to_cm().mat == 0


def _reduce_werner_wolf(gamma: CovMatrix, tol: float) -> tuple[WernerWolfForm, LocalSymplectic]:
    if gamma.n_modes != 4:
        raise PatternMismatchError(f"Werner-Wolf family needs 4 modes, got {gamma.n_modes}")
    m = gamma.mat
    off_pattern = np.max(np.abs(m[_WW_ZERO_MASK]))
    if off_pattern > tol * max(1.0, np.max(np.abs(m))):
        raise PatternMismatchError(
            f"matrix does not match the Werner-Wolf sparsity pattern (residual {off_pattern:g})",
            residual=off_pattern)
    # Per-mode squeezes diag(s_j, 1/s_j); solve for log squeezes equalizing the
    # pattern entries, which is linear in u_j = 2 log s_j.
    x = np.array([m[0, 0], m[2, 2], m[4, 4], m[6, 6]])
    p = np.array([m[1, 1], m[3, 3], m[5, 5], m[7, 7]])
    e = np.array([m[0, 4], -m[2, 6]])
    f = np.array([-m[1, 7], -m[3, 5]])
    if np.any(x <= 0) or np.any(p <= 0) or np.any(e == 0) != np.all(e == 0) \
            or np.any(f == 0) != np.all(f == 0):
        raise PatternMismatchError("degenerate Werner-Wolf entries")
    if np.any(e * e[0] < 0) or np.any(f * f[0] < 0):
        raise PatternMismatchError("inconsistent cross-block signs for the Werner-Wolf pattern")
    # equations (in u): x-var equality per party, p-var equality per party,
    # |E| equality, |F| equality
    rows = [
        ([1, -1, 0, 0], np.log(x[1] / x[0])),
        ([-1, 1, 0, 0], np.log(p[1] / p[0])),
        ([0, 0, 1, -1], np.log(x[3] / x[2])),
        ([0, 0, -1, 1], np.log(p[3] / p[2])),
    ]
    if np.all(e != 0):
        # E entries transform as s1 s3 and s2 s4
        rows.append(([1, -1, 1, -1], 2 * np.log(abs(e[1] / e[0]))))
    if np.all(f != 0):
        # F entries transform as 1/(s1 s4) and 1/(s2 s3)
        rows.append(([-1, 1, 1, -1], 2 * np.log(abs(f[1] / f[0]))))
    a_mat = np.array([r[0] for r in rows], dtype=float)
    rhs = np.array([r[1] for r in rows])
    u, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    sq = np.exp(u / 2)
    s = block_diag(*[np.diag([sj, 1.0 / sj]) for sj in sq])
    m2 = s @ m @ s.T
    form = WernerWolfForm(
        A=(m2[0, 0] + m2[2, 2]) / 2, B=(m2[1, 1] + m2[3, 3]) / 2,
        C=(m2[4, 4] + m2[6, 6]) / 2, D=(m2[5, 5] + m2[7, 7]) / 2,
        E=(m2[0, 4] - m2[2, 6]) / 2, F=-(m2[1, 7] + m2[3, 5]) / 2)
    residual = np.max(np.abs(m2 - form.to_cm().mat))
    if residual > tol * max(1.0, np.max(np.abs(m2))):
        raise PatternMismatchError(
            f"cannot equalize Werner-Wolf pattern by local squeezing (residual {residual:g})",
            residual=residual)
    return form, LocalSymplectic(s, n_modes_a=2)


#: {CovMatrix: {(family, tol): (form, S)}}, see the module docstring.
_REDUCED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reduce_to_standard_form(gamma: CovMatrix, family: Family, tol: float = 1e-10):
    """Return (form, S) with S a local symplectic and S gamma S^T the form's
    CM; computed once per matrix instance, family and tolerance."""
    family = Family(family)
    memo = _REDUCED.get(gamma)
    if memo is not None and (family, tol) in memo:
        return memo[family, tol]
    reduce = _reduce_two_mode if family is Family.TWO_MODE else _reduce_werner_wolf
    result = reduce(gamma, tol)
    _REDUCED.setdefault(gamma, {})[family, tol] = result
    return result


def detect_family(gamma: CovMatrix) -> Family:
    if gamma.n_modes == 2:
        return Family.TWO_MODE
    if gamma.n_modes == 4:
        return Family.WERNER_WOLF
    raise PatternMismatchError(f"no supported family for {gamma.n_modes} modes")
