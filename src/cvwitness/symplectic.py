"""Covariance-matrix core: symplectic form, validity checks, the CM-to-CCM
transform and the Williamson spectrum, and the exact integer kernel
(`_integers`, `_quotient`) by which the reduction, the criterion and the
witness round a polynomial of doubles once.

Quadrature ordering is (x1, p1, x2, p2, ...) throughout, with vacuum
variance 1/2 on the diagonal.

`CovMatrix` is the one place where a matrix from outside is checked: it
refuses, with a typed error, anything that is not a finite, real, symmetric,
even-sized and nonempty matrix, and keeps a read-only float array.  Code
inside the package computes on that array and on arrays derived from it
without checking them again, and a CM the package lays out itself from a
form's parameters (`_laid_out`) passes only the finite-entry check.  The
bona-fide minimum eigenvalue and the Williamson spectrum are module-private
functions of a plain array, which `validate_cm` and `ppt_decide` share.
Tolerances are read against the matrix's scale, its largest |entry|:
symmetry to 1e-12 max(1, scale), the bona-fide test to `tol` plus the
eigensolve's rounding 2 dim eps scale (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 3); `tol` times the scale would accept strongly
squeezed non-states.
That rounding, 2 eps per dimension times the scale of the matrix whose least
eigenvalue is read (`_EIG_ROUNDING`, `_bona_fide_floor`), is the one floor
of every least-eigenvalue sign the package reads: admission, where `tol`,
`TOL_PSD` by default, is added and read nowhere else; the PPT tests, with no
absolute part, on the image of `ppt_decide` and on the closed-form least
symplectic eigenvalue of a decision's standard form, at that form's largest
|entry|; and the separability certificate, with no absolute part, at the
scale of the rounding a reduced form inherits (`criteria`).

The symplectic form sigma, its multiples i sigma/2 and i sigma, and the CCM
transform depend on the mode count alone, so each is built once per mode
count and cached as a read-only array: every validity check and symplectic
spectrum of a decision would otherwise rebuild the same matrix.  The checks
on these small matrices call ndarray methods (`abs(x).max()`) rather than
numpy's module-level wrappers, whose Python overhead outweighs the
arithmetic at 4x4 and 8x8, and the finite-entry check reads the largest
|entry| that the scale takes anyway.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import CvWitnessError, DimensionMismatchError, ScaleOverflowError

#: default admission tolerance of `validate_cm`: how far below rounding the
#: least eigenvalue of gamma + i*sigma/2 may lie; no other test reads it.
TOL_PSD = 1e-10

_SYMMETRY_TOL = 1e-12   # per unit of max(1, scale)
_EIG_ROUNDING = 2 * sys.float_info.epsilon   # of that eigenvalue, per dim * scale


@lru_cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """2n x 2n symplectic form, block-diagonal [[0, 1], [-1, 0]] per mode;
    cached per mode count, read-only."""
    sigma = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    sigma.flags.writeable = False
    return sigma


@lru_cache
def _scaled_form(n_modes: int, scale: complex) -> np.ndarray:
    """scale * sigma, for i/2 (the bona-fide test) and i (the Williamson
    spectrum); cached per mode count and scale, read-only."""
    out = scale * symplectic_form(n_modes)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Real symmetric covariance matrix of an n-mode state or detector.  Its
    largest |entry| is kept in the `_scale` slot, its standard form (form, S)
    in `_reduced` and its bona-fide least eigenvalue in `_min_eig`; none is a
    dataclass field, so `==`, `hash` and `repr` ignore them."""

    mat: np.ndarray
    n_modes: int = field(init=False)

    def __post_init__(self):
        # the one check of a matrix from outside: the decision computes on
        # the plain array inside and trusts what this accepts
        try:   # ragged rows, or entries that are not numbers, raise
            mat = np.asarray(self.mat)
            mat = mat.real if mat.dtype.kind == "c" and not mat.imag.any() else mat
            mat = mat.astype(float, copy=False) if mat.dtype.kind in "biufO" else None
        except (TypeError, ValueError):
            mat = None
        if mat is None:
            raise DimensionMismatchError("matrix entries are not real numbers")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] == 0:
            raise DimensionMismatchError("matrix has no modes")
        if mat.shape[0] % 2 != 0:
            raise DimensionMismatchError(f"matrix size {mat.shape[0]} is odd")
        half, scale = _finite_half(mat)   # refuses a non-finite entry first
        asym = 2 * float(abs(half - half.T).max())
        if asym > _SYMMETRY_TOL * max(1.0, scale):
            raise DimensionMismatchError(f"matrix is not symmetric (max asymmetry {asym:g})")
        _keep(self, half, scale)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def is_physical(self) -> bool:
        """`validate_cm(self).is_physical`.  It stays only while the
        benchmark's workloads call it, and goes with ROADMAP item 11 after
        item 1 (callers that need a tolerance pass it to `validate_cm`)."""
        return validate_cm(self).is_physical


def _finite_half(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """(mat / 2, the largest |entry| of mat) of a float array with finite
    entries, refused otherwise: that scale is inf or nan exactly where an
    entry is, so it is the finite-entry check, taken before any difference
    of entries could warn.  Halved first, so that neither a difference nor
    a sum of halves can overflow; halving is exact above 2**-1021."""
    half = mat / 2.0
    scale = 2 * float(abs(half).max())
    if not scale < math.inf:
        raise DimensionMismatchError("matrix has non-finite entries")
    return half, scale


def _keep(cm: CovMatrix, half: np.ndarray, scale: float) -> None:
    """Keep half + half.T on `cm` as its read-only array, with its mode
    count and its largest |entry| `scale` in the `_scale` slot."""
    mat = half + half.T
    mat.flags.writeable = False
    object.__setattr__(cm, "mat", mat)
    object.__setattr__(cm, "n_modes", len(mat) // 2)
    object.__setattr__(cm, "_scale", scale)


def _laid_out(mat: np.ndarray) -> CovMatrix:
    """The CovMatrix of a square, even-sized, symmetric float array that the
    package lays out itself: only the finite-entry check of `CovMatrix` is
    run, and the array kept is the one it keeps."""
    cm = object.__new__(CovMatrix)
    _keep(cm, *_finite_half(mat))
    return cm


@dataclass(frozen=True)
class ValidityReport:
    min_eig: float
    is_physical: bool


def _bona_fide_min_eig(mat: np.ndarray) -> float:
    """Least eigenvalue of mat + i*sigma/2 for a real symmetric array."""
    return float(np.linalg.eigvalsh(mat + _scaled_form(len(mat) // 2, 0.5j))[0])   # ascending


def _bona_fide_floor(gamma: CovMatrix, tol: float) -> float:
    """Least eigenvalue of gamma + i*sigma/2 still read as PSD."""
    return -(tol + _EIG_ROUNDING * gamma.dim * gamma._scale)


def _admission_tol(tol: float) -> float:
    """`tol` if it is a finite number >= 0, refused otherwise: nan would
    refuse every state, inf admit every matrix and a negative `tol` refuse
    states."""
    try:
        valid = 0 <= tol < math.inf
    except (TypeError, ValueError):   # not a number, or an array
        valid = False
    if not valid:
        raise CvWitnessError(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


def _bona_fide(gamma: CovMatrix, tol: float) -> tuple[float, bool]:
    """(least eigenvalue of gamma + i*sigma/2, whether it reads PSD at
    `tol`), the eigenvalue kept in the matrix's `_min_eig` slot, so that
    the entries that check one matrix in turn pay one eigensolve.  A `tol`
    that `_admission_tol` refuses is refused."""
    _admission_tol(tol)
    min_eig = gamma.__dict__.get("_min_eig")
    if min_eig is None:
        min_eig = _bona_fide_min_eig(gamma.mat)
        object.__setattr__(gamma, "_min_eig", min_eig)
    return min_eig, min_eig >= _bona_fide_floor(gamma, tol)


def validate_cm(gamma: CovMatrix, tol: float = TOL_PSD) -> ValidityReport:
    """Bona-fide check: gamma + i*sigma/2 must be PSD to within `tol` and
    rounding (`_bona_fide`, which refuses a `tol` that is not a finite
    number >= 0)."""
    min_eig, is_physical = _bona_fide(gamma, tol)
    return ValidityReport(min_eig=min_eig, is_physical=is_physical)


@lru_cache
def _ccm_transform(n_modes: int) -> np.ndarray:
    """Unitary T with (mu, mu*) = T z for mu_j = (-z_{2j} + i z_{2j-1}) / sqrt(2);
    cached per mode count, read-only."""
    t = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for j in range(n_modes):
        t[j, 2 * j] = 1j / np.sqrt(2)
        t[j, 2 * j + 1] = -1.0 / np.sqrt(2)
        t[n_modes + j, 2 * j] = -1j / np.sqrt(2)
        t[n_modes + j, 2 * j + 1] = -1.0 / np.sqrt(2)
    t.flags.writeable = False
    return t


def _integers(*values: float) -> tuple[list[int], int]:
    """(nums, den) with value = num / den exactly for each finite double:
    den, a power of two, is the largest of their denominators, so sums and
    products of the values are exact in Python integers."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max([d for _, d in ratios])
    return [num * (den // d) for num, d in ratios], den


def _quotient(num: int, den: int) -> float:
    """num / den for den > 0, correctly rounded, or inf of its sign past
    double precision."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _williamson_spectrum(mat: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of i*sigma*mat, one per mode, ascending."""
    try:
        eigs = np.linalg.eigvals(_scaled_form(len(mat) // 2, 1j) @ mat)
    except np.linalg.LinAlgError:   # seen with entries near the largest double
        raise ScaleOverflowError(
            "the symplectic spectrum does not converge in double precision") from None
    # eigenvalues come in +/- pairs; keep one of each
    return np.sort(np.abs(eigs.real))[::2]

