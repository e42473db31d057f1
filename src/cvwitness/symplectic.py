"""Covariance-matrix core: symplectic form, validity checks, CM/CCM conversion
and symplectic eigenvalues.

Quadrature ordering is (x1, p1, x2, p2, ...) throughout, with vacuum
variance 1/2 on the diagonal.

The symplectic form sigma, its multiples i sigma/2 and i sigma, and the CCM
transform depend on the mode count alone, so each is built once per mode
count and cached as a read-only array: every validity check, symplectic
spectrum and symplecticity test of a decision would otherwise rebuild the
same matrix.  The checks on these small matrices call ndarray methods
(`abs(x).max()`, `isfinite(m).all()`) rather than numpy's module-level
wrappers, whose Python overhead outweighs the arithmetic at 4x4 and 8x8.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import DimensionMismatchError

#: PSD tolerance on the minimum eigenvalue of gamma + i*sigma/2.
TOL_PSD = 1e-10

_SYMMETRY_TOL = 1e-12


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


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix with the given square blocks."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def _check_even_square(mat: np.ndarray) -> int:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2 != 0:
        raise DimensionMismatchError(f"matrix size {mat.shape[0]} is odd")
    return mat.shape[0] // 2


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Real symmetric covariance matrix of an n-mode state or detector."""

    mat: np.ndarray
    n_modes: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        n = _check_even_square(mat)
        if not np.isfinite(mat).all():
            raise DimensionMismatchError("matrix has non-finite entries")
        asym = abs(mat - mat.T).max()
        if asym > _SYMMETRY_TOL:
            raise DimensionMismatchError(f"matrix is not symmetric (max asymmetry {asym:g})")
        mat = (mat + mat.T) / 2.0
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "n_modes", n)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def is_physical(self, tol: float = TOL_PSD) -> bool:
        return validate_cm(self, tol=tol).is_physical


@dataclass(frozen=True)
class ValidityReport:
    min_eig: float
    is_physical: bool


def validate_cm(gamma: CovMatrix, tol: float = TOL_PSD) -> ValidityReport:
    """Bona-fide check: gamma + i*sigma/2 must be positive semidefinite."""
    h = gamma.mat + _scaled_form(gamma.n_modes, 0.5j)
    min_eig = float(np.linalg.eigvalsh(h)[0])   # ascending
    return ValidityReport(min_eig=min_eig, is_physical=min_eig >= -tol)


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


def cm_to_ccm(gamma: CovMatrix) -> np.ndarray:
    """Re-express the quadratic form of the characteristic function over
    (mu_1..mu_n, mu*_1..mu*_n): a read-only complex-symmetric array."""
    t = _ccm_transform(gamma.n_modes)
    # T is unitary, so T^{-1} = T^dag and T^{-T} = conj(T)
    mat = t.conj() @ gamma.mat @ t.conj().T
    mat = (mat + mat.T) / 2.0
    mat.flags.writeable = False
    return mat


def symplectic_eigenvalues(gamma: CovMatrix) -> np.ndarray:
    """Williamson spectrum: moduli of eigenvalues of i*sigma*gamma, one per mode."""
    eigs = np.linalg.eigvals(_scaled_form(gamma.n_modes, 1j) @ gamma.mat)
    # eigenvalues come in +/- pairs; keep one of each
    return np.sort(np.abs(eigs.real))[::2]


def is_symplectic(s: np.ndarray) -> bool:
    """Whether S sigma S^T = sigma to within 1e-10 in every entry."""
    sigma = symplectic_form(_check_even_square(s))
    return abs(s @ sigma @ s.T - sigma).max() <= 1e-10


@dataclass(frozen=True, eq=False)
class LocalSymplectic:
    """Block-diagonal symplectic acting separately on party A and party B."""

    mat: np.ndarray
    n_modes_a: int

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        n = _check_even_square(mat)
        if not 0 < self.n_modes_a < n:
            raise DimensionMismatchError(
                f"party A must hold between 1 and {n - 1} modes, got {self.n_modes_a}")
        da = 2 * self.n_modes_a
        if abs(mat[:da, da:]).max() > 1e-10 or abs(mat[da:, :da]).max() > 1e-10:
            raise DimensionMismatchError("matrix does not respect the bipartition")
        if not is_symplectic(mat):
            raise DimensionMismatchError("matrix is not symplectic")
        mat = np.array(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def apply(self, gamma: CovMatrix) -> CovMatrix:
        return CovMatrix(self.mat @ gamma.mat @ self.mat.T)
