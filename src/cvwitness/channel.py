"""Measurement-induced Gaussian channel attached to a family detector.

A detector in the large-M3 regime acts on the conditional state like a
deterministic Gaussian channel gamma -> K^T gamma K + alpha.  This module
builds (K, alpha) from detector parameters, checks complete positivity and
applies the channel to Gaussian inputs.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateLimitError, DimensionMismatchError
from .standard_form import DetectorSpec, Family, QuadratureForm
from .symplectic import CovMatrix, symplectic_form


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Gaussian CP map acting on covariance matrices as K^T gamma K + alpha;
    `m3_prime` and `m4_prime` (M3 + 1/2, M4 + 1/2 of the detector) set its
    `norm_factor`."""

    k: np.ndarray
    alpha: np.ndarray
    m3_prime: float
    m4_prime: float

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        a = np.asarray(self.alpha, dtype=float)
        if k.shape != a.shape or k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimensionMismatchError(
                f"K and alpha must be equal square matrices, got {k.shape} and {a.shape}")
        k.flags.writeable = False
        object.__setattr__(self, "k", k)
        a = (a + a.T) / 2
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)

    @property
    def n_modes(self) -> int:
        return self.k.shape[0] // 2

    def apply(self, gamma: CovMatrix) -> CovMatrix:
        if gamma.dim != self.k.shape[0]:
            raise DimensionMismatchError(
                f"channel acts on {self.k.shape[0]} quadratures, got {gamma.dim}")
        return CovMatrix(self.k.T @ gamma.mat @ self.k + self.alpha)

    def norm_factor(self) -> float:
        """Prefactor of the output characteristic function per traced-out mode."""
        return (self.m3_prime * self.m4_prime) ** (-self.n_modes / 2)

    def cp_min_eig(self) -> float:
        """Minimum eigenvalue of alpha + (i/2)(sigma - K^T sigma K); CP iff >= 0."""
        sigma = symplectic_form(self.n_modes)
        h = self.alpha + 0.5j * (sigma - self.k.T @ sigma @ self.k)
        return float(np.min(np.linalg.eigvalsh(h)))

    def is_cp(self) -> bool:
        """CP to within 1e-10 on the minimum eigenvalue."""
        return self.cp_min_eig() >= -1e-10


def detector_to_channel(d: QuadratureForm) -> GaussianChannel:
    """Channel induced on party A by the detector's party-B marginal.

    Valid in the regime M3' = M3 + 1/2 > 1; the B marginal is then a thermal
    mixture and conditioning on it contracts A by K and adds noise alpha.
    K is the detector CM's cross block, its x rows divided by sqrt(den_x) of
    the M3 marginal and its p rows by sqrt(den_p) of the M4 marginal.
    """
    (m1, m3, m5), (m2, m4, m6) = d.x, d.p
    m3p = m3 + 0.5
    m4p = m4 + 0.5
    if m3p <= 1.0 or m4p <= 1.0:
        raise DegenerateLimitError(
            f"channel requires M3 + 1/2 > 1 and M4 + 1/2 > 1, got {m3p:g}, {m4p:g}")
    den_x = m3p * (m3p - 1.0)
    den_p = m4p * (m4p - 1.0)
    a_x = m1 - m5 ** 2 * m3 / den_x
    a_p = m2 - m6 ** 2 * m4 / den_p
    n_a = d.family.n_modes_a
    k = d.to_cm().mat[:2 * n_a, 2 * n_a:] / np.sqrt([[den_x], [den_p]] * n_a)
    alpha = np.diag([a_x, a_p] * n_a)
    return GaussianChannel(k=k, alpha=alpha, m3_prime=m3p, m4_prime=m4p)


def channel_commutator_norm(ch: GaussianChannel) -> float:
    """||[K, alpha]||_max; zero by construction for family channels."""
    comm = ch.k @ ch.alpha - ch.alpha @ ch.k
    return float(np.max(np.abs(comm)))


def exact_output_char(d: QuadratureForm, k: int, m: int, nu1: complex) -> complex:
    """Characteristic function of Tr_B(M (I x |k><m|)) for a two-mode detector
    with M4 = M3 (the four-parameter pattern; M1, M2 may differ).

    Exact at every detector scale; the channel form drops the
    (1 - 1/M3')^{(m+k)/2} polynomial rescaling and the residual linear-argument
    terms, and becomes exact only in the large-M3 limit.
    """
    from .fock import displacement_element
    if d.family is not Family.TWO_MODE:
        raise DimensionMismatchError("exact output form is two-mode only")
    m1, m2, m3, m4, m5, m6 = d.params
    if abs(m4 - m3) > 1e-12:
        raise DimensionMismatchError("exact output form requires M4 = M3")
    m3p = m3 + 0.5
    den = m3p * (m3p - 1.0)
    if den <= 0:
        raise DegenerateLimitError(f"requires M3 + 1/2 > 1, got {m3p:g}")
    # cross coupling in complex variables: tau_hat nu2 + tau_hat* nu2*
    tau_hat = m6 * nu1.real + 1j * m5 * nu1.imag
    arg = -np.conj(tau_hat) / np.sqrt(den)
    pref = (1.0 - 1.0 / m3p) ** ((m + k) / 2) / m3p
    envelope = np.exp(-m2 * nu1.real ** 2 - m1 * nu1.imag ** 2
                      + abs(tau_hat) ** 2 / m3p + abs(arg) ** 2 / 2)
    return pref * displacement_element(m, k, arg) * envelope


def channel_output_char(d: QuadratureForm, k: int, m: int, nu1: complex) -> complex:
    """Large-M3 channel prediction for the same output characteristic function.

    Evaluates (1/M3') chi_in(|k><m|, nu') exp(-z alpha z^T / 2) with
    nu' read off K z, using the channel matrices themselves.
    """
    from .fock import displacement_element
    ch = detector_to_channel(d)
    z = np.array([np.sqrt(2) * nu1.imag, -np.sqrt(2) * nu1.real])
    kz = ch.k @ z
    nu_p = (-kz[1] + 1j * kz[0]) / np.sqrt(2)
    return (displacement_element(m, k, nu_p)
            * np.exp(-0.5 * z @ ch.alpha @ z) * ch.norm_factor())


def fock_output_char(d: QuadratureForm, k: int, m: int, nu1: complex,
                     cutoff: int) -> complex:
    """Fock oracle for exact_output_char: explicit partial matrix element."""
    from .fock import displacement_matrix, gaussian_op_fock
    rho = gaussian_op_fock(d.to_cm(), cutoff)
    t = rho.reshape(cutoff, cutoff, cutoff, cutoff)
    out = t[:, m, :, k]  # <i_A, m_B| M |j_A, k_B> as operator on A
    return complex(np.trace(out @ displacement_matrix(nu1, cutoff)))


#: characteristic-function arguments of `channel_output_vs_fock`
_NU_POINTS = (0.3 + 0.2j, -0.4 + 0.1j, 0.15 - 0.35j)


def channel_output_vs_fock(d: QuadratureForm, k: int, m: int, cutoff: int,
                           scale_m3: float) -> float:
    """Two-step validation of the measurement-induced channel.

    Step 1 checks the exact finite-scale output form against the truncated
    Fock partial trace at the given (Fock-representable) detector.  Step 2
    checks the channel-matrix prediction against the exact form with M3
    scaled by `scale_m3`, where the large-M3 limit applies.  Returns the
    maximum deviation over both steps and the points `_NU_POINTS`.
    """
    m1, m2, m3, m4, m5, m6 = d.params
    d_big = DetectorSpec(d.family, m1, m2, scale_m3 * m3, scale_m3 * m4, m5, m6)
    dev = 0.0
    for nu in _NU_POINTS:
        dev = max(dev, abs(fock_output_char(d, k, m, nu, cutoff)
                           - exact_output_char(d, k, m, nu)))
        dev = max(dev, abs(channel_output_char(d_big, k, m, nu)
                           - exact_output_char(d_big, k, m, nu)))
    return dev

