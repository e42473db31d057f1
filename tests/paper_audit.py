"""Audits of the paper's derivation, kept as test oracles.

The paper reduces a Gaussian detector's product-state maximum through the
measurement-induced Bosonic Gaussian channel and checks the non-Gaussian
detector mean in the large-detector limit.  The program ships the results of
these steps as closed forms (`lambda_closed_form`, `minmax_optimize`,
`mean_on_detector`); the steps themselves live here, where acceptance
criteria 6 and 7 and the channel tests check them.  So does the paper's
quoted closed form of the Werner-Wolf family criterion, which no decision
reads.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag

from cvwitness.criteria import WWFamilyParams
from cvwitness.fock import gaussian_op_fock
from cvwitness.nongauss import NonGaussState, mean_on_detector
from cvwitness.standard_form import DetectorSpec, Family, QuadratureForm
from cvwitness.symplectic import symplectic_form


def displacement_matrix(mu: complex, cutoff: int) -> np.ndarray:
    """<m|D(mu)|n> below the cutoff, exact.  Row 0 is
    e^{-|mu|^2/2} (-mu*)^n / sqrt(n!), and a D = D (a + mu) gives
    sqrt(m + 1) D_{m+1,n} = mu D_{m,n} + sqrt(n) D_{m,n-1}."""
    mu = complex(mu)
    root = np.sqrt(np.arange(cutoff))
    d = np.zeros((cutoff, cutoff), dtype=complex)
    d[0] = np.exp(-abs(mu) ** 2 / 2) * np.cumprod(
        np.concatenate(([1.0], -np.conj(mu) / root[1:])))
    for m in range(cutoff - 1):
        d[m + 1] = mu * d[m]
        d[m + 1, 1:] += root[1:] * d[m, :-1]
        d[m + 1] /= root[m + 1]
    return d


def _displacement_element(m: int, k: int, mu: complex) -> complex:
    return displacement_matrix(mu, max(m, k) + 1)[m, k]


def werner_wolf_family_lhs_claim(p: WWFamilyParams) -> float:
    """Closed-form family value quoted for the criterion LHS (audited, not
    normative).

    On the family it is exactly half of `separability_lhs`: over 1000 family
    points the ratio is 0.5 to within 1e-12.  Same sign, so the quoted value
    agrees with the verdict, but not the same number."""
    return -(p.a * p.d - p.b * p.c) / (16 * p.b * (p.c * p.e - p.a))


class Channel(NamedTuple):
    """Gaussian map gamma -> K^T gamma K + alpha on party A's CMs, with the
    output characteristic function's prefactor `norm` = (M3' M4')^(-n_A/2)."""

    k: np.ndarray
    alpha: np.ndarray
    norm: float

    def is_cp(self) -> bool:
        """alpha + (i/2)(sigma - K^T sigma K) is PSD to within 1e-10."""
        sigma = symplectic_form(len(self.k) // 2)
        h = self.alpha + 0.5j * (sigma - self.k.T @ sigma @ self.k)
        return np.linalg.eigvalsh(h)[0] >= -1e-10


def detector_to_channel(d: QuadratureForm) -> Channel:
    """Channel induced on party A by the detector's party-B marginal.

    Valid in the regime M3' = M3 + 1/2 > 1, M4' = M4 + 1/2 > 1; the B
    marginal is then a thermal mixture and conditioning on it contracts A by
    K and adds noise alpha.  K is the detector CM's cross block, its x rows
    divided by sqrt(den_x) of the M3 marginal and its p rows by sqrt(den_p)
    of the M4 marginal.
    """
    (m1, m3, m5), (m2, m4, m6) = d.x, d.p
    m3p, m4p = m3 + 0.5, m4 + 0.5
    assert m3p > 1 and m4p > 1, "the channel needs M3 + 1/2 > 1 and M4 + 1/2 > 1"
    den_x, den_p = m3p * (m3p - 1), m4p * (m4p - 1)
    n_a = d.family.n_modes_a
    k = d.to_cm().mat[:2 * n_a, 2 * n_a:] / np.sqrt([[den_x], [den_p]] * n_a)
    alpha = np.diag([m1 - m5 ** 2 * m3 / den_x, m2 - m6 ** 2 * m4 / den_p] * n_a)
    return Channel(k, alpha, (m3p * m4p) ** (-n_a / 2))


def channel_commutator_norm(ch: Channel) -> float:
    """||[K, alpha]||_max; zero by construction for family channels."""
    return float(np.max(np.abs(ch.k @ ch.alpha - ch.alpha @ ch.k)))


def exact_output_char(d: QuadratureForm, k: int, m: int, nu1: complex) -> complex:
    """Characteristic function of Tr_B(M (I x |k><m|)) for a two-mode detector
    with M4 = M3 (the four-parameter pattern; M1, M2 may differ).

    Exact at every detector scale; the channel form drops the
    (1 - 1/M3')^{(m+k)/2} polynomial rescaling and the residual linear-argument
    terms, and becomes exact only in the large-M3 limit.
    """
    m1, m2, m3, m4, m5, m6 = d.params
    assert d.family is Family.TWO_MODE and m4 == m3 and m3 > 0.5
    m3p = m3 + 0.5
    den = m3p * (m3p - 1.0)
    # cross coupling in complex variables: tau_hat nu2 + tau_hat* nu2*
    tau_hat = m6 * nu1.real + 1j * m5 * nu1.imag
    arg = -np.conj(tau_hat) / np.sqrt(den)
    pref = (1.0 - 1.0 / m3p) ** ((m + k) / 2) / m3p
    envelope = np.exp(-m2 * nu1.real ** 2 - m1 * nu1.imag ** 2
                      + abs(tau_hat) ** 2 / m3p + abs(arg) ** 2 / 2)
    return pref * _displacement_element(m, k, arg) * envelope


def channel_output_char(d: QuadratureForm, k: int, m: int, nu1: complex) -> complex:
    """Large-M3 channel prediction for the same output characteristic function.

    Evaluates norm chi_in(|k><m|, nu') exp(-z alpha z^T / 2) with nu' read
    off K z, using the channel matrices themselves.
    """
    ch = detector_to_channel(d)
    z = np.array([np.sqrt(2) * nu1.imag, -np.sqrt(2) * nu1.real])
    kz = ch.k @ z
    nu_p = (-kz[1] + 1j * kz[0]) / np.sqrt(2)
    return _displacement_element(m, k, nu_p) * np.exp(-0.5 * z @ ch.alpha @ z) * ch.norm


def fock_output_char(d: QuadratureForm, k: int, m: int, nu1: complex,
                     cutoff: int) -> complex:
    """Fock oracle for exact_output_char: explicit partial matrix element."""
    t = gaussian_op_fock(d.to_cm(), cutoff).reshape((cutoff,) * 4)
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
    return max(max(abs(fock_output_char(d, k, m, nu, cutoff)
                       - exact_output_char(d, k, m, nu)),
                   abs(channel_output_char(d_big, k, m, nu)
                       - exact_output_char(d_big, k, m, nu)))
               for nu in _NU_POINTS)


def overlap_identity_ratio(d: QuadratureForm, gamma_a: np.ndarray,
                           gamma_b: np.ndarray) -> float:
    """The ratio of the direct detector mean to the channel-picture mean.

    Direct: Tr(M rho_A x rho_B) = 1/sqrt(det(gamma_M + gamma_A (+) gamma_B)).
    Channel picture: norm / sqrt(det(gamma_A + K^T gamma_B K + alpha)).  The
    ratio tends to 1 as the detector scale grows; the deviation is O(1/M3').
    """
    ch = detector_to_channel(d)
    direct = 1.0 / np.sqrt(np.linalg.det(d.to_cm().mat + block_diag(gamma_a, gamma_b)))
    g_out = ch.k.T @ gamma_b @ ch.k + ch.alpha
    via_channel = ch.norm / np.sqrt(np.linalg.det(gamma_a + g_out))
    return float(direct / via_channel)


def asymptotic_check(s: NonGaussState, d0: QuadratureForm,
                     scales=(10.0, 100.0, 1000.0)) -> list[float]:
    """Residuals |Tr(rho M_t) sqrt|det(gamma_G + t gamma_M0)| - 1| along t."""
    out = []
    for t in scales:
        dt = d0.scaled(float(t))
        det = np.linalg.det(s.kernel.mat + dt.to_cm().mat)
        out.append(abs(mean_on_detector(s, dt) * np.sqrt(abs(det)) - 1.0))
    return out
