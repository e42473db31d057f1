"""Photon-added/subtracted states on Gaussian kernels.

A state rho = N a^{k dag} a^m rho_G a^{m dag} a^k is handled through the
generating operator Q(xi, eta) = e^{xi a^dag} e^{-eta* a} rho_G e^{eta a^dag}
e^{-xi* a}: every trace against a Gaussian detector is a mixed derivative of an
explicit quadratic exponential, extracted exactly as a multivariate Taylor
coefficient. That coefficient is a hafnian with repeated rows and columns,
computed by Kan's formula (Kan, J. Multivariate Anal. 99, 2008; Bjorklund,
Gupt & Quesada, arXiv:1805.12498) as a signed sum over prod(n_i + 1) points.
"""

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb, factorial, prod

import numpy as np

from .criteria import CriterionReport, decide_separability
from .exceptions import (DegeneratePreparationError, DimensionMismatchError,
                         OrderTooHighError, SingularSumError)
from .standard_form import QuadratureForm
from .symplectic import TOL_PSD, CovMatrix, cm_to_ccm

#: maximum total number of ladder operators |k| + |m|.
MAX_ORDER = 8


@lru_cache
def _ladder_shift(n: int) -> np.ndarray:
    """(sigma_1 (x) I_n) / 2 in the (mu, mu*) ordering; cached per mode
    count, read-only.

    This is the commutator shift between the two ladder orderings; the factor
    1/2 matches the vacuum-variance-1/2 convention used throughout (the
    variance-1 convention would make it sigma_1 (x) I_n).
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    shift = np.kron(sx, np.eye(n)) / 2
    shift.flags.writeable = False
    return shift


@dataclass(frozen=True, eq=False)
class NonGaussState:
    """Gaussian kernel plus per-mode photon additions k and subtractions m."""

    kernel: CovMatrix
    add: tuple[int, ...]
    subtract: tuple[int, ...]
    norm: float = field(init=False)

    def __post_init__(self):
        n = self.kernel.n_modes
        add = tuple(int(v) for v in self.add)
        sub = tuple(int(v) for v in self.subtract)
        if len(add) != n or len(sub) != n:
            raise DimensionMismatchError(
                f"ladder indices must have length {n}, got {len(add)} and {len(sub)}")
        if min(add + sub, default=0) < 0:
            raise DimensionMismatchError("ladder indices must be nonnegative")
        if sum(add) + sum(sub) > MAX_ORDER:
            raise OrderTooHighError(
                f"|k| + |m| = {sum(add) + sum(sub)} exceeds {MAX_ORDER}")
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "subtract", sub)
        object.__setattr__(self, "norm", normalization_raw(self.kernel, add, sub))

    @property
    def order(self) -> int:
        return sum(self.add) + sum(self.subtract)


def _quadratic_coeff_extract(q: np.ndarray, target: tuple[int, ...]) -> complex:
    """Taylor coefficient of prod t_i^{target_i} in exp(1/2 t q t^T).

    This is haf(q_n) / prod n_i!, where q_n repeats row and column i n_i
    times, and Kan's formula gives the repeated-index hafnian as a signed sum
    over the box 0 <= v <= n:

        sum_v (-1)^{|v|} prod C(n_i, v_i) (h q h^T / 2)^p / p!,

    with h = n/2 - v and p = |n|/2. Zero entries of the target are dropped
    first; h q h^T sees only the symmetric part of q.
    """
    n = np.asarray(target, dtype=int)
    keep = n > 0
    n = n[keep]
    total = int(n.sum())
    if total % 2 == 1:
        return 0.0
    p = total // 2
    if p == 0:
        return 1.0
    q = q[np.ix_(keep, keep)]
    v = np.indices(n + 1).reshape(len(n), -1).T
    h = n / 2 - v
    quad = np.einsum("ki,ki->k", h @ q, h) / 2
    # the weight factorises over the box axes, in the C order of np.indices
    weight = reduce(np.multiply.outer,
                    [[(-1) ** j * comb(k, j) for j in range(k + 1)] for k in n],
                    1.0)
    denom = factorial(p) * prod(factorial(k) for k in n)
    return weight.ravel() @ quad ** p / denom


def _derivative_value(q: np.ndarray, add: tuple[int, ...],
                      sub: tuple[int, ...]) -> float:
    """Apply the ladder-derivative operator to exp(1/2 t q t^T) at t = 0.

    Variables are ordered (xi, xi*, eta, eta*); the operator takes k_j
    derivatives in xi_j and xi*_j and m_j in eta_j and eta*_j, with overall
    sign (-1)^{|k|+|m|}.
    """
    n = len(add)
    target = tuple(list(add) + list(add) + list(sub) + list(sub))
    coeff = _quadratic_coeff_extract(q, target)
    fact = 1.0
    for kj in add:
        fact *= factorial(kj) ** 2
    for mj in sub:
        fact *= factorial(mj) ** 2
    val = (-1) ** (sum(add) + sum(sub)) * coeff * fact
    if abs(np.imag(val)) > 1e-8 * max(1.0, abs(np.real(val))):
        raise DimensionMismatchError(f"derivative value is not real: {val:g}")
    return float(np.real(val))


def _zero_quadratic(g: np.ndarray) -> np.ndarray:
    """Quadratic form of log chi_Q(0, xi, eta) over t = (xi, xi*, eta, eta*),
    for the kernel CCM g."""
    n = len(g) // 2
    gp = g + _ladder_shift(n)
    gm = g - _ladder_shift(n)
    d = 2 * n
    q = np.zeros((2 * d, 2 * d), dtype=complex)
    q[:d, :d] = -gp
    q[d:, d:] = -gm
    q[:d, d:] = -gm
    q[d:, :d] = -gm.T
    return q


def normalization_raw(kernel: CovMatrix, add: tuple[int, ...],
                      sub: tuple[int, ...]) -> float:
    """1 / (derivative of chi_Q(0, xi, eta)); trace-one normalization."""
    denom = _derivative_value(_zero_quadratic(cm_to_ccm(kernel).mat), add, sub)
    if denom <= 1e-12:
        raise DegeneratePreparationError(
            f"ladder pattern annihilates the kernel (derivative {denom:g})")
    return 1.0 / denom


def mean_on_detector(s: NonGaussState, d: QuadratureForm | CovMatrix) -> float:
    """Tr(rho M) via the exact mixed-derivative formula."""
    kernel = s.kernel
    n = kernel.n_modes
    gm_cm = d if isinstance(d, CovMatrix) else d.to_cm()
    if gm_cm.dim != kernel.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: {kernel.dim} vs {gm_cm.dim}")
    g = cm_to_ccm(kernel).mat
    g_m = cm_to_ccm(gm_cm).mat
    gp = g + _ladder_shift(n)
    gmn = g - _ladder_shift(n)
    total = g + g_m
    det = np.linalg.det(total)
    if abs(det) < 1e-12:
        raise SingularSumError(f"det(ccm_G + ccm_M) = {det:g} is singular")
    w = np.linalg.inv(total)
    # f(xi, eta) = 1/2 (u gp + v gmn) W (gp u^T + gmn v^T)
    vmat = np.vstack([gp, gmn])
    vmat2 = np.vstack([gp.T, gmn.T])
    mf = vmat @ w @ vmat2.T
    q = _zero_quadratic(g) + mf
    deriv = _derivative_value(q, s.add, s.subtract)
    return s.norm * deriv / np.sqrt(abs(np.linalg.det(kernel.mat + gm_cm.mat)))


def asymptotic_check(s: NonGaussState, d0: QuadratureForm,
                     scales=(10.0, 100.0, 1000.0)) -> list[float]:
    """Residuals |Tr(rho M_t) sqrt|det(gamma_G + t gamma_M0)| - 1| along t."""
    out = []
    for t in scales:
        dt = d0.scaled(float(t))
        mean = mean_on_detector(s, dt)
        det = np.linalg.det(s.kernel.mat + dt.to_cm().mat)
        out.append(abs(mean * np.sqrt(abs(det)) - 1.0))
    return out


def decide_separability_nongauss(s: NonGaussState,
                                 partition: list[int] | None = None,
                                 tol: float = TOL_PSD) -> CriterionReport:
    """Separability of the photon-added/subtracted state.

    Local ladder operations neither create nor destroy entanglement across the
    partition, so the verdict is that of the Gaussian kernel.
    """
    report = decide_separability(s.kernel, partition, tol)
    note = "kernel-level decision; ladder operations are local"
    if report.note:
        note = report.note + "; " + note
    return CriterionReport(
        verdict=report.verdict, lhs_value=report.lhs_value,
        criterion_name=report.criterion_name, certificate=report.certificate,
        ppt=report.ppt, bound_entangled=report.bound_entangled, note=note)


def build_fock_state(s: NonGaussState, cutoff: int) -> np.ndarray:
    """Normalized density matrix of the photon-added/subtracted state."""
    from .fock import gaussian_op_fock, ladder_on_axis
    n = s.kernel.n_modes
    t = gaussian_op_fock(s.kernel, cutoff).reshape((cutoff,) * (2 * n))
    # L = prod_j a_j^{dag k_j} a_j^{m_j} shifts row axis j; the ladders are
    # real, so rho L^dag takes the same shifts on column axis n + j
    for j in range(n):
        for axis in (j, n + j):
            for _ in range(s.subtract[j]):
                t = ladder_on_axis(t, axis, dagger=False)
            for _ in range(s.add[j]):
                t = ladder_on_axis(t, axis, dagger=True)
    rho = t.reshape(cutoff ** n, cutoff ** n)
    tr = float(np.real(np.trace(rho)))
    if tr <= 1e-12:
        raise DegeneratePreparationError(f"Fock trace {tr:g} vanishes")
    return rho / tr


def fock_direct_trace(s: NonGaussState, d: QuadratureForm | CovMatrix,
                      cutoff: int) -> float:
    """Oracle for mean_on_detector: explicit Fock matrices, plain trace."""
    from .fock import gaussian_op_fock
    rho = build_fock_state(s, cutoff)
    gm_cm = d if isinstance(d, CovMatrix) else d.to_cm()
    m_op = gaussian_op_fock(gm_cm, cutoff)
    return float(np.real(np.sum(rho.T * m_op)))
