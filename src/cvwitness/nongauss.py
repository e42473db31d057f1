"""Photon-added/subtracted states on Gaussian kernels.

A state rho = N a^{k dag} a^m rho_G a^{m dag} a^k is handled through the
generating operator Q(xi, eta) = e^{xi a^dag} e^{-eta* a} rho_G e^{eta a^dag}
e^{-xi* a}: every trace against a Gaussian detector is a mixed derivative of an
explicit quadratic exponential exp(1/2 t q t^T) at t = 0, which is a hafnian
with repeated rows and columns, computed exactly by Kan's formula (Kan,
J. Multivariate Anal. 99, 2008; Bjorklund, Gupt & Quesada, arXiv:1805.12498)
as a signed sum over a box of prod(n_i + 1) points.

One box per state: the box depends on the ladder pattern alone, and q splits
into a per-state kernel part and a detector part of rank 2n.  Over t = (xi,
xi*, eta, eta*), with the kernel CCM g, the ladder shift s, gp = g + s and
gmn = g - s, q = q_G + V W V^T with q_G = -[[gp, gmn], [gmn, gmn]],
V = [gp; gmn] and W = (g + g_M)^{-1} for the detector CCM g_M.  A state keeps
q_G's quadratic over its box, which gives the normalization, and
HV = V^T h^T; a detector mean adds only sum_i (W HV)_i HV_i / 2 per point.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from math import comb, factorial, perm, prod

import numpy as np

from .criteria import CriterionReport, decide_separability
from .exceptions import (DegeneratePreparationError, DimensionMismatchError,
                         OrderTooHighError, ScaleOverflowError, SingularSumError)
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


class _KanBox:
    """Kan's box for the hafnian of q_n, which repeats row and column i of q
    n_i times (the mixed derivative prod d^{n_i}/dt_i^{n_i} of
    exp(1/2 t q t^T) at t = 0), as a signed sum over 0 <= v <= n:

        sum_v (-1)^{|v|} prod C(n_i, v_i) (h q h^T / 2)^p / p!,

    with rows h = n/2 - v and p = |n|/2.  Zero entries of the target are
    dropped first (`keep`), so the empty target is the one-point box of
    value 1.  An odd |n| gives 0.
    """

    def __init__(self, target: tuple[int, ...]):
        n = np.asarray(target, dtype=int)
        self.keep = n > 0
        n = n[self.keep]
        total = int(n.sum())
        self.power = None if total % 2 else total // 2
        # h^T: one column per box point, in the C order of np.indices
        self.points = n[:, None] / 2 - np.indices(n + 1).reshape(len(n), prod(n + 1))
        # the weight factorises over the box axes in the same order
        self.weight = reduce(
            np.multiply.outer,
            [[(-1) ** j * comb(k, j) for j in range(k + 1)] for k in n],
            np.ones(())).ravel()

    def products(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of mat[:, keep] h^T, one column per box
        point, as two real products: numpy runs a float @ complex product
        outside BLAS, several times slower."""
        mat = mat[:, self.keep]
        return mat.real.copy() @ self.points, mat.imag.copy() @ self.points

    def quadratic(self, q: np.ndarray) -> np.ndarray:
        """h q h^T / 2 at every box point."""
        re, im = self.products(q[self.keep])
        return ((re * self.points).sum(0) + 1j * (im * self.points).sum(0)) / 2

    def hafnian(self, quad: np.ndarray) -> complex:
        """haf(q_n), from the box quadratic of q.  A sum whose terms leave
        double precision is refused (`ScaleOverflowError`), not nan."""
        if self.power is None:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            val = self.weight @ quad ** self.power
        if not np.isfinite(val):
            raise ScaleOverflowError(
                "the ladder derivative overflows double precision")
        return val / factorial(self.power)


def _ladder_counts(counts, name: str) -> tuple[int, ...]:
    """Ladder counts as ints; a count that is not integral or not finite is
    refused, not truncated."""
    try:
        counts = tuple(counts)
        if all(int(v) == v for v in counts):
            return tuple(int(v) for v in counts)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DimensionMismatchError(f"{name} counts {counts} are not integers")


@dataclass(frozen=True, eq=False)
class NonGaussState:
    """Gaussian kernel plus per-mode photon additions k and subtractions m.

    Every moment is a mixed derivative at the target (k, k, m, m); the state
    keeps that target's Kan box, the kernel quadratic over it and HV.
    """

    kernel: CovMatrix
    add: tuple[int, ...]
    subtract: tuple[int, ...]
    norm: float = field(init=False)

    def __post_init__(self):
        n = self.kernel.n_modes
        add = _ladder_counts(self.add, "add")
        sub = _ladder_counts(self.subtract, "subtract")
        if len(add) != n or len(sub) != n:
            raise DimensionMismatchError(
                f"ladder indices must have length {n}, got {len(add)} and {len(sub)}")
        if min(add + sub, default=0) < 0:
            raise DimensionMismatchError("ladder indices must be nonnegative")
        if sum(add) + sum(sub) > MAX_ORDER:
            raise OrderTooHighError(
                f"|k| + |m| = {sum(add) + sum(sub)} exceeds {MAX_ORDER}")
        g = cm_to_ccm(self.kernel)
        gp, gmn = g + _ladder_shift(n), g - _ladder_shift(n)
        # V^T = [gp, gmn], as gp and gmn are symmetric; it is the top half of
        # the kernel part -[[gp, gmn], [gmn, gmn]] of q
        vt = np.concatenate([gp, gmn], axis=1)
        box = _KanBox(add + add + sub + sub)
        re, im = box.products(vt)
        self.__dict__.update(
            add=add, subtract=sub, _ccm=g, _box=box, _hv=re + 1j * im,
            _kernel_quad=box.quadratic(
                -np.concatenate([vt, np.concatenate([gmn, gmn], axis=1)])))
        denom = self._derivative(self._kernel_quad)
        if not denom > 1e-12:
            raise DegeneratePreparationError(
                f"ladder pattern annihilates the kernel (derivative {denom:g})")
        object.__setattr__(self, "norm", 1.0 / denom)

    @property
    def order(self) -> int:
        return sum(self.add) + sum(self.subtract)

    def _derivative(self, quad: np.ndarray) -> float:
        """The ladder-derivative operator, of sign (-1)^{|k|+|m|}, on
        exp(1/2 t q t^T) at t = 0, from the box quadratic of q."""
        val = (-1) ** self.order * self._box.hafnian(quad)
        if abs(np.imag(val)) > 1e-8 * max(1.0, abs(np.real(val))):
            raise DimensionMismatchError(f"derivative value is not real: {val:g}")
        return float(np.real(val))


def mean_on_detector(s: NonGaussState, d: QuadratureForm | CovMatrix) -> float:
    """Tr(rho M) via the exact mixed-derivative formula."""
    gm_cm = d if isinstance(d, CovMatrix) else d.to_cm()
    if gm_cm.dim != s.kernel.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: {s.kernel.dim} vs {gm_cm.dim}")
    # the CCM transform is unitary: |det(ccm_G + ccm_M)| = |det(gamma_G + gamma_M)|
    det = np.linalg.det(s.kernel.mat + gm_cm.mat)
    if abs(det) < 1e-12:
        raise SingularSumError(f"det(gamma_G + gamma_M) = {det:g} is singular")
    total = s._ccm + cm_to_ccm(gm_cm)
    quad = s._kernel_quad + ((np.linalg.inv(total) @ s._hv) * s._hv).sum(0) / 2
    return s.norm * s._derivative(quad) / np.sqrt(abs(det))


def decide_separability_nongauss(s: NonGaussState,
                                 partition: list[int] | None = None,
                                 tol: float = TOL_PSD) -> CriterionReport:
    """Separability of the photon-added/subtracted state.

    Local ladder operations neither create nor destroy entanglement across the
    partition, so the verdict is that of the Gaussian kernel.
    """
    report = decide_separability(s.kernel, partition, tol)
    note = "kernel-level decision; ladder operations are local"
    return replace(report, note=f"{report.note}; {note}" if report.note else note)


def build_fock_state(s: NonGaussState, cutoff: int) -> np.ndarray:
    """Normalized density matrix of the photon-added/subtracted state.

    Mode j's truncated a^{dag k} a^m is one weighted index shift on row axis
    j and, the ladders being real, on column axis n + j: index v moves to
    v - m + k with weight sqrt(v!/(v-m)! (v-m+k)!/(v-m)!), for sources
    m <= v < cutoff + min(0, m - k)."""
    from .fock import gaussian_op_fock
    n = s.kernel.n_modes
    t = gaussian_op_fock(s.kernel, cutoff).reshape((cutoff,) * (2 * n))
    for j, (k, m) in enumerate(zip(s.add, s.subtract)):
        hi = max(m, cutoff + min(0, m - k))
        w = np.sqrt([float(perm(v, m) * perm(v - m + k, k)) for v in range(m, hi)])
        for axis in (j, n + j):
            src, t = np.moveaxis(t, axis, -1), np.zeros_like(t)
            np.moveaxis(t, axis, -1)[..., k:hi - m + k] = w * src[..., m:hi]
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
