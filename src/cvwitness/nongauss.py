"""Photon-added/subtracted states on Gaussian kernels.

A state rho = N a^{k dag} a^m rho_G a^{m dag} a^k is handled through the
generating operator Q(xi, eta) = e^{xi a^dag} e^{-eta* a} rho_G e^{eta a^dag}
e^{-xi* a}: every trace against a Gaussian detector is a mixed derivative of an
explicit quadratic exponential exp(1/2 t q t^T) at t = 0, which is a hafnian
with repeated rows and columns, computed exactly by Kan's formula (Kan,
J. Multivariate Anal. 99, 2008; Bjorklund, Gupt & Quesada, arXiv:1805.12498)
as a signed sum over a box of prod(n_i + 1) points h = n/2 - v.

The quadratic is formed in the real quadrature frame of the CMs.  Over the box
rows h = (h1; h2) = (xi, xi*; eta, eta*), with the CCM transform T and the
ladder shift s = (sigma_1 (x) I_n) / 2 between the two orderings, let
z = T^dag (h1 + h2) and r = T^T s (h1 - h2): per mode, with u = xi + eta,
z_x = i (u* - u) / sqrt(2) and z_p = -(u + u*) / sqrt(2), and r is the same in
w = xi - eta with an extra 1/2.  With c0 = 2 h1^T s h1 - u^T s u, the kernel
CM gamma and the detector CM gamma_M,

    kernel (normalization):  -(z^T gamma z + c0) / 2,
    detector mean:           -c0/2 + r^T z - z^T gamma_M z / 2
                             + e^T (gamma + gamma_M)^{-1} e / 2,
                             e = gamma_M z - r,

and the mean is divided by sqrt(det(gamma + gamma_M)), taken from `slogdet`.
The kernel enters a mean only through (gamma + gamma_M)^{-1}, so no term of
order |gamma| is formed and then cancelled.  A kernel part and a detector
part of that order would cancel down to the mean, which is 1/(2 s^3) for one
photon added to the kernel s I_4, and lose its digits from s ~ 1e10 on.
c0 and r^T z are quadratic forms in (z, r) too, so each quantity is
(z, r)^T A (z, r) / 2 for one real 4n x 4n matrix A (`_kernel_form`,
`_detector_form`).

The box depends on the ladder pattern alone, and so do z and r over it: a
state keeps (z; r), one complex row per quadrature with x rows imaginary and
p rows real, and its norm.  A detector mean adds a few 4n x 4n products, one
real product of A with the float view of (z; r), the row sums of its
product with (z; r) and the weighted sum of their power.  Every product with
a box-sized array puts a real matrix on the left of a complex array's float
view, which BLAS runs as a real product (numpy runs a float @ complex
product outside BLAS).
"""

import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from math import comb, exp, factorial, inf, log, perm, prod

import numpy as np

from .criteria import CriterionReport, decide_separability, require_physical
from .exceptions import (DegeneratePreparationError, DimensionMismatchError,
                         OrderTooHighError, ScaleOverflowError, SingularSumError)
from .standard_form import QuadratureForm
from .symplectic import TOL_PSD, CovMatrix, _ccm_transform

#: maximum total number of ladder operators |k| + |m|.
MAX_ORDER = 8

#: det(gamma_G + gamma_M) below which the detector mean is refused.
_SINGULAR_DET = 1e-12


@lru_cache
def _box_frame(n: int) -> np.ndarray:
    """F = [[T^dag, T^dag], [T^T s, -T^T s]], with (z; r) = F h for
    h = (xi, xi*, eta, eta*); cached per mode count, read-only.  x rows of F
    are imaginary and p rows real."""
    t = _ccm_transform(n)
    # T^T s: s swaps the (mu, mu*) halves and halves them
    td, ts = t.conj().T, np.roll(t.T, n, axis=1) / 2
    f = np.block([[td, td], [ts, -ts]])
    f.flags.writeable = False
    return f


@lru_cache
def _constant_blocks(d: int, cross: float) -> np.ndarray:
    """[[I/4, cross I], [cross I, -I]] of size 2d; cached, read-only."""
    c = np.kron([[0.25, cross], [cross, -1.0]], np.eye(d))
    c.flags.writeable = False
    return c


def _kernel_form(gamma: np.ndarray) -> np.ndarray:
    """A with (z, r)^T A (z, r) = -(z^T gamma z + c0): c0 = r^T r - z^T z / 4
    + r^T z, as z^T z = 2 u^T s u and r^T r = w^T s w / 2."""
    d = len(gamma)
    a = _constant_blocks(d, -0.5).copy()
    a[:d, :d] -= gamma
    return a


def _detector_form(gamma: np.ndarray, gamma_m: np.ndarray,
                   inv_total: np.ndarray) -> np.ndarray:
    """A with (z, r)^T A (z, r) = -c0 + 2 r^T z - z^T gamma_M z + e^T
    (gamma + gamma_M)^{-1} e: -c0 + 2 r^T z gives the constant blocks
    [[I/4, I/2], [I/2, -I]], and the zz block gamma_M W gamma_M - gamma_M is
    written -gamma_M W gamma for W = (gamma + gamma_M)^{-1}, which is bounded
    by both CMs and cancels nothing.  The four variable blocks are joined
    and subtracted at once, since an in-place update of one block view costs
    more than a 4n x 4n product."""
    gw = gamma_m @ inv_total
    return _constant_blocks(len(gamma), 0.5) - np.concatenate(
        (np.concatenate((gw @ gamma, gw), axis=1),
         np.concatenate((gw.T, -inv_total), axis=1)))


@lru_cache
def _signed_binomials(k: int) -> np.ndarray:
    """(-1)^j C(k, j) for j = 0..k; cached per count, read-only."""
    w = np.array([(-1) ** j * comb(k, j) for j in range(k + 1)], dtype=float)
    w.flags.writeable = False
    return w


class _KanBox:
    """Kan's box for the hafnian of q_n, which repeats row and column i of q
    n_i times (the mixed derivative prod d^{n_i}/dt_i^{n_i} of
    exp(1/2 t q t^T) at t = 0), as a signed sum over 0 <= v <= n:

        sum_v (-1)^{|v|} prod C(n_i, v_i) (h q h^T / 2)^p / p!,

    with rows h = n/2 - v and p = |n|/2, over every coordinate: a zero entry
    gives its row h_i = 0, so the empty target is the one-point box of value
    1.  An odd |n| gives 0.
    """

    def __init__(self, target: tuple[int, ...]):
        total = sum(target)
        self.power = None if total % 2 else total // 2
        shape = [k + 1 for k in target]
        # h^T: one column per box point, in the C order of np.indices
        h = np.indices(shape, dtype=float).reshape(len(target), prod(shape))
        self.points = np.subtract(np.array(target)[:, None] / 2, h, out=h)
        # the weight factorises over the box axes in the same order
        self.weight = reduce(np.multiply.outer,
                             [_signed_binomials(k) for k in target if k],
                             np.ones(())).reshape(h.shape[1])

    def hafnian(self, quad: np.ndarray) -> complex:
        """haf(q_n), from the box quadratic of q.  A sum whose terms leave
        double precision is refused (`ScaleOverflowError`), not nan; the
        caller runs it with numpy's overflow warnings off."""
        if not self.power:
            return 0.0 if self.power is None else 1.0
        terms = quad ** self.power
        # both parts in one real product on the float view
        re, im = self.weight @ terms.view(float).reshape(-1, 2)
        val = complex(re, im)
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

    Every moment is a mixed derivative at the target (k, k, m, m) over
    (xi, xi*, eta, eta*); the state keeps that target's Kan box and (z; r)
    over it, which depend on the pattern alone, and the norm.
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
        box = _KanBox(add + add + sub + sub)
        # (z; r) over the box: x rows imaginary, p rows real
        f = _box_frame(n)
        zr = np.zeros((4 * n, len(box.weight)), dtype=complex)
        parts = zr.view(float).reshape(4 * n, -1, 2)
        parts[0::2, :, 1] = f[0::2].imag @ box.points
        parts[1::2, :, 0] = f[1::2].real @ box.points
        self.__dict__.update(add=add, subtract=sub, _box=box, _zr=zr)
        # a kernel too large for its derivative overflows to inf or nan,
        # which the hafnian refuses
        with np.errstate(over="ignore", invalid="ignore"):
            denom = self._derivative(_kernel_form(self.kernel.mat))
        if not denom > 1e-12:
            raise DegeneratePreparationError(
                f"ladder pattern annihilates the kernel (derivative {denom:g})")
        object.__setattr__(self, "norm", 1.0 / denom)

    @property
    def order(self) -> int:
        return sum(self.add) + sum(self.subtract)

    def _derivative(self, a: np.ndarray) -> float:
        """The ladder-derivative operator, of sign (-1)^{|k|+|m|}, on
        exp(1/2 t q t^T) at t = 0 for the quadratic (z, r)^T A (z, r) / 2:
        A acts on the float view of (z; r) as one real product."""
        y = (a @ self._zr.view(float)).view(complex)
        y *= self._zr
        quad = y.sum(0)
        quad /= 2
        val = (-1) ** self.order * self._box.hafnian(quad)
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            raise DimensionMismatchError(f"derivative value is not real: {val:g}")
        return float(val.real)


def mean_on_detector(s: NonGaussState, d: QuadratureForm | CovMatrix) -> float:
    """Tr(rho M) via the exact mixed-derivative formula.  A kernel that fails
    `require_physical` is refused (`PatternMismatchError`): its "mean" can be
    negative.  A mean that leaves double precision is refused
    (`ScaleOverflowError`), not 0 or inf."""
    gamma_m = (d if isinstance(d, CovMatrix) else d.to_cm()).mat
    gamma = s.kernel.mat
    if len(gamma_m) != len(gamma):
        raise DimensionMismatchError(
            f"dimension mismatch: {len(gamma)} vs {len(gamma_m)}")
    require_physical(s.kernel)
    with np.errstate(over="ignore", invalid="ignore"):
        total = gamma + gamma_m
        sign, logdet = np.linalg.slogdet(total)
        if not logdet >= log(_SINGULAR_DET):
            if logdet != logdet:   # nan: the sum left double precision
                raise ScaleOverflowError(
                    "gamma_G + gamma_M overflows double precision")
            raise SingularSumError(
                f"det(gamma_G + gamma_M) = {sign * exp(logdet):g} is singular")
        deriv = s._derivative(_detector_form(gamma, gamma_m, np.linalg.inv(total)))
    mean = s.norm * deriv * exp(-logdet / 2)
    if deriv and not sys.float_info.min <= abs(mean) < inf:
        raise ScaleOverflowError("the detector mean leaves double precision")
    return mean


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
