"""Shared samplers and helpers for the test suite."""

from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod, sqrt

import numpy as np
import pytest
import scipy.optimize as opt
from hypothesis import settings

from cvwitness.cli import _tmsv as tmsv_form
from cvwitness.cli import _ww_sample as sample_ww_family_params
from cvwitness.criteria import separability_lhs
from cvwitness.exceptions import (CutoffTooSmallError, DimensionMismatchError,
                                  NonPositiveDeterminantError,
                                  OptimizerStalledError, ScaleOverflowError)
from cvwitness.fock import TAIL_TOL, SeesawResult, _bargmann
from cvwitness.nongauss import NonGaussState
from cvwitness.standard_form import (DetectorSpec, Family, QuadratureForm,
                                     TwoModeStandardForm)
from cvwitness.symplectic import (CovMatrix, _ccm_transform, _williamson_spectrum,
                                  symplectic_form, validate_cm)
from cvwitness.witness import _abs_triples, _cone_ratio, _min_det_factors

# every property test is derandomized and runs without an example database,
# so tier-1 stays deterministic; each test sets its own max_examples
settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")


def random_physical_cm(rng: np.random.Generator, n_modes: int) -> CovMatrix:
    """Random positive definite CM above the vacuum variance."""
    d = 2 * n_modes
    a = rng.normal(size=(d, d))
    return CovMatrix(a @ a.T / d + 0.5 * np.eye(d))


def rotation(t: float) -> np.ndarray:
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


def dress(state, rs, thetas) -> CovMatrix:
    """The CM of `state`, a form or a CovMatrix, under a
    rotation-squeeze-rotation on every mode: mode j's squeeze e^(rs[j])
    between rotations by thetas[2j] and thetas[2j + 1]."""
    gamma = state.to_cm() if isinstance(state, QuadratureForm) else state
    s = np.zeros((gamma.dim,) * 2)
    for j in range(gamma.n_modes):
        r, t1, t2 = rs[j], thetas[2 * j], thetas[2 * j + 1]
        s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = (
            rotation(t1) @ np.diag([np.exp(r), np.exp(-r)]) @ rotation(t2))
    m = s @ gamma.mat @ s.T
    return CovMatrix((m + m.T) / 2)


def symplectic_eigenvalues(gamma: CovMatrix) -> np.ndarray:
    """Oracle: the Williamson spectrum of gamma, the moduli of the
    eigenvalues of i sigma gamma, one per mode, ascending, by the general
    eigensolve of `symplectic._williamson_spectrum`."""
    return _williamson_spectrum(gamma.mat)


def overflowing_cross_block() -> CovMatrix:
    """diag(1e150, 1e-150, 0.5, 0.5) with a p_A-p_B correlation of 1e100: no
    state, but admitted by the floor at its scale, and below the squarable
    scale; normalising mode A takes its cross block to 1e175, whose square
    overflows."""
    m = np.diag([1e150, 1e-150, 0.5, 0.5])
    m[1, 3] = m[3, 1] = 1e100
    return CovMatrix(m)


def is_symplectic(s: np.ndarray) -> bool:
    """Whether S sigma S^T = sigma to within 1e-10 in every entry."""
    sigma = symplectic_form(len(s) // 2)
    return abs(s @ sigma @ s.T - sigma).max() <= 1e-10


def sample_two_mode_detector(rng: np.random.Generator,
                             physical: bool = True) -> QuadratureForm:
    """Random two-mode detector with moderate occupancy."""
    while True:
        m1, m2, m3, m4 = rng.uniform(0.6, 1.8, 4)
        m5 = rng.uniform(-0.6, 0.6)
        m6 = rng.uniform(-0.6, 0.6)
        d = DetectorSpec(Family.TWO_MODE, m1, m2, m3, m4, m5, m6)
        if not physical or d.to_cm().is_physical():
            return d


def sample_ww_detector(rng: np.random.Generator) -> QuadratureForm:
    """Random physical four-mode detector in the Werner-Wolf pattern."""
    while True:
        m1, m2, m3, m4 = rng.uniform(0.7, 1.5, 4)
        m5 = rng.uniform(-0.5, 0.5)
        m6 = rng.uniform(-0.5, 0.5)
        d = DetectorSpec(Family.WERNER_WOLF, m1, m2, m3, m4, m5, m6)
        if d.to_cm().is_physical():
            return d


def sample_standard_form(rng: np.random.Generator,
                         exclude_band: float = 0.0) -> QuadratureForm:
    """Random physical two-mode standard form, optionally away from the
    criterion boundary."""
    while True:
        a, b = rng.uniform(0.5, 2.0, 2)
        c1 = rng.uniform(-1.0, 1.0)
        c2 = rng.uniform(-1.0, 1.0)
        f = TwoModeStandardForm(a, b, c1, c2)
        if not f.to_cm().is_physical():
            continue
        if exclude_band and abs(separability_lhs(f)) <= exclude_band:
            continue
        return f


def dressed_ensemble(r_max: float, count: int):
    """The dressed ensemble: `sample_standard_form` forms at |lhs| > 1e-6
    (rng seed 1), each mode under a rotation-squeeze-rotation with |r| <=
    r_max (dressing seed 7), as CovMatrix."""
    rng, dressing = np.random.default_rng(1), np.random.default_rng(7)
    for _ in range(count):
        yield dress(sample_standard_form(rng, exclude_band=1e-6),
                    dressing.uniform(-r_max, r_max, 2), dressing.uniform(0, 2 * np.pi, 4))


def near_boundary_form(a: float, b: float, c1: float, shift: float):
    """The two-mode form (a, b, c1, c2) with |c2| on Simon's boundary, moved
    by the relative `shift`: the positive root in |c2| of (ab - c1^2)(ab -
    c2^2) - |c1 c2|/2 - (a^2 + b^2)/4 + 1/16 = 0, or None where there is
    none."""
    p = a * b - c1 * c1
    k = a * b * p - (a * a + b * b) / 4 + 1 / 16
    if not (p > 0 and k > 0):
        return None
    root = (sqrt(c1 * c1 / 4 + 4 * p * k) - abs(c1) / 2) / (2 * p)
    return TwoModeStandardForm(a, b, c1, root * (1 + shift))


def near_boundary_ensemble(count: int):
    """The near-boundary recipe: `count` physical `near_boundary_form`s
    (rng seed 5) with a, b in [0.5, 2], c1 in [-1, 1] and a shift of
    either sign and log-uniform magnitude in [1e-12, 1e-7], as CovMatrix."""
    rng = np.random.default_rng(5)
    while count:
        form = near_boundary_form(*rng.uniform(0.5, 2.0, 2), rng.uniform(-1, 1),
                                  rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -7))
        if form is not None and validate_cm(form.to_cm()).is_physical:
            count -= 1
            yield form.to_cm()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def ell_ratio(gamma: CovMatrix, d: QuadratureForm) -> float:
    """Determinant oracle for the detection ratio:
    sqrt(det(gamma + gamma_M) / min_{x,y} det(gamma_A (+) gamma_B + gamma_M)),
    the minimum by `_min_det_factors`."""
    gm = d.to_cm()
    if gm.dim != gamma.dim:
        raise DimensionMismatchError(f"dimension mismatch: {gamma.dim} vs {gm.dim}")
    num = np.linalg.det(gamma.mat + gm.mat)
    if num <= 0:
        raise NonPositiveDeterminantError("det(gamma + gamma_M) is non-positive")
    val = _min_det_factors(d)[0] ** 2
    den = val ** 2 if d.family is Family.WERNER_WOLF else val
    return float(np.sqrt(num / den))


def simon_invariant_lhs(gamma: CovMatrix) -> float:
    """Simon's two-mode quantity from the local invariants of the CM, with
    no reduction (Simon, PRL 84, 2726 (2000)): det A det B + (1/4 - |det
    C|)^2 - tr(A J C J B J C^T J) - (det A + det B)/4 for gamma = [[A, C],
    [C^T, B]]; on the standard form it is `separability_lhs`."""
    m = gamma.mat
    a, b, c = m[:2, :2], m[2:, 2:], m[:2, 2:]
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    det_a, det_b = np.linalg.det(a), np.linalg.det(b)
    return float(det_a * det_b + (0.25 - abs(np.linalg.det(c))) ** 2
                 - np.trace(a @ j @ c @ j @ b @ j @ c.T @ j)
                 - (det_a + det_b) / 4)


def exact_simon_lhs(gamma: CovMatrix) -> Fraction:
    """`simon_invariant_lhs` of the CM's doubles, exactly: the local
    invariants formed in rational arithmetic, with no reduction and no
    rounding."""
    m = [[Fraction(v) for v in row] for row in gamma.mat.tolist()]
    a, b, c = ([row[i:i + 2] for row in m[j:j + 2]] for j, i in ((0, 0), (2, 2), (0, 2)))

    def det(x):
        return x[0][0] * x[1][1] - x[0][1] * x[1][0]

    def jm(x):   # J x with J = [[0, 1], [-1, 0]]
        return [x[1], [-v for v in x[0]]]

    def mul(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]

    ct = [list(col) for col in zip(*c)]
    chain = reduce(mul, [a, jm(c), jm(b), jm(ct), jm([[1, 0], [0, 1]])])
    return (det(a) * det(b) + (Fraction(1, 4) - abs(det(c))) ** 2
            - (chain[0][0] + chain[1][1]) - (det(a) + det(b)) / 4)


def exact_form_lhs(form: QuadratureForm) -> Fraction:
    """`separability_lhs` of the form's doubles, exactly: (a1 b1 - c1^2)(a2
    b2 - c2^2) - |c1 c2|/2 - (a1 a2 + b1 b2)/4 + 1/16 of its two triples in
    rational arithmetic, with no rounding."""
    (a1, b1, c1), (a2, b2, c2) = ([Fraction(v) for v in t] for t in (form.x, form.p))
    return ((a1 * b1 - c1 * c1) * (a2 * b2 - c2 * c2) - abs(c1 * c2) / 2
            - (a1 * a2 + b1 * b2) / 4 + Fraction(1, 16))


def nelder_mead_limit(form, restarts: int = 5, seed: int = 0,
                      budget: int = 10_000) -> float:
    """Oracle for the closed-form witness min-max: the smallest limit ratio
    that Nelder-Mead restarts find over cone directions (log w1, log w2)."""
    rng = np.random.default_rng(seed)
    triples = _abs_triples(form)

    def objective(v):
        return _cone_ratio(triples, np.exp(v[0]), np.exp(v[1]))[0][0]

    starts = [np.zeros(2)] + [rng.uniform(-2, 2, 2) for _ in range(restarts)]
    return float(min(
        opt.minimize(objective, v0, method="Nelder-Mead",
                     options={"xatol": 1e-12, "fatol": 1e-14,
                              "maxfev": budget // len(starts)}).fun
        for v0 in starts))


def _ladder_shift(n: int) -> np.ndarray:
    """(sigma_1 (x) I_n) / 2 in the (mu, mu*) ordering: the commutator shift
    between the two ladder orderings, in the vacuum-variance-1/2 convention."""
    return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n)) / 2


def q_char(kernel: CovMatrix, xi: np.ndarray, eta: np.ndarray,
           mu: np.ndarray) -> complex:
    """Oracle for the non-Gaussian moments: the characteristic function of
    the generating operator Q(xi, eta) at mu."""
    n = kernel.n_modes
    xi = np.asarray(xi, dtype=complex).reshape(n)
    eta = np.asarray(eta, dtype=complex).reshape(n)
    mu = np.asarray(mu, dtype=complex).reshape(n)
    g = cm_to_ccm(kernel)
    gp = g + _ladder_shift(n)
    gm = g - _ladder_shift(n)
    u = np.concatenate([xi, xi.conj()])
    v = np.concatenate([eta, eta.conj()])
    w = np.concatenate([mu, mu.conj()])
    at_zero = np.exp(-0.5 * u @ gp @ u - u @ gm @ v - 0.5 * v @ gm @ v)
    return at_zero * np.exp(-0.5 * w @ g @ w - u @ gp @ w - v @ gm @ w)


def kan_quadratic(box, q: np.ndarray) -> np.ndarray:
    """h q h^T / 2 at every point of a `nongauss._KanBox`, as complex."""
    return np.einsum("ip,ij,jp->p", box.points, q, box.points).astype(complex) / 2


class CcmKanBox:
    """Kan's box as one flat grid over the nonzero entries of the target
    (`keep`), one column of h^T per box point: the reference for
    `nongauss._KanBox`, which splits the box in two."""

    def __init__(self, target: tuple[int, ...]):
        n = np.asarray(target, dtype=int)
        self.keep = n > 0
        n = n[self.keep]
        total = int(n.sum())
        self.power = None if total % 2 else total // 2
        self.points = n[:, None] / 2 - np.indices(n + 1).reshape(len(n), prod(n + 1))
        self.weight = reduce(
            np.multiply.outer,
            [[(-1) ** j * comb(k, j) for j in range(k + 1)] for k in n],
            np.ones(())).ravel()

    def products(self, mat: np.ndarray) -> np.ndarray:
        """mat[:, keep] h^T, one column per box point."""
        mat = mat[:, self.keep]
        return mat.real.copy() @ self.points + 1j * (mat.imag.copy() @ self.points)

    def quadratic(self, q: np.ndarray) -> np.ndarray:
        """h q h^T / 2 at every box point."""
        return (self.products(q[self.keep]) * self.points).sum(0) / 2

    def hafnian(self, quad: np.ndarray) -> complex:
        if self.power is None:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            val = self.weight @ quad ** self.power
        if not np.isfinite(val):
            raise ScaleOverflowError("the ladder derivative overflows double precision")
        return val / factorial(self.power)


def ccm_mean_on_detector(s: NonGaussState, d: QuadratureForm | CovMatrix) -> float:
    """Reference for `mean_on_detector`: Tr(rho M) in the CCM frame, on the
    flat box of `CcmKanBox`.  Over t = (xi, xi*, eta,
    eta*), with the kernel CCM g, the ladder shift s, gp = g + s and
    gmn = g - s, q = q_G + V W V^T with q_G = -[[gp, gmn], [gmn, gmn]],
    V = [gp; gmn] and W = (g + g_M)^{-1}.  The kernel part and the detector
    part are each of the kernel's scale and cancel, so this reference holds
    only at moderate scale."""
    n = s.kernel.n_modes
    g = cm_to_ccm(s.kernel)
    gp, gmn = g + _ladder_shift(n), g - _ladder_shift(n)
    vt = np.concatenate([gp, gmn], axis=1)
    box = CcmKanBox(s.add + s.add + s.subtract + s.subtract)
    hv = box.products(vt)
    kernel_quad = box.quadratic(-np.concatenate([vt, np.concatenate([gmn, gmn], axis=1)]))
    sign = (-1) ** s.order
    norm = 1 / np.real(sign * box.hafnian(kernel_quad))
    gm_cm = d if isinstance(d, CovMatrix) else d.to_cm()
    det = np.linalg.det(s.kernel.mat + gm_cm.mat)
    total = g + cm_to_ccm(gm_cm)
    quad = kernel_quad + ((np.linalg.inv(total) @ hv) * hv).sum(0) / 2
    return norm * np.real(sign * box.hafnian(quad)) / np.sqrt(abs(det))


def cm_to_ccm(gamma: CovMatrix) -> np.ndarray:
    """Re-express the quadratic form of the characteristic function over
    (mu_1..mu_n, mu*_1..mu*_n): a read-only complex-symmetric array.  The
    CCM-frame references (`q_char`, `ccm_mean_on_detector`) start from it."""
    t = _ccm_transform(gamma.n_modes)
    # T is unitary, so T^{-1} = T^dag and T^{-T} = conj(T)
    mat = t.conj() @ gamma.mat @ t.conj().T
    mat = (mat + mat.T) / 2.0
    mat.flags.writeable = False
    return mat


def ccm_to_cm(gamma_c: np.ndarray) -> CovMatrix:
    """Inverse of `cm_to_ccm`, for its round-trip test."""
    t = _ccm_transform(len(gamma_c) // 2)
    mat = t.T @ gamma_c @ t
    imag = np.max(np.abs(mat.imag))
    if imag > 1e-9:
        raise DimensionMismatchError(f"CCM does not correspond to a real CM (imag residue {imag:g})")
    return CovMatrix(mat.real)


def dict_coeff_extract(q: np.ndarray, target: tuple[int, ...]) -> complex:
    """Oracle for the Kan-formula coefficient extraction: the Taylor
    coefficient of prod t_i^{target_i} in exp(1/2 t q t^T), from the power
    p = sum(target) / 2 of the series expanded as a monomial dictionary pruned
    to exponent vectors dominated by the target."""
    total = sum(target)
    if total % 2 == 1:
        return 0.0
    p = total // 2
    if p == 0:
        return 1.0
    d = len(target)
    # terms of the quadratic E = 1/2 t q t^T as monomial dict
    e_terms: dict[tuple[int, ...], complex] = {}
    for i in range(d):
        for j in range(i, d):
            c = q[i, i] / 2 if i == j else (q[i, j] + q[j, i]) / 2
            if c == 0:
                continue
            expo = [0] * d
            expo[i] += 1
            expo[j] += 1
            key = tuple(expo)
            if all(k <= t for k, t in zip(key, target)):
                e_terms[key] = e_terms.get(key, 0.0) + c
    poly: dict[tuple[int, ...], complex] = {tuple([0] * d): 1.0}
    for _ in range(p):
        nxt: dict[tuple[int, ...], complex] = {}
        for expo, c in poly.items():
            for de, dc in e_terms.items():
                ne = tuple(a + b for a, b in zip(expo, de))
                if any(a > t for a, t in zip(ne, target)):
                    continue
                nxt[ne] = nxt.get(ne, 0.0) + c * dc
        poly = nxt
        if not poly:
            return 0.0
    return poly.get(target, 0.0) / factorial(p)


def grid_certificate(form, grid: int = 256) -> tuple[float, float, float] | None:
    """Oracle for the closed-form separability certificate: the point of the
    (x, y) box with the largest slack of the two conditions on a grid x grid
    mesh, refined by Nelder-Mead in (log x, log y).  Returns (x, y, slack),
    or None when the box is empty."""
    (a1, b1, c1), (a2, b2, c2) = form.x, form.p

    def slack(x, y):
        u1, v1 = a1 - x / 2, b1 - y / 2
        u2, v2 = a2 - 1 / (2 * x), b2 - 1 / (2 * y)
        return np.minimum(np.minimum(np.minimum(u1, v1), u1 * v1 - c1 ** 2),
                          np.minimum(np.minimum(u2, v2), u2 * v2 - c2 ** 2))

    x_lo, x_hi = 1 / (2 * a2), 2 * a1
    y_lo, y_hi = 1 / (2 * b2), 2 * b1
    if x_lo > x_hi or y_lo > y_hi:
        return None
    xs, ys = np.linspace(x_lo, x_hi, grid), np.linspace(y_lo, y_hi, grid)
    s = slack(*np.meshgrid(xs, ys, indexing="ij"))
    i, j = np.unravel_index(np.argmax(s), s.shape)
    res = opt.minimize(lambda v: -slack(np.exp(v[0]), np.exp(v[1])),
                       [np.log(xs[i]), np.log(ys[j])], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": 2000})
    best = max([(xs[i], ys[j]), tuple(np.exp(res.x))], key=lambda p: slack(*p))
    return float(best[0]), float(best[1]), float(slack(*best))


def reference_op_fock(gamma: CovMatrix, cutoff: int) -> np.ndarray:
    """Full Bargmann build, the reference for `gaussian_op_fock`: every entry,
    odd class included, filled slice by slice through `moveaxis` views.

    Same recurrence, term order and errors as the even-class build, so a
    real register must match it byte for byte.
    """
    if cutoff < 1:
        raise DimensionMismatchError(f"cutoff must be at least 1, got {cutoff}")
    n = gamma.n_modes
    g0, a = _bargmann(gamma)
    if not a.imag.any():
        a = a.real
    g = np.zeros((cutoff,) * (2 * n), dtype=a.dtype)
    g[(0,) * (2 * n)] = g0
    root = np.sqrt(np.arange(1, cutoff))
    # entries whose first nonzero index is i, for i from the last axis to the
    # first: every G_{k-e_j} they need (j >= i) is filled already
    for i in reversed(range(2 * n)):
        tail = g[(0,) * i]
        for t in range(1, cutoff):
            nxt, prev = tail[t:t + 1], tail[t - 1:t]
            for j in range(i + 1, 2 * n):
                np.moveaxis(nxt, j - i, -1)[..., 1:] += (
                    a[i, j] * (root * np.moveaxis(prev, j - i, -1)[..., :-1]))
            if t >= 2:
                nxt += a[i, i] * np.sqrt(t - 1) * tail[t - 2:t - 1]
            nxt *= 1 / np.sqrt(t)
    rho = g.reshape(cutoff ** n, cutoff ** n)
    trace = float(np.real(np.trace(rho)))
    if not trace >= 1.0 - TAIL_TOL:
        raise CutoffTooSmallError(
            f"truncated trace {trace:g} below 1 - {TAIL_TOL:g}; raise the cutoff")
    return rho


def destroy(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator truncated at `cutoff` levels."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), k=1)


def mode_op(op: np.ndarray, mode: int, n_modes: int, cutoff: int) -> np.ndarray:
    """Embed a single-mode operator at position `mode` of an n-mode register."""
    mats = [np.eye(cutoff)] * n_modes
    mats[mode] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def quadrature_ops(n_modes: int, cutoff: int) -> list[np.ndarray]:
    """x_j = (a + a^dag)/sqrt(2), p_j = i(a^dag - a)/sqrt(2), interleaved."""
    a = destroy(cutoff)
    x = (a + a.T) / np.sqrt(2)
    p = 1j * (a.T - a) / np.sqrt(2)
    ops = []
    for j in range(n_modes):
        ops.append(mode_op(x, j, n_modes, cutoff))
        ops.append(mode_op(p, j, n_modes, cutoff))
    return ops


def fock_cm(rho: np.ndarray, n_modes: int, cutoff: int) -> np.ndarray:
    """Covariance matrix of a (zero-mean) Fock-space density operator.

    Uses gamma_ij = Re Tr(rho R_i R_j), valid for Hermitian rho and R, so only
    one dense product per quadrature is needed.
    """
    ops = quadrature_ops(n_modes, cutoff)
    d = 2 * n_modes
    prods = [rho @ op for op in ops]
    gamma = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            val = float(np.real(np.sum(prods[i].T * ops[j])))
            gamma[i, j] = gamma[j, i] = val
    return gamma


def fock_mean(rho: np.ndarray, op: np.ndarray) -> float:
    """Re Tr(rho op)."""
    if rho.shape != op.shape:
        raise DimensionMismatchError(f"shape mismatch {rho.shape} vs {op.shape}")
    return float(np.real(np.sum(rho.T * op)))


def partial_trace(op: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator."""
    da, db = dims
    t = op.reshape(da, db, da, db)
    if keep == 0:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def _top_eigvec(h: np.ndarray) -> tuple[float, np.ndarray]:
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return float(w[-1]), v[:, -1]


def seesaw_reference(m_op: np.ndarray, dims: tuple[int, int], restarts: int = 5,
                     seed: int = 0, max_iter: int = 200,
                     tol: float = 1e-12) -> SeesawResult:
    """Oracle for the batched seesaw: the starts run one after another, each
    half-step a matrix-vector pass, and the first strictly best start wins.

    max <a,b| M |a,b> over product pure states by alternating eigensolves.
    The objective is monotonically nondecreasing along the alternation; each
    restart begins from a random product state, plus one vacuum start.
    """
    da, db = dims
    if m_op.shape != (da * db, da * db):
        raise DimensionMismatchError(
            f"operator shape {m_op.shape} does not match dims {dims}")
    # one matrix-vector pass over M per half-step; _top_eigvec symmetrizes
    m_op = np.ascontiguousarray(m_op)
    rng = np.random.default_rng(seed)

    def rand_vec(d):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    vac = np.zeros(db, dtype=complex)
    vac[0] = 1.0
    starts = [vac] + [rand_vec(db) for _ in range(restarts)]
    best = None
    for b in starts:
        val_prev = -np.inf
        converged = False
        iters = 0
        a = None
        for iters in range(1, max_iter + 1):
            ha = np.conj(b) @ (m_op.reshape(-1, db) @ b).reshape(da, db, da)
            val_a, a = _top_eigvec(ha)
            hb = a @ (np.conj(a) @ m_op.reshape(da, -1)).reshape(db, da, db)
            val, b = _top_eigvec(hb)
            if val < val_a - 1e-10 or val < val_prev - 1e-10:
                raise OptimizerStalledError(
                    "seesaw objective decreased",
                    diagnostics={"iteration": iters, "value": val,
                                 "value_a": val_a, "value_prev": val_prev})
            if val - val_prev <= tol * max(1.0, abs(val)):
                converged = True
                val_prev = val
                break
            val_prev = val
        res = SeesawResult(value=float(val_prev), vec_a=a, vec_b=b,
                           iterations=iters, converged=converged)
        if best is None or res.value > best.value:
            best = res
    if best is None:
        raise OptimizerStalledError("seesaw produced no iterate")
    return best
