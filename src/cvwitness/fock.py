"""Truncated Fock-space oracle.

Everything here is independent of the closed-form machinery.  A Gaussian
operator is filled straight from its covariance matrix by the multidimensional
Hermite (Bargmann) recurrence of Quesada et al., PRA 100, 022341 (2019) and
Miatto & Quesada, Quantum 4, 366 (2020): every entry below the cutoff is exact,
so the truncated trace measures the whole tail, thermal and squeezed alike.
Displacements come from their own exact recurrence, means are plain traces,
and the product-state maximum is found by an alternating eigenvector seesaw.
numpy only.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (CutoffTooSmallError, DimensionMismatchError,
                         OptimizerStalledError)
from .symplectic import CovMatrix

#: largest share of the trace that may fall beyond the cutoff
TAIL_TOL = 5e-2
_MAX_FACT = 512
_LOG_FACT = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, _MAX_FACT + 1)))))


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


def displacement_element(m: int, k: int, mu: complex) -> complex:
    """<m|D(mu)|k> via the two-index Hermite polynomial expansion."""
    if m >= _MAX_FACT or k >= _MAX_FACT:
        raise DimensionMismatchError(f"indices up to {_MAX_FACT - 1} supported")
    mu = complex(mu)
    total = 0.0 + 0.0j
    for l in range(min(m, k) + 1):
        log_coeff = (_LOG_FACT[m] + _LOG_FACT[k] - _LOG_FACT[m - l]
                     - _LOG_FACT[k - l] - _LOG_FACT[l])
        total += (-1) ** l * np.exp(log_coeff) * mu ** (m - l) * np.conj(mu) ** (k - l)
    pref = (-1) ** k * np.exp(-abs(mu) ** 2 / 2 - (_LOG_FACT[m] + _LOG_FACT[k]) / 2)
    return pref * total


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


def ladder_on_axis(t: np.ndarray, axis: int, dagger: bool) -> np.ndarray:
    """Truncated a (or a^dag) applied along one axis of a register tensor:
    out[.., k, ..] = sqrt(k + 1) t[.., k + 1, ..] (or sqrt(k) t[.., k - 1, ..])."""
    out = np.zeros_like(t)
    src, dst = np.moveaxis(t, axis, -1), np.moveaxis(out, axis, -1)
    root = np.sqrt(np.arange(1, t.shape[axis]))
    if dagger:
        dst[..., 1:] = root * src[..., :-1]
    else:
        dst[..., :-1] = root * src[..., 1:]
    return out


def _bargmann(gamma: CovMatrix) -> tuple[float, np.ndarray]:
    """(G_0, A) of the Gaussian operator with covariance matrix `gamma`: its
    entries G_k = <m|rho|n>, k = (m, n), are G_0 times the sqrt(k!)-scaled
    Taylor coefficients of exp(alpha^T A alpha / 2).

    Over the ladder variables (a_1..a_n, a^dag_1..a^dag_n),
    sigma = W gamma W^dag, Q = sigma + I/2, G_0 = det(Q)^{-1/2} and
    A = X (I - Q^{-1})^* with X = [[0, I], [I, 0]].  Raises
    DimensionMismatchError for a CM that is not positive definite.
    """
    n = gamma.n_modes
    if not np.linalg.eigvalsh(gamma.mat)[0] > 0:
        raise DimensionMismatchError(
            "CM is not positive definite; no Gaussian operator")
    w = np.vstack([np.kron(np.eye(n), [1, 1j]),
                   np.kron(np.eye(n), [1, -1j])]) / np.sqrt(2)
    q = w @ gamma.mat @ w.conj().T + np.eye(2 * n) / 2
    x = np.roll(np.eye(2 * n), n, axis=0)
    a = x @ (np.eye(2 * n) - np.linalg.inv(q)).conj()
    return float(np.linalg.det(q).real) ** -0.5, a


def gaussian_op_fock(gamma: CovMatrix, cutoff: int) -> np.ndarray:
    """Trace-one Gaussian operator with covariance matrix `gamma`, exact in
    every entry below the cutoff.

    The entries of `_bargmann` obey G_{k+e_i} = sum_j A_ij sqrt(k_j) G_{k-e_j}
    / sqrt(k_i + 1).  Raises DimensionMismatchError for a cutoff below 1 or a
    CM that is not positive definite, and CutoffTooSmallError when the
    truncated trace drops below 1 - TAIL_TOL.
    """
    if cutoff < 1:
        raise DimensionMismatchError(f"cutoff must be at least 1, got {cutoff}")
    n = gamma.n_modes
    g0, a = _bargmann(gamma)
    g = np.zeros((cutoff,) * (2 * n), dtype=complex)
    g[(0,) * (2 * n)] = g0
    # Fill the entries whose first nonzero index is i, for i from the last
    # axis to the first: every G_{k-e_j} they need (j >= i) is filled already.
    for i in reversed(range(2 * n)):
        tail = g[(0,) * i]
        for t in range(1, cutoff):
            # length-1 slices keep the axis, so even the last one is a view
            nxt, prev = tail[t:t + 1], tail[t - 1:t]
            for j in range(i + 1, 2 * n):
                nxt += a[i, j] * ladder_on_axis(prev, j - i, dagger=True)
            if t >= 2:
                nxt += a[i, i] * np.sqrt(t - 1) * tail[t - 2:t - 1]
            nxt /= np.sqrt(t)
    rho = g.reshape(cutoff ** n, cutoff ** n)
    trace = float(np.real(np.trace(rho)))
    if not trace >= 1.0 - TAIL_TOL:
        raise CutoffTooSmallError(
            f"truncated trace {trace:g} below 1 - {TAIL_TOL:g}; raise the cutoff")
    return rho


def mean_photon_defect(rho: np.ndarray, gamma: CovMatrix, cutoff: int) -> float:
    """1 - <N>_Fock / <N>_gamma: the share of the mean photon number
    (tr gamma - n) / 2 that the truncated operator misses, read off its
    diagonal.  It weights the tail by photon number; 0 for a vacuum-variance
    CM."""
    photons = sum(np.ix_(*(np.arange(cutoff),) * gamma.n_modes)).ravel()
    n_fock = float(np.real(np.diagonal(rho)) @ photons)
    n_exact = float(np.trace(gamma.mat) - gamma.n_modes) / 2
    return 1 - n_fock / n_exact if n_exact != 0 else 0.0


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


@dataclass(frozen=True)
class SeesawResult:
    value: float
    vec_a: np.ndarray
    vec_b: np.ndarray
    iterations: int
    converged: bool


def _top_eigvec(h: np.ndarray) -> tuple[float, np.ndarray]:
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return float(w[-1]), v[:, -1]


def seesaw_lambda(m_op: np.ndarray, dims: tuple[int, int], restarts: int = 5,
                  seed: int = 0, max_iter: int = 200,
                  tol: float = 1e-12) -> SeesawResult:
    """max <a,b| M |a,b> over product pure states by alternating eigensolves.

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
