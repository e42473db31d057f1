"""Truncated Fock-space oracle.

Everything here is independent of the closed-form machinery.  A Gaussian
operator is filled straight from its covariance matrix by the multidimensional
Hermite (Bargmann) recurrence of Quesada et al., PRA 100, 022341 (2019) and
Miatto & Quesada, Quantum 4, 366 (2020): every entry below the cutoff is exact,
so the truncated trace measures the whole tail, thermal and squeezed alike.
A zero-mean Gaussian operator commutes with total photon parity, so every
entry with an odd index sum is zero: only the even class is filled, on a
half-size compact register, one contiguous array update per recurrence term,
and then spread into the full register.  Each entry keeps the terms and term
order of a full build, so a real register is the same bit for bit.
The register is real whenever the CM has no x-p correlation, as every
detector's has.  The product-state maximum is found by an alternating
eigenvector seesaw that advances all its starts together, one pass over the
operator per half-step.
numpy only.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import (CutoffTooSmallError, DimensionMismatchError,
                         OptimizerStalledError, ScaleOverflowError)
from .symplectic import CovMatrix

#: largest share of the trace that may fall beyond the cutoff
TAIL_TOL = 5e-2
#: seesaw iteration cap per start, and its relative stopping gain
SEESAW_MAX_ITER = 200
SEESAW_TOL = 1e-12


def _bargmann(gamma: CovMatrix) -> tuple[float, np.ndarray]:
    """(G_0, A) of the Gaussian operator with covariance matrix `gamma`: its
    entries G_k = <m|rho|n>, k = (m, n), are G_0 times the sqrt(k!)-scaled
    Taylor coefficients of exp(alpha^T A alpha / 2).

    Over the ladder variables (a_1..a_n, a^dag_1..a^dag_n),
    sigma = W gamma W^dag, Q = sigma + I/2, G_0 = det(Q)^{-1/2} and
    A = X (I - Q^{-1})^* with X = [[0, I], [I, 0]].  Raises
    DimensionMismatchError for a CM that is not positive definite, and
    ScaleOverflowError where Q is singular or det(Q) is not a finite positive
    double, as for a CM whose x and p variances differ by a factor past 1e16.
    """
    n = gamma.n_modes
    if not np.linalg.eigvalsh(gamma.mat)[0] > 0:
        raise DimensionMismatchError(
            "CM is not positive definite; no Gaussian operator")
    w = np.vstack([np.kron(np.eye(n), [1, 1j]),
                   np.kron(np.eye(n), [1, -1j])]) / np.sqrt(2)
    q = w @ gamma.mat @ w.conj().T + np.eye(2 * n) / 2
    x = np.roll(np.eye(2 * n), n, axis=0)
    try:
        a = x @ (np.eye(2 * n) - np.linalg.inv(q)).conj()
    except np.linalg.LinAlgError:
        a = None
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(q).real)
    if a is None or not 0 < det < np.inf:
        raise ScaleOverflowError(
            "the Gaussian operator's Bargmann matrix Q = sigma + I/2 is singular "
            "or its determinant is not finite in double precision")
    return det ** -0.5, a


def _fill_even_class(g: np.ndarray, g0: float, a: np.ndarray) -> None:
    """Fill the even class of the recurrence into the compact register `g` of
    shape (c,) * (2n - 1) + (h,), h = ceil(c / 2): slot q of the last axis
    holds last index 2q + rho, rho the parity of the other indices.

    The order is the full build's: the last axis from G_0, then for i from
    the last-but-one axis down to 0 and t = 1..c-1, the entries with first
    nonzero index i at value t.  Each is 0 + sum_{j>i} A_ij (sqrt(k_j)
    G_{k-e_j}), j ascending, + (A_ii sqrt(t - 1)) G_{k-2e_i}, times
    1/sqrt(t).  Every a^dag term is one contiguous flat update weighted by
    sqrt(k_j) at the destination; weight 0 where k_j = 0 or the parity does
    not match turns the extra terms into exact +-0 adds, so no sum changes.
    On the last axis a^dag reads slot q (rho = 1, weight sqrt(2q + 1)) or
    slot q - 1 (rho = 0, weight sqrt(2q)), and rho alternates with t.
    """
    c, h, ax = g.shape[0], g.shape[-1], len(a)
    g[...] = 0
    line = g[(0,) * (ax - 1)]
    line[0] = g0
    for q in range(1, h):
        # length-1 slices: numpy's complex scalar arithmetic rounds otherwise
        nxt = line[q:q + 1]
        nxt += a[-1, -1] * np.sqrt(2 * q - 1) * line[q - 1:q]
        nxt *= 1 / np.sqrt(2 * q)
    # flat weights over the largest slice filled (i = 0); slice i is a prefix.
    # Built from contiguous pieces: broadcasting a short last axis is slow.
    size = c ** (ax - 2) * h
    root = np.sqrt(np.arange(c))
    w = [np.tile(np.repeat(root, size // c ** (p + 1)), c ** p) for p in range(ax - 2)]
    odd = np.zeros(1, dtype=bool)
    for _ in range(ax - 2):
        odd = (odd[:, None] ^ (np.arange(c) % 2 == 1)).ravel()
    odd = np.repeat(odd, h)
    slot = 2 * np.arange(h)
    up = np.tile(np.where(slot + 1 < c, np.sqrt(slot + 1.0), 0.0), size // h)
    down = np.tile(np.sqrt(slot.astype(float)), size // h)
    # indexed by t % 2: rho = 1 where the other indices past i are odd at even t
    w_up = [np.where(odd, up, 0.0), np.where(odd, 0.0, up)]
    w_down = [np.where(odd, 0.0, down), np.where(odd, down, 0.0)]
    buf = np.empty(size, dtype=a.dtype)
    for i in reversed(range(ax - 1)):
        tail = g[(0,) * i]
        m = c ** (ax - 2 - i) * h
        for t in range(1, c):
            nxt, prev = tail[t].reshape(-1), tail[t - 1].reshape(-1)
            for j in range(i + 1, ax - 1):
                s = c ** (ax - 2 - j) * h
                term = np.multiply(w[j - 1][s:m], prev[:m - s], out=buf[:m - s])
                np.add(nxt[s:], np.multiply(a[i, j], term, out=term), out=nxt[s:])
            term = np.multiply(w_up[t % 2][:m], prev, out=buf[:m])
            nxt += np.multiply(a[i, -1], term, out=term)
            term = np.multiply(w_down[t % 2][1:m], prev[:-1], out=buf[:m - 1])
            np.add(nxt[1:], np.multiply(a[i, -1], term, out=term), out=nxt[1:])
            if t >= 2:
                nxt += a[i, i] * np.sqrt(t - 1) * tail[t - 2].reshape(-1)
            nxt *= 1 / np.sqrt(t)


def gaussian_op_fock(gamma: CovMatrix, cutoff: int) -> np.ndarray:
    """Trace-one Gaussian operator with covariance matrix `gamma`, exact in
    every entry below the cutoff.

    The entries of `_bargmann` obey G_{k+e_i} = sum_j A_ij sqrt(k_j) G_{k-e_j}
    / sqrt(k_i + 1).  Both sides have the same total parity and G_0 is even,
    so every entry with an odd index sum is +0.0: only the even class is
    filled (`_fill_even_class`), on a half-size compact register kept in the
    top of the output's own buffer, and then spread out one first index at a
    time.  Each entry gets the terms of a full build in its order, so a real
    register is the same bit for bit; a complex one may differ in the last
    bit, where numpy's contiguous complex multiply rounds apart from its
    strided one.  The register is float64 when A is real (a CM with no x-p
    correlation), complex128 otherwise.  Raises DimensionMismatchError for a
    cutoff below 1, a register too large to allocate or a CM that is not
    positive definite, and CutoffTooSmallError when the truncated trace
    drops below 1 - TAIL_TOL.
    """
    if cutoff < 1:
        raise DimensionMismatchError(f"cutoff must be at least 1, got {cutoff}")
    n = gamma.n_modes
    g0, a = _bargmann(gamma)
    if not a.imag.any():
        a = a.real
    c, h = cutoff, (cutoff + 1) // 2
    try:
        g = np.empty((c,) * (2 * n), dtype=a.dtype)
    except (ValueError, MemoryError):   # too many entries to index, or to hold
        raise DimensionMismatchError(
            f"a cutoff-{c} register of {n} modes does not fit in memory") from None
    flat = g.reshape(-1)
    even = flat[flat.size - c ** (2 * n - 1) * h:].reshape(
        (c,) * (2 * n - 1) + (h,))
    _fill_even_class(even, g0, a)
    # g[k] may overlap even[k] but never even[k + 1:], so only block k is
    # copied out before g[k] is written; odd entries are written as +0.0
    half = (slice(0, None, 2), slice(1, None, 2))
    for k in range(c):
        block = even[k].copy()
        g[k] = 0
        for bits in itertools.product((0, 1), repeat=2 * n - 2):
            par = (k + sum(bits)) % 2
            idx = tuple(half[b] for b in bits)
            g[k][idx + (half[par],)] = block[idx + (slice((c - par + 1) // 2),)]
    rho = g.reshape(c ** n, c ** n)
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


@dataclass(frozen=True)
class SeesawResult:
    value: float
    vec_a: np.ndarray
    vec_b: np.ndarray
    iterations: int
    converged: bool


def _top_eigvec(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue (k,) and eigenvector (k, d) of the Hermitian part of
    each matrix in a (k, d, d) stack."""
    w, v = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2)
    return w[:, -1], v[:, :, -1]


def _op_on_a(m_op: np.ndarray, b: np.ndarray, da: int, db: int) -> np.ndarray:
    """sum_jl b*_j M_{ij,kl} b_l for each row b of a (k, db) stack, in one
    pass over M: with b* M = L_re + i L_im for L = [Re b*; Im b*] M (j summed
    for each i), the result is (L_re Re b - L_im Im b) + i (L_re Im b +
    L_im Re b), l summed."""
    k = len(b)
    el = (np.concatenate([b.real, -b.imag]) @ m_op.reshape(da, db, -1)
          ).reshape(da, 2, k, da, db)
    coef = np.stack([[b.real, -b.imag], [b.imag, b.real]])
    re, im = np.einsum("rtsl,itskl->rsik", coef, el)
    return re + 1j * im


def _op_on_b(m_op: np.ndarray, a: np.ndarray, da: int, db: int) -> np.ndarray:
    """sum_ik a*_i M_{ij,kl} a_k for each row a of a (k, da) stack, in one
    pass over M: with a* M = Q_re + i Q_im for Q = [Re a*; Im a*] M, the
    result is (Q_re Re a - Q_im Im a) + i (Q_re Im a + Q_im Re a), k summed."""
    k = len(a)
    q = (np.concatenate([a.real, -a.imag]) @ m_op.reshape(da, -1)
         ).reshape(2, k, db, da, db)
    coef = np.stack([[a.real, -a.imag], [a.imag, a.real]])
    re, im = np.einsum("rtsk,tsjkl->rsjl", coef, q)
    return re + 1j * im


def seesaw_lambda(m_op: np.ndarray, dims: tuple[int, int], restarts: int = 5,
                  seed: int = 0) -> SeesawResult:
    """max <a,b| M |a,b> over product pure states by alternating eigensolves.

    Starts from the vacuum and from `restarts` random product states drawn
    from `seed`, all advanced together: each half-step is one pass over M
    for every start still running, real M stays real.  Along each start the
    objective is nondecreasing (OptimizerStalledError otherwise, with the
    first offending start's diagnostics); a start stops once it gains at
    most SEESAW_TOL * max(1, |value|) or after SEESAW_MAX_ITER iterations.
    The result is the first start whose value is within
    SEESAW_TOL * max(1, |best|) of the best.  Raises DimensionMismatchError
    for a shape that does not match `dims`, or `restarts` or `seed` below 0.
    """
    da, db = dims
    if m_op.shape != (da * db, da * db):
        raise DimensionMismatchError(
            f"operator shape {m_op.shape} does not match dims {dims}")
    if restarts < 0 or seed < 0:
        raise DimensionMismatchError(
            f"need restarts >= 0 and seed >= 0, got restarts {restarts} and seed {seed}")
    m_op = np.ascontiguousarray(m_op)
    rng = np.random.default_rng(seed)
    starts = 1 + restarts
    vec_b = np.zeros((starts, db), dtype=complex)
    vec_b[0, 0] = 1.0
    for s in range(1, starts):
        v = rng.normal(size=db) + 1j * rng.normal(size=db)
        vec_b[s] = v / np.linalg.norm(v)
    vec_a = np.zeros((starts, da), dtype=complex)
    value = np.full(starts, -np.inf)
    iterations = np.zeros(starts, dtype=int)
    converged = np.zeros(starts, dtype=bool)
    running = np.arange(starts)
    for it in range(1, SEESAW_MAX_ITER + 1):
        val_a, a = _top_eigvec(_op_on_a(m_op, vec_b[running], da, db))
        val, b = _top_eigvec(_op_on_b(m_op, a, da, db))
        prev = value[running]
        bad = (val < val_a - 1e-10) | (val < prev - 1e-10)
        if bad.any():
            s = int(np.argmax(bad))
            raise OptimizerStalledError(
                "seesaw objective decreased",
                diagnostics={"start": int(running[s]), "iteration": it,
                             "value": float(val[s]), "value_a": float(val_a[s]),
                             "value_prev": float(prev[s])})
        vec_a[running], vec_b[running] = a, b
        value[running], iterations[running] = val, it
        stop = val - prev <= SEESAW_TOL * np.maximum(1.0, np.abs(val))
        converged[running[stop]] = True
        running = running[~stop]
        if not running.size:
            break
    best = value.max()
    win = int(np.argmax(value >= best - SEESAW_TOL * max(1.0, abs(best))))
    return SeesawResult(value=float(value[win]), vec_a=vec_a[win],
                        vec_b=vec_b[win], iterations=int(iterations[win]),
                        converged=bool(converged[win]))
