"""Truncated Fock-space oracle.

Everything here is independent of the closed-form machinery: Gaussian operators
are built from their covariance matrices by Williamson plus Bloch-Messiah in a
per-mode-truncated Fock basis (passive factors as photon-number sector blocks,
squeezers mode by mode; no register-sized unitary is formed), means are plain
traces, and the product-state maximum is found by an alternating eigenvector
seesaw.  scipy.linalg is imported by the functions that use it, so importing
the package does not load scipy.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import (CutoffTooSmallError, DimensionMismatchError,
                         OptimizerStalledError)
from .symplectic import (CovMatrix, orthogonal_symplectic_to_unitary,
                         polar_bloch_messiah, williamson)

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
    """Truncated D(mu) = exp(mu a^dag - mu* a)."""
    import scipy.linalg as la
    a = destroy(cutoff)
    return la.expm(mu * a.T - np.conj(mu) * a)


def _passive_blocks(o: np.ndarray, cutoff: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fock representation of an orthogonal symplectic (number conserving) as
    (register indices, unitary block) pairs, one per total photon number: the
    generator sum_jk h_jk a_j^dag a_k of u = e^h, exponentiated per sector."""
    import scipy.linalg as la
    n = o.shape[0] // 2
    h = la.logm(orthogonal_symplectic_to_unitary(o))
    occ = np.indices((cutoff,) * n).reshape(n, -1)
    sector = occ.sum(axis=0)
    order = np.argsort(sector, kind="stable")
    sizes = np.bincount(sector)
    starts = np.cumsum(sizes) - sizes
    offsets = np.cumsum(sizes ** 2) - sizes ** 2
    pos = np.empty_like(order)  # place of each basis state within its sector
    pos[order] = np.arange(order.size) - starts[sector[order]]
    stride = cutoff ** np.arange(n - 1, -1, -1)
    flat = np.zeros(np.sum(sizes ** 2), dtype=complex)
    for j, k in itertools.product(range(n), repeat=2):
        bump = int(j != k)
        src = np.flatnonzero((occ[k] > 0) & (occ[j] + bump < cutoff))
        sec = sector[src]
        # keys are distinct for one (j, k), so the fancy += drops no term
        flat[offsets[sec] + pos[src + stride[j] - stride[k]] * sizes[sec] + pos[src]] += (
            h[j, k] * np.sqrt(occ[k, src] * (occ[j, src] + bump)))
    return [(order[a:a + m], la.expm(flat[off:off + m * m].reshape(m, m)))
            for a, off, m in zip(starts, offsets, sizes)]


def _squeezer_unitary(r: float, cutoff: int) -> np.ndarray:
    """Single-mode unitary sending x -> e^r x, p -> e^{-r} p."""
    import scipy.linalg as la
    a = destroy(cutoff)
    return la.expm((r / 2) * (a.T @ a.T - a @ a))


def _thermal_diagonal(nbar: float, cutoff: int) -> np.ndarray:
    """Diagonal (1 - t) t^n with t = nbar / (nbar + 1).

    Negative nbar > -1/2 is allowed: the diagonal then alternates in sign,
    which is what a Gaussian kernel with symplectic eigenvalue below 1/2
    (a non-positive operator, e.g. a witness kernel) requires.
    """
    if nbar <= -0.5:
        raise DimensionMismatchError(
            f"symplectic eigenvalue {nbar + 0.5:g} is not representable")
    if abs(nbar) < 1e-14:
        p = np.zeros(cutoff)
        p[0] = 1.0
        return p
    ns = np.arange(cutoff)
    return (1.0 / (nbar + 1.0)) * (nbar / (nbar + 1.0)) ** ns


def gaussian_op_fock(gamma: CovMatrix, cutoff: int,
                     tail_tol: float = 5e-2) -> np.ndarray:
    """Trace-one Gaussian operator with covariance matrix `gamma`.

    Route: Williamson gamma = S nu S^T, thermal core diag(p) for nu, then the
    Bloch-Messiah factors S = O1 D O2 as Fock unitaries: rho = A X A^dag with
    A = U1 (x)_j S_j and X = U2 diag(p) U2^dag.  Raises CutoffTooSmallError
    when the truncated trace drops below 1 - tail_tol.
    """
    n = gamma.n_modes
    s, nu = williamson(gamma)
    o1, d_diag, o2 = polar_bloch_messiah(s)
    p = np.ones(1)
    for v in nu:
        p = np.kron(p, _thermal_diagonal(v - 0.5, cutoff))
    squeezers = [_squeezer_unitary(np.log(d_diag[2 * j, 2 * j]), cutoff)
                 for j in range(n)]
    u1 = _passive_blocks(o1, cutoff)
    cur = np.zeros((cutoff ** n, cutoff ** n), dtype=complex)
    for idx, u in _passive_blocks(o2, cutoff):
        cur[np.ix_(idx, idx)] = (u * p[idx]) @ u.conj().T
    nxt = np.empty_like(cur)
    # A acts on rows only: with X Hermitian, A X A^dag = A (A X)^dag, so the
    # second half is the first applied again to one adjoint copy.
    for half in range(2):
        for j, sq in enumerate(squeezers):
            # real S_j on the float view; (re, im) pairs ride in the last axis
            np.matmul(sq, cur.view(float).reshape(cutoff ** j, cutoff, -1),
                      out=nxt.view(float).reshape(cutoff ** j, cutoff, -1))
            cur, nxt = nxt, cur
        for idx, u in u1:
            nxt[idx] = u @ cur[idx]
        if half == 0:
            np.conjugate(nxt.T, out=cur)
    trace = float(np.real(np.trace(nxt)))
    if trace < 1.0 - tail_tol:
        raise CutoffTooSmallError(
            f"truncated trace {trace:g} below 1 - {tail_tol:g}; raise the cutoff")
    return nxt


def mean_photon_defect(rho: np.ndarray, gamma: CovMatrix, cutoff: int) -> float:
    """1 - <N>_Fock / <N>_gamma: the share of the mean photon number
    (tr gamma - n) / 2 that the truncated operator misses, read off its
    diagonal.  Unlike the truncated trace it sees a truncated squeezer; 0 for
    a vacuum-variance CM."""
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
    import scipy.linalg as la
    top = len(h) - 1
    w, v = la.eigh((h + h.conj().T) / 2, subset_by_index=[top, top])
    return float(w[0]), v[:, 0]


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
