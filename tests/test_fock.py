import itertools
import re
import warnings
from math import factorial, prod

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwitness import fock
from cvwitness.exceptions import (CutoffTooSmallError, DimensionMismatchError,
                                  OptimizerStalledError, ScaleOverflowError)
from cvwitness.fock import gaussian_op_fock, seesaw_lambda
from cvwitness.standard_form import Family
from cvwitness.symplectic import CovMatrix, symplectic_form
from cvwitness.witness import DetectorSpec, lambda_closed_form

from conftest import (destroy, dict_coeff_extract, fock_cm, fock_mean,
                      is_symplectic, partial_trace, random_physical_cm,
                      reference_op_fock, sample_two_mode_detector,
                      sample_ww_detector, seesaw_reference, tmsv_form)
from paper_audit import displacement_matrix


def test_destroy_commutator():
    c = 12
    a = destroy(c)
    comm = a @ a.T - a.T @ a
    # canonical commutator holds away from the truncation edge
    assert np.allclose(comm[:-1, :-1], np.eye(c - 1))


def test_displacement_element_matches_expm():
    c = 30
    mu = 0.4 - 0.3j
    d = displacement_matrix(mu, c)
    # the truncated generator's expm is exact only well below its cutoff
    a = destroy(80)
    ref = la.expm(mu * a.T - np.conj(mu) * a)[:c, :c]
    assert np.max(np.abs(d - ref)) < 1e-12


# Reference route for the recurrence, kept from the former build: Williamson
# gamma = S nu S^T, thermal core diag(p), Bloch-Messiah S = O1 D O2, and
# rho = U diag(p) U^dag with U = U1 (S_1 x ... x S_n) U2 as dense truncated
# unitaries.  Truncation makes it exact only in a corner well below its cutoff.

def williamson(gamma):
    """gamma = S diag(nu_1, nu_1, ...) S^T for a positive definite CM."""
    mat = gamma.mat
    n = gamma.n_modes
    root = la.sqrtm(mat).real
    # real Schur form of an antisymmetric matrix: 2x2 blocks [[0, nu], [-nu, 0]]
    t, q = la.schur(root @ symplectic_form(n) @ root, output="real")
    nu = np.empty(n)
    for j in range(n):
        b = t[2 * j, 2 * j + 1]
        if b < 0:
            q[:, [2 * j, 2 * j + 1]] = q[:, [2 * j + 1, 2 * j]]
            b = -b
        nu[j] = b
    return root @ q @ np.diag(np.repeat(1.0 / np.sqrt(nu), 2)), nu


def polar_bloch_messiah(s):
    """S = O1 @ D @ O2 with O1, O2 orthogonal symplectic and
    D = diag(e^{r_1}, e^{-r_1}, ...)."""
    n = len(s) // 2
    sigma = symplectic_form(n)
    p = la.sqrtm(s.T @ s).real
    w = s @ la.inv(p)
    evals, evecs = la.eigh(p)
    # pair each eigenvector v (eigenvalue >= 1) with -sigma v (its reciprocal)
    cols = []
    for idx in np.argsort(evals)[::-1]:
        if len(cols) == 2 * n:
            break
        v = evecs[:, idx]
        for c in cols:
            v = v - c * (c @ v)
        if np.linalg.norm(v) < 1e-8:
            continue
        v = v / np.linalg.norm(v)
        wv = -sigma @ v
        for c in cols:
            wv = wv - c * (c @ wv)
        cols.extend([v, wv / np.linalg.norm(wv)])
    o = np.column_stack(cols)
    return w @ o, np.diag(np.diag(o.T @ p @ o)), o.T


def orthogonal_symplectic_to_unitary(o):
    """Mode-space unitary u with a' = u a for an orthogonal symplectic O."""
    n = len(o) // 2
    a = np.kron(np.eye(n), [1, 1j]) / np.sqrt(2)
    return a @ o @ a.conj().T


def _thermal_diagonal(nbar, cutoff):
    """(1 - t) t^n with t = nbar / (nbar + 1); alternating for -1/2 < nbar < 0."""
    return (1.0 / (nbar + 1.0)) * (nbar / (nbar + 1.0)) ** np.arange(cutoff)


def _dense_passive_unitary(o, cutoff):
    """Full-register Fock unitary of an orthogonal symplectic, filled basis
    state by basis state and exponentiated per photon-number sector."""
    n = o.shape[0] // 2
    h = la.logm(orthogonal_symplectic_to_unitary(o))
    basis = list(itertools.product(range(cutoff), repeat=n))
    index = {b: i for i, b in enumerate(basis)}
    out = np.zeros((cutoff ** n, cutoff ** n), dtype=complex)
    sectors = {}
    for i, b in enumerate(basis):
        sectors.setdefault(sum(b), []).append(i)
    for idxs in sectors.values():
        local = {gi: li for li, gi in enumerate(idxs)}
        g = np.zeros((len(idxs), len(idxs)), dtype=complex)
        for gi in idxs:
            b = basis[gi]
            for j in range(n):
                for k in range(n):
                    if h[j, k] == 0 or b[k] == 0:
                        continue
                    nb = list(b)
                    nb[k] -= 1
                    nb[j] += 1
                    if nb[j] >= cutoff:
                        continue
                    g[local[index[tuple(nb)]], local[gi]] += h[j, k] * np.sqrt(b[k] * nb[j])
        out[np.ix_(idxs, idxs)] = la.expm(g)
    return out


def _dense_gaussian_op(gamma, cutoff):
    n = gamma.n_modes
    s, nu = williamson(gamma)
    o1, d_diag, o2 = polar_bloch_messiah(s)
    p = np.ones(1)
    sq = np.ones((1, 1))
    a = destroy(cutoff)
    for j in range(n):
        p = np.kron(p, _thermal_diagonal(nu[j] - 0.5, cutoff))
        r = np.log(d_diag[2 * j, 2 * j])
        sq = np.kron(sq, la.expm((r / 2) * (a.T @ a.T - a @ a)))
    u = _dense_passive_unitary(o1, cutoff) @ sq @ _dense_passive_unitary(o2, cutoff)
    return (u * p) @ u.conj().T


def test_williamson_reconstructs(rng):
    for n in (1, 2):
        gamma = random_physical_cm(rng, n)
        s, nu = williamson(gamma)
        assert is_symplectic(s)
        # interleaved ordering: each mode contributes nu_j I_2
        core = np.diag(np.repeat(nu, 2))
        assert np.allclose(s @ core @ s.T, gamma.mat, atol=1e-10)
        assert np.all(nu >= 0.5 - 1e-10)


def test_polar_bloch_messiah(rng):
    gamma = random_physical_cm(rng, 2)
    s, _ = williamson(gamma)
    o1, d, o2 = polar_bloch_messiah(s)
    assert np.allclose(o1 @ d @ o2, s, atol=1e-10)
    for o in (o1, o2):
        assert is_symplectic(o)
        assert np.allclose(o @ o.T, np.eye(4), atol=1e-10)
    assert np.allclose(d, np.diag(np.diag(d)))
    # squeezer entries come in reciprocal pairs
    assert abs(d[0, 0] * d[1, 1] - 1.0) < 1e-10
    assert abs(d[2, 2] * d[3, 3] - 1.0) < 1e-10


def test_orthogonal_symplectic_to_unitary(rng):
    gamma = random_physical_cm(rng, 2)
    s, _ = williamson(gamma)
    o1, _, _ = polar_bloch_messiah(s)
    u = orthogonal_symplectic_to_unitary(o1)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)


def _corner(rho, n_modes, cutoff, levels):
    t = rho.reshape((cutoff,) * (2 * n_modes))[(slice(levels),) * (2 * n_modes)]
    return t.reshape(levels ** n_modes, levels ** n_modes)


@pytest.mark.parametrize("gamma, dtype", [
    (DetectorSpec(Family.TWO_MODE, 1.3, 0.8, 1.1, 0.9, 0.6, -0.4).to_cm(), np.float64),
    (CovMatrix(np.diag([0.3, 0.4])), np.float64),
    (CovMatrix(np.array([[0.9, 0.3], [0.3, 0.7]])), np.complex128),
], ids=["squeezed-thermal", "nu-below-half", "xp-correlated"])
def test_gaussian_op_matches_dense_route(gamma, dtype):
    """Every entry at cutoff 12 is exact: it matches the 12-level corner of
    the reference built at cutoff 40.  A CM without x-p correlation fills a
    real register."""
    n = gamma.n_modes
    ref = _corner(_dense_gaussian_op(gamma, 40), n, 40, 12)
    rho = gaussian_op_fock(gamma, 12)
    assert rho.dtype == dtype
    assert np.max(np.abs(rho - ref)) <= 1e-12


def test_gaussian_op_four_mode_matches_coefficients():
    """Four-mode entries against the generating function: G_k is G_0 sqrt(k!)
    times the Taylor coefficient of t^k in exp(t A t^T / 2)."""
    gamma = DetectorSpec(Family.WERNER_WOLF, 0.9, 0.7, 0.8, 0.75, 0.3, -0.2).to_cm()
    cutoff = 4
    g = gaussian_op_fock(gamma, cutoff).reshape((cutoff,) * 8)
    g0, a = fock._bargmann(gamma)
    rng = np.random.default_rng(5)
    ks = [k for k in itertools.product(range(cutoff), repeat=8) if sum(k) <= 4]
    ks += [tuple(k) for k in rng.integers(0, cutoff, size=(40, 8))]
    for k in ks:
        expect = g0 * np.sqrt(prod(factorial(v) for v in k)) * dict_coeff_extract(a, k)
        assert abs(g[k] - expect) <= 1e-15, k


def _low_occupancy_cm(rng, n_modes, scale, xp_correlated, floor=0.5):
    """floor * I plus `scale` times a random PSD matrix; without x-p
    correlation unless asked.  A floor below 1/2 allows symplectic
    eigenvalues below the vacuum's."""
    d = 2 * n_modes
    m = np.zeros((d, d))
    if xp_correlated:
        x = rng.normal(size=(d, d))
        m = x @ x.T / d
    else:
        for q in (0, 1):
            x = rng.normal(size=(n_modes, n_modes))
            m[q::2, q::2] = x @ x.T / n_modes
    return CovMatrix(floor * np.eye(d) + scale * m)


def _assert_odd_class_zero(rho, n_modes, cutoff):
    odd_index = np.arange(cutoff) % 2 == 1
    odd = np.zeros((), dtype=bool)
    for _ in range(2 * n_modes):
        odd = odd[..., None] ^ odd_index
    odd = rho.reshape(odd.shape)[odd]
    for part in (odd.real, odd.imag):
        assert not part.any()
        assert not np.signbit(part).any()


_BUILD_SHAPES = [(n, c) for n in (1, 2, 3, 4)
                 for c in (1, 2, 3, 6, 7, 9, 12, 25, 40) if c ** (2 * n) <= 40 ** 4]


@pytest.mark.parametrize("n_modes, cutoff", _BUILD_SHAPES)
def test_even_class_build_matches_full_build(n_modes, cutoff):
    """The even-class build returns the full build's register: byte for byte
    for every CM without x-p correlation (below-vacuum kernels and the
    oracle's detectors included), and within 64 ulp of max|G| for an
    x-p-correlated one, where numpy's contiguous and strided complex
    multiplies may round apart.  Every odd-class entry is +0.0."""
    rng = np.random.default_rng((n_modes, cutoff))
    scale = 0.01 if cutoff < 6 else 0.1
    real = [_low_occupancy_cm(rng, n_modes, scale, False),
            _low_occupancy_cm(rng, n_modes, scale, False, floor=0.45)]
    if n_modes == 2 and cutoff >= 25:
        real.append(sample_two_mode_detector(rng).to_cm())
    if n_modes == 4 and cutoff == 6:
        real.append(sample_ww_detector(rng).to_cm())
    for gamma in real:
        rho, ref = gaussian_op_fock(gamma, cutoff), reference_op_fock(gamma, cutoff)
        assert rho.dtype == ref.dtype == np.float64
        assert rho.shape == ref.shape and rho.tobytes() == ref.tobytes()
        _assert_odd_class_zero(rho, n_modes, cutoff)
    gamma = _low_occupancy_cm(rng, n_modes, scale, True)
    rho, ref = gaussian_op_fock(gamma, cutoff), reference_op_fock(gamma, cutoff)
    assert rho.dtype == ref.dtype == np.complex128
    top = np.max(np.abs(ref))
    assert np.max(np.abs(rho - ref)) <= 64 * np.spacing(top)
    _assert_odd_class_zero(rho, n_modes, cutoff)


@pytest.mark.parametrize("gamma, cutoff, error", [
    (CovMatrix(0.7 * np.eye(2)), 0, DimensionMismatchError),
    (CovMatrix(0.7 * np.eye(4)), -1, DimensionMismatchError),
    (CovMatrix(np.diag([0.3, -0.1, 0.5, 0.5])), 6, DimensionMismatchError),
    (CovMatrix(30.5 * np.eye(2)), 6, CutoffTooSmallError),
    (tmsv_form(1.5).to_cm(), 10, CutoffTooSmallError),
], ids=["cutoff-0", "cutoff-negative", "not-pd", "thermal-tail", "squeezed-tail"])
def test_even_class_build_raises_as_full_build(gamma, cutoff, error):
    with pytest.raises(error) as ref:
        reference_op_fock(gamma, cutoff)
    with pytest.raises(error, match=re.escape(str(ref.value))):
        gaussian_op_fock(gamma, cutoff)


@pytest.mark.parametrize("mat", [np.diag([0.3, -0.1]), np.diag([0.5, 0.0])],
                         ids=["negative", "singular"])
def test_gaussian_op_rejects_non_positive_definite(mat):
    with pytest.raises(DimensionMismatchError, match="positive definite"):
        gaussian_op_fock(CovMatrix(mat), 8)


def test_gaussian_op_vacuum():
    rho = gaussian_op_fock(CovMatrix(np.eye(2) / 2), 10)
    expect = np.zeros((10, 10))
    expect[0, 0] = 1.0
    assert np.allclose(rho, expect, atol=1e-10)


def test_gaussian_op_thermal_diagonal():
    nbar = 0.8
    rho = gaussian_op_fock(CovMatrix((nbar + 0.5) * np.eye(2)), 40)
    ns = np.arange(40)
    expect = (nbar / (nbar + 1)) ** ns / (nbar + 1)
    assert np.allclose(np.diag(rho).real, expect, atol=1e-10)
    assert np.allclose(rho, np.diag(np.diag(rho)), atol=1e-10)


def test_gaussian_op_below_vacuum_eigenvalue():
    # symplectic eigenvalue below 1/2: a valid non-positive Gaussian kernel
    gamma = CovMatrix(np.diag([0.3, 0.4]))
    rho = gaussian_op_fock(gamma, 30)
    mu = 0.35 - 0.2j
    z = np.array([np.sqrt(2) * mu.imag, -np.sqrt(2) * mu.real])
    ref = np.exp(-0.5 * z @ gamma.mat @ z)
    val = np.trace(rho @ displacement_matrix(mu, 30))
    assert abs(val - ref) < 1e-8
    assert np.min(np.linalg.eigvalsh(rho)) < -1e-3  # genuinely non-positive


def test_fock_cm_roundtrip():
    gamma = tmsv_form(0.4).to_cm()
    rho = gaussian_op_fock(gamma, 26)
    back = fock_cm(rho, 2, 26)
    assert np.max(np.abs(back - gamma.mat)) < 1e-9


def test_cutoff_too_small_raises():
    nbar = 30.0
    with pytest.raises(CutoffTooSmallError):
        gaussian_op_fock(CovMatrix((nbar + 0.5) * np.eye(2)), 6)


def test_gaussian_op_rejects_empty_cutoff():
    with pytest.raises(DimensionMismatchError, match="cutoff"):
        gaussian_op_fock(CovMatrix(0.7 * np.eye(2)), 0)


def test_gaussian_op_refuses_register_past_memory():
    """A cutoff whose register has more entries than an array can index is
    a typed refusal, before anything is allocated."""
    with pytest.raises(DimensionMismatchError, match="does not fit in memory"):
        gaussian_op_fock(CovMatrix(0.7 * np.eye(4)), 10 ** 5)


@pytest.mark.parametrize("params", [(1e200, 1, 1e200, 1, 0, 0),
                                    (1e154, 1e154, 1e154, 1e154, 0, 0),
                                    (1e300, 1e-300, 1e-300, 1e300, 0, 0)],
                         ids=["q-singular", "det-overflows", "eigvalsh-reads-zero"])
def test_gaussian_op_refuses_scale_past_double_precision(params):
    """A detector whose x and p variances are 1e200 apart (Q singular in
    double precision; its two-mode Lambda is 1e-200) or whose det(Q) passes
    the double range is a typed refusal, with no numpy error or warning.
    The diagonal CM with variances 1e300 and 1e-300 is positive definite,
    though `eigvalsh` reads its two small eigenvalues as 0: it is refused
    for its scale, not as "not positive definite"."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family in Family:
            with pytest.raises(ScaleOverflowError, match="Bargmann matrix"):
                gaussian_op_fock(DetectorSpec(family, *params).to_cm(), 8)


def test_squeezing_truncation_raises():
    # TMSV at r = 1.5 keeps 1 - tanh(r)^20 = 0.8637 of its trace below cutoff 10
    with pytest.raises(CutoffTooSmallError, match="0.8637"):
        gaussian_op_fock(tmsv_form(1.5).to_cm(), 10)


def test_fock_mean_single_photon_thermal():
    # <1|rho_th(nbar=1)|1> = nbar^n/(nbar+1)^{n+1} at n=1 -> 1/4
    rho = gaussian_op_fock(CovMatrix(1.5 * np.eye(2)), 25)
    op = np.zeros((25, 25))
    op[1, 1] = 1.0
    assert abs(fock_mean(rho, op) - 0.25) < 1e-10


def test_partial_trace_of_product():
    c = 6
    rho_a = np.diag(np.arange(1.0, c + 1))
    rho_a /= np.trace(rho_a)
    rho_b = np.eye(c) / c
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(rho, (c, c), keep=0), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(rho, (c, c), keep=1), rho_b, atol=1e-12)


def test_seesaw_vacuum_detector():
    d = DetectorSpec(Family.TWO_MODE, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0)
    rho = gaussian_op_fock(d.to_cm(), 12)
    res = seesaw_lambda(rho, (12, 12), restarts=2)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-10


def test_seesaw_matches_closed_form_tmsv():
    d = tmsv_form(0.5)
    rho = gaussian_op_fock(d.to_cm(), 20)
    res = seesaw_lambda(rho, (20, 20), restarts=3)
    lam, _ = lambda_closed_form(d)
    assert abs(res.value - lam) < 1e-8


def test_seesaw_optimizer_state_is_product_gaussian():
    # the optimizer of a thermal-product detector is the vacuum
    d = DetectorSpec(Family.TWO_MODE, 1.5, 1.5, 1.5, 1.5, 0.0, 0.0)
    rho = gaussian_op_fock(d.to_cm(), 15)
    res = seesaw_lambda(rho, (15, 15), restarts=2)
    assert abs(abs(res.vec_a[0]) - 1.0) < 1e-6
    assert abs(abs(res.vec_b[0]) - 1.0) < 1e-6


def _einsum_seesaw_step(t, b):
    """Reference seesaw step as three-operand contractions: the best a for b,
    then the operator on B that the next b maximizes."""
    a = la.eigh(np.einsum("ijkl,j,l->ik", t, np.conj(b), b))[1][:, -1]
    return np.einsum("ijkl,i,k->jl", t, np.conj(a), a)


def test_seesaw_unequal_dims_matches_einsum():
    da, db = 3, 5
    rng = np.random.default_rng(7)
    g = rng.normal(size=(da * db,) * 2) + 1j * rng.normal(size=(da * db,) * 2)
    m_op = (g + g.conj().T) / 2
    res = seesaw_lambda(m_op, (da, db), restarts=3, seed=2)
    assert res.converged
    ab = np.kron(res.vec_a, res.vec_b)
    assert abs(np.vdot(ab, m_op @ ab).real - res.value) < 1e-10
    # one more step through the reference contraction stays at the converged value
    t = m_op.reshape(da, db, da, db)
    hb = _einsum_seesaw_step(t, res.vec_b)
    assert abs(np.linalg.eigvalsh(hb)[-1] - res.value) < 1e-8


def test_seesaw_decrease_raises_typed_error(monkeypatch):
    calls = itertools.count()
    real = fock._top_eigvec

    def shrinking(h):
        val, vec = real(h)
        return val - next(calls), vec

    monkeypatch.setattr(fock, "_top_eigvec", shrinking)
    rho = gaussian_op_fock(CovMatrix(1.5 * np.eye(4)), 6)
    with pytest.raises(OptimizerStalledError) as info:
        seesaw_lambda(rho, (6, 6), restarts=0)
    diag = info.value.diagnostics
    assert diag["iteration"] == 1
    assert diag["value"] < diag["value_a"]


@st.composite
def seesaw_cases(draw):
    da = draw(st.integers(2, 6))
    db = draw(st.integers(2, 6).filter(lambda d: d != da))
    return (da, db, draw(st.booleans()), draw(st.integers(0, 5)),
            draw(st.integers(0, 2 ** 16)))


@settings(max_examples=40)
@given(seesaw_cases())
def test_seesaw_matches_reference(case):
    """All starts advanced together reach the value of the starts run one by
    one, and the returned product state attains it."""
    da, db, cplx, restarts, seed = case
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(da * db,) * 2)
    if cplx:
        g = g + 1j * rng.normal(size=g.shape)
    m_op = (g + g.conj().T) / 2
    res = seesaw_lambda(m_op, (da, db), restarts=restarts, seed=seed)
    ref = seesaw_reference(m_op, (da, db), restarts=restarts, seed=seed)
    scale = 1e-12 * max(1.0, abs(ref.value))
    assert abs(res.value - ref.value) <= scale
    ab = np.kron(res.vec_a, res.vec_b)
    assert abs(np.vdot(ab, m_op @ ab).real - res.value) <= scale


def test_seesaw_real_operator_as_complex():
    """A real M gives the same value whether it is passed as float64 or as
    complex128."""
    d = DetectorSpec(Family.TWO_MODE, 1.3, 0.8, 1.1, 0.9, 0.6, -0.4)
    rho = gaussian_op_fock(d.to_cm(), 15)
    assert rho.dtype == np.float64
    real = seesaw_lambda(rho, (15, 15), restarts=3)
    cplx = seesaw_lambda(rho.astype(complex), (15, 15), restarts=3)
    assert abs(real.value - cplx.value) <= 1e-12 * max(1.0, abs(real.value))


def test_seesaw_reports_first_start_within_tol():
    """Starts that reach the maximum up to rounding report the first of them,
    here the vacuum start as it runs alone; one later restart ends 1.1e-16
    higher after 8 iterations."""
    d = DetectorSpec(Family.TWO_MODE, 0.7432057352641908, 1.4505534043693418,
                     1.5712267139974918, 1.683897229043874,
                     0.48419968974471883, 0.32982622728564637)
    rho = gaussian_op_fock(d.to_cm(), 25)
    res = seesaw_lambda(rho, (25, 25))
    alone = seesaw_lambda(rho, (25, 25), restarts=0)
    assert res.iterations == alone.iterations == 3
    assert abs(res.value - alone.value) <= 1e-12


@pytest.mark.parametrize("kwargs", [{"restarts": -1}, {"seed": -1}, {"dims": (2, 3)}])
def test_seesaw_rejects_bad_counts(kwargs):
    """Each refusal names the argument at fault."""
    with pytest.raises(DimensionMismatchError, match=next(iter(kwargs))):
        seesaw_lambda(np.eye(4), **{"dims": (2, 2), **kwargs})
