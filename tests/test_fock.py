import itertools

import numpy as np
import pytest
import scipy.linalg as la

from cvwitness import fock
from cvwitness.exceptions import CutoffTooSmallError, OptimizerStalledError
from cvwitness.fock import (destroy, displacement_element, displacement_matrix,
                            fock_cm, fock_mean, gaussian_op_fock,
                            partial_trace, quadrature_ops, seesaw_lambda)
from cvwitness.standard_form import Family
from cvwitness.symplectic import (CovMatrix, orthogonal_symplectic_to_unitary,
                                  polar_bloch_messiah, williamson)
from cvwitness.witness import DetectorSpec, detector_from_cm, lambda_closed_form

from conftest import tmsv_form


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
    for m, k in [(0, 0), (1, 0), (2, 3), (5, 5)]:
        assert abs(displacement_element(m, k, mu) - d[m, k]) < 1e-10


def _dense_passive_unitary(o, cutoff):
    """Reference: full-register Fock unitary of an orthogonal symplectic,
    filled basis state by basis state."""
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
    """Reference: U = U1 (S_1 x ... x S_n) U2 as dense register matrices,
    rho = U diag(p) U^dag."""
    n = gamma.n_modes
    s, nu = williamson(gamma)
    o1, d_diag, o2 = polar_bloch_messiah(s)
    p = np.ones(1)
    sq = np.ones((1, 1))
    a = destroy(cutoff)
    for j in range(n):
        p = np.kron(p, fock._thermal_diagonal(nu[j] - 0.5, cutoff))
        r = np.log(d_diag[2 * j, 2 * j])
        sq = np.kron(sq, la.expm((r / 2) * (a.T @ a.T - a @ a)))
    u = _dense_passive_unitary(o1, cutoff) @ sq @ _dense_passive_unitary(o2, cutoff)
    return (u * p) @ u.conj().T


@pytest.mark.parametrize("gamma, cutoff", [
    (DetectorSpec(Family.TWO_MODE, 1.3, 0.8, 1.1, 0.9, 0.6, -0.4).to_cm(), 12),
    (DetectorSpec(Family.WERNER_WOLF, 0.9, 0.7, 0.8, 0.75, 0.3, -0.2).to_cm(), 4),
    (CovMatrix(np.diag([0.3, 0.4])), 12),
], ids=["squeezed-thermal", "werner-wolf", "nu-below-half"])
def test_gaussian_op_matches_dense_route(gamma, cutoff):
    rho = gaussian_op_fock(gamma, cutoff)
    assert np.max(np.abs(rho - _dense_gaussian_op(gamma, cutoff))) <= 1e-12


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
    d = detector_from_cm(tmsv_form(0.5).to_cm())
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
