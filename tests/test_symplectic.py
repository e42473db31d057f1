import warnings

import numpy as np
import pytest

from cvwitness.exceptions import DimensionMismatchError
from cvwitness.symplectic import (CovMatrix, cm_to_ccm, symplectic_eigenvalues,
                                  symplectic_form, validate_cm)

from conftest import ccm_to_cm, random_physical_cm


def test_symplectic_form_structure():
    s = symplectic_form(2)
    assert s.shape == (4, 4)
    assert np.allclose(s, -s.T)
    assert np.allclose(s @ s, -np.eye(4))


def test_symplectic_form_is_cached_and_read_only():
    s = symplectic_form(3)
    assert symplectic_form(3) is s
    with pytest.raises(ValueError):
        s[0, 1] = 2.0
    assert s[0, 1] == 1.0


def test_covmatrix_rejects_odd_dimension():
    with pytest.raises(DimensionMismatchError):
        CovMatrix(np.eye(3))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_covmatrix_rejects_non_finite(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            CovMatrix(np.array([[entry, 0.0], [0.0, 1.0]]))


def test_vacuum_is_physical_boundary():
    rep = validate_cm(CovMatrix(np.eye(2) / 2))
    assert rep.is_physical
    # vacuum saturates the uncertainty bound
    assert abs(rep.min_eig) < 1e-12


def test_below_vacuum_is_unphysical():
    assert not validate_cm(CovMatrix(np.eye(2) * 0.4)).is_physical


def test_symplectic_eigenvalues_thermal():
    nbar = 0.7
    gamma = CovMatrix((nbar + 0.5) * np.eye(4))
    assert np.allclose(symplectic_eigenvalues(gamma), nbar + 0.5)


def test_ccm_roundtrip(rng):
    gamma = random_physical_cm(rng, 2)
    back = ccm_to_cm(cm_to_ccm(gamma))
    assert np.allclose(back.mat, gamma.mat, atol=1e-12)


def test_cm_to_ccm_is_read_only_complex_symmetric(rng):
    g = cm_to_ccm(random_physical_cm(rng, 3))
    assert isinstance(g, np.ndarray) and g.dtype == complex and g.shape == (6, 6)
    assert np.array_equal(g, g.T)
    with pytest.raises(ValueError):
        g[0, 1] = 0.0


def test_ccm_quadratic_form_structure(rng):
    gamma = random_physical_cm(rng, 2)
    g = cm_to_ccm(gamma)
    n = gamma.n_modes
    # quadratic form over (mu, mu*): symmetric, with conjugate block swap
    assert np.allclose(g, g.T)
    assert np.allclose(g[:n, :n], g[n:, n:].conj())
    assert np.allclose(g[:n, n:], g[n:, :n].conj())
