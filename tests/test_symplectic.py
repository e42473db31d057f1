import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cvwitness.criteria import decide_separability, ppt_decide
from cvwitness.exceptions import (CvWitnessError, DimensionMismatchError,
                                  ScaleOverflowError)
from cvwitness.symplectic import (CovMatrix, _integers, _quotient, symplectic_form,
                                  validate_cm)
from cvwitness.witness import minmax_optimize

from conftest import (ccm_to_cm, cm_to_ccm, random_physical_cm,
                      symplectic_eigenvalues)


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


def _off_diagonal(entry):
    """A 4x4 with `entry` at (0, 3) alone, so also asymmetric."""
    mat = np.eye(4) / 2
    mat[0, 3] = entry
    return mat


@pytest.mark.parametrize("raw", [
    *(np.array([[entry, 0.0], [0.0, 1.0]]) for entry in (np.nan, np.inf, -np.inf)),
    *(_off_diagonal(entry) for entry in (np.nan, np.inf, -np.inf)),
], ids=["nan", "inf", "-inf", "nan-off-diagonal", "inf-off-diagonal", "-inf-off-diagonal"])
def test_covmatrix_rejects_non_finite(raw):
    """A non-finite entry is refused as such, before the symmetry check: an
    entry in one triangle only reads "non-finite", not "not symmetric", and
    no difference of entries warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            CovMatrix(raw)


@pytest.mark.parametrize("raw, message", [
    (np.zeros((0, 0)), "no modes"),
    (np.eye(2) * (0.5 + 0.1j), "not real numbers"),
    ([["a", "b"], ["c", "d"]], "not real numbers"),
    ([[0.5, 0.0], [0.0]], "not real numbers"),
], ids=["empty", "complex", "strings", "ragged"])
def test_covmatrix_refusals_are_typed(raw, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match=message):
            CovMatrix(raw)


def test_covmatrix_takes_complex_with_zero_imaginary_part():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = CovMatrix(np.eye(2) * (0.5 + 0j))
    assert gamma.mat.dtype == np.float64 and np.array_equal(gamma.mat, np.eye(2) / 2)


def test_covmatrix_symmetrizes_without_overflow():
    """Entries near the largest double stay finite, so the decision refuses
    the scale instead of failing inside numpy."""
    gamma = CovMatrix(np.diag([1e308] * 4))
    assert np.array_equal(gamma.mat, np.diag([1e308] * 4))
    with pytest.raises(ScaleOverflowError):
        decide_separability(gamma)


_ENTRY = st.floats(1e-300, 1e308) | st.floats(-1e308, -1e-300)


@st.composite
def _raw_arrays(draw):
    """Square arrays of size 0-8 with entries from 1e-300 to 1e308 in
    magnitude, mostly symmetric so that the decision runs, float or
    complex (with a zero or a drawn imaginary part), and a few non-square
    ones."""
    n = draw(st.integers(0, 8))
    m = draw(st.sampled_from([n, n, n, n + 1]))
    a = draw(arrays(np.float64, (n, m), elements=_ENTRY))
    if n == m and draw(st.sampled_from([True, True, True, False])):
        a = np.triu(a) + np.triu(a, 1).T   # exactly symmetric
    if draw(st.booleans()):
        imag = st.just(0.0) if draw(st.booleans()) else _ENTRY
        a = a + 1j * draw(arrays(np.float64, (n, m), elements=imag))
    return a


@settings(max_examples=200)
@given(_raw_arrays())
def test_any_array_returns_or_raises_a_typed_error(raw):
    """The package trusts what CovMatrix accepts: on any array, CovMatrix
    and the decisions on what it accepts return or raise a CvWitnessError,
    never a numpy error or a RuntimeWarning."""
    try:
        gamma = CovMatrix(raw)
    except CvWitnessError:
        return
    for call in (decide_separability, ppt_decide, minmax_optimize):
        try:
            call(gamma)
        except CvWitnessError:
            pass


def test_vacuum_is_physical_boundary():
    rep = validate_cm(CovMatrix(np.eye(2) / 2))
    assert rep.is_physical
    # vacuum saturates the uncertainty bound
    assert abs(rep.min_eig) < 1e-12


def test_below_vacuum_is_unphysical():
    assert not validate_cm(CovMatrix(np.eye(2) * 0.4)).is_physical


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, "1e-8"],
                         ids=["nan", "inf", "-inf", "-1", "text"])
def test_validate_cm_refuses_a_tolerance_that_is_no_finite_nonnegative_number(tol):
    """nan would refuse every state and inf admit 0.1 I, which is none: a
    `tol` that is not a finite number >= 0 is a typed refusal, in
    `validate_cm` and in every entry that admits a state at it."""
    gamma = CovMatrix(np.eye(4) / 2)
    for call in (validate_cm, decide_separability, ppt_decide, minmax_optimize):
        with pytest.raises(CvWitnessError, match="tol must be a finite number >= 0"):
            call(gamma, tol=tol)


def test_symplectic_eigenvalues_thermal():
    nbar = 0.7
    gamma = CovMatrix((nbar + 0.5) * np.eye(4))
    assert np.allclose(symplectic_eigenvalues(gamma), nbar + 0.5)


def test_symplectic_spectrum_refuses_non_convergence(monkeypatch):
    """numpy's LinAlgError when the eigenvalues do not converge (seen on
    matrices with entries near the largest double; whether a given matrix
    converges depends on the LAPACK build) is a ScaleOverflowError."""
    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(ScaleOverflowError, match="does not converge"):
        symplectic_eigenvalues(CovMatrix(np.eye(4)))


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


# the doubles at the ends of the range: subnormal, least normal, largest
_EDGE_DOUBLES = (5e-324, 1e-310, sys.float_info.min, 1e-300, 1.0, 1e300, 1e308,
                 sys.float_info.max)


def _doubles(rng, count):
    """`count` doubles of both signs with exponents uniform from the
    subnormals to 1e308, and the edge doubles of both signs."""
    mags = [math.ldexp(m, int(e)) for m, e in zip(rng.uniform(0.5, 1.0, count),
                                                   rng.integers(-1073, 1025, count))]
    signs = rng.choice((-1.0, 1.0), count)
    return [*(s * m for s, m in zip(signs, mags)), *_EDGE_DOUBLES, *(-v for v in _EDGE_DOUBLES)]


def _is_nearest(r, q):
    """Whether the double r is q rounded to nearest, ties to even, or inf of
    q's sign where q is at least the largest double plus half its ulp; read
    from the neighbours of r as fractions, not from a float division."""
    top = Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2
    if math.isinf(r):
        return abs(q) >= top and (r > 0) == (q > 0)
    err = abs(Fraction(r) - q)
    for other in (math.nextafter(r, math.inf), math.nextafter(r, -math.inf)):
        if math.isfinite(other):
            gap = abs(Fraction(other) - q)
            if gap < err or (gap == err and (Fraction(r) / Fraction(math.ulp(r))) % 2):
                return False
    return abs(q) < top


def test_integers_and_quotient_match_fractions(rng):
    """`_integers` puts doubles over their least common power-of-two
    denominator exactly, and `_quotient` of the polynomials built on them
    (a mode determinant a d - b^2 and a block gap 1 - c^2 / (a d)) is the
    exact value rounded to nearest, or inf of its sign past the largest
    double, on doubles from the subnormals to 1e308 of both signs."""
    values = _doubles(rng, 3000)
    order = rng.permutation(len(values))
    for i in range(0, len(values) - 2, 3):
        triple = [values[j] for j in order[i:i + 3]]
        (na, nb, nd), den = _integers(*triple)
        assert den == max(Fraction(v).denominator for v in triple)
        assert den & (den - 1) == 0
        a, b, d = map(Fraction, triple)
        assert (Fraction(na, den), Fraction(nb, den), Fraction(nd, den)) == (a, b, d)
        assert _is_nearest(_quotient(na * nd - nb * nb, den * den), a * d - b * b)
        if na * nd > 0:   # a block gap has a positive diagonal
            assert _is_nearest(_quotient(na * nd - nb * nb, na * nd), 1 - b * b / (a * d))
    big, tiny = sys.float_info.max, 5e-324
    (n, t), den = _integers(big, tiny)
    assert _quotient(n * n, den * den) == math.inf
    assert _quotient(-n * n, den * den) == -math.inf
    assert _quotient(t * t, den * den) == 0.0
