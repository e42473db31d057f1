import dataclasses
import gc
import weakref

import numpy as np
import pytest

from cvwitness import standard_form
from cvwitness.criteria import decide_separability, werner_wolf_family
from cvwitness.exceptions import PatternMismatchError
from cvwitness.standard_form import (Family, TwoModeStandardForm,
                                     WernerWolfForm, detect_family,
                                     local_normal_form, reduce_to_standard_form)
from cvwitness.symplectic import CovMatrix, validate_cm
from cvwitness.witness import DetectorSpec, minmax_optimize

from conftest import (is_symplectic, sample_ww_family_params,
                      symplectic_eigenvalues, tmsv_form)
from cvwitness.standard_form import _single_mode_normal


def rotate_locally(gamma: CovMatrix, thetas) -> CovMatrix:
    blocks = []
    for th in thetas:
        c, s = np.cos(th), np.sin(th)
        blocks.append(np.array([[c, -s], [s, c]]))
    import scipy.linalg as la
    r = la.block_diag(*blocks)
    return CovMatrix(r @ gamma.mat @ r.T)


def assert_local_symplectic(s, gamma: CovMatrix, form, n_modes_a: int):
    """S is a read-only symplectic that acts on each party alone and takes
    gamma to the form's CM."""
    assert isinstance(s, np.ndarray) and s.dtype == float
    assert not s.flags.writeable
    da = 2 * n_modes_a
    assert not s[:da, da:].any() and not s[da:, :da].any()
    assert is_symplectic(s)
    assert np.allclose(s @ gamma.mat @ s.T, form.to_cm().mat, atol=1e-8)


def test_detect_family_by_mode_count():
    assert detect_family(CovMatrix(np.eye(4) / 2)) is Family.TWO_MODE
    assert detect_family(CovMatrix(np.eye(8) / 2)) is Family.WERNER_WOLF


def test_two_mode_reduction_recovers_tmsv():
    f0 = tmsv_form(0.3)
    gamma = rotate_locally(f0.to_cm(), [0.4, -0.7])
    form, s = reduce_to_standard_form(gamma, Family.TWO_MODE)
    assert_local_symplectic(s, gamma, form, n_modes_a=1)
    (a, b, c1), (_, _, c2) = form.x, form.p
    (a0, b0, c10), (_, _, c20) = f0.x, f0.p
    assert abs(a - a0) < 1e-8
    assert abs(b - b0) < 1e-8
    assert abs(abs(c1) - abs(c10)) < 1e-8
    assert abs(abs(c2) - abs(c20)) < 1e-8


def test_two_mode_reduction_invariants(rng):
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        gamma = CovMatrix(a @ a.T / 4 + 0.5 * np.eye(4))
        form, s = reduce_to_standard_form(gamma, Family.TWO_MODE)
        assert validate_cm(form.to_cm(), 1e-8).is_physical
        assert_local_symplectic(s, gamma, form, n_modes_a=1)


def test_ww_family_cm_reduces_to_itself(rng):
    p = sample_ww_family_params(rng)
    form0 = werner_wolf_family(p)
    gamma = form0.to_cm()
    form, s = reduce_to_standard_form(gamma, Family.WERNER_WOLF)
    assert_local_symplectic(s, gamma, form, n_modes_a=2)
    assert np.allclose(s, np.eye(8), atol=1e-8)
    for value, value0 in zip(form.params, form0.params):   # A..F
        assert abs(value - value0) < 1e-8


def test_ww_pattern_mismatch_raises(rng):
    a = rng.normal(size=(8, 8))
    gamma = CovMatrix(a @ a.T / 8 + 0.5 * np.eye(8))
    with pytest.raises(PatternMismatchError):
        reduce_to_standard_form(gamma, Family.WERNER_WOLF)


def _edited_ww_cm(i: int, j: int, value: float) -> CovMatrix:
    """A Werner-Wolf form's CM with entries (i, j) and (j, i) set to `value`."""
    m = WernerWolfForm(1.0, 1.1, 1.2, 1.3, 0.4, 0.3).to_cm().mat.copy()
    m[i, j] = m[j, i] = value
    return CovMatrix(m)


@pytest.mark.parametrize("gamma, family, match", [
    (_edited_ww_cm(0, 4, 0.0), Family.WERNER_WOLF, "degenerate Werner-Wolf entries"),
    (_edited_ww_cm(2, 6, 0.4), Family.WERNER_WOLF, "inconsistent cross-block signs"),
    # x variances unequal within party A, p variances equal: no squeeze fits both
    (_edited_ww_cm(2, 2, 2.0), Family.WERNER_WOLF, "cannot equalize"),
    (CovMatrix(np.eye(4) / 2), Family.WERNER_WOLF, "needs 4 modes, got 2"),
    (CovMatrix(np.eye(8) / 2), Family.TWO_MODE, "needs 2 modes, got 4"),
], ids=["degenerate", "cross-sign", "equalize", "modes-ww", "modes-two-mode"])
def test_reduction_refusals_are_typed(gamma, family, match):
    with pytest.raises(PatternMismatchError, match=match):
        reduce_to_standard_form(gamma, family)


def test_ww_form_cm_pattern():
    form = WernerWolfForm(1.0, 1.1, 1.2, 1.3, 0.4, -0.3)
    m = form.to_cm().mat
    assert m[0, 0] == m[2, 2] == 1.0
    assert m[1, 1] == m[3, 3] == 1.1
    assert m[4, 4] == m[6, 6] == 1.2
    assert m[5, 5] == m[7, 7] == 1.3
    assert m[0, 4] == 0.4 and m[2, 6] == -0.4
    assert m[1, 7] == 0.3 and m[3, 5] == 0.3


def test_two_mode_form_cm_pattern():
    form = TwoModeStandardForm(0.9, 1.1, 0.3, -0.2)
    m = form.to_cm().mat
    assert np.allclose(np.diag(m), [0.9, 0.9, 1.1, 1.1])
    # p-quadrature correlation enters with flipped sign
    assert m[0, 2] == 0.3 and m[1, 3] == 0.2


@pytest.mark.parametrize("spec, entry", [
    (TwoModeStandardForm(1, 1, 0.5, 0.5), (0, 2)),
    (WernerWolfForm(1, 1, 1, 1, 0.5, 0.5), (0, 4)),
    (DetectorSpec(Family.TWO_MODE, 1, 1, 1, 1, 0.5, 0.5), (0, 2)),
], ids=["two-mode-form", "werner-wolf-form", "two-mode-detector"])
def test_to_cm_of_integer_arguments_is_float(spec, entry):
    """Integer diagonal arguments do not truncate the correlations."""
    m = spec.to_cm().mat
    assert m.dtype == np.float64
    assert m[entry] == 0.5


@pytest.mark.parametrize("r", [0.0, 0.7, 2.0])
def test_single_mode_normal_closed_form(r, rng):
    """S = sqrt(nu) M^{-1/2} from the 2x2 closed form: symmetric, det 1, and
    S M S^T = nu I, for a rotated squeezed thermal block M."""
    th = rng.uniform(0, np.pi)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    block = 1.3 * rot @ np.diag([np.exp(2 * r), np.exp(-2 * r)]) @ rot.T
    s = _single_mode_normal(block, np.sqrt(np.linalg.det(block)))
    assert np.allclose(s, s.T, rtol=0, atol=1e-14 * np.exp(r))
    assert abs(np.linalg.det(s) - 1) < 1e-12
    assert np.max(np.abs(s @ block @ s.T - 1.3 * np.eye(2))) < 1e-12 * np.exp(2 * r)


@pytest.mark.parametrize("r", [0.0, 3.0, 6.0])
def test_local_normal_form_takes_out_the_local_squeezes(r, rng):
    """Each mode's own block of the local normal form is nu_j I, and its
    scale is that of the undressed state, whatever the local squeeze; the
    symplectic spectrum is kept."""
    form = WernerWolfForm(1.1, 1.2, 1.3, 1.4, 0.3, 0.2)
    s = np.zeros((8, 8))
    for j in range(4):
        th = rng.uniform(0, np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = rot @ np.diag([np.exp(r), np.exp(-r)])
    m = s @ form.to_cm().mat @ s.T
    gamma = CovMatrix((m + m.T) / 2)
    normal = local_normal_form(gamma).mat
    nu = np.sqrt([np.linalg.det(gamma.mat[j:j + 2, j:j + 2]) for j in range(0, 8, 2)])
    assert np.allclose(normal * np.kron(np.eye(4), np.ones((2, 2))),
                       np.kron(np.diag(nu), np.eye(2)), rtol=0, atol=1e-6)
    assert abs(normal).max() < 2
    assert np.allclose(symplectic_eigenvalues(CovMatrix(normal)),
                       symplectic_eigenvalues(form.to_cm()), rtol=1e-6)


def test_local_normal_form_refuses_a_local_block_that_is_not_positive():
    with pytest.raises(PatternMismatchError, match="a local block is not positive definite"):
        local_normal_form(CovMatrix(np.diag([1.0, -1.0, 1.0, 1.0])))


# --------------------------------------------------------------- to_cm memo

@pytest.mark.parametrize("form", [
    TwoModeStandardForm(1.2, 1.3, 0.4, -0.3),
    WernerWolfForm(1.1, 1.2, 1.3, 1.4, 0.3, 0.2),
    DetectorSpec(Family.TWO_MODE, 1.0, 1.1, 0.9, 1.2, 0.3, -0.2),
], ids=["two-mode", "werner-wolf", "detector"])
def test_to_cm_is_kept_on_the_form(form):
    """Repeated calls return the same read-only CovMatrix; `==`, `hash` and
    `repr` ignore it; `scaled` and `dataclasses.replace` give a form that
    builds its own CM, equal in value."""
    twin = dataclasses.replace(form)
    cm = form.to_cm()
    assert form.to_cm() is cm and not cm.mat.flags.writeable
    assert form == twin and hash(form) == hash(twin) and repr(form) == repr(twin)
    for other in (twin, form.scaled(1.0), dataclasses.replace(form, x=form.x)):
        assert other.to_cm() is not cm
        assert np.array_equal(other.to_cm().mat, cm.mat)
    scaled = form.scaled(2.0)
    assert np.array_equal(scaled.to_cm().mat, 2.0 * cm.mat)
    assert form.to_cm() is cm


# ------------------------------------------------------- reduction memo

def _count_reductions(monkeypatch) -> list:
    """Record a name per family reduction actually run from now on."""
    calls = []
    for name in ("_reduce_two_mode", "_reduce_werner_wolf"):
        def counted(*args, _name=name, _reduce=getattr(standard_form, name)):
            calls.append(_name)
            return _reduce(*args)
        monkeypatch.setattr(standard_form, name, counted)
    return calls


def _dressed_two_mode(rng) -> CovMatrix:
    return rotate_locally(tmsv_form(0.6).to_cm(), rng.uniform(0, np.pi, size=2))


def _ww_family_cm(rng) -> CovMatrix:
    return werner_wolf_family(sample_ww_family_params(rng)).to_cm()


@pytest.mark.parametrize("make", [_dressed_two_mode, _ww_family_cm],
                         ids=["two-mode", "werner-wolf"])
@pytest.mark.parametrize("witness_first", [False, True])
def test_memoized_reports_match_a_fresh_matrix(make, witness_first, rng, monkeypatch):
    """`decide_separability` and `minmax_optimize` on one CovMatrix, in
    either order and twice, reduce it once and report what they report on a
    fresh copy of the matrix."""
    gamma = make(rng)
    fresh = repr((decide_separability(CovMatrix(gamma.mat.copy())),
                  minmax_optimize(CovMatrix(gamma.mat.copy()))))
    calls = _count_reductions(monkeypatch)
    for _ in range(2):
        if witness_first:
            wit = minmax_optimize(gamma)
            rep = decide_separability(gamma)
        else:
            rep = decide_separability(gamma)
            wit = minmax_optimize(gamma)
        assert repr((rep, wit)) == fresh
    assert len(calls) == 1


def test_memo_is_per_family_and_tolerance(rng):
    gamma = _dressed_two_mode(rng)
    first = reduce_to_standard_form(gamma, Family.TWO_MODE)
    assert reduce_to_standard_form(gamma, "two_mode") is first


def test_refusal_is_not_memoized(rng, monkeypatch):
    """A CM that the reduction refuses is reduced again, and refused again,
    on every call."""
    a = rng.normal(size=(8, 8))
    gamma = CovMatrix(a @ a.T / 8 + 0.5 * np.eye(8))
    calls = _count_reductions(monkeypatch)
    for _ in range(2):
        with pytest.raises(PatternMismatchError):
            reduce_to_standard_form(gamma, Family.WERNER_WOLF)
    assert len(calls) == 2


def test_memo_does_not_keep_the_matrix_alive(rng):
    gamma = _dressed_two_mode(rng)
    reduce_to_standard_form(gamma, Family.TWO_MODE)
    ref = weakref.ref(gamma)
    del gamma
    gc.collect()
    assert ref() is None
