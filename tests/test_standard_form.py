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
                                     reduce_to_standard_form)
from cvwitness.symplectic import CovMatrix, is_symplectic
from cvwitness.witness import DetectorSpec, minmax_optimize

from conftest import sample_ww_family_params, tmsv_form
from cvwitness.standard_form import _single_mode_normal


def rotate_locally(gamma: CovMatrix, thetas) -> CovMatrix:
    blocks = []
    for th in thetas:
        c, s = np.cos(th), np.sin(th)
        blocks.append(np.array([[c, -s], [s, c]]))
    import scipy.linalg as la
    r = la.block_diag(*blocks)
    return CovMatrix(r @ gamma.mat @ r.T)


def test_detect_family_by_mode_count():
    assert detect_family(CovMatrix(np.eye(4) / 2)) is Family.TWO_MODE
    assert detect_family(CovMatrix(np.eye(8) / 2)) is Family.WERNER_WOLF


def test_two_mode_reduction_recovers_tmsv():
    f0 = tmsv_form(0.3)
    gamma = rotate_locally(f0.to_cm(), [0.4, -0.7])
    form, s = reduce_to_standard_form(gamma, Family.TWO_MODE)
    assert is_symplectic(s.mat)
    assert np.allclose(s.apply(gamma).mat, form.to_cm().mat, atol=1e-8)
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
        assert form.to_cm().is_physical(tol=1e-8)
        assert np.allclose(s.apply(gamma).mat, form.to_cm().mat, atol=1e-8)


def test_ww_family_cm_reduces_to_itself(rng):
    p = sample_ww_family_params(rng)
    form0 = werner_wolf_family(p)
    gamma = form0.to_cm()
    form, s = reduce_to_standard_form(gamma, Family.WERNER_WOLF)
    assert np.allclose(s.mat, np.eye(8), atol=1e-8)
    for value, value0 in zip(form.params, form0.params):   # A..F
        assert abs(value - value0) < 1e-8


def test_ww_pattern_mismatch_raises(rng):
    a = rng.normal(size=(8, 8))
    gamma = CovMatrix(a @ a.T / 8 + 0.5 * np.eye(8))
    with pytest.raises(PatternMismatchError):
        reduce_to_standard_form(gamma, Family.WERNER_WOLF)


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
    s = _single_mode_normal(block)
    assert np.allclose(s, s.T, rtol=0, atol=1e-14 * np.exp(r))
    assert abs(np.linalg.det(s) - 1) < 1e-12
    assert np.max(np.abs(s @ block @ s.T - 1.3 * np.eye(2))) < 1e-12 * np.exp(2 * r)


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
    assert reduce_to_standard_form(gamma, Family.TWO_MODE, tol=1e-9) is not first


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
