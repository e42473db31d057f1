import dataclasses
import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvwitness import standard_form
from cvwitness.criteria import decide_separability, werner_wolf_family
from cvwitness.exceptions import CvWitnessError, PatternMismatchError
from cvwitness.standard_form import (Family, TwoModeStandardForm,
                                     WernerWolfForm, detect_family,
                                     local_normal_form, reduce_to_standard_form)
from cvwitness.symplectic import CovMatrix, validate_cm
from cvwitness.witness import DetectorSpec, minmax_optimize

from conftest import (dress, dressed_ensemble, is_symplectic, sample_standard_form,
                      sample_ww_family_params, symplectic_eigenvalues, tmsv_form)
from cvwitness.standard_form import _mode_normal

EPS = np.finfo(float).eps


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


def _squeezed_block(r, rng) -> np.ndarray:
    """1.3 R diag(e^2r, e^-2r) R^T for a random rotation R."""
    th = rng.uniform(0, np.pi)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return 1.3 * rot @ np.diag([np.exp(2 * r), np.exp(-2 * r)]) @ rot.T


@pytest.mark.parametrize("r", [0.0, 0.7, 2.0])
def test_single_mode_normal_closed_form(r, rng):
    """S = sqrt(nu) M^{-1/2} from the 2x2 closed form: symmetric, det 1, and
    S M S^T = nu I, for a rotated squeezed thermal block M."""
    block = _squeezed_block(r, rng)
    s = np.array(_mode_normal(block[0, 0], block[0, 1], block[1, 1], "refused")[0])
    assert np.allclose(s, s.T, rtol=0, atol=1e-14 * np.exp(r))
    assert abs(np.linalg.det(s) - 1) < 1e-12
    assert np.max(np.abs(s @ block @ s.T - 1.3 * np.eye(2))) < 1e-12 * np.exp(2 * r)


@pytest.mark.parametrize("r", [0.0, 2.0, 5.0, 8.0])
def test_single_mode_normal_block_errs_by_eps_e2r(r, rng):
    """The block `_mode_normal` returns for S M S^T is nu I to a few
    eps e^(2r) nu, the rounding S carries as doubles, where forming
    S M S^T from S and M would cancel from e^(4r) nu.  nu is the 50-digit
    value on the block's doubles; above r = 8 their own rounding, eps
    e^(4r) relative, takes det M."""
    for _ in range(20):
        block = _squeezed_block(r, rng)
        with mp.workdps(50):
            a, b, d = (mp.mpf(float(v)) for v in (block[0, 0], block[0, 1], block[1, 1]))
            nu = float(mp.sqrt(a * d - b * b))
        normal = np.array(_mode_normal(block[0, 0], block[0, 1], block[1, 1], "refused")[1])
        assert np.max(np.abs(normal - nu * np.eye(2))) <= 4 * EPS * np.exp(2 * r) * nu


def test_mode_normaliser_is_bounded_on_the_most_squeezed_blocks():
    """Every entry of S stays below 1e128 on the most squeezed mode blocks
    doubles allow: a up to the squarable 1.34e154, d down to the least
    subnormal, b at and next to sqrt(a d).  det M is then at least the
    spacing of a d - b^2, so the products |S| |block| stay below 3e282 and
    the rounding a two-mode reduction inherits is finite or inf, never nan."""
    largest = 0.0
    for a in (1.34e154, 1e100, 1.0):
        for d in (5e-324, 1e-310, 1e-300, 1e-150, 1.0):
            for rel in (0.0, 0.5, 1 - 2.0 ** -52, 1.0):
                b = math.sqrt(a) * math.sqrt(d) * rel
                for b in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)):
                    try:
                        s, _ = _mode_normal(a, b, d, "refused")
                    except PatternMismatchError:
                        continue
                    largest = max(largest, *(abs(v) for row in s for v in row))
    assert 1e120 < largest < 1e128


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


# ------------------------------------------- accuracy against 50 digits

def _mp_two_mode(gamma: CovMatrix) -> tuple:
    """(a, b, c1, c2) of gamma's doubles at 50 digits, from local invariants
    and no reduction: a, b = sqrt(det A), sqrt(det B); c1 c2 = -det C and
    c1^2 + c2^2 = tr(adj A C adj B C^T) / (a b), c1 >= |c2|."""
    with mp.workdps(50):
        (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (*_, b11) = (
            [mp.mpf(v) for v in row] for row in gamma.mat.tolist())
        a, b = mp.sqrt(a00 * a11 - a01 * a01), mp.sqrt(b00 * b11 - b01 * b01)
        # adj A C = [[p, q], [r, t]], times adj B and C^T, traced
        p, q = a11 * c00 - a01 * c10, a11 * c01 - a01 * c11
        r, t = a00 * c10 - a01 * c00, a00 * c11 - a01 * c01
        norm2 = ((p * b11 - q * b01) * c00 + (q * b00 - p * b01) * c01
                 + (r * b11 - t * b01) * c10 + (t * b00 - r * b01) * c11) / (a * b)
        det_c = c00 * c11 - c01 * c10
        c1 = (mp.sqrt(norm2 + 2 * abs(det_c)) + mp.sqrt(max(norm2 - 2 * abs(det_c), 0))) / 2
        return a, b, c1, -det_c / c1 if c1 else mp.mpf(0)


def _mp_werner_wolf(gamma: CovMatrix) -> tuple:
    """(A..F) of a Werner-Wolf-pattern CM's doubles at 50 digits: the
    least-squares log squeezes of the pattern rows, then the averaged
    entries."""
    with mp.workdps(50):
        m = mp.matrix(gamma.mat.tolist())
        x, p = [m[i, i] for i in (0, 2, 4, 6)], [m[i, i] for i in (1, 3, 5, 7)]
        e, f = (m[0, 4], -m[2, 6]), (-m[1, 7], -m[3, 5])
        rows = [((1, 0), mp.log(x[1] / x[0])), ((-1, 0), mp.log(p[1] / p[0])),
                ((0, 1), mp.log(x[3] / x[2])), ((0, -1), mp.log(p[3] / p[2]))]
        if e[0]:
            rows.append(((1, 1), 2 * mp.log(abs(e[1] / e[0]))))
        if f[0]:
            rows.append(((-1, 1), 2 * mp.log(abs(f[1] / f[0]))))
        a = mp.matrix([r for r, _ in rows])
        delta = mp.lu_solve(a.T * a, a.T * mp.matrix([v for _, v in rows]))
        sq = [mp.exp(u / 4) for u in (delta[0], -delta[0], delta[1], -delta[1])]
        d = [v for s in sq for v in (s, 1 / s)]
        m2 = [[d[i] * m[i, j] * d[j] for j in range(8)] for i in range(8)]
        return ((m2[0][0] + m2[2][2]) / 2, (m2[1][1] + m2[3][3]) / 2,
                (m2[4][4] + m2[6][6]) / 2, (m2[5][5] + m2[7][7]) / 2,
                (m2[0][4] - m2[2][6]) / 2, -(m2[1][7] + m2[3][5]) / 2)


def _reduction_error(gamma: CovMatrix, family: Family) -> float:
    """Largest |form entry - its 50-digit value| in eps * rounding_scale."""
    form, _ = reduce_to_standard_form(gamma, family)
    if family is Family.TWO_MODE:
        got, exact = (*form.x, form.p[2]), _mp_two_mode(gamma)
    else:
        got, exact = form.params, _mp_werner_wolf(gamma)
    return max(float(abs(v - w)) for v, w in zip(got, exact)) / (EPS * form.rounding_scale)


def test_reduction_matches_a_50_digit_reduction():
    """Every form entry lies within 8 eps rounding_scale (the certificate's
    2 eps per dimension) of a 50-digit reduction of the same doubles, with
    no refusal: the dressed ensemble (300 forms at |lhs| > 1e-6, each mode
    dressed by a rotation-squeeze-rotation at |r| <= 5 and <= 8), the TMSV
    ladder r = 0.1 i, i = 0..95, whose forms come back exactly, and
    Werner-Wolf forms per-mode squeezed to |u| <= 3."""
    for r_max in (5, 8):
        for gamma in dressed_ensemble(r_max, 300):
            assert _reduction_error(gamma, Family.TWO_MODE) <= 8
    for i in range(96):
        form = tmsv_form(0.1 * i)
        assert reduce_to_standard_form(form.to_cm(), Family.TWO_MODE)[0] == form
    rng = np.random.default_rng(3)
    for _ in range(100):
        form = WernerWolfForm(*rng.uniform(0.8, 1.5, 4), *rng.uniform(-0.4, 0.4, 2))
        squeeze = np.exp(np.kron(rng.uniform(-3, 3, 4), [0.5, -0.5]))
        assert _reduction_error(CovMatrix(squeeze[:, None] * form.to_cm().mat * squeeze),
                                Family.WERNER_WOLF) <= 8


@pytest.mark.parametrize("family", [Family.TWO_MODE, Family.WERNER_WOLF])
def test_rounding_scale_is_that_of_abs_s_gamma_abs_s(family, rng):
    """The rounding a reduced form keeps is the largest entry of
    |S| |gamma| |S|^T, formed from the arrays, to a few eps."""
    for _ in range(20):
        if family is Family.TWO_MODE:
            gamma = dress(sample_standard_form(rng), rng.uniform(-4, 4, 2), rng.uniform(0, 6, 4))
        else:
            order = _SWAPS["swap-a"] if rng.uniform() < 0.5 else tuple(range(8))
            squeeze = np.exp(np.kron(rng.uniform(-3, 3, 4), [0.5, -0.5]))
            mat = squeeze[:, None] * _ww_family_cm(rng).mat * squeeze
            gamma = CovMatrix(mat[np.ix_(order, order)])
        form, s = reduce_to_standard_form(gamma, family)
        own = max(map(abs, form.params))
        want = max(own, float((abs(s) @ abs(gamma.mat) @ abs(s).T).max()))
        assert abs(form.rounding_scale - want) <= 4 * EPS * want


def test_reduction_calls_no_linear_algebra(monkeypatch):
    """Both reductions and the local normal form run without `np.linalg`."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")
    for name in ("det", "svd", "lstsq", "eig", "eigh", "eigvals", "eigvalsh", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    reduce_to_standard_form(_dressed_two_mode(np.random.default_rng(0)), Family.TWO_MODE)
    reduce_to_standard_form(_ww_family_cm(np.random.default_rng(0)), Family.WERNER_WOLF)
    local_normal_form(_dressed_two_mode(np.random.default_rng(1)))


# ------------------------------------------------- within-party relabelling

_SWAPS = {"swap-a": (2, 3, 0, 1, 4, 5, 6, 7), "swap-b": (0, 1, 2, 3, 6, 7, 4, 5),
          "swap-both": (2, 3, 0, 1, 6, 7, 4, 5)}


@settings(max_examples=100)
@given(st.tuples(*[st.floats(0.8, 1.5)] * 4), st.tuples(*[st.floats(-0.4, 0.4)] * 2),
       st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.sampled_from(sorted(_SWAPS)))
def test_ww_reduction_is_kept_under_within_party_reordering(abcd, ef, us, swap):
    """A Werner-Wolf-pattern state, per-mode squeezed, with the two modes of
    party A, of party B or of both swapped, reduces by a local symplectic
    that folds in the relabelling, to a form whose entries equal the given
    order's up to the sign of E and F and within rounding, and keeps its
    verdict."""
    squeeze = np.exp(np.kron(us, [0.5, -0.5]))
    mat = squeeze[:, None] * WernerWolfForm(*abcd, *ef).to_cm().mat * squeeze
    gamma = CovMatrix(mat)
    assume(validate_cm(gamma).is_physical)
    order = _SWAPS[swap]
    swapped = CovMatrix(mat[np.ix_(order, order)])
    form, _ = reduce_to_standard_form(gamma, Family.WERNER_WOLF)
    form2, s2 = reduce_to_standard_form(swapped, Family.WERNER_WOLF)
    assert_local_symplectic(s2, swapped, form2, n_modes_a=2)
    scale = 8 * EPS * max(form.rounding_scale, form2.rounding_scale)
    assert np.allclose(np.abs(form.params), np.abs(form2.params), rtol=0, atol=scale)
    assert decide_separability(swapped).verdict is decide_separability(gamma).verdict


# ------------------------------------------------------- degenerate inputs

_DEGENERATE = {
    "product": TwoModeStandardForm(1.2, 0.9, 0.0, 0.0),
    "rank-one-cross": TwoModeStandardForm(1.2, 0.9, 0.5, 0.0),
    "vacuum": TwoModeStandardForm(0.5, 0.5, 0.0, 0.0),
    "equal-correlations": TwoModeStandardForm(1.2, 0.9, 0.4, 0.4),
    "opposite-correlations": TwoModeStandardForm(1.2, 0.9, 0.4, -0.4),
    "ww-no-e": WernerWolfForm(1.1, 1.2, 1.3, 1.4, 0.0, 0.3),
    "ww-no-f": WernerWolfForm(1.1, 1.2, 1.3, 1.4, 0.3, 0.0),
    "ww-product": WernerWolfForm(1.1, 1.2, 1.3, 1.4, 0.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE))
@pytest.mark.parametrize("dressed", [False, True])
def test_degenerate_forms_reduce_to_themselves(name, dressed):
    """Zero or rank-one cross blocks, equal or opposite correlations (equal
    singular values of the cross block) and Werner-Wolf forms with E or F
    at 0 reduce, undressed and locally dressed, to the form within
    rounding, and the decision and the witness report on them."""
    form = _DEGENERATE[name]
    gamma = form.to_cm()
    if dressed and form.family is Family.TWO_MODE:
        gamma = dress(gamma, (0.7, -0.4), (0.3, 1.2, 2.0, 0.4))
    elif dressed:
        # a Werner-Wolf pattern takes squeezes, not rotations; the form is
        # kept by opposite squeezes within each party
        gamma = dress(gamma, (0.7, -0.7, 0.3, -0.3), (0.0,) * 8)
    reduced, s = reduce_to_standard_form(gamma, form.family)
    assert_local_symplectic(s, gamma, reduced, n_modes_a=form.family.n_modes_a)
    assert np.allclose(reduced.params, form.params, rtol=0, atol=1e-12)
    decide_separability(gamma)
    minmax_optimize(gamma)


@pytest.mark.parametrize("mat", [
    np.diag([2.4e133, 1.0, 1.0, -2e-143]),
    np.diag([1.0, 1.0, 0.0, 1.0]),
    np.diag([1e-162, 1e-162, 1.0, 1.0]),
    1e160 * np.eye(4),
    np.diag([5e-324, 1e154, 1.0, 1.0, 1e154, 5e-324, 1.0, 1.0]),
], ids=["huge-non-state", "singular-block", "tiny-block", "overflowing-scale", "extreme-ww"])
def test_extreme_inputs_reduce_or_raise_a_typed_error(mat):
    """No input makes the closed forms raise a stray ValueError,
    ZeroDivisionError or OverflowError from `math` or a division."""
    gamma = CovMatrix(mat)
    for call in (lambda: reduce_to_standard_form(gamma, detect_family(gamma)),
                 lambda: local_normal_form(gamma)):
        try:
            call()
        except CvWitnessError:
            pass
