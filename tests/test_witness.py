import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.optimize as opt
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvwitness import witness
from cvwitness.criteria import (WWFamilyParams, ppt_decide, simon_lhs,
                                werner_wolf_family, werner_wolf_lhs)
from cvwitness.exceptions import (ConstraintViolatedError,
                                  NonPositiveDeterminantError)
from cvwitness.standard_form import (Family, QuadratureForm,
                                     TwoModeStandardForm, WernerWolfForm,
                                     detect_family, reduce_to_standard_form)
from cvwitness.symplectic import CovMatrix
from cvwitness.witness import (DetectorSpec, _abs_triples, _cone_lambda,
                               _cone_ratio, _min_det_factors,
                               lambda_closed_form, minmax_optimize)

from conftest import (ell_ratio, nelder_mead_limit, sample_standard_form,
                      sample_two_mode_detector, sample_ww_detector, tmsv_form)

PROPERTY = settings(max_examples=40)


def test_lambda_vacuum_detector():
    d = DetectorSpec(Family.TWO_MODE, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0)
    lam, (x, y) = lambda_closed_form(d)
    assert abs(lam - 1.0) < 1e-12
    assert abs(x - 1.0) < 1e-8 and abs(y - 1.0) < 1e-8


def test_lambda_tmsv_projector():
    r = 0.5
    d = tmsv_form(r)
    lam, _ = lambda_closed_form(d)
    # best product-state overlap with a TMSV projector
    assert abs(lam - 1.0 / np.cosh(r) ** 2) < 1e-10


def test_lambda_thermal_product():
    nbar = 1.0
    d = DetectorSpec(Family.TWO_MODE, *(nbar + 0.5,) * 4, 0.0, 0.0)
    lam, _ = lambda_closed_form(d)
    # vacuum maximizes each thermal factor: (1/(nbar+1))^2
    assert abs(lam - 0.25) < 1e-12


def test_minmax_tmsv_limit_is_exponential():
    for r in (0.2, 0.5):
        rep = minmax_optimize(tmsv_form(r).to_cm())
        assert rep.entangled
        assert abs(rep.ell_limit - np.exp(-2 * r)) < 1e-6
        # the finite-scale audit approaches the limit from above
        ratios = [e for _, e in rep.scaling_audit]
        assert ratios[0] > ratios[1] > ratios[2]


def test_minmax_vacuum_product_is_boundary():
    rep = minmax_optimize(CovMatrix(np.eye(4) / 2))
    assert rep.boundary
    assert not rep.entangled


def test_minmax_thermal_product_separable():
    rep = minmax_optimize(CovMatrix(np.eye(4) * 1.5))
    assert not rep.entangled and not rep.boundary
    assert rep.ell_limit > 1


def test_minmax_ww_bound_entangled():
    form = werner_wolf_family(WWFamilyParams(1.0, 1.0, 2.0, 3.0, 1.0))
    gamma = form.to_cm()
    rep = minmax_optimize(gamma)
    assert ppt_decide(gamma).is_ppt
    assert rep.entangled
    assert rep.ell_limit < 1


def test_matched_witness_violation():
    gamma = tmsv_form(0.5).to_cm()
    rep = minmax_optimize(gamma)
    # witness mean Lambda - Tr(rho M*) is negative on an entangled state
    trace = 1.0 / np.sqrt(np.linalg.det(gamma.mat + rep.matched_params.to_cm().mat))
    assert abs(rep.trace_mean - trace) < 1e-12
    assert rep.trace_mean > rep.lam


def test_determinism_same_seed(rng):
    gamma = sample_standard_form(rng).to_cm()
    r1 = minmax_optimize(gamma)
    r2 = minmax_optimize(gamma)
    assert r1.ell_limit == r2.ell_limit
    assert r1.matched_params.params == r2.matched_params.params
    assert r1.diagnostics == r2.diagnostics


# ------------------------------------------------ closed-form witness min-max

def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def two_mode_forms(draw):
    f = TwoModeStandardForm(draw(_unit(0.5, 2.0)), draw(_unit(0.5, 2.0)),
                            draw(_unit(-1.0, 1.0)), draw(_unit(-1.0, 1.0)))
    assume(f.to_cm().is_physical())
    return f


@st.composite
def ww_forms(draw):
    """Werner-Wolf family points (bound entangled) and random pattern forms."""
    if draw(st.booleans()):
        try:
            return werner_wolf_family(WWFamilyParams(
                *(draw(_unit(0.2, 3.0)) for _ in range(5))))
        except ConstraintViolatedError:
            assume(False)
    f = WernerWolfForm(*(draw(_unit(0.5, 1.5)) for _ in range(4)),
                       draw(_unit(-0.5, 0.5)), draw(_unit(-0.5, 0.5)))
    assume(f.to_cm().is_physical())
    return f


def _check_against_oracle(form, power):
    ell_limit = minmax_optimize(form.to_cm()).ell_limit
    oracle = nelder_mead_limit(form) ** power
    assert ell_limit <= oracle * (1 + 1e-10)
    assert abs(ell_limit - oracle) <= 1e-9 * oracle


@PROPERTY
@given(two_mode_forms())
def test_closed_form_matches_nelder_mead_two_mode(form):
    _check_against_oracle(form, 0.5)


@PROPERTY
@given(ww_forms())
def test_closed_form_matches_nelder_mead_ww(form):
    _check_against_oracle(form, 1.0)


@PROPERTY
@given(st.one_of(two_mode_forms(), ww_forms()))
def test_ell_limit_sign_matches_criterion(form):
    lhs = (simon_lhs(form) if form.family is Family.TWO_MODE
           else werner_wolf_lhs(form))
    assume(abs(lhs) > 1e-6)
    rep = minmax_optimize(form.to_cm())
    assert np.sign(rep.ell_limit - 1) == np.sign(lhs)


def _check_cone_closed_form(form, family, power, lw1, lw2, t):
    w1, w2 = math.exp(lw1), math.exp(lw2)
    (_, _, c5), (_, _, c6) = form.x, form.p
    d = DetectorSpec(family, w1, w2, 1 / w1, 1 / w2,
                     np.sign(c5) or 1.0, np.sign(c6) or 1.0).scaled(t)
    lam, (x, y) = _cone_lambda(w1, w2, t, power)
    assert abs(lam / lambda_closed_form(d)[0] - 1) <= 1e-10
    assert abs(_g1g2(d, x, y) ** -power / lam - 1) <= 1e-10   # the argmin
    ell = _cone_ratio(_abs_triples(form), w1, w2, t)[0] ** power
    assert abs(ell / ell_ratio(form.to_cm(), d) - 1) <= 1e-10


_CONE_SCALE = st.sampled_from([1.0, 1e2, 1e4])


@PROPERTY
@given(two_mode_forms(), _unit(-3, 3), _unit(-3, 3), _CONE_SCALE)
def test_cone_closed_form_matches_oracles_two_mode(form, lw1, lw2, t):
    """On cone detectors, Lambda and ell in closed form match the generic
    solve `_min_det_factors` and the determinant oracle `ell_ratio`."""
    _check_cone_closed_form(form, Family.TWO_MODE, 0.5, lw1, lw2, t)


@PROPERTY
@given(ww_forms(), _unit(-3, 3), _unit(-3, 3), _CONE_SCALE)
def test_cone_closed_form_matches_oracles_ww(form, lw1, lw2, t):
    _check_cone_closed_form(form, Family.WERNER_WOLF, 1.0, lw1, lw2, t)


_PATH_FORMS = [
    (tmsv_form(0.5), "root"),
    (TwoModeStandardForm(1.2, 0.8, 0.0, 0.0), "product"),
    # |c2| = 1e-12 puts the root at x ~ 1e12, where it does not beat the
    # x -> inf edge limit 4 b (b - c2^2 / a) by more than rounding
    (TwoModeStandardForm(2.0, 1.0, 0.0, 1e-12), "edge"),
    # |c1| = 1e-7: the y -> 0 edge limit 4 a (a - c1^2 / b) is the least by a
    # few ulps, and the root does not beat it by more than rounding
    (TwoModeStandardForm(0.6, 1.5, 1e-7, 0.0), "edge"),
]
_WW_PATH_FORMS = [
    (werner_wolf_family(WWFamilyParams(1.0, 1.0, 2.0, 3.0, 1.0)), "root"),
    (WernerWolfForm(0.7, 0.7, 1.9, 1.9, 0.0, 0.0), "product"),
    (WernerWolfForm(2.0, 2.0, 1.0, 1.0, 1e-12, 0.0), "edge"),
    (WernerWolfForm(0.6, 0.6, 1.5, 1.5, 1e-7, 0.0), "edge"),
]


@pytest.mark.parametrize("a, b", [(0.7, 1.9), (2.5, 0.6)])
def test_product_form_limit(a, b):
    rep = minmax_optimize(TwoModeStandardForm(a, b, 0.0, 0.0).to_cm())
    assert rep.diagnostics["path"] == "product"
    assert abs(rep.ell_limit - 2 * min(a, b)) <= 1e-12
    # the finite direction on the winning edge, (eps, eps) for a < b and
    # (1/eps, 1/eps) otherwise, eps = 1e-2; it matches ell to ell_limit
    assert rep.matched_params.params[:2] == ((1e2, 1e2) if a < b else (1e6, 1e6))
    assert abs(rep.ell / rep.ell_limit - 1) <= 1e-3


@pytest.mark.parametrize("form, path", _PATH_FORMS)
def test_diagnostics_path(form, path):
    rep = minmax_optimize(form.to_cm())
    assert rep.diagnostics["path"] == path
    assert rep.ell_limit > 0 and math.isfinite(rep.ell)


def test_edge_limit_value():
    rep = minmax_optimize(TwoModeStandardForm(2.0, 1.0, 0.0, 1e-12).to_cm())
    # x -> inf edge: 4 b1 (b2 - c2^2 / a2) = 4, so ell_limit = 2
    assert abs(rep.ell_limit - 2.0) <= 1e-12
    assert abs(rep.ell / rep.ell_limit - 1) <= 1e-3


def test_integer_form_takes_same_path():
    """An integer-valued form reaches the same min-max path as its float twin."""
    paths = [minmax_optimize(TwoModeStandardForm(*p).to_cm()).diagnostics["path"]
             for p in ((2, 1, 0, 1e-12), (2.0, 1.0, 0.0, 1e-12))]
    assert paths == ["edge", "edge"]


@pytest.mark.parametrize("form, path", _PATH_FORMS + _WW_PATH_FORMS)
def test_minmax_forms_no_determinant(form, path, monkeypatch):
    """Past the standard-form reduction (whose single-mode normalization
    takes 2x2 determinants, and which is stubbed here), the witness forms no
    determinant and runs no generic `_min_det_factors` solve on any path, and
    the finite matched detector reproduces the limit."""
    gamma = form.to_cm()
    reduced = reduce_to_standard_form(gamma, detect_family(gamma))

    def boom(*args, **kwargs):
        raise AssertionError("determinant on the witness path")

    monkeypatch.setattr(witness, "reduce_to_standard_form", lambda g, f: reduced)
    monkeypatch.setattr(witness, "_min_det_factors", boom)
    monkeypatch.setattr(np.linalg, "det", boom)
    rep = minmax_optimize(gamma)
    assert rep.diagnostics["path"] == path
    assert abs(rep.ell / rep.ell_limit - 1) <= 1e-3


def test_ell_rel_err_diagnostic():
    """The rounding bound flags the TMSV rungs where d_i = a_i b_i - c_i^2
    cancels (r = 8.3) and stays at rounding level at moderate squeezing."""
    assert minmax_optimize(tmsv_form(8.3).to_cm()).diagnostics["ell_rel_err"] > 1e-3
    assert minmax_optimize(tmsv_form(0.5).to_cm()).diagnostics["ell_rel_err"] < 1e-13


def test_tmsv_ell_matches_50_digit_reference():
    """ell for TMSV r = 3 against a 50-digit evaluation of its definition on
    the same standard form and matched detector: det(gamma + gamma_M) by
    mpmath and min G1 G2 / (x y) by mpmath's Newton on the gradient."""
    gamma = tmsv_form(3.0).to_cm()
    rep = minmax_optimize(gamma)
    form, _ = reduce_to_standard_form(gamma, Family.TWO_MODE)
    with mpmath.workdps(50):
        m1, m2, m3, m4, m5, m6 = (mpmath.mpf(float(p))
                                  for p in rep.matched_params.params)
        half = mpmath.mpf(1) / 2

        def factors(x, y):
            return ((m1 + x / 2) * (m3 + y / 2) - m5 ** 2,
                    (m2 * x + half) * (m4 * y + half) - m6 ** 2 * x * y)

        def grad(x, y):   # of log(G1 G2 / (x y))
            g1, g2 = factors(x, y)
            return [(m3 + y / 2) / (2 * g1)
                    + (m2 * (m4 * y + half) - m6 ** 2 * y) / g2 - 1 / x,
                    (m1 + x / 2) / (2 * g1)
                    + (m4 * (m2 * x + half) - m6 ** 2 * x) / g2 - 1 / y]

        x, y = mpmath.findroot(grad, tuple(map(mpmath.mpf, rep.argmax_xy)))
        g1, g2 = factors(x, y)
        det = mpmath.det(mpmath.matrix(form.to_cm().mat.tolist())
                         + mpmath.matrix(rep.matched_params.to_cm().mat.tolist()))
        ref = mpmath.sqrt(det * x * y / (g1 * g2))
        assert abs(rep.ell / ref - 1) <= 1e-12


# ---------------------------------------------- determinant-factor minimum

def _g1g2(d: QuadratureForm, x: float, y: float) -> float:
    """g1 g2 = G1 G2 / (x y) from the factored determinant."""
    m1, m2, m3, m4, m5, m6 = d.params
    return (((m1 + x / 2) * (m3 + y / 2) - m5 ** 2)
            * ((m2 * x + 0.5) * (m4 * y + 0.5) - m6 ** 2 * x * y) / (x * y))


def _min_det_reference(d: QuadratureForm) -> float:
    """Independent reference: eliminate x in closed form (the product is
    (alpha + beta x)(gamma + delta / x) at fixed y, minimized at
    x = sqrt(alpha delta / (beta gamma))) and minimize over log y by Brent."""
    m1, m2, m3, m4, m5, m6 = d.params

    def reduced(v):
        y = np.exp(v)
        u, w = m3 + y / 2, m4 + 1 / (2 * y)
        alpha, beta, gam, delta = m1 * u - m5 ** 2, u / 2, m2 * w - m6 ** 2, w / 2
        x = np.sqrt(alpha * delta / (beta * gam))
        return (alpha + beta * x) * (gam + delta / x)

    grid = np.linspace(-15, 15, 301)
    v0 = grid[np.argmin([reduced(v) for v in grid])]
    return opt.minimize_scalar(reduced, bracket=(v0 - 0.1, v0, v0 + 0.1),
                               tol=1e-14).fun


@st.composite
def detectors(draw):
    """Random physical two-mode and Werner-Wolf detectors, off the cone, at
    scale 1, 1e2 or 1e4."""
    sampler = draw(st.sampled_from([sample_two_mode_detector,
                                    sample_ww_detector]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return sampler(rng).scaled(draw(_CONE_SCALE))


@PROPERTY
@given(detectors())
def test_min_det_factors_matches_reference(d):
    val, exp2, (x, y) = _min_det_factors(d)
    assert exp2 == 0   # the value is representable, so it is carried whole
    ref = _min_det_reference(d)
    assert abs(val - ref) <= 1e-10 * ref
    assert abs(_g1g2(d, x, y) / val - 1) <= 1e-12   # the value is at (x, y)


def test_min_det_factors_scaled_cone_detectors(rng):
    """Scale-1e4 detectors on the degenerate cone, as built by the matched
    witness and its scaling audit, are accepted, and the minimum matches the
    reference to 1e-10."""
    for family in Family:
        for _ in range(4):
            w1, w2 = np.exp(rng.uniform(-2, 2, 2))
            s5, s6 = rng.choice([-1.0, 1.0], 2)
            d = DetectorSpec(family, w1, w2, 1 / w1, 1 / w2, s5, s6).scaled(1e4)
            val, _, _ = _min_det_factors(d)
            ref = _min_det_reference(d)
            assert abs(val - ref) <= 1e-10 * ref


@pytest.mark.parametrize("params", [
    (1e-3, 1, 1e-3, 1, 1.1e-3, 0),   # positive on a 13 x 13 log grid
    (1, 1, 1, 1, math.sqrt(1 + 1e-6), 0),
    (1, 1, 1, 1, 0, math.sqrt(1 + 1e-6)),
    (-1, 1, -1, 1, 0, 0),   # m1 m3 - m5^2 > 0, but negative definite
    (math.nan, 1, 1, 1, 0, 0),
    (1, math.inf, 1, 1, 0, 0),
    (1, 1, 1, 1, -math.inf, 0),
    (1, 1, 1, 1, 1e200, 0),   # m5^2 overflows
    (1e200, 1, 1e200, 1, 0, 0),   # m1 m3 overflows
    (1, 1, 1, 1, 0, 1e200),   # m6^2 overflows
    (1, 1e200, 1, 1e200, 0, 0),   # m2 m4 overflows
    # valid blocks, but x* = 1e300 and y* = 1e-300: the search leaves
    # double precision
    (1e300, 1e-300, 1e-300, 1e300, 0, 0),
])
def test_lambda_refuses_non_psd_block(params):
    """A detector block [[m1, m5], [m5, m3]] or [[m2, m6], [m6, m4]] that is
    not positive semidefinite, or a non-finite parameter or block product,
    is refused."""
    for family in Family:
        with pytest.raises(NonPositiveDeterminantError):
            lambda_closed_form(DetectorSpec(family, *params))


def test_lambda_refuses_underflow():
    """At m1..m4 = 1e154 the two-mode Lambda is about 1e-308; the four-mode
    one is its square, which underflows to 0 and is refused."""
    m = (1e154, 1e154, 1e154, 1e154, 0, 0)
    lam, _ = lambda_closed_form(DetectorSpec(Family.TWO_MODE, *m))
    assert abs(lam / 1e-308 - 1) <= 1e-12
    with pytest.raises(NonPositiveDeterminantError, match="underflows"):
        lambda_closed_form(DetectorSpec(Family.WERNER_WOLF, *m))


def _lambda_product_detector(m1, m2, m3, m4):
    """Lambda of a two-mode detector with m5 = m6 = 0: min g1 g2 separates
    into (sqrt(m1 m2) + 1/2)^2 (sqrt(m3 m4) + 1/2)^2."""
    return 1 / ((math.sqrt(m1 * m2) + 0.5) * (math.sqrt(m3 * m4) + 0.5))


def test_lambda_representable_at_extreme_scales():
    """Lambda is returned wherever it is representable, though alpha1 alpha2,
    x y* or min g1 g2 leave double precision inside the search, and whether
    the parameters are Python floats or numpy scalars, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # min g1 g2 ~ 1e300 and 2.5e299: their Lambda ~ 1e-150 and 2e-150
        for m in [(1e150, 1, 1e150, 1), (1e300, 1, 1e-300, 1)]:
            ref = _lambda_product_detector(*m)
            for family, power in ((Family.TWO_MODE, 1), (Family.WERNER_WOLF, 2)):
                lam, _ = lambda_closed_form(DetectorSpec(family, *m, 0, 0))
                assert abs(lam / ref ** power - 1) <= 1e-12
        rng = np.random.default_rng(2024)
        for m in 10.0 ** rng.uniform(-150, 150, size=(2000, 4)):
            ref = _lambda_product_detector(*map(float, m))
            for params in ([*map(float, m), 0.0, 0.0], [*m, np.float64(0), np.float64(0)]):
                lam, _ = lambda_closed_form(DetectorSpec(Family.TWO_MODE, *params))
                assert abs(lam / ref - 1) <= 1e-12


@pytest.mark.parametrize("w1, w2, block", [(1.0, 1e15, 5), (1e15, 1.0, 6)])
def test_lambda_inside_block_tolerance(w1, w2, block):
    """m5^2 = m1 m3 (m6^2 = m2 m4) exceeded by 1e-13 relative is taken as the
    cone.  The minimum lies at |log x| = 17.3, so the bracket reaches
    |log x| = 32, where rounding leaves alpha1 (beta2) non-positive."""
    for family, power in ((Family.TWO_MODE, 0.5), (Family.WERNER_WOLF, 1.0)):
        m = [w1, w2, 1 / w1, 1 / w2, 1.0, 1.0]
        m[block - 1] = math.sqrt(1 + 1e-13)
        lam, _ = lambda_closed_form(DetectorSpec(family, *m))
        assert abs(lam / _cone_lambda(w1, w2, 1.0, power)[0] - 1) <= 1e-12
