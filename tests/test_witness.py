import json
import math
import re
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.optimize as opt
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvwitness import symplectic, witness
from cvwitness.criteria import (Verdict, WWFamilyParams, certificate_min_eig,
                                decide_separability, ppt_decide,
                                simon_lhs, werner_wolf_family, werner_wolf_lhs)
from cvwitness.exceptions import (ConstraintViolatedError, CvWitnessError,
                                  NonPositiveDeterminantError,
                                  PatternMismatchError, ScaleOverflowError)
from cvwitness.standard_form import (Family, QuadratureForm,
                                     TwoModeStandardForm, WernerWolfForm,
                                     detect_family, reduce_to_standard_form)
from cvwitness.symplectic import CovMatrix
from cvwitness.witness import (AUDIT_SCALES, DetectorSpec, _abs_triples, _cone_lambda,
                               _cone_ratio, _limit_argmin, _min_det_factors,
                               lambda_closed_form, minmax_optimize)

from conftest import (dressed_ensemble, ell_ratio, exact_simon_lhs, near_boundary_ensemble,
                      nelder_mead_limit, sample_standard_form, sample_two_mode_detector,
                      sample_ww_detector, symplectic_eigenvalues, tmsv_form)

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
    ell = _cone_ratio(_abs_triples(form), w1, w2, (t,))[0][0] ** power
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


def _ratio_reference(triples, w1, w2, t):
    """16 (t n1 + d1)(t n2 + d2) / (1 + 2 t s)^2 / t^2, `_cone_ratio`'s
    formula, at 50 digits on the given doubles; t = inf is the limit."""
    (a1, b1, c1), (a2, b2, c2) = ([mpmath.mpf(v) for v in tr] for tr in triples)
    w1, w2 = mpmath.mpf(w1), mpmath.mpf(w2)
    u = mpmath.sqrt(w1) * mpmath.sqrt(w2)
    inv_t = 0 if t == math.inf else 1 / mpmath.mpf(t)
    f1 = w1 * b1 + a1 / w1 - 2 * c1 + (a1 * b1 - c1 * c1) * inv_t
    f2 = w2 * b2 + a2 / w2 - 2 * c2 + (a2 * b2 - c2 * c2) * inv_t
    return 16 * f1 * f2 / (2 * (u + 1 / u) + inv_t) ** 2


def _edge_reference(triples):
    """4 a (b - c^2/d) of the edge `_limit_argmin` takes, the first least of
    the four in doubles, at 50 digits on the given doubles."""
    (a1, b1, c1), (a2, b2, c2) = triples
    edges = ((a1, a2, c2, b2), (b1, b2, c2, a2), (a2, a1, c1, b1), (b2, b1, c1, a1))
    values = [a * (b - c * c / d) for a, b, c, d in edges]
    a, b, c, d = map(mpmath.mpf, edges[values.index(min(values))])
    return 4 * a * (b - c * c / d)


def test_rel_err_bounds_the_rounding_of_ell_and_its_limit():
    """`ell_rel_err` and `ell_limit_rel_err` hold the relative error of ell
    and ell_limit against a 50-digit evaluation of the same formulas on the
    standard form's doubles and the chosen direction, on every form, and are
    within 100x of it at the median: 300 random forms per family, the
    dressed ensemble at r_max = 8, TMSV rungs 0-95, 200 near-boundary forms,
    the path forms, and 120 random forms with no or one tiny correlation,
    most of which take the product or an edge path.  Here the largest error
    over bound is 0.39 and the median 0.052; the larger factor's condition
    term alone, the bound before, fell short by up to 2.5x on these sets."""
    rng = np.random.default_rng(34)
    states = [sample_standard_form(rng).to_cm() for _ in range(300)]
    states += [sample_ww_detector(rng).to_cm() for _ in range(300)]
    states += list(dressed_ensemble(8, 100))
    states += [tmsv_form(0.1 * i).to_cm() for i in range(96)]
    states += list(near_boundary_ensemble(200))
    states += [form.to_cm() for form, _ in _PATH_FORMS + _WW_PATH_FORMS]
    for c1, c2 in [(0.0, 0.0), (1e-7, 0.0), (0.0, 1e-12)] * 40:   # product and edge paths
        states.append(TwoModeStandardForm(*rng.uniform(0.5, 2.0, 2), c1, c2).to_cm())
    ratios, paths = [], set()
    with mpmath.workdps(50):
        for gamma in states:
            family = detect_family(gamma)
            triples = _abs_triples(reduce_to_standard_form(gamma, family)[0])
            _, _, (w1, w2), path = _limit_argmin(triples)
            limit = (_ratio_reference(triples, w1, w2, math.inf) if path == "root"
                     else _edge_reference(triples))
            rep = minmax_optimize(gamma)
            paths.add(rep.diagnostics["path"])
            for value, ref, bound in (
                    (rep.ell, _ratio_reference(triples, w1, w2, AUDIT_SCALES[-1]),
                     rep.diagnostics["ell_rel_err"]),
                    (rep.ell_limit, limit, rep.diagnostics["ell_limit_rel_err"])):
                ratio = float(abs(value / ref ** family.power - 1)) / bound
                assert ratio <= 1, (gamma.mat.tolist(), value, bound)
                ratios.append(ratio)
    assert paths == {"root", "edge", "product"}
    assert np.median(ratios) >= 0.01


def test_witness_sign_follows_the_exact_criterion():
    """Where the decision's lhs lies outside its rounding and ell_limit
    outside its own bound of 1, the two have one sign, and every binary
    witness verdict has the sign of the criterion of the input's doubles,
    formed exactly: on the dressed ensemble at r_max = 8 and on 300 forms
    of the near-boundary recipe, where the witness reads Boundary on the
    entangled side when ell at t = 1e4 lies above 1 and its limit below."""
    for gamma in [*dressed_ensemble(8, 300), *near_boundary_ensemble(300)]:
        decision, rep = decide_separability(gamma), minmax_optimize(gamma)
        band = rep.ell_limit * rep.diagnostics["ell_limit_rel_err"]
        if abs(decision.lhs_value) > decision.lhs_rounding and abs(rep.ell_limit - 1) > band:
            assert (rep.ell_limit < 1) is (decision.lhs_value < 0)
        if not rep.boundary:
            assert rep.entangled is (exact_simon_lhs(gamma) < 0)


def test_witness_reads_near_boundary_3_separable():
    """The decision golden's near-boundary-3 (lhs +5e-10, decided
    Separable) has ell_limit 1 + 5e-10, far outside its bound of 2e-15, and
    reads Separable, where an absolute band of 1e-9 on ell - 1 read
    Boundary.  The vacuum product, whose ell_limit is 1 exactly, and a
    state whose ell and ell_limit straddle 1 stay Boundary
    (`test_minmax_vacuum_product_is_boundary` and
    `test_witness_is_boundary_where_its_ratios_straddle_one`)."""
    gamma = CovMatrix(json.loads((Path(__file__).parent / "data" / "golden"
                                  / "decisions-input.json").read_text())["near-boundary-3"])
    rep = minmax_optimize(gamma)
    assert abs(rep.ell_limit - 1) > rep.ell_limit * rep.diagnostics["ell_limit_rel_err"]
    assert not rep.boundary and not rep.entangled
    assert decide_separability(gamma).verdict is Verdict.SEPARABLE


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
    h, (x, y) = _min_det_factors(d)
    ref = _min_det_reference(d)
    assert abs(h * h - ref) <= 1e-10 * ref
    assert abs(_g1g2(d, x, y) / (h * h) - 1) <= 1e-12   # the value is at (x, y)


def test_min_det_factors_scaled_cone_detectors(rng):
    """Scale-1e4 detectors on the degenerate cone, as built by the matched
    witness and its scaling audit, are accepted, and the minimum matches the
    reference to 1e-10."""
    for family in Family:
        for _ in range(4):
            w1, w2 = np.exp(rng.uniform(-2, 2, 2))
            s5, s6 = rng.choice([-1.0, 1.0], 2)
            d = DetectorSpec(family, w1, w2, 1 / w1, 1 / w2, s5, s6).scaled(1e4)
            h, _ = _min_det_factors(d)
            ref = _min_det_reference(d)
            assert abs(h * h - ref) <= 1e-10 * ref


@pytest.mark.parametrize("params", [
    (1e-3, 1, 1e-3, 1, 1.1e-3, 0),   # positive on a 13 x 13 log grid
    (1, 1, 1, 1, math.sqrt(1 + 1e-6), 0),
    (1, 1, 1, 1, 0, math.sqrt(1 + 1e-6)),
    (-1, 1, -1, 1, 0, 0),   # m1 m3 - m5^2 > 0, but negative definite
    (math.nan, 1, 1, 1, 0, 0),
    (1, math.inf, 1, 1, 0, 0),
    (1, 1, 1, 1, -math.inf, 0),
    (1, 1, 1, 1, 1e200, 0),   # m5^2 overflows
    (1, 1, 1, 1, 0, 1e200),   # m6^2 overflows
    # m1 m3 and m5^2 underflow to 0, m2 m4 and m6^2 too, or m5^2 overflows,
    # but every block is past the cone by 1e-6 or more
    (1e-200, 1, 1e-200, 1, 1.1e-200, 0),
    (1, 1e-300, 1, 1e-300, 0, -1.000001e-300),
    (1e300, 1, 1e300, 1, 1.000001e300, 0),
])
def test_lambda_refuses_non_psd_block(params):
    """A detector block [[m1, m5], [m5, m3]] or [[m2, m6], [m6, m4]] that is
    not positive semidefinite, or a non-finite parameter, is refused, also
    where the block products leave double precision."""
    for family in Family:
        with pytest.raises(NonPositiveDeterminantError):
            lambda_closed_form(DetectorSpec(family, *params))


def test_lambda_refuses_underflow():
    """A Lambda below the least normal double is refused: at m1..m4 = 1e154
    the two-mode Lambda is about 1e-308 and the four-mode one its square.
    At 6e153 the two-mode one, 2.8e-308, is returned."""
    for family in Family:
        with pytest.raises(NonPositiveDeterminantError, match="underflows"):
            lambda_closed_form(DetectorSpec(family, *(1e154,) * 4, 0, 0))
    lam, _ = lambda_closed_form(DetectorSpec(Family.TWO_MODE, *(6e153,) * 4, 0, 0))
    assert abs(lam / _lambda_product_detector(*(6e153,) * 4) - 1) <= 1e-12


def _lambda_product_detector(m1, m2, m3, m4):
    """Lambda of a two-mode detector with m5 = m6 = 0: min g1 g2 separates
    into (sqrt(m1 m2) + 1/2)^2 (sqrt(m3 m4) + 1/2)^2."""
    return 1 / ((math.sqrt(m1 * m2) + 0.5) * (math.sqrt(m3 * m4) + 0.5))


def test_lambda_representable_at_extreme_scales():
    """Lambda is returned wherever it is representable, though the block
    products, x y* or min g1 g2 leave double precision, and whether the
    parameters are Python floats or numpy scalars, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # min g1 g2 ~ 1e300 and 2.5e299: their Lambda ~ 1e-150 and 2e-150;
        # x* = 1e300, y* = 1e-300 for Lambda = 4/9; Lambda ~ 4 on the last
        for m in [(1e150, 1, 1e150, 1), (1e300, 1, 1e-300, 1),
                  (1e300, 1e-300, 1e-300, 1e300), (1e-299, 1e284, 1e-121, 1e-112)]:
            ref = _lambda_product_detector(*m)
            for family, power in ((Family.TWO_MODE, 1), (Family.WERNER_WOLF, 2)):
                lam, _ = lambda_closed_form(DetectorSpec(family, *m, 0, 0))
                assert abs(lam / ref ** power - 1) <= 1e-12
        assert abs(lambda_closed_form(DetectorSpec(
            Family.TWO_MODE, 1e300, 1e-300, 1e-300, 1e300, 0, 0))[0] - 4 / 9) <= 1e-15
        # m1 m3 (m2 m4) overflows: Lambda = 1e-200 for two modes; its
        # four-mode square underflows and is refused
        for m in [(1e200, 1, 1e200, 1), (1, 1e200, 1, 1e200)]:
            lam, _ = lambda_closed_form(DetectorSpec(Family.TWO_MODE, *m, 0, 0))
            assert abs(lam / 1e-200 - 1) <= 1e-12
            with pytest.raises(NonPositiveDeterminantError, match="underflows"):
                lambda_closed_form(DetectorSpec(Family.WERNER_WOLF, *m, 0, 0))
        # one block on the cone at 2e307: x* or y* is 4e307 or 2.5e-308, at
        # the end of the search range, and the two-mode Lambda is 3.5e-308
        for m56 in [(0.0, 2e307), (2e307, 0.0)]:
            params = ((2e307,) * 4) + m56
            _check_lambda(params, _h_reference(params))
        rng = np.random.default_rng(2024)
        for m in 10.0 ** rng.uniform(-150, 150, size=(2000, 4)):
            ref = _lambda_product_detector(*map(float, m))
            for params in ([*map(float, m), 0.0, 0.0], [*m, np.float64(0), np.float64(0)]):
                lam, _ = lambda_closed_form(DetectorSpec(Family.TWO_MODE, *params))
                assert abs(lam / ref - 1) <= 1e-12


def _h_reference(params) -> mpmath.mpf:
    """sqrt(min g1 g2) of the given doubles at 50 digits, on the detector as
    given: at fixed x, g1 g2 = (A1 + B1 y)(A2 + B2 / y) with A1 = m1 m3
    - m5^2 + m3 x/2, B1 = (m1 + x/2)/2, A2 = m2 m4 - m6^2 + m4/(2x) and B2 =
    (m2 + 1/(2x))/2, whose y-minimum is (sqrt(A1 A2) + sqrt(B1 B2))^2; that
    is minimized over log x in [-1600, 1600] by golden section.  A block past
    the cone by rounding is taken as on it, as `lambda_closed_form` does."""
    with mpmath.workdps(50):
        m1, m2, m3, m4, m5, m6 = map(mpmath.mpf, params)
        k5, k6 = max(m1 * m3 - m5 ** 2, 0), max(m2 * m4 - m6 ** 2, 0)

        def h(u):
            x = mpmath.exp(u)
            return (mpmath.sqrt((k5 + m3 * x / 2) * (k6 + m4 / (2 * x)))
                    + mpmath.sqrt((m1 + x / 2) * (m2 + 1 / (2 * x))) / 2)

        g = (mpmath.sqrt(5) - 1) / 2
        lo, hi = mpmath.mpf(-1600), mpmath.mpf(1600)
        u, v = hi - g * (hi - lo), lo + g * (hi - lo)
        hu, hv = h(u), h(v)
        for _ in range(80):   # the bracket shrinks to 6e-14
            if hu < hv:
                hi, v, hv = v, u, hu
                u = hi - g * (hi - lo)
                hu = h(u)
            else:
                lo, u, hu = u, v, hv
                v = lo + g * (hi - lo)
                hv = h(v)
        return min(hu, hv)


def _check_lambda(params, h_ref):
    """Both families' Lambda against 1/h_ref and 1/h_ref^2 to 1e-10 where
    that is a normal double, and refused elsewhere."""
    for family, power in ((Family.TWO_MODE, 1), (Family.WERNER_WOLF, 2)):
        ref = 1 / h_ref ** power
        if ref >= sys.float_info.min:
            lam, _ = lambda_closed_form(DetectorSpec(family, *params))
            assert abs(lam / ref - 1) <= 1e-10, (family, params)
        else:
            with pytest.raises(NonPositiveDeterminantError):
                lambda_closed_form(DetectorSpec(family, *params))


@settings(max_examples=40)
@given(st.lists(st.floats(-300, 300), min_size=4, max_size=4),
       st.floats(0, 1), st.floats(0, 1), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_lambda_matches_references_at_any_scale(logs, r5, r6, neg5, neg6, seed):
    """Lambda of detectors with m1..m4 in 1e-300..1e300 matches a reference
    to 1e-10 wherever that is a normal double and is refused elsewhere: one
    detector with block correlations r5, r6 in [0, 1] per example against a
    50-digit evaluation of g1 g2 as given (`_h_reference`), and 50 product
    detectors with log-uniform m1..m4 against the product closed form."""
    m1, m2, m3, m4 = (10.0 ** v for v in logs)
    m5 = (-1) ** neg5 * r5 * math.sqrt(m1) * math.sqrt(m3)
    m6 = (-1) ** neg6 * r6 * math.sqrt(m2) * math.sqrt(m4)
    params = (m1, m2, m3, m4, m5, m6)
    _check_lambda(params, _h_reference(params))
    rng = np.random.default_rng(seed)
    with mpmath.workdps(30):
        for m in 10.0 ** rng.uniform(-300, 300, size=(50, 4)):
            p1, p2, p3, p4 = map(mpmath.mpf, m)
            _check_lambda((*map(float, m), 0.0, 0.0),
                          (mpmath.sqrt(p1 * p2) + 0.5) * (mpmath.sqrt(p3 * p4) + 0.5))


def test_lambda_with_a_maximizer_past_double_precision_is_refused():
    """x* maps back from the balanced detector times sqrt(m1 / m2), which is
    5.8e315 for m1 = 1.7e308 and m2 = 5e-324: Lambda is representable, its
    maximizer is not, so the pair is refused, not returned with x* = inf.
    The mirrored detector puts x* at a subnormal 1.7e-316, whose conjugate
    mode variance 1/(2x*) overflows, so it is no product state either and
    is refused alike, as is a y* past double precision either way.  Every
    maximizer that is returned is a product state that
    `certificate_min_eig` accepts."""
    for family in Family:
        for m in ((1.7e308, 5e-324, 1, 1), (5e-324, 1.7e308, 1, 1),
                  (1, 1, 1.7e308, 5e-324), (1, 1, 5e-324, 1.7e308)):
            with pytest.raises(ScaleOverflowError, match="maximizer"):
                lambda_closed_form(DetectorSpec(family, *m, 0, 0))
        lam, (x, y) = lambda_closed_form(DetectorSpec(family, 1e300, 1e-300, 1, 1, 0, 0))
        assert x == pytest.approx(1e300) and y == 1.0 and math.isfinite(lam)
        assert math.isfinite(certificate_min_eig(DetectorSpec(family, 1, 1, 1, 1, 0, 0), x, y))


@pytest.mark.parametrize("w1, w2, block", [(1.0, 1e15, 5), (1e15, 1.0, 6)])
def test_lambda_inside_block_tolerance(w1, w2, block):
    """m5^2 = m1 m3 (m6^2 = m2 m4) exceeded by 1e-13 relative is taken as the
    cone: its block gap, about -1e-13, counts as 0.  The minimum lies at
    |log x| = 17.3."""
    for family, power in ((Family.TWO_MODE, 0.5), (Family.WERNER_WOLF, 1.0)):
        m = [w1, w2, 1 / w1, 1 / w2, 1.0, 1.0]
        m[block - 1] = math.sqrt(1 + 1e-13)
        lam, _ = lambda_closed_form(DetectorSpec(family, *m))
        assert abs(lam / _cone_lambda(w1, w2, 1.0, power)[0] - 1) <= 1e-12


def test_witness_is_boundary_where_its_ratios_straddle_one():
    """Just past Simon's boundary (lhs -1e-6), ell at the matched scale 1e4
    reads 1.000049 and its limit 0.999999: the audit has not settled the
    sign, so the report is boundary, not separable."""
    rep = minmax_optimize(TwoModeStandardForm(1.0, 1.0, 0.5000005, 0.5000005).to_cm())
    assert rep.ell > 1 > rep.ell_limit
    assert rep.boundary and not rep.entangled


@pytest.mark.parametrize("state, labels, others", [
    (tmsv_form(0.5).to_cm(), ([0], [1]), ([0, 1], [], [5])),
    (werner_wolf_family(WWFamilyParams(1.0, 0.5, 1.0, 2.0, 1.5)).to_cm(),
     ([0, 1], [1, 0], [2, 3], [3, 2]), ([0, 2], [1], [0, 1, 2], [4])),
], ids=["two-mode", "werner-wolf"])
def test_minmax_admits_the_cut_like_the_decision(state, labels, others):
    """`minmax_optimize` reads the partition through `admitted_family`:
    either party's label of the family's cut gives the default report, and
    any other partition is refused with the decision's error and message."""
    default = repr(minmax_optimize(state))
    for partition in labels:
        assert repr(minmax_optimize(state, partition)) == default
    for partition in others:
        with pytest.raises(CvWitnessError) as want:
            decide_separability(state, partition)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            minmax_optimize(state, partition)


def test_minmax_refuses_a_non_physical_cm():
    """diag(0.1) has a bona-fide eigenvalue of -0.4: no state has it, so no
    witness is matched to it (it used to report entangled with ell 0.2)."""
    with pytest.raises(PatternMismatchError, match="not physical"):
        minmax_optimize(CovMatrix(np.diag([0.1] * 4)))


def test_minmax_refuses_a_squeezed_non_physical_cm():
    """A WW-pattern CM scaled to nu_min = 0.3, under per-mode squeezes
    diag(e^(u/2), e^(-u/2)) at u = 12 with alternating signs, is no state:
    its bona-fide eigenvalue, -3.7e-6, is far below rounding at its scale
    7.7e4.  A tolerance of TOL_PSD times the scale matched it (ell 0.30)."""
    base = WernerWolfForm(1.2, 0.9, 1.1, 1.3, 0.4, 0.3).to_cm()
    mat = base.mat * (0.3 / symplectic_eigenvalues(base)[0])
    squeeze = np.exp(6.0 * np.array([1, -1, 1, -1]))
    s = np.diag(np.column_stack([squeeze, 1 / squeeze]).ravel())
    with pytest.raises(PatternMismatchError, match="not physical"):
        minmax_optimize(CovMatrix(s @ mat @ s))


def test_minmax_tolerance_follows_the_cm_scale():
    """The bona-fide test adds the eigensolver's rounding at the CM's scale
    to the absolute tolerance: a TMSV at r = 8, whose least bona-fide
    eigenvalue rounds below -TOL_PSD, is a state, decided Entangled and
    matched (entangled), while a TMSV at r = 0.5 lowered by 1e-9 I is
    refused at the default tolerance and matched at 1e-8, as `check
    --criterion witness --tol-psd` applies it."""
    far = CovMatrix(tmsv_form(8.0).to_cm().mat)
    assert far.is_physical()
    assert decide_separability(far).verdict is Verdict.ENTANGLED
    assert minmax_optimize(far).entangled
    mat = tmsv_form(0.5).to_cm().mat - 1e-9 * np.eye(4)
    with pytest.raises(PatternMismatchError):
        minmax_optimize(CovMatrix(mat))
    assert minmax_optimize(CovMatrix(mat), tol=1e-8).entangled


@pytest.mark.parametrize("witness_first", [False, True])
def test_decision_and_witness_share_one_bona_fide_eigensolve(witness_first, monkeypatch):
    """`decide_separability` and `minmax_optimize` on one CovMatrix, in
    either order and twice, check it with one eigensolve: the least
    eigenvalue is kept on the matrix."""
    gamma = CovMatrix(tmsv_form(0.4).to_cm().mat.copy())
    calls = []

    def counted(mat, _solve=symplectic._bona_fide_min_eig):
        calls.append(mat)
        return _solve(mat)
    monkeypatch.setattr(symplectic, "_bona_fide_min_eig", counted)
    for _ in range(2):
        for call in ((minmax_optimize, decide_separability) if witness_first
                     else (decide_separability, minmax_optimize)):
            call(gamma)
    assert len(calls) == 1 and calls[0] is gamma.mat
