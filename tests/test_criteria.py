import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvwitness.criteria import (Verdict, WWFamilyParams, _peak,
                                certificate_min_eig, decide_separability,
                                feasibility_search, ppt_decide,
                                separability_lhs, simon_lhs,
                                werner_wolf_family, werner_wolf_lhs)
from cvwitness.exceptions import (ConstraintViolatedError, CvWitnessError,
                                  DimensionMismatchError, PartitionError,
                                  PatternMismatchError, ScaleOverflowError)
from cvwitness.standard_form import (Family, TwoModeStandardForm, WernerWolfForm,
                                     detect_family, reduce_to_standard_form)
from cvwitness.symplectic import CovMatrix, validate_cm
from cvwitness.witness import minmax_optimize

from conftest import (dress, dressed_ensemble, exact_form_lhs, exact_simon_lhs,
                      grid_certificate, overflowing_cross_block, rotation, sample_standard_form,
                      sample_ww_detector, sample_ww_family_params, simon_invariant_lhs,
                      symplectic_eigenvalues, tmsv_form)
from paper_audit import werner_wolf_family_lhs_claim

PROPERTY = settings(max_examples=60)

#: the absolute slack these tests hold a certificate to; the package reads
#: the slack against its own rounding (`criteria._certifies`), which is
#: tighter than this at unit scale.
TOL_CERT = 1e-10


@pytest.mark.parametrize("n_modes", [1, 3])
def test_mode_count_without_a_family_is_refused(n_modes):
    """Only two and four modes have a family: a vacuum of another mode count
    is admitted as a state and then refused by name."""
    gamma = CovMatrix(np.eye(2 * n_modes) / 2)
    for call in (decide_separability, minmax_optimize):
        with pytest.raises(PatternMismatchError,
                           match=f"^no supported family for {n_modes} modes$"):
            call(gamma)


def test_simon_lhs_tmsv_closed_form():
    for r in (0.0, 0.1, 0.3, 0.5):
        lhs = simon_lhs(tmsv_form(r))
        assert abs(lhs - (1 - np.cosh(4 * r)) / 8) < 1e-12


def test_simon_vacuum_boundary():
    assert simon_lhs(TwoModeStandardForm(0.5, 0.5, 0.0, 0.0)) == 0.0


def test_simon_thermal_product_separable():
    f = TwoModeStandardForm(1.5, 1.5, 0.0, 0.0)
    assert simon_lhs(f) > 0
    report = decide_separability(f.to_cm())
    assert report.verdict is Verdict.SEPARABLE
    assert report.certificate is not None


def test_decide_tmsv_entangled():
    report = decide_separability(tmsv_form(0.5).to_cm())
    assert report.verdict is Verdict.ENTANGLED
    assert not report.bound_entangled
    assert report.ppt is not None and not report.ppt.is_ppt


def test_ppt_tmsv_vs_thermal():
    assert not ppt_decide(tmsv_form(0.5).to_cm()).is_ppt
    assert ppt_decide(CovMatrix(np.eye(4) * 1.5)).is_ppt


@pytest.mark.parametrize("partition", [[0, 1], [], [5], [0, 2]])
def test_ppt_refuses_partition_without_two_parties(partition):
    """A partition that leaves a party empty or names a mode the state
    lacks is refused; it used to report a two-mode squeezed vacuum PPT."""
    with pytest.raises(PartitionError, match="must name between 1 and 1"):
        ppt_decide(tmsv_form(0.5).to_cm(), partition)


def _two_tmsvs(pairs, n_modes) -> CovMatrix:
    """Vacua on `n_modes` modes with a two-mode squeezed vacuum (r = 0.5) on
    each mode pair of `pairs`."""
    mat = np.eye(2 * n_modes) / 2
    tmsv = tmsv_form(0.5).to_cm().mat
    for pair in pairs:
        idx = [2 * j + k for j in pair for k in (0, 1)]
        mat[np.ix_(idx, idx)] = tmsv
    return CovMatrix(mat)


@pytest.mark.parametrize("gamma, partition, is_ppt", [
    (_two_tmsvs([(0, 1)], 3), [0], False),
    (_two_tmsvs([(0, 1)], 3), [0, 2], False),
    (_two_tmsvs([(0, 1)], 3), [2], True),
    (_two_tmsvs([(0, 2), (1, 3)], 4), [0, 1], False),
    (_two_tmsvs([(0, 2), (1, 3)], 4), [0, 2], True),
], ids=["3-mode-1x2", "3-mode-2x1", "3-mode-vacuum-apart", "4-mode-off-pattern",
        "4-mode-product-across-0-2"])
def test_ppt_decide_off_the_family_cuts(gamma, partition, is_ppt):
    """`ppt_decide` decides cuts no family fits: a two-mode squeezed vacuum
    beside a vacuum is NPT across its own modes and PPT with the vacuum
    alone on one side, and two of them on the mode pairs (0, 2) and (1, 3),
    off the Werner-Wolf pattern, are NPT across {0, 1} | {2, 3} and a
    product across {0, 2} | {1, 3}.  No other test takes such a cut."""
    assert ppt_decide(gamma, partition).is_ppt is is_ppt


def test_ww_family_params_validation():
    with pytest.raises(ConstraintViolatedError):
        WWFamilyParams(1.0, 1.0, 1.0, 1.0, 0.5)  # ce - a <= 0
    with pytest.raises(ConstraintViolatedError):
        WWFamilyParams(1.0, 2.0, 2.0, 1.0, 3.0)  # ad - bc <= 0
    with pytest.raises(ConstraintViolatedError, match="all five parameters"):
        WWFamilyParams(-1.0, 1.0, 2.0, 3.0, 1.0)  # a <= 0


def test_ww_family_state_is_bound_entangled():
    p = WWFamilyParams(1.0, 1.0, 2.0, 3.0, 1.0)
    form = werner_wolf_family(p)
    gamma = form.to_cm()
    assert gamma.is_physical()
    assert werner_wolf_lhs(form) < 0
    assert ppt_decide(gamma).is_ppt
    report = decide_separability(gamma)
    assert report.verdict is Verdict.ENTANGLED
    assert report.bound_entangled


def test_ww_family_lhs_matches_scaled_claim(rng):
    # observed relation: the criterion value is twice the quoted family value
    for _ in range(50):
        p = sample_ww_family_params(rng)
        lhs = werner_wolf_lhs(werner_wolf_family(p))
        claim = werner_wolf_family_lhs_claim(p)
        assert claim < 0
        assert abs(lhs - 2 * claim) < 1e-10 * max(1.0, abs(lhs))


def test_feasibility_search_none_when_entangled():
    assert feasibility_search(tmsv_form(0.4)) is None


def test_certificate_is_sound_on_separable_samples(rng):
    found = 0
    for _ in range(100):
        a, b = rng.uniform(0.5, 2.0, 2)
        c1 = rng.uniform(-0.8, 0.8)
        c2 = rng.uniform(-0.8, 0.8)
        f = TwoModeStandardForm(a, b, c1, c2)
        if not f.to_cm().is_physical() or simon_lhs(f) <= 1e-6:
            continue
        cert = feasibility_search(f)
        assert cert is not None
        assert certificate_min_eig(f, *cert) >= -1e-10
        found += 1
    assert found > 10


def test_decide_rejects_unphysical():
    """diag(0.1) has a bona-fide eigenvalue of -0.4: no state has it, so the
    decision and `ppt_decide` refuse it (`ppt_decide` used to test its
    partial transpose)."""
    for decide in (decide_separability, ppt_decide):
        with pytest.raises(PatternMismatchError, match="^covariance matrix is not physical$"):
            decide(CovMatrix(np.eye(4) * 0.1))


def test_decide_rejects_wrong_partition():
    """A partition that is not the family's cut is refused: both modes of a
    two-mode state in party A, or a Werner-Wolf split other than
    {0, 1} | {2, 3}.  One that leaves a party empty or names a missing mode
    is a `PartitionError`, as in `ppt_decide`."""
    for partition in ([0, 1], [], [5]):
        with pytest.raises(PartitionError, match="fixes partition"):
            decide_separability(CovMatrix(np.eye(4) * 1.5), partition=partition)
    ww = werner_wolf_family(WWFamilyParams(1.0, 0.5, 1.0, 2.0, 1.5)).to_cm()
    for partition in ([0, 2], [1], [0, 1, 2]):
        with pytest.raises(PatternMismatchError, match="fixes partition"):
            decide_separability(ww, partition=partition)


OVERFLOW_FORMS = {"two-mode": TwoModeStandardForm(1.2, 1.3, 0.4, -0.3),
                  "werner-wolf": WernerWolfForm(1.1, 1.2, 1.3, 1.4, 0.3, 0.2)}


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("name", sorted(OVERFLOW_FORMS))
def test_cm_past_double_precision_is_refused(name, scale):
    """A physical CM whose entries square past double precision is refused
    by the reduction with a typed error that names the overflow, for the
    decision, the witness and the PPT test, instead of numpy's SVD error, a
    NaN criterion or a bare OverflowError."""
    gamma = CovMatrix(scale * OVERFLOW_FORMS[name].to_cm().mat)
    for decide in (decide_separability, minmax_optimize, ppt_decide):
        with pytest.raises(ScaleOverflowError, match="overflows double precision"):
            decide(gamma)


def test_cross_block_that_overflows_is_refused():
    """A cross block whose square overflows once its modes are normalised
    is refused by name, for the decision, the witness and the PPT test,
    with no warning.  Its signed SVD zeroed a unit vector, S lost mode A
    and the form (0, 0.25, 0, 0) passed the residual check: the decision
    read Boundary with a `min_pt_symplectic_eig` of 0.0, and the witness
    raised ZeroDivisionError.  `ppt_decide` ran its eigensolves on the
    local normal form at 1e175 and read PPT, `min_pt_symplectic_eig`
    8.6e71."""
    reduction = ("^cannot reach two-mode standard form: the square of "
                 "the normalised cross block overflows double precision$")
    normal_form = ("^cannot bring every mode to its normal form: the square of the "
                   "largest entry 1e\\+175 overflows double precision$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for decide, message in ((decide_separability, reduction), (minmax_optimize, reduction),
                                (ppt_decide, normal_form)):
            with pytest.raises(ScaleOverflowError, match=message):
                decide(overflowing_cross_block())


# the criterion's np.float64 terms warn as they overflow
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_nan_criterion_is_refused():
    """Just below that scale the reduction works, but the criterion's terms
    overflow to inf - inf: refused rather than reported as NaN."""
    gamma = CovMatrix(1e154 * OVERFLOW_FORMS["two-mode"].to_cm().mat)
    reduce_to_standard_form(gamma, Family.TWO_MODE)
    with pytest.raises(ScaleOverflowError, match="simon criterion cannot be evaluated"):
        decide_separability(gamma)


@pytest.mark.parametrize("state, partitions", [
    (tmsv_form(0.5).to_cm(), ([0], [1])),
    (TwoModeStandardForm(1.5, 1.2, 0.3, -0.2).to_cm(), ([0], [1])),
    (werner_wolf_family(WWFamilyParams(1.0, 0.5, 1.0, 2.0, 1.5)).to_cm(),
     ([0, 1], [1, 0], [2, 3], [3, 2])),
], ids=["tmsv", "two-mode-separable", "werner-wolf"])
def test_decide_accepts_either_label_of_the_cut(state, partitions):
    """Naming party B instead of party A names the same cut: every label
    gives the report of the default partition, byte for byte."""
    default = repr(decide_separability(state))
    for partition in partitions:
        assert repr(decide_separability(state, partition=partition)) == default


def _phi(form, x):
    """phi(x) = 4 f1 f2 where both factors are positive, else 0 (numpy);
    a zero correlation drops its term also where its denominator is 0."""
    (a1, b1, c1), (a2, b2, c2) = form.x, form.p
    u, w = a1 - x / 2, a2 - 1 / (2 * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = np.where(u > 0, b1 - c1 ** 2 / u, b1 * ((u == 0) & (c1 ** 2 == 0)))
        f2 = np.where(w > 0, b2 - c2 ** 2 / w, b2 * ((w == 0) & (c2 ** 2 == 0)))
    return np.where((f1 > 0) & (f2 > 0), 4 * f1 * f2, 0.0)


def _forms():
    unit = st.floats(-1.0, 1.0)
    two_mode = st.builds(TwoModeStandardForm, st.floats(0.5, 2.0),
                         st.floats(0.5, 2.0), unit, unit)
    corr = st.floats(-0.5, 0.5)
    ww = st.builds(WernerWolfForm, *[st.floats(0.5, 1.5)] * 4, corr, corr)
    return st.one_of(two_mode, ww)


def _lhs(form):
    return simon_lhs(form) if form.family is Family.TWO_MODE \
        else werner_wolf_lhs(form)


@PROPERTY
@given(_forms())
def test_certificate_matches_grid_oracle(form):
    """Outside a 1e-9 band of the criterion the closed form finds a
    certificate iff the grid plus Nelder-Mead oracle does, and the
    certificate is sound."""
    assume(form.to_cm().is_physical() and abs(_lhs(form)) > 1e-9)
    cert = feasibility_search(form)
    oracle = grid_certificate(form)
    found = (oracle is not None and oracle[2] >= -TOL_CERT
             and certificate_min_eig(form, *oracle[:2]) >= -TOL_CERT)
    assert (cert is not None) == found
    assert (cert is not None) == (_lhs(form) > 0)
    if cert is not None:
        assert certificate_min_eig(form, *cert) >= -1e-10


@PROPERTY
@given(_forms())
def test_peak_dominates_dense_scan(form):
    assume(form.to_cm().is_physical())
    (a1, _, _), (a2, _, _) = form.x, form.p
    x, f1, f2 = _peak(form.x, form.p)
    scan = _phi(form, np.linspace(1 / (2 * a2), 2 * a1, 20001))
    assert 4 * f1 * f2 >= np.max(scan) * (1 - 1e-12)


@pytest.mark.parametrize("form, want_x", [
    # the vacuum point is taken whenever it is a certificate
    (TwoModeStandardForm(1.5, 1.5, 0.2, 0.1), 1.0),
    (TwoModeStandardForm(0.5, 0.5, 0.0, 0.0), 1.0),
    # c1 = 0: phi increases in x, the maximum is the end x = 2a
    (TwoModeStandardForm(1.22, 0.72, 0.0, -0.42), 2.44),
    # c2 = 0: phi decreases in x, the maximum is the end x = 1/(2a)
    (TwoModeStandardForm(0.95, 1.24, 0.7, 0.0), 1 / 1.9),
])
def test_certificate_vacuum_and_end_branches(form, want_x):
    cert = feasibility_search(form)
    assert cert is not None and abs(cert[0] - want_x) < 1e-12
    assert certificate_min_eig(form, *cert) >= -TOL_CERT


@pytest.mark.parametrize("form", [
    TwoModeStandardForm(1.25, 1.57, 0.18, -0.93),     # |c1| < |c2|
    TwoModeStandardForm(1.82, 0.85, -0.9, -0.2),      # mirrored: |c1| > |c2|
    WernerWolfForm(0.6, 1.3, 1.4, 0.55, 0.35, -0.2),
])
def test_certificate_interior_root(form):
    """(1, 1) fails, and the certificate sits at the stationary point of
    log phi, between the two bounds on y."""
    assert certificate_min_eig(form, 1.0, 1.0) < -TOL_CERT
    x, y = feasibility_search(form)
    _, f1, f2 = _peak(form.x, form.p)
    assert abs(4 * f1 * f2 - _phi(form, np.array(x))) < 1e-12 * f1 * f2
    h = 1e-5 * x
    assert abs(np.log(_phi(form, np.array(x + h)) / _phi(form, np.array(x - h)))) < 1e-8
    (a1, b1, c1), (a2, b2, c2) = form.x, form.p
    g1 = 2 * (b1 - c1 ** 2 / (a1 - x / 2))
    g2 = 1 / (2 * (b2 - c2 ** 2 / (a2 - 1 / (2 * x))))
    assert g2 < y < g1 and abs(y - np.sqrt(g1 * g2)) < 1e-12 * y


def test_no_certificate_below_one():
    """An entangled form: (1, 1) fails and max phi < 1."""
    form = tmsv_form(0.4)
    x, f1, f2 = _peak(form.x, form.p)
    assert 4 * f1 * f2 < 1
    assert feasibility_search(form) is None


def test_certificate_small_correlation_keeps_precision():
    """A small c1 puts the maximum of phi within O(c1) of the end x = 2a;
    the root, solved for the offset from that end, still finds it."""
    for c1 in (1e-6, 1e-9, -1e-12, 1e-30, 0.0):
        form = TwoModeStandardForm(0.81, 0.89, c1, 0.5)
        assert certificate_min_eig(form, 1.0, 1.0) < -TOL_CERT
        x, y = feasibility_search(form)
        assert 0 <= 2 * 0.81 - x <= 10 * abs(c1)
        assert certificate_min_eig(form, x, y) >= -TOL_CERT


# ----------------------- the bits of the array-level PPT against the
# CovMatrix-wrapped computation it replaced, and the accuracy of the
# closed-form certificate slack against mpmath and the dense route

def _assert_ppt_bits(gamma):
    """`ppt_decide` equals `validate_cm` and `symplectic_eigenvalues` of a
    `CovMatrix` of the partial transpose, bit for bit."""
    s = np.ones(gamma.dim)
    s[2 * (gamma.n_modes // 2) + 1::2] = -1.0   # party B's momenta
    pt = CovMatrix(gamma.mat * np.outer(s, s))
    rep = ppt_decide(gamma)
    assert rep.is_ppt == validate_cm(pt).is_physical
    assert rep.min_pt_symplectic_eig == float(symplectic_eigenvalues(pt)[0])


U = 2.0 ** -53


def _mp_slack(form, x, y):
    """The least eigenvalue of the form's CM minus the product state's CM
    at 50 digits, from its x block [[a1 - x/2, c1], [c1, b1 - y/2]] and p
    block [[a2 - 1/(2x), c2], [c2, b2 - 1/(2y)]], and the scale of the block
    that attains it: the largest of |a|, |b|, |c| and its two shifts."""
    with mpmath.workdps(50):
        x, y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
        blocks = []
        for triple, sa, sb in ((form.x, x / 2, y / 2), (form.p, 1 / (2 * x), 1 / (2 * y))):
            a, b, c = (mpmath.mpf(float(v)) for v in triple)
            p, q = a - sa, b - sb
            lam = (p + q) / 2 - mpmath.sqrt(((p - q) / 2) ** 2 + c * c)
            blocks.append((lam, float(max(abs(a), abs(b), abs(c), sa, sb))))
        return min(blocks)


def _dense_min_eig(form, x, y):
    """The dense route: `eigvalsh` of the whole difference of the form's CM
    and the product state's diagonal CM, and its largest entry."""
    n_a = form.family.n_modes_a
    product = [x / 2, 1 / (2 * x)] * n_a + [y / 2, 1 / (2 * y)] * (form.n_modes - n_a)
    diff = form.to_cm().mat - np.diag(product)
    return float(np.linalg.eigvalsh(diff)[0]), float(np.abs(diff).max())


def _assert_certificate_accuracy(form):
    """At the vacuum point, the peak and the certificate, `certificate_min_eig`
    is within 8u s of the 50-digit slack (s the scale of `_mp_slack`), and
    the dense route, a second oracle, within 16u of its largest entry."""
    points = [(1.0, 1.0)]
    x, f1, f2 = _peak(form.x, form.p)
    if f1 > 0 and f2 > 0:
        points.append((x, math.sqrt(f1 / f2)))
    points.append(feasibility_search(form) or (1.0, 1.0))
    for x, y in points:
        exact, scale = _mp_slack(form, x, y)
        assert abs(certificate_min_eig(form, x, y) - exact) <= 8 * U * scale
        dense, entry = _dense_min_eig(form, x, y)
        assert abs(dense - exact) <= 16 * U * entry


def test_array_level_bits_on_the_decision_golden():
    inputs = json.loads((Path(__file__).parent / "data" / "golden"
                         / "decisions-input.json").read_text())
    certified = 0
    for mat in inputs.values():
        gamma = CovMatrix(mat)
        _assert_ppt_bits(gamma)
        try:
            form, _ = reduce_to_standard_form(gamma, detect_family(gamma))
        except PatternMismatchError:
            continue
        _assert_certificate_accuracy(form)
        certified += feasibility_search(form) is not None
    assert certified > 10


@PROPERTY
@given(_forms(), st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
       st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8))
def test_array_level_bits_on_dressed_states(form, rs, thetas):
    assume(form.to_cm().is_physical())
    _assert_ppt_bits(form.to_cm())
    _assert_ppt_bits(dress(form, rs, thetas))
    _assert_certificate_accuracy(form)


def test_certificate_at_a_non_finite_point_is_refused():
    """A product state with a mode variance x/2, 1/(2x), y/2 or 1/(2y) that
    is not a positive finite double is refused, with no warning."""
    form = TwoModeStandardForm(1.2, 1.3, 0.4, -0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (0.0, -1.0, math.nan, math.inf, 1e-320, np.float64(0.0)):
            for x, y in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(DimensionMismatchError, match="non-finite"):
                    certificate_min_eig(form, x, y)


def _squeezed_ww_form(abcd, angle, signs, lhs, k):
    """The WW-pattern form with variances (A, B, C, D) = `abcd` and
    correlations (E, F) = t (e, f) along `angle`, t grown from 0 until the
    criterion falls to `lhs`, with its x triple times k and p triple over k.

    At (E, F) = t (e, f) the criterion is A' s^2 - B' s + lhs_0 in s = t^2
    with A' = e^2 f^2, B' = A C f^2 + B D e^2 + |e f|/2 and lhs_0 =
    (A B - 1/4)(C D - 1/4); its smallest root is taken."""
    a, b, c, d = abcd
    e, f = signs[0] * math.cos(angle), signs[1] * math.sin(angle)
    qa, qb, qc = (e * f) ** 2, a * c * f * f + b * d * e * e + abs(e * f) / 2, \
        (a * b - 0.25) * (c * d - 0.25) - lhs
    t = math.sqrt(2 * qc / (qb + math.sqrt(qb * qb - 4 * qa * qc)))
    return WernerWolfForm(k * a, b / k, k * c, d / k, k * t * e, t * f / k)


@settings(max_examples=300)
@given(st.tuples(*[st.floats(0.8, 1.5)] * 4), st.floats(0.0, math.pi / 2),
       st.tuples(*[st.sampled_from((-1, 1))] * 2), st.floats(-8.0, -1.0),
       st.floats(0.0, 8.0))
def test_squeezed_separable_ww_forms_are_certified(abcd, angle, signs, log_lhs, log_k):
    """A separable WW-pattern state at lhs 1e-8..1e-1, squeezed by up to
    k = 1e8, is Separable with a certificate whose 50-digit slack is at
    least -TOL_CERT: never refused, never Boundary."""
    form = _squeezed_ww_form(abcd, angle, signs, 10 ** log_lhs, 10 ** log_k)
    gamma = form.to_cm()
    report = decide_separability(gamma)
    assert report.verdict is Verdict.SEPARABLE, report
    reduced, _ = reduce_to_standard_form(gamma, Family.WERNER_WOLF)
    assert _mp_slack(reduced, *report.certificate)[0] >= -TOL_CERT


def test_dressed_npt_state_stays_npt():
    """TwoModeStandardForm(1, 1, 0.504, 0.504) is entangled; with its modes
    dressed to r = +-5 its partial transpose has a bona-fide eigenvalue of
    -3.6e-7 at scale 1.9e4.  That is far below rounding, so it stays NPT,
    where a tolerance of TOL_PSD times the scale, 1.9e-6, would call it PPT
    and the state bound entangled."""
    gamma = dress(TwoModeStandardForm(1.0, 1.0, 0.504, 0.504), (5.0, -5.0),
                   (0.4, 1.0, 2.2, 0.7))
    assert ppt_decide(gamma).is_ppt is False
    report = decide_separability(gamma)
    assert report.verdict is Verdict.ENTANGLED and not report.bound_entangled


def test_npt_state_squeezed_to_r8_is_not_bound_entangled():
    """Squeezed to r = +-8, the same state's partial transpose has a
    bona-fide eigenvalue of about -9e-10 on its own array, inside the
    eigensolve's rounding of 1.5e-8 at that scale.  The test is taken on
    the standard form (decision) or the local normal form (`ppt_decide`),
    at the scale of the symplectic eigenvalues, so the state stays NPT and
    is never reported bound entangled.  Plain squeezes are resolved in full;
    rotated ones at r = 8 may be refused, but never read PPT."""
    form = TwoModeStandardForm(1.0, 1.0, 0.504, 0.504)
    gamma = dress(form, (8.0, -8.0), (0.0, 0.0, 0.0, 0.0))
    assert ppt_decide(gamma).is_ppt is False
    report = decide_separability(gamma)
    assert report.verdict is Verdict.ENTANGLED and not report.bound_entangled
    for thetas in ((0.4, 1.0, 2.2, 0.7), (0.0, 0.4, 3.0, 1.0)):
        gamma = dress(form, (8.0, -8.0), thetas)
        for decide in (ppt_decide, decide_separability):
            try:
                report = decide(gamma)
            except PatternMismatchError:
                continue
            ppt = report if decide is ppt_decide else report.ppt
            assert ppt.is_ppt is False


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4))
def test_verdict_survives_local_symplectics(seed, rs, thetas):
    """A two-mode standard form at |lhs| > 1e-6, dressed by a
    rotation-squeeze-rotation on each mode, keeps its verdict with no
    refusal at |r| <= 5; at |r| <= 8 it keeps it or is refused with a typed
    error, and never flips (ROADMAP item 2).  Its PPT test, in the decision
    and in `ppt_decide`, agrees with the verdict (Simon: a two-mode state is
    separable iff PPT), so no two-mode state is reported bound entangled."""
    form = sample_standard_form(np.random.default_rng(seed), exclude_band=1e-6)
    want = decide_separability(form.to_cm()).verdict
    for r_max in (5, 8):
        gamma = dress(form, [r_max * r for r in rs], thetas)
        try:
            report, ppt = decide_separability(gamma), ppt_decide(gamma)
        except CvWitnessError:
            if r_max == 5:
                raise
            continue
        assert report.verdict is want and not report.bound_entangled
        assert report.ppt.is_ppt is ppt.is_ppt is (want is Verdict.SEPARABLE)


def _two_mode_form_at(a, b, angle, lhs):
    """The two-mode form with variances (a, b) and correlations (c1, c2) =
    t (cos, sin)(angle), t grown from 0 until the criterion falls to `lhs`.

    At (c1, c2) = t (e, f) the criterion is A' s^2 - B' s + lhs_0 in s = t^2
    with A' = e^2 f^2, B' = ab (e^2 + f^2) + |e f|/2 and lhs_0 = (a^2 - 1/4)
    (b^2 - 1/4); its smallest root is taken."""
    e, f = math.cos(angle), math.sin(angle)
    qa, qb, qc = (e * f) ** 2, a * b + abs(e * f) / 2, (a * a - 0.25) * (b * b - 0.25) - lhs
    t = math.sqrt(2 * qc / (qb + math.sqrt(qb * qb - 4 * qa * qc)))
    return TwoModeStandardForm(a, b, t * e, t * f)


@settings(max_examples=100)
@given(st.floats(0.6, 2.0), st.floats(0.6, 2.0), st.floats(0.0, 2 * math.pi),
       st.floats(-7.0, -2.0), st.sampled_from((-1.0, 1.0)),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
       st.sampled_from((1e-10, 1e-8, 1e-6, 1e-4)))
def test_tol_admits_and_never_moves_the_ppt_test(a, b, angle, log_lhs, sign, rs,
                                                 thetas, tol):
    """`tol` admits the state and does nothing else.  A two-mode state at
    |lhs| 1e-7..1e-2, dressed by a rotation-squeeze-rotation on each mode
    at |r| <= 3, reads PPT exactly when it is separable (Simon) at every
    `tol`, in the decision and in `ppt_decide`, and is never reported bound
    entangled.  With `tol` as the PPT floor, an entangled state whose
    partial transpose missed by less than `tol` read PPT."""
    lhs = sign * 10 ** log_lhs
    form = _two_mode_form_at(a, b, angle, lhs)
    assume(validate_cm(form.to_cm()).is_physical)
    gamma = dress(form, rs, thetas)
    report = decide_separability(gamma, tol=tol)
    assert report.ppt.is_ppt is (lhs > 0)
    assert not report.bound_entangled
    assert ppt_decide(gamma, tol=tol).is_ppt is report.ppt.is_ppt


def test_noisy_product_states_read_ppt_at_a_wide_tol():
    """Locally squeezed vacua lowered by 1e-9 I are no states at the
    default tolerance, and their standard form misses the states by up to
    about 2e-7.  Admitted at tol 1e-5, the partial transpose is that of the
    input lifted onto the states by local noise, so both entries read every
    one PPT, as a product is.  A plain TOL_PSD floor read them NPT."""
    rng = np.random.default_rng(25)
    vacuum = TwoModeStandardForm(0.5, 0.5, 0.0, 0.0)
    for _ in range(40):
        dressed = dress(vacuum, rng.uniform(-3.0, 3.0, 2), rng.uniform(0.0, 2 * math.pi, 4))
        noisy = CovMatrix(dressed.mat - 1e-9 * np.eye(4))
        assert not validate_cm(noisy).is_physical
        assert decide_separability(noisy, tol=1e-5).ppt.is_ppt
        assert ppt_decide(noisy, tol=1e-5).is_ppt


def test_dressed_pure_products_are_ppt_and_certified():
    """Products of vacua squeezed to r in [1, 3] under a random local
    rotation-squeeze-rotation are states to within rounding, but their
    images carry the rounding of the squeeze: the local normal form and the
    standard form have symplectic eigenvalues that miss 1/2 by up to about
    3e3 eps.  The PPT test, lifted by the image's own deficit, reads PPT in
    the decision and in `ppt_decide`, and the certificate, read at the
    rounding the standard form inherits, certifies them Separable.  Read at
    the images' own scale alone, 15 of these 30 read NPT and 17 were not
    certified."""
    rng = np.random.default_rng(27)
    vacuum = TwoModeStandardForm(0.5, 0.5, 0.0, 0.0)
    for _ in range(30):
        signs = rng.choice((-1.0, 1.0), 2)
        gamma = dress(vacuum, signs * rng.uniform(1.0, 3.0, 2), rng.uniform(0.0, 2 * math.pi, 4))
        report = decide_separability(gamma)
        assert report.ppt.is_ppt and ppt_decide(gamma).is_ppt
        assert report.verdict is Verdict.SEPARABLE and report.certificate is not None


def test_noisy_product_states_read_ppt_at_the_default_tol():
    """Locally squeezed vacua (r <= 3) lowered by 1e-11 I are admitted at the
    default tolerance but are no states to within rounding, so the PPT
    test, lifted by the image's own deficit, reads PPT for every one, in the
    decision and in `ppt_decide`.  The certificate is not lifted: the
    vacuum point misses them by about 1e-11, beyond the rounding their
    standard forms inherit, so none is certified, and at |lhs| <= 1e-11
    every one is Boundary.  A floor of the absolute admission tolerance left
    the lift to inputs admitted below it and read 16 of these 20 NPT; a
    certificate slack floor of 1e-10 called the other 4 Separable."""
    rng = np.random.default_rng(26)
    vacuum = TwoModeStandardForm(0.5, 0.5, 0.0, 0.0)
    for _ in range(20):
        dressed = dress(vacuum, rng.uniform(-3.0, 3.0, 2), rng.uniform(0.0, 2 * math.pi, 4))
        noisy = CovMatrix(dressed.mat - 1e-11 * np.eye(4))
        assert validate_cm(noisy).is_physical and not validate_cm(noisy, 0.0).is_physical
        report = decide_separability(noisy)
        assert report.ppt.is_ppt and ppt_decide(noisy).is_ppt
        assert report.verdict is Verdict.BOUNDARY and report.certificate is None


def _lhs_terms(form):
    """The sum of |monomial| of the expanded two-mode criterion, the scale
    of its rounding: (a1 b1 + c1^2)(a2 b2 + c2^2) + |c1 c2|/2 + (a1 a2 +
    b1 b2)/4 + 1/16."""
    (a1, b1, c1), (a2, b2, c2) = form.x, form.p
    return ((a1 * b1 + c1 * c1) * (a2 * b2 + c2 * c2) + abs(c1 * c2) / 2
            + (a1 * a2 + b1 * b2) / 4 + 1 / 16)


@settings(max_examples=150, derandomize=True)
@given(st.floats(0.5, 10.0), st.floats(0.5, 10.0), st.floats(0.0, 2 * math.pi),
       st.floats(3.0, 12.0), st.sampled_from((-1.0, 1.0)))
def test_sign_of_lhs_beyond_its_rounding_decides_ppt(a, b, angle, log_lhs, sign):
    """A two-mode form with a, b in [0.5, 10] whose criterion lies beyond
    1e3 eps times the sum of its |terms| has a resolved sign, and if it is
    a state to within rounding, the PPT test and the certificate follow it
    (Simon: PPT iff separable).  At lhs < 0 the state is never Separable
    nor bound entangled and `ppt_decide` reads NPT; at lhs > 0 both PPT
    tests read PPT.  Absolute floors of 1e-10 on the PPT eigenvalue and on
    the certificate slack swallowed such margins at unit scale.  |lhs| is
    drawn at 1e3..1e12 eps times (2ab)^2, the largest sum of |terms| up to
    its 1/16."""
    target = sign * 10 ** log_lhs * np.finfo(float).eps * (2 * a * b) ** 2
    assume((a * a - 0.25) * (b * b - 0.25) > target)
    form = _two_mode_form_at(a, b, angle, target)
    gamma = form.to_cm()
    # a state to within rounding: a non-state admitted by `tol` is tested
    # lifted onto the states, and at c1 c2 = 0 it misses them by its lhs
    assume(validate_cm(gamma, 0.0).is_physical)
    lhs = separability_lhs(form)
    assume(abs(lhs) >= 1e3 * np.finfo(float).eps * _lhs_terms(form))
    report, ppt = decide_separability(gamma), ppt_decide(gamma)
    if lhs < 0:
        assert report.verdict is not Verdict.SEPARABLE and not report.bound_entangled
        assert not ppt.is_ppt and not report.ppt.is_ppt
    else:
        assert ppt.is_ppt and report.ppt.is_ppt


def test_no_tmsv_rung_is_refused():
    """The `sweep --family tmsv -n 100` ladder r = 0.1 i, i = 0..99, is
    decided on every rung: the bona-fide eigenvalue of the squeezed rungs
    rounds below -TOL_PSD, but not below rounding at their scale."""
    for i in range(100):
        want = Verdict.SEPARABLE if i == 0 else Verdict.ENTANGLED
        assert decide_separability(tmsv_form(0.1 * i).to_cm()).verdict is want, i


def test_closed_forms_overflow_to_inf():
    """Squares past double precision are inf, not an OverflowError."""
    form = TwoModeStandardForm(1e200, 1.0, 1e200, 1.0)
    assert separability_lhs(form) == -math.inf
    assert feasibility_search(form) is None


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_form_with_a_non_finite_entry_is_refused(entry):
    """The exact pass takes each entry as an integer ratio, which a
    non-finite double has not: a typed refusal, not a bare OverflowError
    or ValueError."""
    with pytest.raises(DimensionMismatchError, match="not all finite"):
        separability_lhs(TwoModeStandardForm(1.2, 1.3, entry, 0.3))


def test_simon_lhs_matches_local_invariants():
    """`simon_lhs` of the reduced form equals Simon's quantity from the local
    invariants of the dressed CM (no reduction), relative to ||gamma||^4."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        f = sample_standard_form(rng)
        s = np.zeros((4, 4))
        for j in range(2):
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            r = rng.uniform(0, 1)
            s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = (
                rotation(t1) @ np.diag([np.exp(r), np.exp(-r)]) @ rotation(t2))
        m = s @ f.to_cm().mat @ s.T
        gamma = CovMatrix((m + m.T) / 2)
        form, _ = reduce_to_standard_form(gamma, Family.TWO_MODE)
        scale = np.linalg.norm(gamma.mat, 2) ** 4
        assert abs(simon_lhs(form) - simon_invariant_lhs(gamma)) <= 1e-12 * scale
        assert abs(simon_lhs(f) - simon_invariant_lhs(f.to_cm())) <= 1e-12 * scale



# ----------------------- the decision's closed-form PPT annotation against
# an 80-digit eigensolve and against `ppt_decide`, the eigen route

EPS = np.finfo(float).eps


def _mp_min_pt_eig(form):
    """The least symplectic eigenvalue of the form's partial transpose at 80
    digits on the form's own doubles.  x and p decouple, so the squared
    symplectic eigenvalues are the eigenvalues of X P, with X the CM's x
    block and P its p block with party B's momenta flipped: those of the
    symmetric L^T P L, with X = L L^T."""
    m, n, n_a = form.to_cm().mat, form.n_modes, form.family.n_modes_a
    sign = [1 if k < n_a else -1 for k in range(n)]
    with mpmath.workdps(80):
        x = mpmath.matrix([[mpmath.mpf(float(m[2 * i, 2 * j])) for j in range(n)]
                           for i in range(n)])
        p = mpmath.matrix([[mpmath.mpf(float(m[2 * i + 1, 2 * j + 1])) * sign[i] * sign[j]
                            for j in range(n)] for i in range(n)])
        chol = mpmath.cholesky(x)
        lam = min(mpmath.eigsy(chol.T * p * chol, eigvals_only=True))
        return float(mpmath.sqrt(lam))


def test_min_pt_symplectic_eig_matches_mpmath():
    """The decision's `min_pt_symplectic_eig`, in closed form on the
    standard form, is within 4 eps, relative, of an 80-digit eigensolve on
    that form's own doubles: on every TMSV rung 0-95 and on 300 physical
    random forms of each family.  The general `eigvals` of i sigma gamma
    erred like eps e^(4r): rung 80 read 5.6364e-8 where its doubles give
    5.6345e-8.  Coefficients rounded from plain float products give
    e^(-2r)/2 instead, 5.6268e-8 at rung 80 and 8.4e-9 for 7.45e-9 at 95."""
    rng = np.random.default_rng(28)
    forms = [tmsv_form(0.1 * i) for i in range(96)]
    forms += [sample_standard_form(rng) for _ in range(300)]
    forms += [sample_ww_detector(rng) for _ in range(300)]
    for form in forms:
        gamma = form.to_cm()
        nu = decide_separability(gamma).ppt.min_pt_symplectic_eig
        exact = _mp_min_pt_eig(reduce_to_standard_form(gamma, form.family)[0])
        assert abs(nu - exact) <= 4 * EPS * exact, form


def test_decision_ppt_agrees_with_ppt_decide_on_the_golden():
    inputs = json.loads((Path(__file__).parent / "data" / "golden"
                         / "decisions-input.json").read_text())
    for name, mat in inputs.items():
        gamma = CovMatrix(mat)
        assert decide_separability(gamma).ppt.is_ppt is ppt_decide(gamma).is_ppt, name


@settings(max_examples=100)
@given(_forms(), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8))
def test_closed_form_ppt_agrees_with_the_eigen_route(form, rs, thetas):
    """A form at |lhs| > 1e-6 under local squeezes |r| <= 3 (with local
    rotations for two modes; a Werner-Wolf pattern keeps only squeezes)
    reads the same PPT bit in the decision, in closed form on its standard
    form, and in `ppt_decide`, by eigensolves on its local normal form.  The
    two `min_pt_symplectic_eig` agree to within the error of the general
    eigensolve of i sigma gamma: 2 dim eps times scale^2 over the eigenvalue
    bounds it to first order, and 1.1 of that was seen."""
    assume(form.to_cm().is_physical() and abs(_lhs(form)) > 1e-6)
    if form.family is Family.WERNER_WOLF:
        thetas = [0.0] * 8
    gamma = dress(form, rs, thetas)
    report, ppt = decide_separability(gamma), ppt_decide(gamma)
    assert report.ppt.is_ppt is ppt.is_ppt
    nu = report.ppt.min_pt_symplectic_eig
    assert abs(nu - ppt.min_pt_symplectic_eig) <= 2 * gamma.dim * EPS * gamma._scale ** 2 / nu


def test_dressed_states_on_the_ppt_boundary_read_ppt_in_the_decision():
    """Vacuum plus rank-1 classical noise, 0.5 I + t v v^T, is separable with
    det C = 0, on the PPT boundary.  Under a local rotation-squeeze-rotation
    at |r| <= 3 its standard form has a c2 of the size of the rounding it
    inherits, of either sign, so the decision reads the sign of c1 c2
    against that rounding: all 60 read PPT and Separable.  Read against the
    form's own scale, 4 of them read NPT; the eigen route the decision took
    before read these 60 PPT, and 16 of 300 such states NPT."""
    rng = np.random.default_rng(74)
    for _ in range(60):
        v = rng.normal(size=4)
        noisy = CovMatrix(0.5 * np.eye(4) + rng.uniform(0.1, 2.0) * np.outer(v, v) / v.dot(v))
        gamma = dress(noisy, rng.uniform(-3.0, 3.0, 2), rng.uniform(0.0, 2 * math.pi, 4))
        report = decide_separability(gamma)
        assert report.ppt.is_ppt and report.verdict is Verdict.SEPARABLE


@pytest.mark.parametrize("c2, want", [(0.01, False), (-0.01, True)])
def test_a_non_state_admitted_at_a_wide_tol_reads_alike_in_both_routes(c2, want):
    """TwoModeStandardForm(0.3, 0.3, 0.01, c2) is no state, admitted at tol
    0.5.  At c2 = 0.01 both squared symplectic eigenvalues of its partial
    transpose lie below 1/4, so its bona-fide polynomial D - T/4 + 1/16 is
    positive, and a test of that sign would read it PPT; it is NPT in both
    routes.  At c2 = -0.01 the partial transpose is at least as physical as
    the form, and both routes read PPT, lifted by the form's own deficit."""
    gamma = TwoModeStandardForm(0.3, 0.3, 0.01, c2).to_cm()
    assert decide_separability(gamma, tol=0.5).ppt.is_ppt is want
    assert ppt_decide(gamma, tol=0.5).is_ppt is want


@pytest.mark.parametrize("gamma", [
    tmsv_form(0.5).to_cm().mat,
    dress(TwoModeStandardForm(1.2, 0.9, 0.5, -0.2), (2.0, -1.0), (0.3, 1.1, 2.0, 0.4)).mat,
    TwoModeStandardForm(1000.0, 900.0, 948.1826037214564, 948.1826037214564).to_cm().mat,
    werner_wolf_family(WWFamilyParams(1.0, 0.5, 1.0, 2.0, 1.5)).to_cm().mat,
    dress(WernerWolfForm(1.2, 0.9, 1.1, 1.3, 0.4, 0.3), (1.0, -2.0, 0.5, 3.0), (0.0,) * 8).mat,
], ids=["tmsv", "dressed-two-mode", "boundary-two-mode", "wwfamily", "wwpattern"])
def test_decision_runs_no_eigensolver_after_admission(gamma, monkeypatch):
    """On a fresh CovMatrix the decision calls `eigvalsh` once, to admit it,
    and no other LAPACK eigensolver: the PPT annotation is closed form."""
    calls = []
    for name in ("eigvalsh", "eigvals", "eigh", "eig"):
        def counted(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    decide_separability(CovMatrix(gamma))
    assert calls == ["eigvalsh"]


def test_two_mode_state_is_never_bound_entangled():
    """A two-mode criterion within its rounding is not bound entanglement:
    TwoModeStandardForm(1000, 900, c, c), at lhs -8.8e-7 (exactly -8.7e-7)
    against a band of 1.3e-5, read Entangled and bound entangled under an
    absolute band of 1e-9, and then Boundary through the PPT disagreement.
    Within its band the certificate decides, and the vacuum point dominates
    the state to within the certificate's rounding (slack -2.3e-13 against
    8 eps 1000), so it is Separable.  A Werner-Wolf state keeps its bound
    entanglement (`test_ww_family_state_is_bound_entangled`)."""
    c = 948.1826037214564
    gamma = TwoModeStandardForm(1000.0, 900.0, c, c).to_cm()
    report = decide_separability(gamma)
    assert -report.lhs_rounding <= report.lhs_value < 0 and exact_simon_lhs(gamma) < 0
    assert report.verdict is Verdict.SEPARABLE and report.certificate == (1.0, 1.0)
    assert report.ppt.is_ppt and not report.bound_entangled and report.note == ""


def test_criterion_within_its_rounding_without_a_certificate_is_boundary():
    """Where the criterion lies within its band and no product state is
    dominated, the verdict is Boundary with a note that says so: the state
    above with its p correlation 32 ulps larger reads lhs -7.4e-6 against a
    band of 1.3e-5, and the vacuum point misses it beyond the certificate's
    rounding."""
    form = TwoModeStandardForm(1000.0, 900.0, 948.1826037214564, 948.18260372146)
    report = decide_separability(form.to_cm())
    assert abs(report.lhs_value) <= report.lhs_rounding and report.certificate is None
    assert report.verdict is Verdict.BOUNDARY
    assert report.note == "criterion within its rounding and no certificate found"


def test_dressed_binary_verdicts_follow_the_exact_sign():
    """On the dressed ensemble at r_max = 8 every binary verdict has the
    sign of the criterion of the input's own doubles, formed exactly, and
    a two-mode Separable verdict reads PPT.  Three of its states have a
    certificate accepted within the rounding the reduction inherits while
    their partial transpose reads NPT; at 1x1 PPT is separability, so they
    are Boundary, without the certificate and with a note that says so,
    not Separable (their exact criterion is -0.095, -0.016 and -0.035)."""
    guarded = []
    for k, gamma in enumerate(dressed_ensemble(8, 300)):
        report = decide_separability(gamma)
        if report.note.startswith("certificate found"):
            assert report.note == ("certificate found but the partial transpose reads NPT: "
                                   "they disagree within rounding")
            assert report.verdict is Verdict.BOUNDARY and report.certificate is None
            assert not report.ppt.is_ppt and abs(report.lhs_value) <= report.lhs_rounding
            guarded.append(k)
        elif report.verdict is not Verdict.BOUNDARY:
            assert (report.verdict is Verdict.SEPARABLE) is (exact_simon_lhs(gamma) >= 0), k
            assert report.ppt.is_ppt is (report.verdict is Verdict.SEPARABLE), k
    assert guarded == [144, 146, 282]


def test_criterion_against_a_ppt_reading_is_boundary():
    """The two-mode guard: a CM admitted at `tol` but below the states,
    (1, 1, 0, 0.75 (1 + 1e-12)) with least symplectic eigenvalue 1/2 -
    7.5e-13, has a criterion below its band, -1.1e-12 against 1.1e-14, from
    its own deficit, while its partial transpose, with c1 = 0, reads PPT
    lifted by that deficit.  At 1x1 PPT is separability, so the two disagree
    within rounding, and the verdict is Boundary with a note that says so,
    not Entangled."""
    report = decide_separability(TwoModeStandardForm(1.0, 1.0, 0.0, 0.75 * (1 + 1e-12)).to_cm())
    assert report.lhs_value < -report.lhs_rounding and report.ppt.is_ppt
    assert report.verdict is Verdict.BOUNDARY and not report.bound_entangled
    assert report.note == ("criterion negative but the partial transpose reads PPT: "
                           "they disagree within rounding")


@pytest.mark.parametrize("r_max", [0, 3, 5, 8])
def test_lhs_rounding_bounds_the_exact_criterion(r_max):
    """The band a decision reports holds the criterion of the input's own
    doubles, Simon's invariants formed exactly: |lhs - exact| <=
    lhs_rounding on undressed forms and on the dressed ensemble up to r = 8,
    where the form's entries inherit rounding grown by e^(2r)."""
    for gamma in dressed_ensemble(r_max, 100):
        report = decide_separability(gamma)
        assert abs(Fraction(report.lhs_value) - exact_simon_lhs(gamma)) <= report.lhs_rounding


def _near_boundary(a: float, b: float, c1: float, shift: float):
    """The two-mode form (a, b, c1, c2) with |c2| on Simon's boundary, moved
    by the relative `shift`: the positive root in |c2| of (ab - c1^2)(ab -
    c2^2) - |c1 c2|/2 - (a^2 + b^2)/4 + 1/16 = 0, or None where there is
    none."""
    p = a * b - c1 * c1
    k = a * b * p - (a * a + b * b) / 4 + 1 / 16
    if not (p > 0 and k > 0):
        return None
    root = (math.sqrt(c1 * c1 / 4 + 4 * p * k) - abs(c1) / 2) / (2 * p)
    return TwoModeStandardForm(a, b, c1, root * (1 + shift))


def test_lhs_is_the_criterion_of_the_forms_doubles_rounded_once():
    """`separability_lhs` equals, bit for bit, the float of the form
    polynomial evaluated exactly on the form's doubles (`exact_form_lhs`):
    on 2,000 random forms of each family, TMSV rungs 0-95 and 500 forms
    within 1e-8 of Simon's boundary.  An evaluation in doubles is not
    correctly rounded and misses many of them.  The decision reports that
    same number for its standard form, here on the dressed ensemble at
    r_max = 3."""
    rng = np.random.default_rng(32)
    forms = [sample_standard_form(rng) for _ in range(2000)]
    forms += [sample_ww_detector(rng) for _ in range(2000)]
    forms += [tmsv_form(0.1 * i) for i in range(96)]
    near = []
    while len(near) < 500:
        form = _near_boundary(*rng.uniform(0.5, 2.0, 2), rng.uniform(-1.0, 1.0),
                              rng.uniform(-1e-8, 1e-8))
        if form is not None:
            near.append(form)
    for form in forms + near:
        assert separability_lhs(form) == float(exact_form_lhs(form)), form
    for gamma in dressed_ensemble(3, 300):
        form, _ = reduce_to_standard_form(gamma, Family.TWO_MODE)
        assert decide_separability(gamma).lhs_value == separability_lhs(form)


@settings(max_examples=300)
@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0),
       st.floats(-15.0, -7.0), st.sampled_from([-1.0, 1.0]))
def test_verdict_outside_the_band_is_the_exact_sign(a, b, c1, log_shift, sign):
    """On undressed forms within 1e-7 of Simon's boundary, the band holds
    the exact criterion of the form's doubles, and wherever |lhs| exceeds it
    the verdict is binary, with the exact sign: the band is the criterion's
    own rounding, not an absolute 1e-9."""
    form = _near_boundary(a, b, c1, sign * 10 ** log_shift)
    assume(form is not None)
    gamma = form.to_cm()
    exact = exact_simon_lhs(gamma)
    assume(Fraction(1, 10 ** 14) <= abs(exact) <= Fraction(1, 10 ** 7)
           and validate_cm(gamma, 0.0).is_physical)
    report = decide_separability(gamma)
    assert abs(Fraction(report.lhs_value) - exact) <= report.lhs_rounding
    if abs(report.lhs_value) > report.lhs_rounding:
        assert report.verdict is (Verdict.ENTANGLED if exact < 0 else Verdict.SEPARABLE)
