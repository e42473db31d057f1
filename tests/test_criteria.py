import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvwitness.criteria import (TOL_CERT, Verdict, WWFamilyParams, _peak,
                                certificate_min_eig, decide_separability,
                                feasibility_search, ppt_decide,
                                separability_lhs, simon_lhs,
                                werner_wolf_family, werner_wolf_lhs)
from cvwitness.exceptions import (ConstraintViolatedError, CvWitnessError,
                                  DimensionMismatchError, PartitionError,
                                  PatternMismatchError, ScaleOverflowError)
from cvwitness.standard_form import (Family, TwoModeStandardForm,
                                     WernerWolfForm, detect_family,
                                     reduce_to_standard_form)
from cvwitness.symplectic import (CovMatrix, symplectic_eigenvalues,
                                  validate_cm)
from cvwitness.witness import minmax_optimize

from conftest import (grid_certificate, sample_standard_form,
                      sample_ww_family_params, simon_invariant_lhs, tmsv_form)
from paper_audit import werner_wolf_family_lhs_claim

PROPERTY = settings(max_examples=60)


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
    with pytest.raises(PatternMismatchError):
        decide_separability(CovMatrix(np.eye(4) * 0.1))


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


def _rotation(t):
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


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


def _dress(form, rs, thetas):
    """The form's CM under a rotation-squeeze-rotation on every mode."""
    s = np.zeros((2 * form.n_modes,) * 2)
    for j in range(form.n_modes):
        r, t1, t2 = rs[j], thetas[2 * j], thetas[2 * j + 1]
        s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = (
            _rotation(t1) @ np.diag([np.exp(r), np.exp(-r)]) @ _rotation(t2))
    m = s @ form.to_cm().mat @ s.T
    return CovMatrix((m + m.T) / 2)


@PROPERTY
@given(_forms(), st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
       st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8))
def test_array_level_bits_on_dressed_states(form, rs, thetas):
    assume(form.to_cm().is_physical())
    _assert_ppt_bits(form.to_cm())
    _assert_ppt_bits(_dress(form, rs, thetas))
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
    gamma = _dress(TwoModeStandardForm(1.0, 1.0, 0.504, 0.504), (5.0, -5.0),
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
    gamma = _dress(form, (8.0, -8.0), (0.0, 0.0, 0.0, 0.0))
    assert ppt_decide(gamma).is_ppt is False
    report = decide_separability(gamma)
    assert report.verdict is Verdict.ENTANGLED and not report.bound_entangled
    for thetas in ((0.4, 1.0, 2.2, 0.7), (0.0, 0.4, 3.0, 1.0)):
        gamma = _dress(form, (8.0, -8.0), thetas)
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
        gamma = _dress(form, [r_max * r for r in rs], thetas)
        try:
            report, ppt = decide_separability(gamma), ppt_decide(gamma)
        except CvWitnessError:
            if r_max == 5:
                raise
            continue
        assert report.verdict is want and not report.bound_entangled
        assert report.ppt.is_ppt is ppt.is_ppt is (want is Verdict.SEPARABLE)


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
                _rotation(t1) @ np.diag([np.exp(r), np.exp(-r)]) @ _rotation(t2))
        m = s @ f.to_cm().mat @ s.T
        gamma = CovMatrix((m + m.T) / 2)
        form, _ = reduce_to_standard_form(gamma, Family.TWO_MODE)
        scale = np.linalg.norm(gamma.mat, 2) ** 4
        assert abs(simon_lhs(form) - simon_invariant_lhs(gamma)) <= 1e-12 * scale
        assert abs(simon_lhs(f) - simon_invariant_lhs(f.to_cm())) <= 1e-12 * scale

