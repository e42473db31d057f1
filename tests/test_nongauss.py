import warnings
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvwitness.criteria import Verdict, WWFamilyParams, werner_wolf_family
from cvwitness.exceptions import (CvWitnessError, DegeneratePreparationError,
                                  DimensionMismatchError, OrderTooHighError,
                                  PatternMismatchError, ScaleOverflowError,
                                  SingularSumError)
from cvwitness.fock import gaussian_op_fock
from cvwitness.nongauss import (NonGaussState, _KanBox, build_fock_state,
                                decide_separability_nongauss, fock_direct_trace,
                                mean_on_detector)
from cvwitness.standard_form import DetectorSpec, Family, TwoModeStandardForm
from cvwitness.symplectic import CovMatrix

from conftest import (ccm_mean_on_detector, cm_to_ccm, destroy,
                      dict_coeff_extract, kan_quadratic, mode_op, q_char,
                      random_physical_cm, sample_two_mode_detector,
                      sample_ww_detector, tmsv_form)
from paper_audit import asymptotic_check, displacement_matrix

VACUUM_1 = CovMatrix(np.eye(2) / 2)
THERMAL_1 = CovMatrix(1.5 * np.eye(2))  # nbar = 1


def test_q_char_reduces_to_kernel_chi():
    kernel = tmsv_form(0.3).to_cm()
    mu = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    zero = np.zeros(2)
    w = np.concatenate([mu, mu.conj()])
    expect = np.exp(-0.5 * w @ cm_to_ccm(kernel) @ w)
    assert abs(q_char(kernel, zero, zero, mu) - expect) < 1e-12


def test_q_char_matches_fock():
    kernel = CovMatrix(np.diag([0.7, 0.9]))
    cutoff = 20
    rho = gaussian_op_fock(kernel, cutoff)
    import scipy.linalg as la
    a = destroy(cutoff)
    xi, eta = 0.1 + 0.05j, -0.07 + 0.12j
    mu = 0.2 - 0.1j
    op = (la.expm(xi * a.T) @ la.expm(-np.conj(eta) * a) @ rho
          @ la.expm(eta * a.T) @ la.expm(-np.conj(xi) * a))
    fock_val = np.trace(op @ displacement_matrix(mu, cutoff))
    assert abs(q_char(kernel, [xi], [eta], [mu]) - fock_val) < 1e-7


def test_normalization_single_photon():
    s = NonGaussState(VACUUM_1, add=(1,), subtract=(0,))
    assert abs(s.norm - 1.0) < 1e-12


def test_normalization_thermal_subtraction():
    s = NonGaussState(THERMAL_1, add=(0,), subtract=(1,))
    assert abs(s.norm - 1.0) < 1e-10  # 1/nbar at nbar=1


def test_normalization_tmsv_addition():
    r = 0.4
    s = NonGaussState(tmsv_form(r).to_cm(), add=(1, 0), subtract=(0, 0))
    assert abs(s.norm - 1.0 / np.cosh(r) ** 2) < 1e-10


def test_subtract_from_vacuum_degenerate():
    with pytest.raises(DegeneratePreparationError):
        NonGaussState(VACUUM_1, add=(0,), subtract=(1,))


def test_order_too_high():
    with pytest.raises(OrderTooHighError):
        NonGaussState(THERMAL_1, add=(5,), subtract=(4,))


@pytest.mark.parametrize("add", [(1.7,), (float("nan"),), (float("inf"),)])
def test_non_integral_ladder_count_refused(add):
    """A count that int() would truncate, or on which it raises a bare
    ValueError or OverflowError, is a typed refusal."""
    with pytest.raises(DimensionMismatchError, match="not integers"):
        NonGaussState(THERMAL_1, add=add, subtract=(0,))


@pytest.mark.parametrize("add, subtract, match", [
    ((1, 0), (0,), "must have length 1"), ((0,), (-1,), "must be nonnegative")])
def test_ladder_pattern_refused(add, subtract, match):
    with pytest.raises(DimensionMismatchError, match=match):
        NonGaussState(THERMAL_1, add=add, subtract=subtract)


def test_large_kernel_refused_with_warnings_as_errors():
    """One photon added to each mode of a kernel of scale 1e160: the order-4
    derivative, about 1e320, overflows and is refused before numpy warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleOverflowError, match="overflows double precision"):
            NonGaussState(CovMatrix(1e160 * np.eye(4)), (1, 1), (0, 0))


def test_large_kernel_refused_not_nan():
    """At scale 1e200 the derivative was nan, which the degeneracy test let
    through as the norm; it is refused, and numpy warns nothing."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ScaleOverflowError, match="overflows double precision"):
            NonGaussState(CovMatrix(1e200 * np.eye(4)), (1, 1), (0, 0))
    assert not seen


def test_large_kernel_norm_representable():
    """At scale 1e150 the derivative, about 1e300, is representable: the
    norm is 1e-300."""
    s = NonGaussState(CovMatrix(1e150 * np.eye(4)), (1, 1), (0, 0))
    assert abs(s.norm / 1e-300 - 1) <= 1e-12


def test_mean_on_singular_sum_refused():
    """A detector CM equal to minus the kernel's makes gamma_G + gamma_M,
    and with it the CCM sum, singular: the mean is undefined."""
    kernel = tmsv_form(0.3).to_cm()
    s = NonGaussState(kernel, add=(1, 0), subtract=(0, 0))
    with pytest.raises(SingularSumError, match="is singular"):
        mean_on_detector(s, CovMatrix(-kernel.mat))


def test_mean_on_detector_of_other_mode_count_refused():
    """A four-mode Werner-Wolf detector on a two-mode state is refused."""
    s = NonGaussState(tmsv_form(0.3).to_cm(), add=(1, 0), subtract=(0, 0))
    detector = werner_wolf_family(WWFamilyParams(1.0, 0.5, 1.0, 2.0, 1.5))
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 4 vs 8"):
        mean_on_detector(s, detector)


def test_mean_single_photon_on_vacuum_projector():
    s = NonGaussState(VACUUM_1, add=(1,), subtract=(0,))
    assert abs(mean_on_detector(s, VACUUM_1)) < 1e-12


def test_mean_single_photon_on_thermal():
    s = NonGaussState(VACUUM_1, add=(1,), subtract=(0,))
    assert abs(mean_on_detector(s, THERMAL_1) - 0.25) < 1e-12


def test_mean_matches_fock_added_tmsv():
    r = 0.3
    s = NonGaussState(tmsv_form(r).to_cm(), add=(1, 0), subtract=(0, 0))
    d = tmsv_form(r)
    mean = mean_on_detector(s, d)
    oracle = fock_direct_trace(s, d, cutoff=22)
    assert abs(mean - oracle) < 1e-6


def test_build_fock_state_matches_dense_ladders():
    """The index-shift ladders equal dense register products L rho L^dag."""
    s = NonGaussState(TwoModeStandardForm(0.7, 0.65, 0.15, -0.1).to_cm(),
                      add=(1, 2), subtract=(2, 1))
    cutoff = 12
    a = destroy(cutoff)
    left = np.eye(cutoff ** 2)
    for j in range(2):
        left = (np.linalg.matrix_power(mode_op(a.T, j, 2, cutoff), s.add[j])
                @ np.linalg.matrix_power(mode_op(a, j, 2, cutoff), s.subtract[j])
                @ left)
    rho = left @ gaussian_op_fock(s.kernel, cutoff) @ left.T
    rho /= np.trace(rho).real
    assert np.max(np.abs(build_fock_state(s, cutoff) - rho)) <= 1e-12


def test_build_fock_state_normalized_hermitian():
    s = NonGaussState(tmsv_form(0.3).to_cm(), add=(1, 0), subtract=(0, 1))
    rho = build_fock_state(s, cutoff=18)
    assert abs(np.trace(rho).real - 1.0) < 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


class _SingleModeSpec:
    """Minimal stand-in exposing scaled()/to_cm() for a single-mode thermal."""

    def __init__(self, t: float = 1.0):
        self.t = t

    def scaled(self, t: float):
        return _SingleModeSpec(t)

    def to_cm(self) -> CovMatrix:
        return CovMatrix(self.t * 1.5 * np.eye(2))


def test_asymptotic_kernel_only_identity():
    s = NonGaussState(THERMAL_1, add=(0,), subtract=(0,))
    res = asymptotic_check(s, _SingleModeSpec())
    assert all(r < 1e-12 for r in res)


def test_asymptotic_single_photon_decreasing():
    s = NonGaussState(VACUUM_1, add=(1,), subtract=(0,))
    res = asymptotic_check(s, _SingleModeSpec())
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-2


def test_decide_added_tmsv_entangled():
    s = NonGaussState(tmsv_form(0.3).to_cm(), add=(1, 0), subtract=(0, 0))
    report = decide_separability_nongauss(s)
    assert report.verdict is Verdict.ENTANGLED
    assert "kernel-level" in report.note


def test_decide_added_product_vacuum_separable():
    s = NonGaussState(CovMatrix(np.eye(4) / 2), add=(1, 0), subtract=(0, 0))
    report = decide_separability_nongauss(s)
    assert report.verdict is Verdict.SEPARABLE
    assert report.certificate == (1.0, 1.0)


def test_decide_subtracted_ww_bound_entangled():
    form = werner_wolf_family(WWFamilyParams(1.0, 1.0, 2.0, 3.0, 1.0))
    s = NonGaussState(form.to_cm(), add=(0, 0, 0, 0), subtract=(1, 0, 0, 0))
    report = decide_separability_nongauss(s)
    assert report.verdict is Verdict.ENTANGLED
    assert report.bound_entangled


# the dictionary oracle's cost grows with the index box prod(n_i + 1)
_ORACLE_BOX = 1296


def _trim(values: list[int], max_box: int, max_total: int) -> list[int]:
    """Zero each entry that would push prod(v + 1) past max_box or the sum
    past max_total, so that every draw is used."""
    out, box, total = [], 1, 0
    for v in values:
        if box * (v + 1) > max_box or total + v > max_total:
            v = 0
        box *= v + 1
        total += v
        out.append(v)
    return out


@st.composite
def coefficient_cases(draw):
    """(q size, seed, diagonal shift, target) with sum(target) <= 16: ladder
    targets (k, k, m, m) as NonGaussState builds them, or unstructured."""
    d = draw(st.sampled_from([4, 8, 16]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    shift = draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        # each ladder index appears twice in the target, squaring the box
        half = _trim(draw(st.lists(st.integers(0, 4), min_size=d // 2,
                                   max_size=d // 2)),
                     max_box=36, max_total=8)
        k, m = half[:d // 4], half[d // 4:]
        target = k + k + m + m
    else:
        target = _trim(draw(st.lists(st.integers(0, 8), min_size=d,
                                     max_size=d)),
                       max_box=_ORACLE_BOX, max_total=16)
    return d, seed, shift, tuple(target)


@settings(max_examples=60)
@given(coefficient_cases())
@example((4, 0, 0.0, (0, 0, 0, 0)))
@example((8, 1, 1.0, (1, 0, 2, 0, 0, 0, 0, 0)))
def test_kan_coefficient_matches_dictionary_oracle(case):
    d, seed, shift, target = case
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q = (a + a.T) / 2 + shift * np.eye(d)
    box = _KanBox(target)
    got = box.hafnian(kan_quadratic(box, q)) / prod(factorial(k) for k in target)
    if sum(target) % 2 == 1:
        assert got == 0
    elif not any(target):
        assert got == 1
    else:
        ref = dict_coeff_extract(q, target)
        assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("add,sub", [((2, 1), (1, 2)), ((2, 2), (2, 2))])
def test_mean_matches_fock_high_order(add, sub):
    """Orders 6 and 8 on a low-occupancy kernel, where cutoff 26 truncates
    far below the tolerance."""
    kernel = TwoModeStandardForm(0.7, 0.65, 0.15, -0.1).to_cm()
    d = sample_two_mode_detector(np.random.default_rng(3))
    s = NonGaussState(kernel, add, sub)
    mean = mean_on_detector(s, d)
    oracle = fock_direct_trace(s, d, cutoff=26)
    assert abs(mean - oracle) < 1e-8


@pytest.mark.parametrize("kernel, add, sub, sample", [
    (TwoModeStandardForm(0.7, 0.65, 0.15, -0.1).to_cm(), (2, 1), (1, 2),
     sample_two_mode_detector),
    (werner_wolf_family(WWFamilyParams(1.0, 1.0, 2.0, 3.0, 1.0)).to_cm(),
     (1, 0, 0, 1), (0, 1, 1, 0), sample_ww_detector),
])
def test_state_box_reused_across_detectors(kernel, add, sub, sample):
    """One state evaluated on many detectors, in either order, gives each
    detector the mean of a state built fresh for it."""
    rng = np.random.default_rng(11)
    detectors = [sample(rng) for _ in range(6)]
    s = NonGaussState(kernel, add, sub)
    fresh = [mean_on_detector(NonGaussState(kernel, add, sub), d)
             for d in detectors]
    for j in [*range(6), *reversed(range(6))]:
        assert abs(mean_on_detector(s, detectors[j]) - fresh[j]) <= 1e-12 * abs(fresh[j])


def test_asymptotic_check_matches_fresh_states():
    """asymptotic_check reuses one state along the scales; each residual is
    that of a fresh state on the scaled detector."""
    kernel = TwoModeStandardForm(0.7, 0.65, 0.15, -0.1).to_cm()
    d0 = sample_two_mode_detector(np.random.default_rng(5))
    s = NonGaussState(kernel, (1, 0), (0, 1))
    scales = (10.0, 100.0, 1000.0)
    for t, res in zip(scales, asymptotic_check(s, d0, scales)):
        fresh = NonGaussState(kernel, (1, 0), (0, 1))
        dt = d0.scaled(t)
        det = np.linalg.det(kernel.mat + dt.to_cm().mat)
        ref = abs(mean_on_detector(fresh, dt) * np.sqrt(abs(det)) - 1.0)
        assert res == ref


UNIT_DETECTOR = DetectorSpec(Family.TWO_MODE, 1, 1, 1, 1, 0, 0)


@pytest.mark.parametrize("scale", [1e20, 1e40, 1e80, 1e100])
def test_mean_follows_the_scale_law(scale):
    """One photon added to a mode of the kernel s I_4, on the unit two-mode
    detector: Tr(rho M) = (1 - 3/s + ...) / (2 s^3).  No term of order s is
    formed and cancelled, so the mean keeps its digits up to s = 1e100; the
    CCM-frame reference `ccm_mean_on_detector` reads 32768 times too large
    at 1e20 and -0.0 from 1e40."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = NonGaussState(CovMatrix(scale * np.eye(4)), (1, 0), (0, 0))
        mean = mean_on_detector(s, UNIT_DETECTOR)
    assert abs(mean * 2 * scale ** 3 - 1) <= 1e-12


def test_underflowing_mean_refused():
    """At s = 1e110 the mean, about 5e-331, underflows: it is refused, as
    `lambda_closed_form` refuses an underflowing Lambda, and numpy warns
    nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = NonGaussState(CovMatrix(1e110 * np.eye(4)), (1, 0), (0, 0))
        with pytest.raises(ScaleOverflowError, match="leaves double precision"):
            mean_on_detector(s, UNIT_DETECTOR)


def test_mean_on_non_physical_kernel_refused():
    """diag(0.1) is no state (bona-fide eigenvalue -0.4); a photon added to
    it has a norm, but its "mean" is refused rather than returned."""
    s = NonGaussState(CovMatrix(np.diag([0.1] * 4)), (1, 0), (0, 0))
    with pytest.raises(PatternMismatchError, match="not physical"):
        mean_on_detector(s, UNIT_DETECTOR)


def _rotation(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, s], [-s, c]])


def test_mean_on_squeezed_non_physical_kernel_refused():
    """diag(0.3, 0.3, 0.6, 0.6), with nu_min = 0.3, stays no state when its
    mode A is dressed to r = 7: its bona-fide eigenvalue, -4.4e-7, is far
    below rounding at its scale 3.6e5, so the mean is refused (a tolerance
    of TOL_PSD times the scale returned 2e-9)."""
    local = np.eye(4)
    local[:2, :2] = _rotation(0.3) @ np.diag([np.exp(7.0), np.exp(-7.0)]) @ _rotation(1.1)
    mat = local @ np.diag([0.3, 0.3, 0.6, 0.6]) @ local.T
    s = NonGaussState(CovMatrix((mat + mat.T) / 2), (1, 0), (0, 0))
    with pytest.raises(PatternMismatchError, match="not physical"):
        mean_on_detector(s, UNIT_DETECTOR)


def _dressed_kernel(rng: np.random.Generator, n_modes: int, scale: float) -> CovMatrix:
    """A random physical CM under a rotation-squeeze-rotation on every mode,
    which correlates x with p, times `scale` >= 1 (still a state)."""
    local = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        t1, t2 = rng.uniform(0, np.pi, 2)
        r = rng.uniform(-0.8, 0.8)
        local[2 * j:2 * j + 2, 2 * j:2 * j + 2] = (
            _rotation(t1) @ np.diag([np.exp(r), np.exp(-r)]) @ _rotation(t2))
    return CovMatrix(scale * local @ random_physical_cm(rng, n_modes).mat @ local.T)


def _ladder(n_modes: int, slots: list[int]) -> tuple[tuple, tuple]:
    """(add, subtract) with one ladder operator per drawn slot: slot j < n
    adds to mode j, slot n + j subtracts from it."""
    counts = np.bincount(slots, minlength=2 * n_modes)
    return tuple(int(k) for k in counts[:n_modes]), tuple(int(k) for k in counts[n_modes:])


@st.composite
def reference_cases(draw):
    """(modes, seed, kernel scale 1-10, ladder slots of order 1-6, detector
    kind): the family detector of the mode count (two-mode or
    Werner-Wolf), or a generic positive definite CM."""
    n = draw(st.sampled_from([2, 4]))
    return (n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.floats(1.0, 10.0)),
            draw(st.lists(st.integers(0, 2 * n - 1), min_size=1, max_size=6)),
            draw(st.sampled_from(["family", "generic"])))


@settings(max_examples=60)
@given(reference_cases())
@example((2, 0, 10.0, [0, 0, 1, 1, 2, 3], "family"))
@example((4, 1, 1.0, [0, 3, 5, 6], "generic"))
def test_mean_matches_the_ccm_frame_reference(case):
    """The quadrature-frame mean equals the CCM-frame evaluation it replaced
    (`ccm_mean_on_detector`) to 1e-10 relative on kernels with x-p
    correlation, at kernel scales up to 10 where the reference still holds
    its digits (worst seen 3.7e-12)."""
    n, seed, scale, slots, kind = case
    rng = np.random.default_rng(seed)
    add, sub = _ladder(n, slots)
    if kind == "family":
        d = sample_two_mode_detector(rng) if n == 2 else sample_ww_detector(rng)
    else:
        a = rng.normal(size=(2 * n, 2 * n))
        d = CovMatrix(a @ a.T / (2 * n) + 0.1 * np.eye(2 * n))
    try:
        s = NonGaussState(_dressed_kernel(rng, n, scale), add, sub)
    except DegeneratePreparationError:
        return
    ref = ccm_mean_on_detector(s, d)
    assert abs(mean_on_detector(s, d) - ref) <= 1e-10 * abs(ref)


@st.composite
def scaled_cases(draw):
    """(modes, seed, log10 of the kernel scale in [-300, 300], ladder slots
    of order 0-4)."""
    n = draw(st.sampled_from([2, 4]))
    return (n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.floats(-300.0, 300.0)),
            draw(st.lists(st.integers(0, 2 * n - 1), max_size=4)))


@settings(max_examples=150)
@given(scaled_cases())
@example((2, 0, 300.0, []))
@example((2, 0, -300.0, [0]))
@example((4, 0, 150.0, [0, 4]))
def test_scaled_kernel_gives_a_positive_mean_or_one_typed_refusal(case):
    """A physical CM times 10^e, with a ladder pattern of order <= 4, on a
    family detector: `NonGaussState` and `mean_on_detector` give a finite
    positive mean or raise one `CvWitnessError` (a kernel below the vacuum
    is no state; a derivative or a mean can leave double precision), and
    numpy warns nothing."""
    n, seed, log_scale, slots = case
    rng = np.random.default_rng(seed)
    kernel = CovMatrix(10.0 ** log_scale * random_physical_cm(rng, n).mat)
    d = sample_two_mode_detector(rng) if n == 2 else sample_ww_detector(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mean = mean_on_detector(NonGaussState(kernel, *_ladder(n, slots)), d)
        except CvWitnessError:
            return
    assert np.isfinite(mean) and mean > 0
