"""Acceptance gate: one test per release criterion.

Each criterion is a single test function, so `pytest -v` prints exactly one
pass/fail line per criterion.  Random ensembles are seeded and the stated
tolerances appear literally in the asserts.
"""

import time

import numpy as np
import pytest

from cvwitness.criteria import (Verdict, certificate_min_eig,
                                feasibility_search, ppt_decide, separability_lhs,
                                werner_wolf_family)
from cvwitness.fock import gaussian_op_fock, seesaw_lambda
from cvwitness.nongauss import (NonGaussState, decide_separability_nongauss,
                                fock_direct_trace, mean_on_detector)
from cvwitness.standard_form import Family, TwoModeStandardForm
from cvwitness.symplectic import CovMatrix
from cvwitness.witness import (DetectorSpec, lambda_closed_form,
                               minmax_optimize)

from conftest import (sample_standard_form, sample_two_mode_detector,
                      sample_ww_detector, sample_ww_family_params, tmsv_form)
from paper_audit import (asymptotic_check, channel_commutator_norm,
                         channel_output_vs_fock, detector_to_channel)


def test_criterion_1_simon_tmsv_reproduction():
    t0 = time.time()
    for r in (0.0, 0.1, 0.3, 0.5):
        lhs = separability_lhs(tmsv_form(r))
        assert abs(lhs - (1 - np.cosh(4 * r)) / 8) < 1e-10
    # r = 0 sits exactly on the boundary
    assert separability_lhs(tmsv_form(0.0)) == 0.0
    assert time.time() - t0 < 1.0


def test_criterion_2_werner_wolf_bound_entanglement():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = sample_ww_family_params(rng)
        form = werner_wolf_family(p)
        assert separability_lhs(form) < 0
        assert ppt_decide(form.to_cm()).is_ppt
    assert time.time() - t0 < 10.0


def test_criterion_3_lambda_oracle_equality():
    t0 = time.time()
    rng = np.random.default_rng(3)

    def check(d, cutoff, dims):
        lam, _ = lambda_closed_form(d)
        rho = gaussian_op_fock(d.to_cm(), cutoff)
        res = seesaw_lambda(rho, dims, restarts=2, seed=0)
        assert abs(lam - res.value) <= 1e-3
        return res.value

    two_mode = [sample_two_mode_detector(rng) for _ in range(50)]
    for i, d in enumerate(two_mode):
        val = check(d, 25, (25, 25))
        if i < 5:  # cutoff-doubling drift on a subset
            rho2 = gaussian_op_fock(d.to_cm(), 50)
            res2 = seesaw_lambda(rho2, (50, 50), restarts=2, seed=0)
            assert abs(res2.value - val) < 1e-4

    # four-mode registers: cutoff bounded by memory, drift step 6 -> 7
    ww = [sample_ww_detector(rng) for _ in range(20)]
    for i, d in enumerate(ww):
        val = check(d, 6, (36, 36))
        if i < 3:
            rho2 = gaussian_op_fock(d.to_cm(), 7)
            res2 = seesaw_lambda(rho2, (49, 49), restarts=2, seed=0)
            assert abs(res2.value - val) < 1e-4
    assert time.time() - t0 < 600.0


def test_criterion_4_witness_matches_simon_sign():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        f = sample_standard_form(rng, exclude_band=1e-6)
        rep = minmax_optimize(f.to_cm())
        assert np.sign(rep.ell_limit - 1) == np.sign(separability_lhs(f))


def test_criterion_5_certificate_soundness():
    rng = np.random.default_rng(4)  # same ensemble as criterion 4
    n_separable = 0
    for _ in range(1000):
        f = sample_standard_form(rng, exclude_band=1e-6)
        if separability_lhs(f) < 0:
            continue
        cert = feasibility_search(f)
        assert cert is not None
        assert certificate_min_eig(f, *cert) >= -1e-10
        n_separable += 1
    assert n_separable > 100


def test_criterion_6_channel_validation():
    d = DetectorSpec(Family.TWO_MODE, 1.2, 1.6, 1.3, 1.3, 0.6, -0.45)
    for k, m in [(0, 0), (1, 1), (0, 1)]:
        assert channel_output_vs_fock(d, k, m, cutoff=20, scale_m3=1e3) < 1e-6
    rng = np.random.default_rng(6)
    for _ in range(10):
        dw = sample_ww_detector(rng).scaled(20.0)
        ch = detector_to_channel(dw)
        assert channel_commutator_norm(ch) < 1e-12
        assert ch.is_cp()


def _sample_nongauss_pair(rng):
    """Low-occupancy two-mode kernel, ladder pattern with |k|+|m| <= 4, and a
    physical two-mode detector."""
    from cvwitness.exceptions import DegeneratePreparationError
    while True:
        a, b = rng.uniform(0.55, 0.9, 2)
        cmax = min(np.sqrt(a * b) - 0.5, 0.4)
        c1 = rng.uniform(-cmax, cmax)
        c2 = rng.uniform(-cmax, cmax)
        f = TwoModeStandardForm(a, b, c1, c2)
        if not f.to_cm().is_physical():
            continue
        while True:
            lad = rng.integers(0, 3, size=4)
            if 0 < lad.sum() <= 4:
                break
        try:
            s = NonGaussState(f.to_cm(), add=tuple(lad[:2]),
                              subtract=tuple(lad[2:]))
        except DegeneratePreparationError:
            continue
        d = sample_two_mode_detector(rng)
        return s, d


def test_criterion_7_nongauss_equivalence():
    rng = np.random.default_rng(7)
    states = []
    for _ in range(100):
        s, d = _sample_nongauss_pair(rng)
        mean = mean_on_detector(s, d)
        oracle = fock_direct_trace(s, d, cutoff=20)
        assert abs(mean - oracle) < 1e-6
        states.append((s, d))
    # the large-detector residual decreases monotonically for every state
    for s, d in states[:20]:
        res = asymptotic_check(s, d, scales=(10.0, 100.0, 1000.0))
        assert res[0] >= res[1] >= res[2]


def test_criterion_8_nongauss_kernel_consistency():
    from cvwitness.criteria import decide_separability

    cases = [
        NonGaussState(tmsv_form(0.3).to_cm(), add=(1, 0), subtract=(0, 0)),
        NonGaussState(CovMatrix(np.eye(4) / 2), add=(1, 0), subtract=(0, 0)),
        NonGaussState(werner_wolf_family(
            sample_ww_family_params(np.random.default_rng(8))).to_cm(),
            add=(0, 0, 0, 0), subtract=(1, 0, 0, 0)),
    ]
    rng = np.random.default_rng(88)
    for _ in range(20):
        f = sample_standard_form(rng, exclude_band=1e-6)
        try:
            cases.append(NonGaussState(f.to_cm(), add=(1, 0), subtract=(0, 1)))
        except Exception:
            continue
    for s in cases:
        kernel_verdict = decide_separability(s.kernel).verdict
        assert decide_separability_nongauss(s).verdict is kernel_verdict
    # the two named instances
    assert decide_separability_nongauss(cases[0]).verdict is Verdict.ENTANGLED
    assert decide_separability_nongauss(cases[1]).verdict is Verdict.SEPARABLE
