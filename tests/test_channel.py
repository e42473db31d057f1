import numpy as np
import pytest

from cvwitness.channel import (GaussianChannel, channel_commutator_norm,
                               channel_output_char, channel_output_vs_fock,
                               detector_to_channel, exact_output_char,
                               fock_output_char)
from cvwitness.exceptions import DegenerateLimitError, DimensionMismatchError
from cvwitness.standard_form import Family
from cvwitness.symplectic import CovMatrix
from cvwitness.witness import DetectorSpec

from conftest import (overlap_identity_ratio, sample_two_mode_detector,
                      sample_ww_detector)

D_ASYM = DetectorSpec(Family.TWO_MODE, 1.2, 1.6, 1.3, 1.3, 0.6, -0.45)


def test_channel_matrices_diagonal_structure():
    ch = detector_to_channel(D_ASYM)
    assert ch.k.shape == (2, 2)
    assert np.allclose(ch.k, np.diag(np.diag(ch.k)))
    m1, _, m3, _, m5, _ = D_ASYM.params
    den_x = (m3 + 0.5) * (m3 - 0.5)
    assert abs(ch.k[0, 0] - m5 / np.sqrt(den_x)) < 1e-12
    assert abs(ch.alpha[0, 0] - (m1 - m5 ** 2 * m3 / den_x)) < 1e-12


def test_channel_cp_and_commutator(rng):
    for sampler in (sample_two_mode_detector, sample_ww_detector):
        for _ in range(10):
            d = sampler(rng)
            _, _, m3, m4, _, _ = d.params
            if m3 + 0.5 <= 1.0 or m4 + 0.5 <= 1.0:
                continue
            ch = detector_to_channel(d.scaled(20.0))
            assert channel_commutator_norm(ch) < 1e-12
            assert ch.is_cp()


def test_channel_apply_dimension_check():
    ch = detector_to_channel(D_ASYM)
    with pytest.raises(DimensionMismatchError):
        ch.apply(CovMatrix(np.eye(4)))


def test_degenerate_limit_raises():
    d = DetectorSpec(Family.TWO_MODE, 1.0, 1.0, 0.4, 0.4, 0.1, 0.1)
    with pytest.raises(DegenerateLimitError):
        detector_to_channel(d)


def test_exact_output_matches_fock():
    nu = 0.3 + 0.2j
    for k, m in [(0, 0), (1, 1), (0, 1), (2, 1)]:
        dev = abs(fock_output_char(D_ASYM, k, m, nu, 24)
                  - exact_output_char(D_ASYM, k, m, nu))
        assert dev < 1e-7


def test_exact_output_requires_isotropic_b():
    d = DetectorSpec(Family.TWO_MODE, 1.2, 1.6, 1.3, 1.4, 0.6, -0.45)
    with pytest.raises(DimensionMismatchError):
        exact_output_char(d, 0, 0, 0.1 + 0.1j)


def test_channel_form_approaches_exact():
    nu = -0.25 + 0.3j
    devs = []
    for t in (1e2, 1e3, 1e4):
        m1, m2, m3, m4, m5, m6 = D_ASYM.params
        d = DetectorSpec(D_ASYM.family, m1, m2, t * m3, t * m4, m5, m6)
        devs.append(abs(channel_output_char(d, 1, 1, nu)
                        - exact_output_char(d, 1, 1, nu)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-8


def test_chain_validation_small():
    assert channel_output_vs_fock(D_ASYM, 0, 0, cutoff=18, scale_m3=1e3) < 1e-6


def test_overlap_identity_converges(rng):
    ga = np.diag([0.35, 0.714])
    gb = np.diag([0.7, 1.43])
    errs = []
    for t in (1e2, 1e3, 1e4):
        d = DetectorSpec(Family.TWO_MODE, 1.3 * t, 0.7 * t, t / 1.3, t / 0.7,
                         0.8 * t, -0.5 * t)
        errs.append(abs(overlap_identity_ratio(d, ga, gb) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_overlap_identity_converges_ww():
    ga = np.diag([0.35, 0.714, 0.6, 0.52])
    gb = np.diag([0.7, 1.43, 0.8, 0.9])
    errs = []
    for t in (1e2, 1e3, 1e4):
        d = DetectorSpec(Family.WERNER_WOLF, 1.3 * t, 0.7 * t, t / 1.3,
                         t / 0.7, 0.8 * t, -0.5 * t)
        errs.append(abs(overlap_identity_ratio(d, ga, gb) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_gaussian_channel_validates_shapes():
    with pytest.raises(DimensionMismatchError):
        GaussianChannel(k=np.eye(2), alpha=np.eye(4), m3_prime=2.0, m4_prime=2.0)
