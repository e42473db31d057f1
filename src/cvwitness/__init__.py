"""Separability of continuous-variable quantum states via matched Gaussian
entanglement witnesses, with an independent truncated-Fock oracle."""

__version__ = "0.1.0"

from .channel import (GaussianChannel, channel_commutator_norm,
                      channel_output_char, channel_output_vs_fock,
                      detector_to_channel, exact_output_char,
                      fock_output_char)
from .criteria import (CriterionReport, PptReport, Verdict, WWFamilyParams,
                       certificate_min_eig, decide_separability,
                       feasibility_search, ppt_decide, separability_lhs,
                       simon_lhs, werner_wolf_family,
                       werner_wolf_family_lhs_claim, werner_wolf_lhs)
from .exceptions import CvWitnessError
from .fock import (SeesawResult, displacement_element, gaussian_op_fock,
                   seesaw_lambda)
from .nongauss import (NonGaussState, asymptotic_check, build_fock_state,
                       decide_separability_nongauss, fock_direct_trace,
                       mean_on_detector)
from .standard_form import (DetectorSpec, Family, QuadratureForm,
                            TwoModeStandardForm, WernerWolfForm, detect_family,
                            reduce_to_standard_form)
from .symplectic import (CovMatrix, LocalSymplectic, cm_to_ccm,
                         gaussian_overlap, is_symplectic,
                         symplectic_eigenvalues, symplectic_form, validate_cm)
from .witness import (WitnessReport, detector_from_cm, lambda_closed_form,
                      matched_witness, minmax_optimize)

__all__ = [
    "__version__",
    "GaussianChannel", "channel_commutator_norm", "channel_output_char",
    "channel_output_vs_fock", "detector_to_channel", "exact_output_char",
    "fock_output_char",
    "CriterionReport", "PptReport", "Verdict", "WWFamilyParams",
    "certificate_min_eig", "decide_separability", "feasibility_search",
    "ppt_decide", "separability_lhs", "simon_lhs", "werner_wolf_family",
    "werner_wolf_family_lhs_claim", "werner_wolf_lhs",
    "CvWitnessError",
    "SeesawResult", "displacement_element", "gaussian_op_fock",
    "seesaw_lambda",
    "NonGaussState", "asymptotic_check", "build_fock_state",
    "decide_separability_nongauss", "fock_direct_trace",
    "mean_on_detector",
    "DetectorSpec", "Family", "QuadratureForm", "TwoModeStandardForm",
    "WernerWolfForm", "detect_family", "reduce_to_standard_form",
    "CovMatrix", "LocalSymplectic", "cm_to_ccm",
    "gaussian_overlap", "is_symplectic",
    "symplectic_eigenvalues", "symplectic_form", "validate_cm",
    "WitnessReport", "detector_from_cm", "lambda_closed_form",
    "matched_witness", "minmax_optimize",
]
