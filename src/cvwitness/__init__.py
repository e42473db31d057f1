"""Separability of continuous-variable quantum states via matched Gaussian
entanglement witnesses, with an independent truncated-Fock oracle."""

__version__ = "0.1.0"

from .criteria import (CriterionReport, PptReport, Verdict, WWFamilyParams,
                       certificate_min_eig, decide_separability,
                       feasibility_search, ppt_decide, separability_lhs,
                       simon_lhs, werner_wolf_family,
                       werner_wolf_family_lhs_claim, werner_wolf_lhs)
from .exceptions import CvWitnessError
from .fock import SeesawResult, gaussian_op_fock, seesaw_lambda
from .nongauss import (NonGaussState, build_fock_state,
                       decide_separability_nongauss, fock_direct_trace,
                       mean_on_detector)
from .standard_form import (DetectorSpec, Family, QuadratureForm,
                            TwoModeStandardForm, WernerWolfForm, detect_family,
                            reduce_to_standard_form)
from .symplectic import (CovMatrix, LocalSymplectic, cm_to_ccm, is_symplectic,
                         symplectic_eigenvalues, symplectic_form, validate_cm)
from .witness import WitnessReport, lambda_closed_form, minmax_optimize

__all__ = [
    "__version__",
    "CriterionReport", "PptReport", "Verdict", "WWFamilyParams",
    "certificate_min_eig", "decide_separability", "feasibility_search",
    "ppt_decide", "separability_lhs", "simon_lhs", "werner_wolf_family",
    "werner_wolf_family_lhs_claim", "werner_wolf_lhs",
    "CvWitnessError",
    "SeesawResult", "gaussian_op_fock", "seesaw_lambda",
    "NonGaussState", "build_fock_state",
    "decide_separability_nongauss", "fock_direct_trace",
    "mean_on_detector",
    "DetectorSpec", "Family", "QuadratureForm", "TwoModeStandardForm",
    "WernerWolfForm", "detect_family", "reduce_to_standard_form",
    "CovMatrix", "LocalSymplectic", "cm_to_ccm", "is_symplectic",
    "symplectic_eigenvalues", "symplectic_form", "validate_cm",
    "WitnessReport", "lambda_closed_form", "minmax_optimize",
]
