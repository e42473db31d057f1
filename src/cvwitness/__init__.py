"""Separability of continuous-variable quantum states via matched Gaussian
entanglement witnesses, with an independent truncated-Fock oracle.

Importing the package loads nothing else, numpy included: each public name
imports its submodule the first time it is used (PEP 562), so a program
pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

#: the public names of each submodule, which defines them
_EXPORTS = {
    "criteria": ("CriterionReport", "PptReport", "Verdict", "WWFamilyParams",
                 "certificate_min_eig", "decide_separability",
                 "feasibility_search", "ppt_decide", "separability_lhs",
                 "werner_wolf_family"),
    "exceptions": ("CvWitnessError",),
    "fock": ("SeesawResult", "gaussian_op_fock", "seesaw_lambda"),
    "nongauss": ("NonGaussState", "build_fock_state",
                 "decide_separability_nongauss", "fock_direct_trace",
                 "mean_on_detector"),
    "standard_form": ("DetectorSpec", "Family", "QuadratureForm",
                      "TwoModeStandardForm", "WernerWolfForm", "detect_family",
                      "reduce_to_standard_form"),
    "symplectic": ("CovMatrix", "symplectic_form", "validate_cm"),
    "witness": ("WitnessReport", "lambda_closed_form", "minmax_optimize"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value   # later lookups bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
