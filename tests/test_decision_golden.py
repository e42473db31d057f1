"""Golden reports of the Gaussian decision path, compared byte for byte.

`tests/data/golden/decisions-input.json` holds a small seeded ensemble of
covariance matrices; `decisions.out` holds, per case, the
`criterion_report_dict` of `decide_separability` and the `witness_report_dict`
of `minmax_optimize`, as `dump_report` writes them, or the type and message of
the error a call raises.  The ensemble reaches the vacuum and the root
certificates, Entangled and Separable verdicts, bound-entangled
Werner-Wolf family points, two-mode states under local symplectics with
squeezes up to r = 3, Werner-Wolf-pattern states under per-mode squeezes,
the TMSV ladder below rung 76, and the product, edge and root paths of the
witness.  The three `refused-*` cases keep the names they had when the
absolute tolerances refused them: TMSV rung 80 is now decided Entangled and
the state dressed up to r = 8 Separable, and only the witness of TMSV rung
99, where a == c in floating point, is still refused.  The `near-boundary-*`
cases sit at lhs -5e-10, -9e-10, 0 and 5e-10: the criterion's own rounding,
about 1e-14 there, decides the first two Entangled, which an absolute band
of 1e-9 once reported Boundary.

A change that moves a byte rewrites both files with
`PYTHONPATH=src python tests/test_decision_golden.py` and names the byte and
its cause.
"""

import io
import json
import math
from pathlib import Path

import numpy as np

from cvwitness.criteria import (WWFamilyParams, decide_separability,
                                simon_lhs, werner_wolf_family)
from cvwitness.exceptions import CvWitnessError
from cvwitness.io import criterion_report_dict, dump_report, witness_report_dict
from cvwitness.standard_form import (QuadratureForm, TwoModeStandardForm,
                                     WernerWolfForm)
from cvwitness.symplectic import CovMatrix
from cvwitness.witness import minmax_optimize

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = GOLDEN / "decisions-input.json"
REPORTS = GOLDEN / "decisions.out"


def _outcome(call, to_dict, gamma) -> dict:
    try:
        return to_dict(call(gamma))
    except CvWitnessError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _reports(inputs: dict) -> str:
    payload = {}
    for name, mat in inputs.items():
        gamma = CovMatrix(mat)
        payload[name] = {
            "criterion": _outcome(decide_separability, criterion_report_dict, gamma),
            "witness": _outcome(minmax_optimize, witness_report_dict, gamma)}
    out = io.StringIO()
    dump_report(payload, out)
    return out.getvalue()


def test_decision_reports_match_golden():
    inputs = json.loads(INPUTS.read_text())
    assert _reports(inputs) == REPORTS.read_text()


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _dress(rng, mat: np.ndarray, r_max: float) -> np.ndarray:
    """S mat S^T for a random rotation-squeeze-rotation on each mode of a
    two-mode CM, squeezes up to r_max; symmetrized."""
    s = np.zeros((4, 4))
    for j in range(2):
        r = rng.uniform(0, r_max)
        s[2 * j:2 * j + 2, 2 * j:2 * j + 2] = (
            _rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([np.exp(r), np.exp(-r)])
            @ _rotation(rng.uniform(0, 2 * np.pi)))
    m = s @ mat @ s.T
    return (m + m.T) / 2


def _on_lhs(a: float, b: float, target: float) -> QuadratureForm:
    """TwoModeStandardForm(a, b, c, c) with Simon's quantity at `target`,
    by bisection on c."""
    lo, hi = 0.0, math.sqrt(a * b)
    for _ in range(200):
        c = (lo + hi) / 2
        lo, hi = (c, hi) if simon_lhs(TwoModeStandardForm(a, b, c, c)) > target else (lo, c)
    return TwoModeStandardForm(a, b, lo, lo)


def _ensemble() -> dict:
    """The seeded input ensemble, {case name: CM as nested lists}."""
    rng = np.random.default_rng(1414)
    cases = {}

    def two_mode_form():
        while True:
            a, b = rng.uniform(0.5, 2.0, 2)
            f = TwoModeStandardForm(a, b, *rng.uniform(-1.0, 1.0, 2))
            if f.to_cm().is_physical():
                return f

    cases["vacuum"] = TwoModeStandardForm(0.5, 0.5, 0.0, 0.0).to_cm().mat
    cases["thermal-product"] = TwoModeStandardForm(1.3, 0.8, 0.0, 0.0).to_cm().mat
    cases["edge-one-correlation"] = TwoModeStandardForm(2.0, 1.0, 0.0, 1e-12).to_cm().mat
    for k, target in enumerate((-5e-10, -9e-10, 0.0, 5e-10)):
        cases[f"near-boundary-{k}"] = _on_lhs(1.2, 0.8, target).to_cm().mat
    for i in range(0, 76, 5):
        r = 0.1 * i
        a, c = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
        cases[f"tmsv-{i}"] = TwoModeStandardForm(a, a, c, c).to_cm().mat
    for k in range(16):
        cases[f"standard-{k}"] = two_mode_form().to_cm().mat
    for k in range(24):
        cases[f"dressed-{k}"] = _dress(rng, two_mode_form().to_cm().mat, 3.0)
    for k in range(8):
        while True:
            a, b, c, d, e = rng.uniform(0.2, 3.0, 5)
            if a * d - b * c > 1e-3 and c * e - a > 1e-3:
                break
        cases[f"wwfamily-{k}"] = werner_wolf_family(WWFamilyParams(a, b, c, d, e)).to_cm().mat
    for k in range(12):
        while True:
            form = WernerWolfForm(*rng.uniform(0.5, 1.5, 4), *rng.uniform(-0.5, 0.5, 2))
            if form.to_cm().is_physical():
                break
        u = rng.uniform(-0.5, 0.5, 4)
        s = np.diag(np.ravel(np.column_stack([np.exp(u), np.exp(-u)])))
        cases[f"wwpattern-{k}"] = s @ form.to_cm().mat @ s
    # the TMSV ladder past rung 76 and a squeeze past r = 3, once refused
    for i in (80, 99):
        r = 0.1 * i
        a, c = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
        cases[f"refused-tmsv-{i}"] = TwoModeStandardForm(a, a, c, c).to_cm().mat
    cases["refused-dressed"] = _dress(rng, two_mode_form().to_cm().mat, 8.0)
    return {name: np.asarray(mat, dtype=float).tolist() for name, mat in cases.items()}


if __name__ == "__main__":
    inputs = _ensemble()
    INPUTS.write_text(json.dumps(inputs) + "\n")
    REPORTS.write_text(_reports(inputs))
