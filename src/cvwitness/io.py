"""File formats: covariance matrices, photon-added/subtracted states and
detectors as JSON; reports as JSON.

First moments are not supported anywhere in the package; a file carrying a
nonzero "mean" is rejected instead of silently centered.
"""

import json

import numpy as np

from .criteria import CriterionReport
from .exceptions import CvWitnessError, DimensionMismatchError, NonZeroMeanError
from .nongauss import NonGaussState
from .standard_form import Family
from .symplectic import CovMatrix
from .witness import DetectorSpec, WitnessReport


def _check_mean(obj: dict, n_modes: int) -> None:
    mean = obj.get("mean")
    if mean is None:
        return
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (2 * n_modes,):
        raise DimensionMismatchError(
            f"mean must have length {2 * n_modes}, got shape {mean.shape}")
    if np.any(mean != 0):
        raise NonZeroMeanError("nonzero first moments are not supported")


def _count(value, field: str) -> int:
    """A mode count or index as int; ValueError for a non-integral value such
    as 2.7, which int() would truncate."""
    count = int(value)
    if count != value:
        raise ValueError(f"{field} {value!r} is not an integer")
    return count


def load_cm(path: str) -> tuple[CovMatrix, list[int] | None]:
    """Read {"n_modes": int, "cm": [[row...]...], "partition": [modes of A]}."""
    with open(path) as fh:
        return _parse_cm(json.load(fh), path)


def _parse_cm(obj: dict, path: str) -> tuple[CovMatrix, list[int] | None]:
    try:
        n = _count(obj["n_modes"], "n_modes")
        mat = np.asarray(obj["cm"], dtype=float)
        _check_mean(obj, n)
        partition = obj.get("partition")
        if partition is not None:
            partition = [_count(m, "partition") for m in partition]
    except KeyError as exc:
        raise DimensionMismatchError(f"missing field {exc} in {path}") from exc
    except (TypeError, ValueError, OverflowError) as exc:   # a field of the wrong structure
        raise DimensionMismatchError(f"bad state file {path}: {exc}") from exc
    if mat.shape != (2 * n, 2 * n):
        raise DimensionMismatchError(
            f"cm shape {mat.shape} does not match n_modes = {n}")
    if partition is not None and any(m < 0 or m >= n for m in partition):
        raise DimensionMismatchError(f"partition {partition} out of range")
    return CovMatrix(mat), partition


def load_nongauss(path: str) -> tuple[NonGaussState, list[int] | None]:
    """Read a kernel CM file extended with {"add": [k...], "subtract": [m...]}."""
    with open(path) as fh:
        obj = json.load(fh)
    kernel, partition = _parse_cm(obj, path)
    n = kernel.n_modes
    try:
        add = tuple(_count(v, "add") for v in obj.get("add", [0] * n))
        sub = tuple(_count(v, "subtract") for v in obj.get("subtract", [0] * n))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"bad state file {path}: {exc}") from exc
    return NonGaussState(kernel, add, sub), partition


def load_detector(path: str) -> DetectorSpec:
    """Read {"family": "two_mode"|"werner_wolf", "m": [M1..M6]}."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        family = Family(obj["family"])
        m = [float(v) for v in obj["m"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"bad detector file {path}: {exc}") from exc
    if len(m) != 6:
        raise DimensionMismatchError(f"detector needs 6 parameters, got {len(m)}")
    return DetectorSpec(family, *m)


def criterion_report_dict(report: CriterionReport) -> dict:
    out = {
        "verdict": report.verdict.value,
        "lhs": report.lhs_value,
        "criterion": report.criterion_name,
        "certificate": list(report.certificate) if report.certificate else None,
        "ppt": None,
        "bound_entangled": report.bound_entangled,
        "note": report.note,
    }
    if report.ppt is not None:
        out["ppt"] = {"is_ppt": report.ppt.is_ppt,
                      "min_pt_symplectic_eig": report.ppt.min_pt_symplectic_eig}
    return out


def witness_report_dict(report: WitnessReport) -> dict:
    return {
        "lambda": report.lam,
        "ell": report.ell,
        "ell_limit": report.ell_limit,
        "matched_params": list(report.matched_params.params),
        "family": report.matched_params.family.value,
        "argmax_xy": list(report.argmax_xy),
        "trace_mean": report.trace_mean,
        "scaling_audit": [list(pair) for pair in report.scaling_audit],
        "entangled": report.entangled,
        "boundary": report.boundary,
        "diagnostics": dict(report.diagnostics),
    }


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dump_report(payload: dict, fh) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
    fh.write("\n")
