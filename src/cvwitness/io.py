"""File formats: covariance matrices, photon-added/subtracted states and
detectors as JSON; reports as JSON.

First moments are not supported anywhere in the package; a file carrying a
nonzero "mean" is rejected instead of silently centered.
"""

import json
from typing import TYPE_CHECKING

import numpy as np

from .criteria import CriterionReport, require_physical
from .exceptions import (CvWitnessError, DimensionMismatchError, NonZeroMeanError,
                         PartitionError)
from .standard_form import DetectorSpec, Family, QuadratureForm
from .symplectic import TOL_PSD, CovMatrix

if TYPE_CHECKING:   # imported where used, so reading a CM loads neither
    from .nongauss import NonGaussState
    from .witness import WitnessReport


def _count(value, field: str) -> int:
    """A mode count or index as int; ValueError for a non-integral value such
    as 2.7, which int() would truncate."""
    count = int(value)
    if count != value:
        raise ValueError(f"{field} {value!r} is not an integer")
    return count


def _read(path: str, kind: str) -> tuple:
    """The one reader of every input file: a "detector" file gives its
    DetectorSpec, a "state" file (CovMatrix, partition) and a "nongauss"
    file (CovMatrix, partition, add, subtract).

    A top-level value that is not an object, a missing field, a field of
    the wrong structure, text that is not JSON and an integer too large for
    a double each end as one DimensionMismatchError that names the file.
    An OSError passes."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        if kind == "detector":
            family, m = Family(obj["family"]), [float(v) for v in obj["m"]]
            if len(m) != 6:
                raise DimensionMismatchError(
                    f"detector needs 6 parameters, got {len(m)} in {path}")
            return DetectorSpec(family, *m)
        n = _count(obj["n_modes"], "n_modes")
        mat = np.asarray(obj["cm"], dtype=float)
        mean, partition = obj.get("mean"), obj.get("partition")
        if mean is not None:
            mean = np.asarray(mean, dtype=float)
            if mean.shape != (2 * n,):
                raise DimensionMismatchError(
                    f"mean must have length {2 * n}, got shape {mean.shape} in {path}")
            if (mean != 0).any():
                raise NonZeroMeanError("nonzero first moments are not supported")
        if partition is not None:
            partition = [_count(m, "partition") for m in partition]
        if mat.shape != (2 * n, 2 * n):
            raise DimensionMismatchError(
                f"cm shape {mat.shape} does not match n_modes = {n} in {path}")
        if partition is not None and any(m < 0 or m >= n for m in partition):
            raise PartitionError(f"partition {partition} out of range")
        fields = CovMatrix(mat), partition
        if kind == "nongauss":
            fields += tuple(tuple(_count(v, name) for v in obj.get(name, [0] * n))
                            for name in ("add", "subtract"))
        return fields
    except KeyError as exc:
        raise DimensionMismatchError(f"missing field {exc} in {path}") from exc
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DimensionMismatchError(f"bad {kind} file {path}: {exc}") from exc


def load_cm(path: str) -> tuple[CovMatrix, list[int] | None]:
    """Read {"n_modes": int, "cm": [[row...]...], "partition": [modes of A]}."""
    return _read(path, "state")


def load_nongauss(path: str, tol: float = TOL_PSD) -> tuple["NonGaussState", list[int] | None]:
    """Read a kernel CM file extended with {"add": [k...], "subtract": [m...]}.
    A kernel that fails `require_physical` at `tol` is refused before the
    state, and its norm, is built: no ladder acts on a state that does not
    exist, and the norm of a non-state could refuse it for the ladder."""
    from .nongauss import NonGaussState
    kernel, partition, add, sub = _read(path, "nongauss")
    require_physical(kernel, tol)
    return NonGaussState(kernel, add, sub), partition


def load_detector(path: str) -> QuadratureForm:
    """Read {"family": "two_mode"|"werner_wolf", "m": [M1..M6]}."""
    return _read(path, "detector")


def criterion_report_dict(report: CriterionReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "lhs": report.lhs_value,
        "lhs_rounding": report.lhs_rounding,
        "criterion": report.criterion_name,
        "certificate": list(report.certificate) if report.certificate else None,
        "ppt": {"is_ppt": report.ppt.is_ppt,
                "min_pt_symplectic_eig": report.ppt.min_pt_symplectic_eig},
        "bound_entangled": report.bound_entangled,
        "note": report.note,
    }


def witness_report_dict(report: "WitnessReport") -> dict:
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


def dump_report(payload: dict, fh) -> None:
    """Write `payload` as indented JSON with sorted keys, or refuse a number
    that is not finite, which JSON cannot hold, before anything is written."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise CvWitnessError("the report holds a number that is not finite") from None
    fh.write(text + "\n")
