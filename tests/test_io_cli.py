import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvwitness
from cvwitness.cli import _VERDICT_EXIT, main
from cvwitness.criteria import (Verdict, WWFamilyParams, decide_separability,
                                ppt_decide, werner_wolf_family)
from cvwitness.exceptions import (DimensionMismatchError, NonZeroMeanError,
                                  PartitionError)
from cvwitness.io import load_cm, load_detector, load_nongauss
from cvwitness.nongauss import NonGaussState, decide_separability_nongauss
from cvwitness.standard_form import Family, TwoModeStandardForm, WernerWolfForm
from cvwitness.symplectic import CovMatrix
from cvwitness.witness import minmax_optimize

from conftest import tmsv_form


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def cm_file(tmp_path, mat, name="state.json", extra=None):
    n = mat.shape[0] // 2
    obj = {"n_modes": n, "cm": mat.tolist(), "partition": list(range(n // 2))}
    if extra:
        obj.update(extra)
    return write_json(tmp_path / name, obj)


def test_every_exported_name_resolves():
    missing = [name for name in cvwitness.__all__ if not hasattr(cvwitness, name)]
    assert not missing
    assert len(set(cvwitness.__all__)) == len(cvwitness.__all__)


def test_load_cm_roundtrip(tmp_path):
    mat = tmsv_form(0.3).to_cm().mat
    gamma, partition = load_cm(cm_file(tmp_path, mat))
    assert np.allclose(gamma.mat, mat)
    assert partition == [0]


def test_load_cm_rejects_nonzero_mean(tmp_path):
    mat = np.eye(4) / 2
    path = cm_file(tmp_path, mat, extra={"mean": [0.1, 0, 0, 0]})
    with pytest.raises(NonZeroMeanError):
        load_cm(path)


def test_load_cm_rejects_bad_shape(tmp_path):
    path = write_json(tmp_path / "bad.json",
                      {"n_modes": 2, "cm": np.eye(2).tolist()})
    with pytest.raises(DimensionMismatchError):
        load_cm(path)


@pytest.mark.parametrize("field, value", [
    ("n_modes", 2.7), ("partition", [0.9]), ("add", [1.5, 0]), ("subtract", [0, 0.5])])
def test_load_refuses_non_integral_counts(tmp_path, field, value):
    """int() would truncate 2.7 to 2 and 0.9 to mode 0; each count field is
    refused by name instead."""
    obj = {"n_modes": 2, "cm": (np.eye(4) / 2).tolist(), field: value}
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(DimensionMismatchError,
                       match=rf"{re.escape(path)}: {field} \S+ is not an integer"):
        load_nongauss(path)


def test_load_accepts_integral_floats(tmp_path):
    obj = {"n_modes": 2.0, "cm": (np.eye(4) / 2).tolist(), "partition": [0.0],
           "add": [1.0, 0], "subtract": [0, 0]}
    state, partition = load_nongauss(write_json(tmp_path / "state.json", obj))
    assert state.kernel.n_modes == 2 and partition == [0]
    assert state.add == (1, 0) and all(type(k) is int for k in state.add)


def test_load_nongauss(tmp_path):
    mat = np.eye(4) / 2
    path = cm_file(tmp_path, mat, extra={"add": [1, 0], "subtract": [0, 0]})
    state, partition = load_nongauss(path)
    assert state.add == (1, 0)
    assert state.subtract == (0, 0)


def test_load_detector(tmp_path):
    path = write_json(tmp_path / "det.json",
                      {"family": "two_mode", "m": [1, 1, 1, 1, 0.5, -0.4]})
    d = load_detector(path)
    assert d.family is Family.TWO_MODE
    assert d.params[4] == 0.5 and d.params[5] == -0.4


def test_cli_tmsv_entangled(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat)
    code = main(["check", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["report"]["verdict"] == "Entangled"
    assert "seed" not in report
    assert report["tolerances"]["tol_psd"] == 1e-10


def test_cli_vacuum_product_separable(tmp_path, capsys):
    path = cm_file(tmp_path, np.eye(4) / 2)
    code = main(["check", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["report"]["verdict"] == "Separable"


def test_cli_ppt_criterion(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat)
    code = main(["check", path, "--criterion", "ppt"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("partition", [[0, 1], [], [5]])
def test_cli_ppt_refuses_partition_without_two_parties(tmp_path, capsys,
                                                       partition):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat,
                   extra={"partition": partition})
    code = main(["check", path, "--criterion", "ppt"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: partition") and err.count("\n") == 1


@pytest.mark.parametrize("partition, message", [
    ([], "family two_mode fixes partition [0] (or [1])"),
    ([5], "partition [5] out of range")])
def test_cli_check_refuses_partition_without_two_parties(tmp_path, capsys,
                                                         partition, message):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat,
                   extra={"partition": partition})
    code = main(["check", path])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("partition, message", [
    ([], "family two_mode fixes partition [0] (or [1])"),
    ([0, 1], "family two_mode fixes partition [0] (or [1])"),
    ([5], "partition [5] out of range")])
def test_cli_witness_refuses_partition_like_auto(tmp_path, capsys, partition,
                                                 message):
    """`check --criterion witness` reads the file's partition: it refuses
    what `auto` refuses, with the same message and exit 1."""
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat,
                   extra={"partition": partition})
    for argv in (["check", path], ["check", path, "--criterion", "witness"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err == f"error: {message}\n"


def test_cli_witness_refuses_other_cut_of_werner_wolf(tmp_path, capsys):
    mat = werner_wolf_family(WWFamilyParams(1.0, 0.5, 1.0, 2.0, 1.5)).to_cm().mat
    path = cm_file(tmp_path, mat, extra={"partition": [0, 2]})
    for argv in (["check", path], ["check", path, "--criterion", "witness"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: family werner_wolf fixes partition [0, 1] (or [2, 3])\n"


def test_cli_witness_accepts_either_label_of_the_cut(tmp_path, capsys):
    """Party A's and party B's label of the cut give the witness report of a
    file without a partition, byte for byte."""
    mat = tmsv_form(0.5).to_cm().mat
    outs = []
    for extra in ({"partition": [0]}, {"partition": [1]}, {"partition": None}):
        path = cm_file(tmp_path, mat, extra=extra)
        assert main(["check", path, "--criterion", "witness"]) == 2
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("form", [
    TwoModeStandardForm(1.2, 1.3, 0.4, -0.3),
    WernerWolfForm(1.1, 1.2, 1.3, 1.4, 0.3, 0.2)], ids=["two-mode", "werner-wolf"])
def test_cli_refuses_cm_past_double_precision(tmp_path, capsys, form, scale):
    """A physical CM scaled past double precision exits 1 with one error
    line that names the overflow: no traceback, no NaN report, no numpy
    warning."""
    path = cm_file(tmp_path, scale * form.to_cm().mat)
    for criterion in ("auto", "witness"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", path, "--criterion", criterion])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: cannot reduce to standard form") and \
            err.endswith("overflows double precision\n") and err.count("\n") == 1


def test_load_cm_refuses_partition_out_of_range(tmp_path):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat, extra={"partition": [5]})
    with pytest.raises(PartitionError, match=r"partition \[5\] out of range"):
        load_cm(path)


def test_cli_witness_criterion(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat)
    code = main(["check", path, "--criterion", "witness"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["report"]["ell"] < 1
    assert report["report"]["diagnostics"]["path"] == "root"
    assert report["report"]["diagnostics"]["ell_rel_err"] < 1e-13


def test_cli_nongauss(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.3).to_cm().mat,
                   extra={"add": [1, 0], "subtract": [0, 0]})
    code = main(["check", path, "--criterion", "nongauss"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "kernel-level" in report["report"]["note"]


def test_cli_check_accepts_party_b_partition(tmp_path, capsys):
    """A file that names party B as its partition gets the report of the
    default partition, byte for byte."""
    mat = tmsv_form(0.5).to_cm().mat
    outs = []
    for partition in ([0], [1]):
        path = cm_file(tmp_path, mat, extra={"partition": partition})
        assert main(["check", path]) == 2
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_cli_rejects_non_finite_cm(tmp_path, capsys, entry):
    """A JSON NaN or Infinity in the CM is a typed error: exit 1 with one
    message line, no numpy error or warning."""
    path = tmp_path / "bad.json"
    path.write_text('{"n_modes": 2, "cm": [[%s, 0, 0, 0], [0, 1, 0, 0], '
                    '[0, 0, 1, 0], [0, 0, 0, 1]]}' % entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(path), "--criterion", "ppt"]) == 1
    assert capsys.readouterr().err == "error: matrix has non-finite entries\n"


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/state.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_deterministic_output(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.4).to_cm().mat)
    main(["check", path, "--criterion", "witness"])
    out1 = capsys.readouterr().out
    main(["check", path, "--criterion", "witness"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cli_oracle(tmp_path, capsys):
    path = write_json(tmp_path / "det.json",
                      {"family": "two_mode", "m": [1, 1, 1, 1, 0.4, -0.3]})
    code = main(["oracle", path, "--cutoff", "14", "--restarts", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["report"]["delta"] <= 1e-3
    assert 0.95 <= report["report"]["truncated_trace"] <= 1.0
    assert abs(report["report"]["mean_photon_defect"]) < 1e-3
    assert report["seed"] == 0 and "tolerances" not in report


def test_cli_oracle_rejects_negative_restarts(tmp_path, capsys):
    path = write_json(tmp_path / "det.json",
                      {"family": "two_mode", "m": [1, 1, 1, 1, 0.4, -0.3]})
    code = main(["oracle", path, "--cutoff", "8", "--restarts", "-1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "restarts" in err


def test_cli_oracle_rejects_overflowing_detector(tmp_path, capsys):
    """m1 m3 overflows: refused by `lambda_closed_form`, before the Fock
    build could fail with a bare numpy error."""
    path = write_json(tmp_path / "det.json",
                      {"family": "two_mode", "m": [1e200, 1, 1e200, 1, 0, 0]})
    code = main(["oracle", path, "--cutoff", "8"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite in double precision" in err


def test_cli_oracle_rejects_non_psd_detector(tmp_path, capsys):
    path = write_json(tmp_path / "det.json",
                      {"family": "two_mode", "m": [1e-3, 1, 1e-3, 1, 1.1e-3, 0]})
    code = main(["oracle", path, "--cutoff", "8"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "quadrature block" in err   # refused by lambda_closed_form


_EYE4 = np.eye(4).tolist()


@pytest.mark.parametrize("argv, obj", [
    (["check"], [1, 2]),
    (["check"], {"n_modes": 2, "cm": _EYE4, "partition": 5}),
    (["check"], {"n_modes": None, "cm": _EYE4}),
    (["check"], {"n_modes": 2, "cm": _EYE4, "mean": {"x": 0}}),
    (["check", "--criterion", "nongauss"], {"n_modes": 2, "cm": _EYE4, "add": 5}),
    (["oracle"], {"family": "two_mode", "m": 5}),
    # counts are refused, not truncated by int()
    (["check", "--criterion", "ppt"], {"n_modes": 2.7, "cm": _EYE4, "partition": [0.9]}),
    (["check"], {"n_modes": math.inf, "cm": _EYE4}),
])
def test_cli_rejects_malformed_json(tmp_path, capsys, argv, obj):
    """JSON of the wrong structure is a typed error naming the file: exit 1
    with one message line."""
    path = write_json(tmp_path / "bad.json", obj)
    code = main([argv[0], path, *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err


def test_cli_oracle_mean_photon_defect(tmp_path, capsys):
    """A TMSV detector at r = 1 is badly truncated at cutoff 10: the trace
    shows it and the mean photon number shows it more."""
    f = tmsv_form(1.0)
    (a, b, c1), (_, _, c2) = f.x, f.p
    path = write_json(tmp_path / "det.json", {
        "family": "two_mode", "m": [a, b, a, b, c1, c2]})
    reports = {}
    for cutoff in (10, 25):
        main(["oracle", path, "--cutoff", str(cutoff), "--restarts", "1"])
        reports[cutoff] = json.loads(capsys.readouterr().out)["report"]
    assert reports[10]["truncated_trace"] < 0.999
    assert reports[10]["mean_photon_defect"] > 0.03
    assert reports[25]["mean_photon_defect"] < 1e-3


def test_cli_tol_psd_applied(tmp_path, capsys):
    """TMSV minus 1e-9 I has a bona-fide eigenvalue of -1e-9."""
    mat = tmsv_form(0.5).to_cm().mat - 1e-9 * np.eye(4)
    path = cm_file(tmp_path, mat)
    assert main(["check", path, "--tol-psd", "1e-12"]) == 1
    assert "not physical" in capsys.readouterr().err
    assert main(["check", path, "--tol-psd", "1e-8"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["verdict"] == "Entangled"
    assert report["tolerances"]["tol_psd"] == 1e-8


def test_cli_witness_tol_psd_applied(tmp_path, capsys):
    mat = tmsv_form(0.5).to_cm().mat - 1e-9 * np.eye(4)
    path = cm_file(tmp_path, mat)
    assert main(["check", path, "--criterion", "witness",
                 "--tol-psd", "1e-12"]) == 1
    assert "not physical" in capsys.readouterr().err
    assert main(["check", path, "--criterion", "witness",
                 "--tol-psd", "1e-8"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["verdict"] == "Entangled"
    assert report["report"]["criterion"] == "witness"


@pytest.mark.parametrize("argv", [
    ["check", "state.json", "--restarts", "2"],
    ["check", "state.json", "--cutoff", "10"],
    ["check", "state.json", "--format", "csv"],
    ["sweep", "--family", "tmsv", "-n", "2", "out.csv", "--restarts", "2"],
    ["check", "state.json", "--seed", "3"],
    ["oracle", "det.json", "--tol-psd", "1e-8"],
    ["check", "state.json", "--criterion", "wernerwolf"],
    ["check", "state.json", "--criterion", "simon"],
])
def test_cli_rejects_removed_flags(argv, capsys):
    """A usage error exits 1, not argparse's 2, which is the Entangled code."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert ("invalid choice" if "--criterion" in argv else "unrecognized arguments") in err


def test_cli_sweep_tmsv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "tmsv", "-n", "4", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "r"
    assert len(lines) == 5


def test_cli_sweep_ww(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "wernerwolf", "-n", "3", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 4
    header = rows[0].split(",")
    lhs_i = header.index("lhs_criterion")
    ppt_i = header.index("is_ppt")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[lhs_i]) < 0
        assert cells[ppt_i] == "True"


# Runs CLI argument lists in a fresh interpreter and prints their exit codes,
# with the reports discarded.  "block" makes every scipy import fail; "trace"
# prints the scipy modules loaded after the import and after the commands.
_CHILD = """
import contextlib, io, json, sys
block, argvs = sys.argv[1] == "block", json.loads(sys.argv[2])
if block:
    sys.modules["scipy"] = None
import cvwitness.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = [scipy_modules()]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cvwitness.cli.main(argv) for argv in argvs]
loaded.append(scipy_modules())
print(json.dumps({"codes": codes, "scipy": [] if block else loaded}))
"""


def _run_child(mode, argvs, cwd):
    src = str(Path(cvwitness.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", _CHILD, mode, json.dumps(argvs)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_decision_path_needs_no_scipy(tmp_path):
    """`check` on both families and with every criterion, `sweep` and
    `oracle` run with scipy unimportable and exit as the in-process results
    say; the certificate cases take the closed form, not the vacuum point."""
    two = TwoModeStandardForm(1.25, 1.57, 0.18, -0.93).to_cm()
    ww = WernerWolfForm(0.6, 1.3, 1.4, 0.55, 0.35, -0.2).to_cm()
    bound = werner_wolf_family(WWFamilyParams(1.0, 1.0, 2.0, 3.0, 1.0)).to_cm()
    tmsv = tmsv_form(0.5).to_cm()
    files = {name: cm_file(tmp_path, g.mat, f"{name}.json")
             for name, g in [("two", two), ("ww", ww), ("bound", bound), ("tmsv", tmsv)]}
    files["ladder"] = cm_file(tmp_path, tmsv.mat, "ladder.json",
                              extra={"add": [1, 0], "subtract": [0, 1]})
    witness = minmax_optimize(tmsv)
    cases = [
        (["check", files["two"]], decide_separability(two).verdict),
        (["check", files["ww"]], decide_separability(ww).verdict),
        (["check", files["bound"], "--criterion", "ppt"],
         Verdict.SEPARABLE if ppt_decide(bound).is_ppt else Verdict.ENTANGLED),
        (["check", files["tmsv"], "--criterion", "witness"],
         Verdict.ENTANGLED if witness.entangled else Verdict.SEPARABLE),
        (["check", files["ladder"], "--criterion", "nongauss"],
         decide_separability_nongauss(
             NonGaussState(tmsv, (1, 0), (0, 1))).verdict),
    ]
    assert [v for _, v in cases[:2]] == [Verdict.SEPARABLE] * 2
    det = write_json(tmp_path / "det.json",
                     {"family": "two_mode", "m": [1, 1, 1, 1, 0.4, -0.3]})
    argvs = [a for a, _ in cases] + [
        ["sweep", "--family", "wernerwolf", "-n", "5", str(tmp_path / "ww.csv")],
        ["oracle", det, "--cutoff", "14", "--restarts", "1"]]
    want = [_VERDICT_EXIT[v] for _, v in cases] + [0, 0]
    assert _run_child("block", argvs, tmp_path)["codes"] == want
    traced = _run_child("trace", argvs, tmp_path)
    assert traced["codes"] == want
    assert traced["scipy"] == [[], []]
