import importlib
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

from conftest import overflowing_cross_block, tmsv_form


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
    """Each exported name is the object its submodule defines, `dir` lists
    it, `import *` binds all 36, and an unknown name is an AttributeError."""
    missing = [name for name in cvwitness.__all__ if not hasattr(cvwitness, name)]
    assert not missing
    assert len(set(cvwitness.__all__)) == len(cvwitness.__all__) == 35
    for name in cvwitness.__all__[1:]:
        module = importlib.import_module(f"cvwitness.{cvwitness._SOURCE[name]}")
        assert getattr(cvwitness, name) is getattr(module, name), name
    assert set(cvwitness.__all__) <= set(dir(cvwitness))
    namespace = {}
    exec("from cvwitness import *", namespace)
    assert set(cvwitness.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        cvwitness.no_such_name


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


@pytest.mark.parametrize("load", [load_cm, load_nongauss, load_detector])
def test_load_refuses_text_that_is_not_json(tmp_path, load):
    path = tmp_path / "bad.json"
    path.write_text("n_modes = 2")
    with pytest.raises(DimensionMismatchError, match=re.escape(str(path))):
        load(str(path))


@pytest.mark.parametrize("obj, name", [([1, 2], "list"), (5, "int")])
@pytest.mark.parametrize("load", [load_cm, load_nongauss, load_detector])
def test_load_refuses_json_that_is_not_an_object(tmp_path, load, obj, name):
    """The refusal says what the file should hold, not a Python message."""
    path = write_json(tmp_path / "top.json", obj)
    with pytest.raises(DimensionMismatchError, match=re.escape(
            f"file {path}: expected a JSON object, got {name}")):
        load(path)


def test_load_refuses_missing_field(tmp_path):
    path = write_json(tmp_path / "state.json", {"cm": np.eye(4).tolist()})
    with pytest.raises(DimensionMismatchError,
                       match=re.escape(f"missing field 'n_modes' in {path}")):
        load_cm(path)


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


def test_cli_squeezed_ww_state_separable(tmp_path, capsys):
    """A separable WW-pattern state (lhs 1e-5) squeezed by 1e7 on every
    mode.  The least eigenvalue of the whole 8x8 difference, whose entries
    reach 1e7, read -2.45e-10 at the certificate against +4.43e-13 at 50
    digits, and made it Boundary (exit 3).  The p block that attains the
    slack has entries of order 1e-7, and on it the closed form is right to
    1e-23."""
    form = WernerWolfForm(1e7, 9e-8, 1.2e7, 1.1e-7, 6007628.001945064,
                          4.8061024015560515e-8)
    code = main(["check", cm_file(tmp_path, form.to_cm().mat)])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 0
    assert report["verdict"] == "Separable"
    assert report["certificate"] == [9906054.57374482, 9697519.034989862]


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


def test_cli_refuses_a_cross_block_that_overflows(tmp_path, capsys):
    """A non-state admitted at its scale, whose cross block squares past
    double precision once its modes are normalised, exits 1 with one error
    line for auto, the witness and ppt; auto read it Boundary with a
    `min_pt_symplectic_eig` of 0.0, the witness raised ZeroDivisionError,
    and ppt read it PPT and exited 0."""
    path = cm_file(tmp_path, overflowing_cross_block().mat)
    reduction = ("error: cannot reach two-mode standard form: the square of the "
                 "normalised cross block overflows double precision\n")
    normal_form = ("error: cannot bring every mode to its normal form: the square of the "
                   "largest entry 1e+175 overflows double precision\n")
    for criterion, message in (("auto", reduction), ("witness", reduction),
                               ("ppt", normal_form)):
        code = main(["check", path, "--criterion", criterion])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == message


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
    """Lambda is answered (1e-200 where m1 m3 overflows, 4/9 for the
    positive definite CM whose small eigenvalues `eigvalsh` reads as 0);
    the Fock build, whose Q is singular in double precision, refuses each
    detector with a typed error, not a bare numpy one and not as a CM that
    is not positive definite."""
    for m in ([1e200, 1, 1e200, 1, 0, 0], [1e300, 1e-300, 1e-300, 1e300, 0, 0]):
        path = write_json(tmp_path / "det.json", {"family": "two_mode", "m": m})
        code = main(["oracle", path, "--cutoff", "8"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Bargmann matrix" in err   # refused by gaussian_op_fock


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
    # a str is the file's text: not JSON, for each of the three readers
    (["check"], "not JSON"),
    (["check", "--criterion", "nongauss"], "n_modes = 2"),
    (["oracle"], "{"),
    # 401-digit integers, too large for a double
    (["oracle"], {"family": "two_mode", "m": [10 ** 400, 1, 1, 1, 0, 0]}),
    (["check"], {"n_modes": 2, "cm": [[10 ** 400, 0, 0, 0]] + _EYE4[1:]}),
    (["check", "--criterion", "ppt"], 5),
    (["oracle"], 5),
    (["check"], {"n_modes": 2, "cm": _EYE4, "mean": [0, 0]}),
    (["oracle"], {"family": "two_mode", "m": [1, 1, 1]}),
])
def test_cli_rejects_malformed_json(tmp_path, capsys, argv, obj):
    """JSON of the wrong structure is a typed error naming the file: exit 1
    with one message line."""
    path = tmp_path / "bad.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    path = str(path)
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


@pytest.mark.parametrize("criterion, name", [
    ("auto", "simon"), ("ppt", "ppt"), ("witness", "witness"), ("nongauss", "simon")])
def test_cli_every_criterion_applies_tol_psd(tmp_path, capsys, criterion, name):
    """TMSV minus 1e-9 I has a bona-fide eigenvalue of -1e-9: every
    criterion refuses it as a non-state at --tol-psd 1e-12 and decides it at
    1e-8."""
    mat = tmsv_form(0.5).to_cm().mat - 1e-9 * np.eye(4)
    path = cm_file(tmp_path, mat)
    argv = ["check", path, "--criterion", criterion]
    assert main([*argv, "--tol-psd", "1e-12"]) == 1
    assert "not physical" in capsys.readouterr().err
    assert main([*argv, "--tol-psd", "1e-8"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["verdict"] == "Entangled"
    assert report["report"]["criterion"] == name
    assert report["tolerances"]["tol_psd"] == 1e-8


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_cli_refuses_a_tol_psd_that_is_no_finite_nonnegative_number(capsys, value):
    """--tol-psd nan and -1 would refuse the valid dressed state, inf admit
    0.1 I and print "tol_psd": Infinity, which is not JSON: each is a
    usage error, exit 1 with nothing on stdout."""
    path = str(Path(__file__).parent / "data" / "dressed_two_mode.json")
    assert main(["check", path, f"--tol-psd={value}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "must be a finite number >= 0" in err


@pytest.mark.parametrize("ladder", [{"subtract": [3, 0]}, {"add": [1, 0]}],
                         ids=["subtract", "add"])
def test_cli_nongauss_refuses_a_kernel_that_is_no_state(tmp_path, capsys, ladder):
    """The kernel 0.1 I is no state.  It is admitted before the ladder state
    and its norm are built, so three subtractions, whose norm would vanish,
    are refused as a non-state like one addition."""
    path = cm_file(tmp_path, 0.1 * np.eye(4), extra=ladder)
    assert main(["check", path, "--criterion", "nongauss"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: covariance matrix is not physical\n"


@pytest.mark.parametrize("argv, verdict, code", [
    (["--tol-psd", "1e-5"], "Entangled", 2),
    (["--criterion", "ppt", "--tol-psd", "1e-5"], "Entangled", 2),
    (["--criterion", "witness"], "Boundary", 3),
], ids=["auto", "ppt", "witness"])
def test_cli_verdict_near_the_boundary_follows_its_numbers(tmp_path, capsys, argv,
                                                           verdict, code):
    """A state just past Simon's boundary (lhs -1e-6, least PT symplectic
    eigenvalue 0.4999995) is entangled.  A wide --tol-psd admits it and
    does not widen the PPT floor, so `auto` does not call it bound entangled
    and `ppt` does not call it Separable.  The witness's ell at t = 1e4
    reads 1.000049 and its limit 0.999999, so it reports Boundary."""
    c = 0.5000005
    path = write_json(tmp_path / "state.json", {"n_modes": 2, "cm": [
        [1, 0, c, 0], [0, 1, 0, -c], [c, 0, 1, 0], [0, -c, 0, 1]]})
    assert main(["check", path, *argv]) == code
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == verdict
    if "--criterion" not in argv:
        assert report["ppt"]["is_ppt"] is False and report["bound_entangled"] is False


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "tmsv", "-n", "0", "out.csv"],
    ["sweep", "--family", "wernerwolf", "-n", "2", "--seed", "-1", "out.csv"],
    ["oracle", "det.json", "--seed", "-1"],
    ["oracle", "det.json", "--cutoff", "100000"],
], ids=["sweep-n-0", "sweep-seed", "oracle-seed", "oracle-cutoff"])
def test_cli_refuses_bad_counts(tmp_path, capsys, monkeypatch, argv):
    """A count out of range is one error line and exit 1, before any output."""
    write_json(tmp_path / "det.json", {"family": "two_mode", "m": [1, 1, 1, 1, 0.4, -0.3]})
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["check", "state.json", "--restarts", "2"],
    ["check", "state.json", "--cutoff", "10"],
    ["check", "state.json", "--format", "csv"],
    ["sweep", "--family", "tmsv", "-n", "2", "out.csv", "--restarts", "2"],
    ["check", "state.json", "--seed", "3"],
    ["oracle", "det.json", "--tol-psd", "1e-8"],
    ["sweep", "--family", "tmsv", "-n", "2", "out.csv", "--tol-psd", "1e-8"],
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
# prints the scipy, cvwitness, numpy and numpy.random modules loaded after
# `import cvwitness`, after `import cvwitness.cli` and after the commands.
_CHILD = """
import contextlib, io, json, sys
block, argvs = sys.argv[1] == "block", json.loads(sys.argv[2])
if block:
    sys.modules["scipy"] = None
def traced_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "cvwitness")
                  or m in ("numpy", "numpy.random"))
import cvwitness
loaded = [traced_modules()]
import cvwitness.cli
loaded.append(traced_modules())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cvwitness.cli.main(argv) for argv in argvs]
loaded.append(traced_modules())
print(json.dumps({"codes": codes, "loaded": [] if block else loaded}))
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
    assert not [m for stage in traced["loaded"] for m in stage if m.startswith("scipy")]


def test_package_import_loads_nothing(tmp_path):
    """`import cvwitness` loads no submodule and not numpy: each public name
    loads its submodule on first use."""
    assert _run_child("trace", [], tmp_path)["loaded"][0] == ["cvwitness"]


_LAZY = ["cvwitness.fock", "cvwitness.nongauss", "cvwitness.witness", "numpy.random"]

# command -> (modules it must not load, modules it must load)
_COMMAND_LAYERS = {
    "check two": (_LAZY, []),
    "check ww": (_LAZY, []),
    "check two --criterion ppt": (_LAZY, []),
    "check ww --criterion ppt": (_LAZY, []),
    "check two --criterion witness": (_LAZY[:2], ["cvwitness.witness"]),
    "oracle det --cutoff 14 --restarts 1": ([], ["cvwitness.fock", "cvwitness.witness"]),
    "sweep --family tmsv -n 3 out.csv": (_LAZY[:2] + _LAZY[3:], ["cvwitness.witness"]),
}


@pytest.mark.parametrize("case", _COMMAND_LAYERS)
def test_cli_imports_only_its_layers(tmp_path, case):
    """Each command, in a fresh interpreter, loads the layers it runs and
    none it does not."""
    absent, present = _COMMAND_LAYERS[case]
    files = {
        "two": cm_file(tmp_path, TwoModeStandardForm(1.25, 1.57, 0.18, -0.93).to_cm().mat,
                       "two.json"),
        "ww": cm_file(tmp_path, WernerWolfForm(0.6, 1.3, 1.4, 0.55, 0.35, -0.2).to_cm().mat,
                      "ww.json"),
        "det": write_json(tmp_path / "det.json",
                          {"family": "two_mode", "m": [1, 1, 1, 1, 0.4, -0.3]})}
    traced = _run_child("trace", [[files.get(a, a) for a in case.split()]], tmp_path)
    assert traced["codes"] != [1]
    loaded = set(traced["loaded"][-1])
    assert not loaded & set(absent)
    assert loaded >= set(present)


@pytest.mark.parametrize("order", [(2, 3, 0, 1, 4, 5, 6, 7), (0, 1, 2, 3, 6, 7, 4, 5)],
                         ids=["swap-a", "swap-b"])
@pytest.mark.parametrize("criterion", ["auto", "witness"])
def test_ww_check_is_kept_under_a_within_party_swap(order, criterion, tmp_path, capsys):
    """`tests/data/ww_family.json` with party A's two modes swapped, or
    party B's, gives the original's `check` report and exit code byte for
    byte: the reduction relabels the modes before it refuses the pattern."""
    original = Path(__file__).parent / "data" / "ww_family.json"
    obj = json.loads(original.read_text())
    obj["cm"] = np.array(obj["cm"])[np.ix_(order, order)].tolist()
    runs = []
    for path in (str(original), write_json(tmp_path / "swapped.json", obj)):
        runs.append((main(["check", path, "--criterion", criterion]), capsys.readouterr().out))
    assert runs[0] == runs[1]
