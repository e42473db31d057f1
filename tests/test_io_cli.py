import json

import numpy as np
import pytest

from cvwitness.channel import detector_to_channel
from cvwitness.cli import main
from cvwitness.exceptions import DimensionMismatchError, NonZeroMeanError
from cvwitness.io import (dump_channel, load_channel, load_cm, load_detector,
                          load_nongauss)
from cvwitness.standard_form import Family
from cvwitness.witness import DetectorSpec

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
    assert d.m5 == 0.5 and d.m6 == -0.4


def test_channel_roundtrip(tmp_path):
    d = DetectorSpec(Family.TWO_MODE, 1.2, 1.6, 1.3, 1.3, 0.6, -0.45)
    ch = detector_to_channel(d)
    path = tmp_path / "chan.json"
    dump_channel(ch, str(path))
    back = load_channel(str(path))
    assert np.allclose(back.k, ch.k)
    assert np.allclose(back.alpha, ch.alpha)
    assert back.m3_prime == ch.m3_prime
    assert back.m4_prime == ch.m4_prime


def test_cli_tmsv_entangled(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat)
    code = main(["check", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["report"]["verdict"] == "Entangled"
    assert report["seed"] == 0 and "tolerances" in report


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


def test_cli_witness_criterion(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.5).to_cm().mat)
    code = main(["check", path, "--criterion", "witness"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["report"]["ell"] < 1
    assert report["report"]["diagnostics"] == {"path": "root"}


def test_cli_nongauss(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.3).to_cm().mat,
                   extra={"add": [1, 0], "subtract": [0, 0]})
    code = main(["check", path, "--criterion", "nongauss"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "kernel-level" in report["report"]["note"]


def test_cli_family_criterion_mismatch(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.3).to_cm().mat)
    code = main(["check", path, "--criterion", "wernerwolf"])
    capsys.readouterr()
    assert code == 1


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/state.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_deterministic_output(tmp_path, capsys):
    path = cm_file(tmp_path, tmsv_form(0.4).to_cm().mat)
    main(["check", path, "--criterion", "witness", "--seed", "3"])
    out1 = capsys.readouterr().out
    main(["check", path, "--criterion", "witness", "--seed", "3"])
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


def test_cli_oracle_mean_photon_defect(tmp_path, capsys):
    """A TMSV detector at r = 1 is badly truncated at cutoff 10: the trace
    cannot see it, the mean photon number can."""
    f = tmsv_form(1.0)
    path = write_json(tmp_path / "det.json", {
        "family": "two_mode", "m": [f.a, f.b, f.a, f.b, f.c1, f.c2]})
    reports = {}
    for cutoff in (10, 25):
        main(["oracle", path, "--cutoff", str(cutoff), "--restarts", "1"])
        reports[cutoff] = json.loads(capsys.readouterr().out)["report"]
    assert reports[10]["truncated_trace"] > 0.99
    assert reports[10]["mean_photon_defect"] > 0.05
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
])
def test_cli_rejects_removed_flags(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


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
