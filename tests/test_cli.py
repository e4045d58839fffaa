import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gepnerstab
from gepnerstab.cli import main

GOLDEN = Path(__file__).parent / "golden"
# the child interpreter imports the package this test imported
CHILD_PATH = os.pathsep.join(filter(None, [str(Path(gepnerstab.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "gepnerstab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=CHILD_PATH),
    )
    return proc


def assert_usage_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr, proc.stderr


def test_table1_golden_bytes():
    proc = run_cli("--json", "table1")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "table1.json").read_text()


def test_gepner_check_golden_bytes():
    proc = run_cli("--json", "gepner-check", "--type", "1,1:4")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "gepner_check_114.json").read_text()


def test_table1_has_12_rows():
    proc = run_cli("--json", "table1")
    data = json.loads(proc.stdout)
    assert len(data["results"]) == 12


def test_classify_range():
    proc = run_cli("--json", "classify", "--n", "2..2", "--dmax", "6")
    data = json.loads(proc.stdout)
    assert len(data["results"]) == 5


def test_gepner_check_message():
    proc = run_cli("gepner-check", "--type", "1,1:4")
    assert "Z o tau = zeta * Z: OK (6 basis vectors)" in proc.stdout


def test_charge_values():
    proc = run_cli("--json", "charge", "--type", "1,1,1,1:4", "--class", "1,0,0")
    data = json.loads(proc.stdout)
    assert data["results"]["z_normalized"] == {"d": 4, "coeffs": ["-1", "1"]}
    assert data["results"]["mukai"] == ["1", "2", "3/2"]


def test_zg_roundtrip_exact_values():
    proc = run_cli("--json", "zg", "--type", "1,1:4", "--class", "0,1,1,0,0,0")
    data = json.loads(proc.stdout)
    from gepnerstab.exactmath import CycloNum, cyclo

    z = CycloNum.from_json(data["results"]["z_normalized"])
    assert z == -cyclo(4, 1)


def test_stability_command():
    proc = run_cli("stability", "--type", "1,1:3", "--object", "C1m1", "--primes", "5,7")
    assert proc.returncode == 0
    assert "stable (verified over F_5" in proc.stdout


def test_stability_point_syntax():
    proc = run_cli("stability", "--type", "1,1:4", "--object", "tauPsiOx(3)", "--primes", "5")
    assert proc.returncode == 0
    assert "stable" in proc.stdout


def test_phases_command():
    proc = run_cli("phases", "--type", "3,1:6")
    assert proc.returncode == 0
    assert "tauPsiOx" in proc.stdout
    proc2 = run_cli("phases", "--type", "1:4")
    assert "Q[0,1]" in proc2.stdout


def test_ext_command():
    proc = run_cli("--json", "ext", "--type", "1,1:4", "--from", "C(1)", "--to", "C(0)")
    data = json.loads(proc.stdout)
    assert data["results"]["1"] == 2


def test_hn_command():
    proc = run_cli("hn", "--type", "1,1:3", "--rep", str(GOLDEN / "sample_rep_113.json"))
    assert proc.returncode == 0
    assert "factor (1, 1, 0, 0)" in proc.stdout
    assert "factor (0, 0, 1, 0)" in proc.stdout


def test_hn_command_with_relations_and_embedded_type(tmp_path):
    # a representation of the two-step quiver, type carried by the file
    import random

    from gepnerstab.gfield import field_for
    from gepnerstab.mfcore import WeightedType
    from gepnerstab.quiverrep import heart_quiver, random_rep, rep_to_json

    q = heart_quiver(WeightedType((1, 1), 4))
    rep = random_rep(q, 5, random.Random(2), max_dim=2, inner_budget=3, total_budget=8)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    proc = run_cli("hn", "--rep", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "HN filtration over F_25" in proc.stdout


def test_stability_c1m1_on_two_step_type():
    proc = run_cli("stability", "--type", "1,1:4", "--object", "C1m1", "--primes", "5,7")
    assert proc.returncode == 0
    assert "stable" in proc.stdout


def test_usage_error_exit_code():
    proc = run_cli("zg", "--type", "9,9:7", "--class", "1,0")
    assert proc.returncode == 2
    proc2 = run_cli("charge", "--type", "1,1:4", "--class", "1,0")
    assert proc2.returncode == 2


def test_main_callable_directly(capsys):
    code = main(["table1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "K3 surface" in out


@pytest.mark.parametrize("primes", ["49", "4", "9", "0", "1", "-5", "5,x", "131"])
def test_stability_rejects_non_primes(primes):
    # 49 used to hang in the field set-up; the others reported a verification failure
    assert_usage_error(run_cli("stability", "--type", "1,1:3", "--object", "C1m1", "--primes", primes))


def test_stability_refuses_oversize_field():
    proc = run_cli("stability", "--type", "1,1:4", "--object", "C2m1", "--primes", "127")
    assert_usage_error(proc)
    assert "field size 16129 exceeds 130" in proc.stderr


def test_ext_point_out_of_range():
    for point in ("99", "0"):
        proc = run_cli("ext", "--type", "1,1:4", "--from", "C(1)", "--to", "point", "--point", point)
        assert_usage_error(proc)
        assert "--point must be in 1..4" in proc.stderr


def test_hn_missing_file(tmp_path):
    assert_usage_error(run_cli("hn", "--rep", str(tmp_path / "missing.json")))


ZERO_113 = {"field": "Fp", "p": 5, "type": "(1,1;3)", "dims": {"C(0)": 1}}


@pytest.mark.parametrize(
    "data, message",
    [
        (ZERO_113 | {"p": 49}, "prime >= 2, got 49"),
        (ZERO_113 | {"dims": {"C(0)": 3, "PsiO(p1)": 3, "PsiO(p2)": 3, "PsiO(p3)": 6}}, "total dimension 15 exceeds 12"),
        (ZERO_113 | {"dims": {"C(0)": 10**6, "PsiO(p1)": 10**6}}, "total dimension 2000000 exceeds 12"),
        (ZERO_113 | {"dims": {"C(0)": -1}}, "negative dimension"),
        ([1, 2], "must hold a JSON object"),
        ({k: v for k, v in ZERO_113.items() if k != "p"}, "malformed representation file: KeyError('p')"),
        (ZERO_113 | {"dims": [1]}, "malformed representation file: AttributeError"),
    ],
)
def test_hn_rep_file_errors(tmp_path, data, message):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    proc = run_cli("hn", "--rep", str(path))
    assert_usage_error(proc)
    assert message in proc.stderr
