import json
import os
import subprocess
import sys
import time
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


def test_classify_ends_in_bounded_time():
    # n and d beyond the five cases and d = 6 hold no admissible type; the
    # enumeration used to walk every one of them
    proc = subprocess.run(
        [sys.executable, "-m", "gepnerstab.cli", "--json", "classify", "--n", "1..1000000", "--dmax", "1000000000"],
        capture_output=True,
        text=True,
        timeout=10,
        env=dict(os.environ, PYTHONPATH=CHILD_PATH),
    )
    assert proc.returncode == 0, proc.stderr
    reference = json.loads(run_cli("--json", "classify", "--n", "2..4", "--dmax", "6").stdout)
    assert json.loads(proc.stdout)["results"] == reference["results"]


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


def test_phases_refuses_large_one_variable_tables(capsys):
    # 1:200 has 39,800 entries; it used to run for minutes, 1:100000 forever
    t0 = time.perf_counter()
    assert main(["phases", "--type", "1:200"]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: (1;200) has 39800 indecomposables; finite phase tables stop at 10000\n"
    proc = run_cli("phases", "--type", "1:60")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "3540 indecomposables (shift by [k] adds k)"


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


# Seeded slope-mode reps (random_rep over F_5, seeds 160 and 5) and the text
# that `gepnerstab hn` printed for them when slope keys were plain Fractions.
HN_SLOPE_GOLDEN = [
    (
        {"field": "Fp", "p": 5, "type": "(1,1;4)",
         "dims": {"C(1)": 1, "C(0)": 3, "PsiO(p1)": 3, "PsiO(p2)": 0, "PsiO(p3)": 2, "PsiO(p4)": 0},
         "mats": {"X1": [[10], [1], [7]], "X2": [[1], [13], [13]],
                  "pi1": [[8, 16, 11], [4, 14, 9], [14, 9, 9]], "pi2": [],
                  "pi3": [[19, 23, 21], [5, 6, 0]], "pi4": []}},
        "HN filtration over F_25 (= F_5^2) [slope order]:\n"
        "  factor (1, 2, 1, 0, 1, 0)  key 1/2\n"
        "  factor (0, 1, 1, 0, 1, 0)  key -1/2\n"
        "  factor (0, 0, 1, 0, 0, 0)  key -1\n",
    ),
    (
        {"field": "Fp", "p": 5, "type": "(3,1;6)",
         "dims": {"C(1)": 2, "C(0)": 2, "PsiO(p1)": 0, "PsiO(p2)": 3},
         "mats": {"X2": [[1, 0], [1, 0]], "pi1": [], "pi2": [[2, 3], [1, 3], [4, 0]]}},
        "HN filtration over F_5 [slope order]:\n"
        "  factor (1, 0, 0, 0)  key inf\n"
        "  factor (1, 1, 0, 1)  key 1/2\n"
        "  factor (0, 1, 0, 1)  key -1/2\n"
        "  factor (0, 0, 0, 1)  key -1\n",
    ),
]


@pytest.mark.parametrize("data, expected", HN_SLOPE_GOLDEN, ids=["1,1:4", "3,1:6"])
def test_hn_slope_keys_print_as_before(tmp_path, capsys, data, expected):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    assert main(["hn", "--rep", str(path)]) == 0
    assert capsys.readouterr().out == expected


# Seeded phase-mode reps (random_rep on (1,1;3) over F_5, seeds 1 and 13) and the
# text that `gepnerstab hn` printed for them when every quotient was searched.
HN_PHASE_GOLDEN = [
    (
        {"field": "Fp", "p": 5, "type": "(1,1;3)",
         "dims": {"C(0)": 1, "PsiO(p1)": 0, "PsiO(p2)": 2, "PsiO(p3)": 0},
         "mats": {"pi1": [], "pi2": [[15], [24]], "pi3": []}},
        "HN filtration over F_25 (= F_5^2) [phase order]:\n"
        "  factor (1, 0, 1, 0)  key phase~0.8333\n"
        "  factor (0, 0, 1, 0)  key phase~0.1667\n",
    ),
    (
        {"field": "Fp", "p": 5, "type": "(1,1;3)",
         "dims": {"C(0)": 2, "PsiO(p1)": 2, "PsiO(p2)": 1, "PsiO(p3)": 1},
         "mats": {"pi1": [[21, 4], [7, 20]], "pi2": [[23, 5]], "pi3": [[4, 2]]}},
        "HN filtration over F_25 (= F_5^2) [phase order]:\n"
        "  factor (1, 0, 0, 1)  key phase~0.8333\n"
        "  factor (1, 1, 1, 0)  key phase~0.5000\n"
        "  factor (0, 1, 0, 0)  key phase~0.1667\n",
    ),
]


@pytest.mark.parametrize("data, expected", HN_PHASE_GOLDEN, ids=["two-factors", "three-factors"])
def test_hn_phase_keys_print_as_before(tmp_path, capsys, data, expected):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    assert main(["hn", "--rep", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_hn_phase_order_on_a_zero_charge_class_is_a_usage_error(tmp_path, capsys):
    # on (3,1;6) the class (1, 0, 1, 0) of C(1) + PsiO(p1) has zero charge
    data = {"field": "Fp", "p": 5, "type": "(3,1;6)",
            "dims": {"C(1)": 1, "C(0)": 0, "PsiO(p1)": 1, "PsiO(p2)": 0},
            "mats": {"X2": [], "pi1": [[]], "pi2": []}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    assert main(["hn", "--rep", str(path), "--mode", "phase"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: class (1, 0, 1, 0) has zero charge, so it has no phase; "
        "phase order is undefined on (3,1;6), use --mode slope\n"
    )
    assert main(["hn", "--rep", str(path), "--mode", "slope"]) == 0


def test_stability_c1m1_on_two_step_type():
    proc = run_cli("stability", "--type", "1,1:4", "--object", "C1m1", "--primes", "5,7")
    assert proc.returncode == 0
    assert "stable" in proc.stdout


def test_usage_error_exit_code():
    # an UnsupportedCaseError (a ValueError) and a refused type
    assert_usage_error(run_cli("zg", "--type", "9,9:7", "--class", "1,0"))
    assert_usage_error(run_cli("charge", "--type", "1,1:4", "--class", "1,0"))


def test_main_callable_directly(capsys):
    code = main(["table1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "K3 surface" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        # the first exited 2 without a message; the others printed Python's parse errors
        (("zg", "--type", "1,1:4", "--class", "a"), "--class takes integer coordinates, got 'a'"),
        (("classify", "--n", "2"), "--n takes a range lo..hi of integers, got '2'"),
        (("classify", "--n", "a..b"), "--n takes a range lo..hi of integers, got 'a..b'"),
        (("stability", "--type", "1,1:4", "--object", "PsiOx(x)"), "--object takes a name with an optional integer point, as PsiOx(2), got 'PsiOx(x)'"),
        (("charge", "--type", "1,1,1:3", "--class", "1,x"), "--class takes rational coordinates r,c[,s], got '1,x'"),
        # a zero denominator was reported as a verification failure, rc 1
        (("charge", "--type", "1,1,1:3", "--class", "1/0,1"), "--class takes rational coordinates r,c[,s], got '1/0,1'"),
    ],
)
def test_parse_errors_name_the_flag_and_value(argv, message):
    proc = run_cli(*argv)
    assert_usage_error(proc)
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # each printed argparse's usage block before the error line
        (("classify", "--dmax", "x"), "gepnerstab classify: error: argument --dmax: invalid int value: 'x'"),
        (("stability", "--type", "1,1:4", "--object", "C0", "--max-q", "abc"), "gepnerstab stability: error: argument --max-q: invalid int value: 'abc'"),
        (("nosuch",), "gepnerstab: error: argument cmd: invalid choice: 'nosuch'"),
        (("--json",), "gepnerstab: error: the following arguments are required: cmd"),
    ],
)
def test_argparse_errors_print_one_line(argv, message):
    proc = run_cli(*argv)
    assert_usage_error(proc)
    assert proc.stderr.startswith(message), proc.stderr


@pytest.mark.parametrize("argv", [("-h",), ("classify", "--help")])
def test_help_exits_zero(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: gepnerstab")


@pytest.mark.parametrize("primes", ["49", "4", "9", "0", "1", "-5", "5,x", "131"])
def test_stability_rejects_non_primes(primes):
    # 49 used to hang in the field set-up; the others reported a verification failure
    assert_usage_error(run_cli("stability", "--type", "1,1:3", "--object", "C1m1", "--primes", primes))


def test_stability_refuses_oversize_field():
    proc = run_cli("stability", "--type", "1,1:4", "--object", "C2m1", "--primes", "127")
    assert_usage_error(proc)
    assert "field size 16129 exceeds 130" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        # GF(43^2) alone would build tables of 1849^2 entries
        (("stability", "--type", "1,1:4", "--object", "C2m1", "--max-q", "2000", "--primes", "43"), "--max-q must be in 2..361, got 2000"),
        (("hn", "--rep", "rep.json", "--max-q", "362"), "--max-q must be in 2..361, got 362"),
        # 0 and -5 bits printed +0+5.19580078125i for 5.196152...i
        (("charge", "--type", "1,1,1,1:4", "--class", "1,0,0", "--precision", "0"), "--precision must be in 53..4096, got 0"),
        (("charge", "--type", "1,1,1,1:4", "--class", "1,0,0", "--precision", "-5"), "--precision must be in 53..4096, got -5"),
        (("zg", "--type", "1,1:4", "--class", "0,1,1,0,0,0", "--precision", "200000"), "--precision must be in 53..4096, got 200000"),
        (("zg", "--type", "1,1:4", "--class", "0,1,1,0,0,0", "--precision", "52"), "--precision must be in 53..4096, got 52"),
    ],
)
def test_out_of_range_numbers(argv, message):
    proc = run_cli(*argv)
    assert_usage_error(proc)
    assert message in proc.stderr


def test_range_bounds_are_accepted():
    assert run_cli("zg", "--type", "1,1:4", "--class", "0,1,1,0,0,0", "--precision", "4096").returncode == 0
    proc = run_cli("stability", "--type", "1,1:3", "--object", "C1m1", "--primes", "5", "--max-q", "361")
    assert proc.returncode == 0, proc.stderr


def test_ext_point_out_of_range():
    for point in ("99", "0"):
        proc = run_cli("ext", "--type", "1,1:4", "--from", "C(1)", "--to", "point", "--point", point)
        assert_usage_error(proc)
        assert "--point must be in 1..4" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ext", "--type", "1,1,1:4", "--from", "C(1)", "--to", "C(0)"), "ext needs a two-variable type, got (1,1,1;4)\n"),
        (("ext", "--type", "1:4", "--from", "C(1)", "--to", "point"), "ext needs a two-variable type, got (1;4)\n"),
        (("ext", "--type", "1,1:2", "--from", "C(1)", "--to", "point"), "error: (1,1;2) has no j with Hom^i(C(j), PsiO_x) in range\n"),
        # these two printed Python's "invalid literal for int()" message
        (("ext", "--type", "1,1:4", "--from", "C(x)", "--to", "C(0)"), "--from must be C(j) with an integer j, got 'C(x)'\n"),
        (("ext", "--type", "1,1:4", "--from", "C(1)", "--to", "C(0"), "--to must be C(j) with an integer j, or point, got 'C(0'\n"),
    ],
)
def test_ext_rejects_types_without_a_table(argv, message):
    # the first three printed unpacking errors and an empty range 0..-1
    proc = run_cli(*argv)
    assert_usage_error(proc)
    assert proc.stderr == message


@pytest.mark.parametrize(
    "argv",
    [
        ("ext", "--type", "1,1:500", "--from", "C(1)", "--to", "point"),
        ("ext", "--type", "1,1:99999", "--from", "C(1)", "--to", "point"),
        ("phases", "--type", "1,999:1000"),
        ("phases", "--type", "1,9999:10000"),
    ],
)
def test_two_variable_degree_bound(argv, capsys):
    # 1,1:500 took 4.3 s and 1,999:1000 4.4 s; the larger ones ran for minutes
    t0 = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.endswith("exact points and phases of two-variable types stop at d = 100\n")


def test_two_variable_degree_bound_is_inclusive(capsys):
    assert main(["ext", "--type", "1,1:100", "--from", "C(1)", "--to", "point", "--point", "100"]) == 0
    assert main(["phases", "--type", "1,99:100"]) == 0
    assert main(["ext", "--type", "1,1:101", "--from", "C(1)", "--to", "point"]) == 2
    assert main(["phases", "--type", "1,100:101"]) == 2


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
        (ZERO_113 | {"mats": {"pi1": [[1, 2]]}}, "map pi1 (C(0) -> PsiO(p1)) must be a 0x1 matrix"),
        (ZERO_113 | {"mats": {"p1": [[1]]}}, "'p1' is not an arrow of the (1,1;3) quiver"),
        (ZERO_113 | {"dims": {"C(0)": 1, "C(9)": 4}}, "'C(9)' is not a vertex of the (1,1;3) quiver"),
        # total dimension 6, but F_5^6 has 3,583,232 subspaces to enumerate
        (ZERO_113 | {"type": "3,2:6", "dims": {"C(0)": 6}}, "C(0) has 3583232 subspaces over F_5"),
    ],
)
def test_hn_rep_file_errors(tmp_path, data, message):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    proc = run_cli("hn", "--rep", str(path))
    assert_usage_error(proc)
    assert message in proc.stderr


def test_hn_relation_failure(tmp_path):
    # pi1 (p2 X1 - p1 X2) = p2 != 0 in F_25: a well-formed file that breaks a relation
    data = {
        "field": "Fp",
        "p": 5,
        "type": "(1,1;4)",
        "dims": {"C(1)": 1, "C(0)": 1, "PsiO(p1)": 1},
        "mats": {"X1": [[1]], "X2": [[0]], "pi1": [[1]]},
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    proc = run_cli("hn", "--rep", str(path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "representation violates the quiver relations\n"


# Run a CLI call in a fresh interpreter and report which package modules it loaded.
LOADED_PROBE = """
import json, sys
from gepnerstab import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "mpmath" or m.startswith("gepnerstab"))
print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
"""


def loaded_by(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=CHILD_PATH),
    )
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return set(report["loaded"])


def test_commands_import_only_their_modules():
    loaded = loaded_by("--json", "table1")
    assert not loaded & {"mpmath", "gepnerstab.quiverrep", "gepnerstab.gfield", "gepnerstab.extcalc", "gepnerstab.hearts"}
    loaded = loaded_by("stability", "--type", "1,1:3", "--object", "C1m1", "--primes", "5")
    assert "gepnerstab.quiverrep" in loaded and "mpmath" not in loaded
    loaded = loaded_by("hn", "--type", "1,1:3", "--rep", str(GOLDEN / "sample_rep_113.json"))
    assert "gepnerstab.quiverrep" in loaded and "mpmath" not in loaded
    loaded = loaded_by("ext", "--type", "1,1:4", "--from", "C(1)", "--to", "C(0)")
    assert "gepnerstab.extcalc" in loaded and not loaded & {"mpmath", "gepnerstab.hearts", "gepnerstab.quiverrep"}


def test_package_names_resolve_on_first_access():
    from gepnerstab import CycloNum, hn_filtration, quiverrep

    assert CycloNum is gepnerstab.exactmath.CycloNum
    assert hn_filtration is quiverrep.hn_filtration
    assert quiverrep.ResourceLimitError is gepnerstab.exactmath.ResourceLimitError
    assert set(gepnerstab.__all__) <= set(dir(gepnerstab))
    with pytest.raises(AttributeError):
        gepnerstab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from gepnerstab import no_such_name  # noqa: F401
