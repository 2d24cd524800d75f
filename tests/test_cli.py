import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quatperiods
from quatperiods import brandt, cli, diffop, newformdata, periods
from quatperiods.brandt import constant_form
from quatperiods.lseries import ingest, resolve_label
from quatperiods.newformdata import eta_product_coefficients
from quatperiods.periods import period_sums
from quatperiods.quatalg import primes_up_to
from quatperiods.yoshida import HalfIntMatrix

SRC = str(Path(quatperiods.__file__).resolve().parents[1])


def run_cli(*args):
    """Run the CLI in a fresh interpreter; return the completed process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "quatperiods.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def test_period_11a_both_weightings(capsys):
    quad = ["--h1", "11a", "--h2", "11a", "--f1", "11a", "--f2", "11a"]
    for weighting, value in (("unweighted", "-19"), ("mass", "-5/2")):
        assert cli.main(["period", *quad, "--weighting", weighting]) == 0
        report = json.loads(capsys.readouterr().out)["period"]
        assert report["S1"] == report["S2"] == value
        assert report["conventions"][weighting] == [value, value]


def test_eigen_output_is_byte_identical_across_processes():
    runs = [run_cli("eigen", "--disc", "7", "--level", "14")
            for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["class_number"] == 2


@pytest.mark.parametrize("args", [
    ("classset", "--disc", "13", "--level", "26"),
    ("brandt", "--disc", "13", "--level", "26", "--p", "47"),
    ("eigen", "--disc", "53"),
])
def test_output_is_byte_identical_across_processes(args):
    runs = [run_cli(*args) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)


@pytest.mark.parametrize("args", [
    ("brandt", "--disc", "11", "--p", "11"),
    ("brandt", "--disc", "11", "--p", "4"),
    ("classset", "--disc", "4"),
    ("classset", "--disc", "6"),
    ("theta", "--disc", "11", "--prec", "0"),
    ("restrict", "--disc", "11", "--alpha1", "1", "--alpha2", "1"),
    ("restrict", "--disc", "11", "--gamma", "-1"),
    ("diffop", "--k", "1"),
    ("diffop", "--r", "-1"),
    ("diffop", "--a", "-1"),
    ("diffop", "--T", "1,2"),
    ("diffop", "--T", "a,b,c"),
    ("yoshida", "--disc", "11", "--nu1", "1", "--nu2", "2"),
    ("lvalue", "--sym2", "11a", "--pmax", "-3"),
    ("yoshida", "--disc", "3", "--nu1", "-2", "--nu2", "-2"),
    ("brandt", "--disc", "11", "--p", "3", "--nu1", "-1"),
    ("period", "--h1", "11a", "--h2", "11a", "--f1", "11a", "--f2", "11a",
     "--alpha1", "2"),
    ("classset", "--disc", "11", "--bits", "5"),
    ("lvalue", "--h1", "11a", "--f1", "14a", "--f2", "14a"),
    ("lvalue", "--sym2", "11a", "--bits", "100"),
    # the level is the records' own, so there is no flag for it
    ("period", "--h1", "11a", "--h2", "11a", "--f1", "11a", "--f2", "11a",
     "--level", "11"),
])
def test_unsupported_input_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args, message", [
    (("theta", "--disc", "11", "--match", "14a"), "level 14"),
    (("gate", "--h1", "11a"), "--h2, --f1, --f2"),
    (("lvalue", "--h1", "11a"), "--f1, --f2"),
    (("euler", "--p", "3", "--h1", "11a"), "--f1, --f2"),
    (("eigen", "--disc", "11", "--nu1", "2"), "--nu1"),
    (("euler", "--p", "3", "--h1", "11a", "--f1", "14a", "--f2", "14a"),
     "mixes levels"),
    # no rational essential cusp form: only theta has --match to offer
    (("theta", "--disc", "2", "--prec", "3"),
     "0 rational essential cusp forms on this class set; select one with "
     "--match LABEL"),
    (("restrict", "--disc", "2", "--prec", "3"),
     "0 rational essential cusp forms on this class set; this command "
     "needs exactly one"),
    (("yoshida", "--disc", "2", "--prec", "2"),
     "0 rational essential cusp forms on this class set; this command "
     "needs exactly one"),
    # contradictory flags: none is dropped, not even an unknown label
    (("lvalue", "--sym2", "11a", "--h1", "26a", "--f1", "zz"),
     "--sym2 excludes --h1, --f1"),
    (("euler", "--sym2", "11a", "--h1", "26a", "--p", "3"),
     "--sym2 excludes --h1"),
    (("theta", "--disc", "11", "--eisenstein", "--match", "11a"),
     "not allowed with argument"),
    # a mixed-level quadruple names the record off the level of h1
    (("period", "--h1", "11a", "--h2", "11a", "--f1", "14a", "--f2", "14a"),
     "14a has level 14, not 11"),
    (("gate", "--h1", "14a", "--h2", "14a", "--f1", "14a", "--f2", "11a"),
     "11a has level 11, not 14"),
])
def test_missing_label_or_mismatched_input_exits_2(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# Each command's flags and defaults as the argparse parser had them before
# the flag table replaced it; REQ marks a required flag.
REQ = "required"
PARSER_FLAGS = {
    "classset": {"out": "", "disc": REQ, "level": None},
    "brandt": {"out": "", "disc": REQ, "level": None, "p": REQ, "nu1": 0},
    "eigen": {"out": "", "disc": REQ, "level": None},
    "theta": {"out": "", "disc": REQ, "level": None, "newforms": "",
              "prec": 6, "match": "", "eisenstein": False},
    "yoshida": {"out": "", "disc": REQ, "level": None, "nu1": 0, "nu2": 0,
                "prec": 6, "seed": 0},
    "restrict": {"out": "", "disc": REQ, "level": None, "prec": 6,
                 "gamma": 0},
    "diffop": {"out": "", "k": 2, "a": 0, "b": 0, "r": 0, "T": None},
    "gate": {"out": "", "h1": REQ, "h2": REQ, "f1": REQ, "f2": REQ,
             "newforms": ""},
    "period": {"out": "", "h1": REQ, "h2": REQ, "f1": REQ, "f2": REQ,
               "newforms": "", "pmax": 0, "weighting": "unweighted",
               "lvalue": False},
    "euler": {"out": "", "h1": "", "f1": "", "f2": "", "sym2": "",
              "newforms": "", "p": REQ},
    "lvalue": {"out": "", "h1": "", "f1": "", "f2": "", "sym2": "",
               "newforms": "", "pmax": 0},
    "verify": {"out": "", "newforms": "", "seed": 0},
}
# a valid text for each flag and the value the handler reads; None marks a
# switch, which takes no text and reads True
FLAG_VALUES = {
    "out": ("o.json", "o.json"), "disc": ("11", 11), "level": ("22", 22),
    "p": ("3", 3), "nu1": ("2", 2), "nu2": ("4", 4), "newforms": ("f", "f"),
    "prec": ("5", 5), "match": ("11a", "11a"), "eisenstein": None,
    "seed": ("-4", -4), "gamma": ("1", 1), "k": ("4", 4), "a": ("2", 2),
    "b": ("1", 1), "r": ("3", 3), "T": ("2,1,3", HalfIntMatrix(2, 1, 3)),
    "h1": ("26a", "26a"), "h2": ("26b", "26b"), "f1": ("14a", "14a"),
    "f2": ("15a", "15a"), "sym2": ("11a", "11a"), "pmax": ("7", 7),
    "weighting": ("mass", "mass"), "lvalue": None,
}


def flag_argv(flags, form):
    """The command-line words that give every flag of flags its sample
    value, as `--flag value` or as `--flag=value`."""
    argv = []
    for flag in flags:
        if FLAG_VALUES[flag] is None:
            argv.append(f"--{flag}")
        elif form == "space":
            argv += [f"--{flag}", FLAG_VALUES[flag][0]]
        else:
            argv.append(f"--{flag}={FLAG_VALUES[flag][0]}")
    return argv


def recorded_args(monkeypatch, argv):
    """The namespace the handler of argv[0] is called with."""
    seen = []

    def record(args):
        seen.append(args)

    monkeypatch.setitem(cli.COMMANDS, argv[0],
                        (record, cli.COMMANDS[argv[0]][1]))
    assert cli.main(argv) == 0
    args, = seen
    assert args.run is record
    return {key: value for key, value in vars(args).items() if key != "run"}


@pytest.mark.parametrize("form", ["space", "equals"])
@pytest.mark.parametrize("command", list(PARSER_FLAGS))
def test_every_flag_reaches_the_handler(monkeypatch, command, form):
    flags = PARSER_FLAGS[command]
    got = recorded_args(monkeypatch, [command, *flag_argv(flags, form)])
    assert got == {"command": command,
                   **{flag: True if FLAG_VALUES[flag] is None
                      else FLAG_VALUES[flag][1] for flag in flags}}


@pytest.mark.parametrize("command", list(PARSER_FLAGS))
def test_flags_left_out_take_the_parser_defaults(monkeypatch, command):
    flags = PARSER_FLAGS[command]
    required = [flag for flag, default in flags.items() if default is REQ]
    got = recorded_args(monkeypatch,
                        [command, *flag_argv(required, "space")])
    assert got == {"command": command, **flags,
                   **{flag: FLAG_VALUES[flag][1] for flag in required}}


def test_the_last_of_a_repeated_flag_wins(monkeypatch):
    got = recorded_args(monkeypatch, ["classset", "--disc=11", "--level",
                                      "22", "--disc", "7", "--level=7"])
    assert (got["disc"], got["level"]) == (7, 7)


PERIOD_11A = ("period", "--h1", "11a", "--h2", "11a", "--f1", "11a",
              "--f2", "11a")


@pytest.mark.parametrize("argv, flag", [
    # unknown command, none at all, unknown flag, a positional word and an
    # abbreviation, which the flag table does not expand
    (("bogus", "--disc", "11"), "'bogus'"),
    ((), "classset, brandt"),
    (("eigen", "--disc", "11", "--prec", "3"), "--prec"),
    (("eigen", "11"), "'11'"),
    (("brandt", "--disc", "11", "--p", "3", "--nu", "1"), "--nu"),
    # missing value, at the end or before the next flag
    (("eigen", "--disc"), "--disc"),
    (("theta", "--disc", "11", "--match", "--eisenstein"), "--match"),
    # missing required flag
    (("brandt", "--disc", "11"), "--p"),
    (("euler", "--sym2", "11a"), "--p"),
    # bad value, in either form
    (("brandt", "--disc", "11", "--p=4"), "--p"),
    (("yoshida", "--disc", "11", "--seed=x"), "--seed"),
    (("diffop", "--T", "1,2,x"), "--T"),
    (("classset", "--disc=11", "--level", "4"), "--level"),
    # bad choice, and a value given to a switch
    ((*PERIOD_11A, "--weighting", "equal"), "--weighting"),
    ((*PERIOD_11A, "--lvalue=yes"), "--lvalue"),
    # exclusive flags, in either order
    (("theta", "--disc", "11", "--match=11a", "--eisenstein"),
     "not allowed with argument --eisenstein"),
    (("theta", "--disc", "11", "--eisenstein", "--match", "11a"), "--match"),
])
def test_bad_command_line_exits_2_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["bogus", "-h"]])
def test_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "definite quaternion algebras" in out
    commands = next(line for line in out.splitlines()
                    if line.startswith("commands: "))
    assert commands.split(": ")[1].split(", ") == list(PARSER_FLAGS)
    assert len(PARSER_FLAGS) == 12


@pytest.mark.parametrize("command", list(PARSER_FLAGS))
def test_help_lists_the_flags_of_a_command(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--disc", "11", "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    flags = [line.split()[0] for line in lines if line.startswith("  --")]
    assert flags == [f"--{flag}" for flag in PARSER_FLAGS[command]]
    assert "write the JSON to this file, not to stdout" in lines[3]


def run_json(capsys, *args):
    assert cli.main(list(args)) == 0
    return json.loads(capsys.readouterr().out)


def test_classset_level_11(capsys):
    out = run_json(capsys, "classset", "--disc", "11")
    assert out["class_number"] == 2
    assert out["unit_counts"] == [4, 6]


# Class-set JSON recorded before orders moved from Fraction rows to integer
# HNF pairs: the basis strings of the order and of every representative.
MAXIMAL_11_BASIS = [["1/2", "0", "0", "1/2"], ["0", "1/2", "1/2", "0"],
                    ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
EICHLER_22_BASIS = [["1/2", "1/2", "1/2", "19/2"], ["0", "1", "0", "4"],
                    ["0", "0", "1", "4"], ["0", "0", "0", "11"]]
CLASSSET_JSON = {
    ("--disc", "11"): {
        "class_number": 2, "mass": "5/12",
        "order": {"algebra": {"a": "-1/1", "b": "-11/1", "disc": 11},
                  "basis": MAXIMAL_11_BASIS, "level": 11},
        "reps": [MAXIMAL_11_BASIS,
                 [["1/2", "0", "1", "1/2"], ["0", "1/2", "1/2", "1"],
                  ["0", "0", "2", "0"], ["0", "0", "0", "2"]]],
        "unit_counts": [4, 6]},
    ("--disc", "2", "--level", "22"): {
        "class_number": 1, "mass": "1/2",
        "order": {"algebra": {"a": "-1/1", "b": "-1/1", "disc": 2},
                  "basis": EICHLER_22_BASIS, "level": 22},
        "reps": [EICHLER_22_BASIS],
        "unit_counts": [2]},
}


@pytest.mark.parametrize("args, size", [(("--disc", "11"), 791),
                                        (("--disc", "2", "--level", "22"),
                                         587)])
def test_classset_json_is_pinned(capsys, args, size):
    assert cli.main(["classset", *args]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(CLASSSET_JSON[args], sort_keys=True,
                             indent=1) + "\n"
    assert len(out) == size


def test_brandt_row_sums(capsys):
    out = run_json(capsys, "brandt", "--disc", "11", "--p", "2")
    assert [sum(int(x) for x in row) for row in out["matrix"]] == [3, 3]


def test_theta_is_proportional_to_11a(capsys):
    out = run_json(capsys, "theta", "--disc", "11", "--prec", "10")
    coeffs = {int(n): Fraction(c) for n, c in out["coefficients"].items()}
    a = eta_product_coefficients([1, 1, 11, 11], 10)
    assert coeffs[0] == 0
    assert all(coeffs[n] == coeffs[1] * a[n] for n in range(1, 11))


def test_eigen_and_theta_at_a_cubic_hecke_field(capsys):
    # level 53: the Eisenstein form, 53a and one orbit with a cubic field
    forms = run_json(capsys, "eigen", "--disc", "53")["forms"]
    assert [f.get("field") for f in forms] == \
        [None, None, "x^3 + x^2 - 3*x - 1"]
    assert forms[1]["eigenvalues"]["2"] == "-1"
    assert forms[2]["eigenvalues"]["2"] == "x"
    assert all(f["al_signs"]["53"] in (1, -1) for f in forms)
    # theta lifts the one rational cusp form: a_2 = -1, a_3 = -3 of 53a
    th = run_json(capsys, "theta", "--disc", "53", "--prec", "3")
    c = {int(n): Fraction(v) for n, v in th["coefficients"].items()}
    assert c[1] != 0 and c[2] == -c[1] and c[3] == -3 * c[1]


def test_diffop_z12_test(capsys):
    out = run_json(capsys, "diffop", "--k", "4", "--a", "2", "--b", "1",
                   "--r", "2")
    assert Fraction(out["p"]["0,2,0"]) * math.factorial(2) == 2


def test_gate_sends_11a_to_disc_11(capsys):
    out = run_json(capsys, "gate", "--h1", "11a", "--h2", "11a",
                   "--f1", "11a", "--f2", "11a")
    assert out["selected_disc"] == 11


def test_euler_triple_factor_degree(capsys):
    out = run_json(capsys, "euler", "--p", "3", "--h1", "11a", "--f1", "11a",
                   "--f2", "11a")
    assert out["type"] == "triple"
    assert len(out["coeffs"]) == 9


# euler JSON recorded while the factor algebra ran in Fractions: a good and
# a Steinberg prime of a triple, and the Sym^2 factor at a good and a bad
# prime
EULER_JSON = {
    ("--h1", "11a", "--f1", "11a", "--f2", "11a", "--p", "3"): {
        "coeffs": ["1", "1", "63", "-108", "1728", "-2916", "45927", "19683",
                   "531441"],
        "p": 3, "shift": "3/2", "type": "triple"},
    ("--h1", "26a", "--f1", "26b", "--f2", "26b", "--p", "13"): {
        "coeffs": ["1", "-27", "195", "-169"],
        "p": 13, "shift": "3/2", "type": "triple"},
    ("--sym2", "11a", "--p", "5"): {
        "coeffs": ["1", "4", "-20", "-125"],
        "p": 5, "shift": "1", "type": "sym2"},
    ("--sym2", "11a", "--p", "11"): {
        "coeffs": ["1", "-1"], "p": 11, "shift": "1", "type": "sym2"},
}


@pytest.mark.parametrize("args", list(EULER_JSON))
def test_euler_json_is_pinned(capsys, args):
    assert cli.main(["euler", *args]) == 0
    assert capsys.readouterr().out == json.dumps(
        EULER_JSON[args], sort_keys=True, indent=1) + "\n"


NEWFORMS = ("a|7|2|7:+1|2:1,3:1\n"
            "bad|7|2\n"
            "d|7|2|7:+1|2:1,3:1\n"
            "r|7|2|7:+1|2:5,3:1\n"
            "d|7|2|7:-1|2:0,3:1\n")


@pytest.mark.parametrize("label, message", [
    ("zz", "label zz: 0 matches in the file"),
    ("d", "label d: 2 matches in the file"),
    ("bad", "row 2: expected 5 fields"),
    ("r", "row 4: Ramanujan violation |a_2|=5"),
])
def test_only_the_named_rows_are_read_but_every_label_is(capsys, tmp_path,
                                                         label, message):
    path = tmp_path / "newforms.txt"
    path.write_text(NEWFORMS, encoding="utf-8")
    # the rows of other labels are not parsed, so their faults do not show
    out = run_json(capsys, "euler", "--newforms", str(path), "--sym2", "a",
                   "--p", "3")
    assert out["coeffs"] == ["1", "2", "-6", "-27"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["euler", "--newforms", str(path), "--sym2", label,
                  "--p", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("job", [
    PERIOD_11A, ("theta", "--disc", "11", "--match", "11a")])
def test_a_match_names_the_first_missing_coefficient(capsys, tmp_path, job):
    # a record cut off after a_29 lacks a_31, a good prime the match reads
    row = Path(newformdata.default_data_path()).read_text(
        encoding="utf-8").splitlines()[0]
    path = tmp_path / "newforms.txt"
    path.write_text(row[:row.index(",31:")] + "\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main([*job, "--newforms", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: 11a: no a_31 in the data file\n"


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("latin-1", "not UTF-8 text"),
], ids=["missing", "directory", "latin-1"])
def test_an_unreadable_newform_file_exits_2_naming_it(capsys, tmp_path, kind,
                                                      reason):
    (tmp_path / "latin-1.txt").write_bytes(
        "caf\xe9|11|2|11:-1|2:-2\n".encode("latin-1"))
    path = {"missing": tmp_path / "absent.txt", "directory": tmp_path,
            "latin-1": tmp_path / "latin-1.txt"}[kind]
    with pytest.raises(SystemExit) as exc:
        cli.main(["theta", "--disc", "11", "--match", "11a",
                  "--newforms", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: {reason}\n"


@pytest.mark.parametrize("job", [("classset", "--disc", "2"), ("verify",)])
@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
], ids=["missing", "directory"])
def test_an_unwritable_out_file_exits_2_naming_it(capsys, tmp_path, job,
                                                  kind, reason):
    # verify writes its --out itself, after printing its rows
    out = tmp_path / "absent" / "x.json" if kind == "missing" else tmp_path
    with pytest.raises(SystemExit) as exc:
        cli.main([*job, "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def test_period_and_theta_match_do_not_split_the_module(capsys, monkeypatch):
    # each record's form is one Hecke kernel: the Galois-orbit split of
    # eigenforms is not needed
    def split(*args, **kwargs):
        raise AssertionError("eigenforms called")

    for module in (brandt, cli, periods):
        monkeypatch.setattr(module, "eigenforms", split, raising=False)
    recs = ingest(newformdata.default_data_path(), {"26a", "26b"})
    h, f = (resolve_label(recs, label) for label in ("26a", "26b"))
    report = periods.quadruple_report(h, h, f, f)
    assert report["selected_disc"] == 13 and report["period"]["S1"]
    out = run_json(capsys, "theta", "--disc", "11", "--match", "11a")
    assert out["coefficients"]["1"]


def test_yoshida_weight_0_lift_level_11(capsys):
    out = run_json(capsys, "yoshida", "--disc", "11", "--prec", "4")
    polys = {tuple(c["T"]): c["poly"] for c in out["coeffs"]}
    assert polys[(0, 0, 1)] == {"0,0": "5/2"}


def test_restrict_level_11(capsys):
    out = run_json(capsys, "restrict", "--disc", "11", "--prec", "4")
    assert out["coefficients"]["1,1"] == "13"
    assert out["coefficients"]["2,2"] == "-68"


def test_lvalue_triple_11a(capsys):
    out = run_json(capsys, "lvalue", "--h1", "11a", "--f1", "11a",
                   "--f2", "11a")
    assert abs(out["value"] - 0.0734715565) < 1e-6
    assert out["error"] < 1e-6


def test_level_26_ratios_agree_within_propagated_error(capsys, monkeypatch):
    """(26a,26a;26b,26b) goes to disc 13 and (26b,26b;26a,26a) to disc 2;
    the ratio must not depend on the quadruple beyond the propagated error,
    which counts both triple Lambdas and every Sym^2 proxy with its power.
    The reported Lambda carries its own error, not that of L(1/2)."""
    lambdas, values = [], []
    triple_lambda = periods.triple_central_value

    def counting(*args, **kwargs):
        lambdas.append([r.label for r in args[:3]])
        values.append(triple_lambda(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(periods, "triple_central_value", counting)
    checks = []
    for (h, f), disc in ((("26a", "26b"), 13), (("26b", "26a"), 2)):
        out = run_json(capsys, "period", "--h1", h, "--h2", h, "--f1", f,
                       "--f2", f, "--lvalue", "--weighting", "mass")
        assert out["selected_disc"] == disc
        checks.append(out["lvalue_cross_check"])
    # h1 = h2, so one triple Lambda per quadruple
    assert lambdas == [["26a", "26b", "26b"], ["26b", "26a", "26a"]]
    first, second = checks
    assert abs(first["ratio"] / second["ratio"] - 1) <= \
        first["relative_error"] + second["relative_error"]
    for check, cv in zip(checks, values):
        lam = check["lambda_h1"]
        assert lam["value"] == cv.lam
        assert lam["error"] == cv.lam_error > \
            cv.details["quad_err"] + cv.details["tail"]
        assert math.isclose(abs(lam["error"] / lam["value"]),
                            abs(cv.error / cv.value), rel_tol=1e-9)


@pytest.mark.parametrize("pmax", ["1", "2"])
@pytest.mark.parametrize("series", [("--h1", "11a", "--f1", "11a", "--f2",
                                     "11a"), ("--sym2", "11a")])
def test_lvalue_at_the_shortest_series(capsys, series, pmax):
    # log 1 = 0: one or two terms must not break the map of log n to [-1, 1]
    out = run_json(capsys, "lvalue", *series, "--pmax", pmax)
    assert out["terms"] == int(pmax)
    assert math.isfinite(out["value"]) and math.isfinite(out["error"])


@pytest.mark.parametrize("series", [("--h1", "11a", "--f1", "11a", "--f2",
                                     "11a"), ("--sym2", "11a")])
def test_lvalue_names_the_first_missing_coefficient(series):
    # the shipped data stop before 12007; both paths say so the same way
    proc = run_cli("lvalue", *series, "--pmax", "99999")
    assert proc.returncode == 2
    assert proc.stderr == "error: 11a: no a_12007 in the data file\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("job", [
    ("lvalue", "--h1", "11a", "--f1", "11a", "--f2", "11a"),
    ("lvalue", "--sym2", "11a"),
    ("period", "--h1", "11a", "--h2", "11a", "--f1", "11a", "--f2", "11a",
     "--lvalue"),
], ids=["triple", "sym2", "period"])
def test_series_far_past_the_data_is_rejected_before_it_is_built(job):
    # a sieve or a coefficient array of 10^14 entries would not fit in
    # memory: the missing coefficient must be named first
    proc = run_cli(*job, "--pmax", str(10 ** 14))
    assert proc.returncode == 2
    assert proc.stderr == "error: 11a: no a_12007 in the data file\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("series", [("--h1", "D", "--f1", "D", "--f2", "D"),
                                    ("--sym2", "D")], ids=["triple", "sym2"])
def test_a_series_of_weight_12_is_rejected(capsys, tmp_path, series):
    # Delta has level 1, so no Steinberg prime checks its weight; the gamma
    # factors and conductors of both series are those of weight 2
    tau = eta_product_coefficients([1] * 24, 200)
    path = tmp_path / "delta.txt"
    path.write_text("D|1|12||" + ",".join(f"{p}:{tau[p]}"
                                          for p in primes_up_to(200)) + "\n",
                    encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["lvalue", *series, "--newforms", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: documented defaults cover weight 2 only\n"


def test_lvalue_sym2_11a(capsys):
    out = run_json(capsys, "lvalue", "--sym2", "11a")
    assert math.isfinite(out["value"]) and out["value"] > 0


def test_verify_passes_and_exits_3_on_a_failed_check(capsys, monkeypatch):
    # the checks and quadruple_report name the disc-11 class set by one key,
    # so they share its w_11
    brandt.atkin_lehner.cache_clear()
    assert cli.main(["verify"]) == 0
    assert brandt.atkin_lehner.cache_info().misses == 1
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 11 and all(r.split()[0] == "pass" for r in rows)
    monkeypatch.setattr(cli, "eichler_mass", lambda n1, m: Fraction(0))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 3
    assert "FAIL  mass formulas" in capsys.readouterr().out
    monkeypatch.undo()

    def without_mass(phi1, psi1, psi2):
        # corollary (a) with phi2 the constant form, its 1/mass factor dropped
        cs = phi1.class_set
        return period_sums(phi1, constant_form(cs), psi1, psi2, 0, 0,
                           weighting="mass")

    monkeypatch.setattr(cli, "degenerate_eisenstein", without_mass)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 3
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows].count("FAIL") == 1
    assert "  FAIL  paper corollaries (a), (b)" in rows
    monkeypatch.undo()

    # the Sym^2 proxies at their default length, as if the series length
    # did not reach them: the relative error grows to 2.9e-4
    proxy = periods.petersson_norm_proxy
    monkeypatch.setattr(periods, "petersson_norm_proxy",
                        lambda record, terms=None: proxy(record))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 3
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows].count("FAIL") == 1
    assert "  FAIL  paper constant at 11a^4" in rows
    monkeypatch.undo()

    # the projection factor without its sign (-1)^j: the case j = 0 is
    # kept, so the z12 test still gives r!, but u12^2 - u1 u2 turns into
    # u12^2 + 11 u1 u2
    factor = diffop.projection_factor
    monkeypatch.setattr(diffop, "projection_factor",
                        lambda w, j: abs(factor(w, j)))
    assert diffop.projection_poly(2, 0, 0, 2).poly == {(0, 2, 0): 1,
                                                       (1, 0, 1): 11}
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 3
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows].count("FAIL") == 1
    assert "  FAIL  differential operators" in rows


def bench_module(name):
    """A module of the benchmark directory, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(SRC).parent / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Installs the benchmark's span recorder, as bench/trace_child.py does, and
# runs one CLI job; prints the calls of each traced layer.
TRACED_JOB = """
import importlib.util, json, sys
from pathlib import Path

def bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(sys.argv[1], f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

spans, workloads = bench_module("spans"), bench_module("workloads")
tracer = spans.Tracer()
spans.install(tracer, workloads.LAYERS)
from quatperiods import cli
cli.main(sys.argv[2:])
print(json.dumps({name: t["calls"]
                  for name, t in spans.layer_totals(tracer.spans).items()}))
"""


def test_traced_benchmark_spans_the_cli_layers(tmp_path):
    # the tracer imports quatperiods.cli before a job runs and rebinds the
    # names it finds there, so every layer, cli.match_eigenform among them,
    # must be bound when the module is imported
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_JOB, str(Path(SRC).parent / "bench"),
         *PERIOD_11A, "--out", str(tmp_path / "period.json")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["cli.match_eigenform"] > 0
    assert calls["brandt.atkin_lehner"] > 0
    assert json.loads((tmp_path / "period.json").read_text())["period"]


CHECKS = bench_module("checks")
BENCH_JOBS = [" ".join(job) for job in bench_module("workloads").all_jobs()]


@pytest.mark.parametrize("job", BENCH_JOBS)
def test_benchmark_jobs_pass_the_benchmark_gate(job):
    # every job any benchmark seed can run, each in a fresh interpreter as
    # the benchmark runs it, checked by the gate the benchmark applies: exact
    # JSON byte for byte (class sets, eigenforms, S1/S2, Fourier tables),
    # an L-value within the reported errors, a Sym^2 proxy finite
    argv = job.split()
    proc = run_cli(*argv)
    why = CHECKS.failure(argv, proc.returncode, proc.stdout.encode("utf-8"),
                         CHECKS.load_references())
    assert why is None, f"{why}\n{proc.stderr}"
