import argparse
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from pdml import serial
from pdml.cli import build_parser, main
from pdml.errors import ParseError
from pdml.exact import FpPoly, PrimeModulus, RatFunc
from pdml.lrs import Lrs, fibonacci
from pdml.psets import ArithProg, PSet, ReturnSetDesc, pset_of
from pdml.torus import TorusPoint, TorusSelfMap, Variety

P5 = PrimeModulus(5)


def strip_meta(report: str) -> str:
    lines = report.splitlines()
    if "[meta]" in lines:
        lines = lines[: lines.index("[meta]")]
    return "\n".join(lines)


class TestTextForms:
    def test_ratfunc_round_trip(self):
        x = RatFunc(FpPoly([1, 1], P5), FpPoly([3, 2], P5))
        text = serial.ratfunc_to_text(x)
        assert serial.ratfunc_from_text(text, P5) == x

    def test_ratfunc_example(self):
        assert serial.ratfunc_from_text("1,1/1", P5) == \
            RatFunc(FpPoly([1, 1], P5))

    def test_lrs_round_trip(self):
        s = Lrs((3, -4), (-1, 1))
        assert serial.lrs_from_text(serial.lrs_to_text(s)) == s
        assert serial.lrs_to_text(s) == "2;3,-4;-1,1"

    def test_pset_round_trip(self):
        s = PSet(((Fraction(1), 1), (Fraction(-3, 2), 0), (Fraction(2), 3)))
        assert serial.pset_from_text(serial.pset_to_text(s)) == s

    def test_pset_example_text(self):
        assert serial.pset_to_text(pset_of((1, 1), (1, 1))) == \
            "1*p^(1*n1)+1*p^(1*n2)"

    def test_desc_round_trip(self):
        d = ReturnSetDesc(P5, aps=(ArithProg(4, 2),),
                          psets=(pset_of((1, 1), (1, 1)),),
                          exceptional=(0, 9), verified_bound=500,
                          notes=("example",))
        back = serial.desc_from_text(serial.desc_to_text(d), P5)
        assert back.aps == d.aps
        assert back.psets == d.psets
        assert back.exceptional == d.exceptional
        assert back.verified_bound == 500

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            serial.ratfunc_from_text("1,1", P5)
        with pytest.raises(ParseError):
            serial.lrs_from_text("2;1;1,2,3")
        with pytest.raises(ParseError):
            serial.pset_from_text("garbage")


class TestInstanceFiles:
    def make_instance_text(self):
        t = RatFunc(FpPoly([0, 1], P5))
        one = RatFunc.one(P5)
        phi = TorusSelfMap(((1, 1), (0, 1)), TorusPoint((one, one)))
        alpha = TorusPoint((t, t + one))
        v = Variety(2, ((((1, 0), one), ((0, 1), -one)),))
        return serial.torus_instance_to_text(P5, phi, alpha, v, 25)

    def test_torus_round_trip(self):
        text = self.make_instance_text()
        p, phi, alpha, v, n_max = serial.torus_instance_from_text(text)
        regen = serial.torus_instance_to_text(p, phi, alpha, v, n_max)
        assert regen == text

    def test_pexp_round_trip(self):
        text = serial.pexp_instance_to_text(
            P5, fibonacci(), ((1, 1), (1, 1)), 40, c=(1, 1))
        p, u, terms, n_max, c = serial.pexp_instance_from_text(text)
        assert (p.p, u, terms, n_max, c) == \
            (5, fibonacci(), ((1, 1), (1, 1)), 40, (1, 1))
        assert serial.pexp_instance_to_text(p, u, terms, n_max, c) == text

    def test_validation_errors(self):
        from pdml.errors import ValidationError

        with pytest.raises(ValidationError):
            serial.torus_instance_from_text(
                "p = 4\nn_max = 5\nmatrix = 1\ny = 1/1\nalpha = 1/1\n")
        with pytest.raises(ValidationError):
            serial.torus_instance_from_text(
                "p = 5\nn_max = 5\nmatrix = 1 0 ; 0 1\ny = 1/1 | 1/1\n"
                "alpha = 0/1 | 1/1\n")


def run_cli(tmp_path, *args):
    out = tmp_path / "report.txt"
    code = main([*args, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestCli:
    def test_solve_pexp_report(self, tmp_path):
        inst = tmp_path / "inst.txt"
        inst.write_text("p = 5\nlrs = 2;3,-4;-1,1\nterms = 1,1\nn_max = 1000\n")
        code, report = run_cli(tmp_path, "solve-pexp", str(inst))
        assert code == 0
        assert "solutions = 1,3" in report
        assert "1\t0" in report and "3\t2" in report

    def test_exponent_set_report(self, tmp_path):
        code, report = run_cli(tmp_path, "exponent-set", "--p", "5",
                               "--c", "1,1", "--bound", "30")
        assert code == 0
        assert "elements = 2,6,10,26,30" in report

    def test_void_terms_solve(self, tmp_path):
        inst = tmp_path / "inst.txt"
        inst.write_text("p = 5\nlrs = 1;-1;7\nterms =\nn_max = 4\n")
        code, report = run_cli(tmp_path, "solve-pexp", str(inst))
        assert code == 0
        assert "solutions = 0,1,2,3,4" in report

    def test_determinism(self, tmp_path):
        inst = tmp_path / "inst.txt"
        inst.write_text("p = 5\nlrs = 2;3,-4;-1,1\nterms = 1,1\nn_max = 600\n")
        _, r1 = run_cli(tmp_path, "classify-pexp", str(inst))
        _, r2 = run_cli(tmp_path, "classify-pexp", str(inst))
        assert strip_meta(r1) == strip_meta(r2)
        assert "[meta]" in r1 and re.search(r"wall_time_ms = \d+", r1)

    def test_classify_report_sections(self, tmp_path):
        inst = tmp_path / "inst.txt"
        inst.write_text("p = 3\nlrs = 2;1,-2;0,1\nterms = 1,1\nn_max = 400\n")
        code, report = run_cli(tmp_path, "classify-pexp", str(inst))
        assert code == 0
        assert "[psets]" in report
        assert "1*p^(1*n1)" in report
        assert "[verified_bound]\n400" in report

    def test_classify_huge_constant_term(self, tmp_path):
        # u_n = 5^(40 n): its characteristic root 5^40 comes without a
        # divisor scan of the constant term
        inst = tmp_path / "inst.txt"
        inst.write_text("p = 5\nlrs = 1;-9094947017729282379150390625;1\n"
                        "terms = 1,1\nn_max = 50\n")
        start = time.monotonic()
        code, report = run_cli(tmp_path, "classify-pexp", str(inst))
        assert time.monotonic() - start < 1
        assert code == 0
        assert "[aps]\n1,0\n" in report

    def test_gen_instance_replay(self, tmp_path):
        src = tmp_path / "pexp.txt"
        src.write_text("p = 5\nlrs = 2;1,-2;0,1\nterms = 1,1 ; 1,1\n"
                       "c = 1,1\nn_max = 40\n")
        inst_path = tmp_path / "torus.txt"
        code = main(["gen-instance", str(src), "--out", str(inst_path)])
        assert code == 0
        # generated file reparses to a semantically identical instance
        text = inst_path.read_text()
        parsed = serial.torus_instance_from_text(text)
        assert serial.torus_instance_to_text(*parsed[0:1], parsed[1],
                                             parsed[2], parsed[3],
                                             parsed[4]) == text
        code, report = run_cli(tmp_path, "return-set", str(inst_path))
        assert code == 0
        assert "hits = 2,6,10,26,30" in report
        assert "1*p^(1*n1)+1*p^(1*n2)" in report

    def test_ap_cap_pset(self, tmp_path):
        inst = tmp_path / "ap.txt"
        inst.write_text("p = 3\nap = 2,1\npset = 1*p^(1*n1)\n")
        code, report = run_cli(tmp_path, "ap-cap-pset", str(inst))
        assert code == 0
        assert "count = 1" in report

    def test_ap_cap_pset_large_modulus(self, tmp_path, capsys):
        # 5 has order 100002 mod 100003: exit 4 at once, not an endless walk
        inst = tmp_path / "ap.txt"
        inst.write_text("p = 5\nap = 100003,0\n"
                        "pset = 1*p^(1*n1)+1*p^(1*n2)+1*p^(1*n3)\n")
        start = time.perf_counter()
        assert main(["ap-cap-pset", str(inst)]) == 4
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("resource cap: ")
        inst.write_text("p = 5\nap = 1009,0\npset = 1*p^(1*n1)+1*p^(1*n2)\n")
        code, report = run_cli(tmp_path, "ap-cap-pset", str(inst))
        assert code == 0
        assert "count = 504" in report

    def test_classify_derives_cyclotomic_bound(self, tmp_path):
        # the roots of Phi_66 (degree 20) have order 66: the split finds
        # them from the degree, with no bound to raise
        phi66 = "1,1,0,-1,-1,0,1,1,0,-1,-1,-1,0,1,1,0,-1,-1,0,1"
        inst = tmp_path / "inst.txt"
        inst.write_text(f"p = 5\nlrs = 20;{phi66};1,1{',0' * 18}\n"
                        "terms = 1,1\nn_max = 200\n")
        code, report = run_cli(tmp_path, "classify-pexp", str(inst))
        assert code == 0
        assert "piece 66k+65: " in report
        assert "unsupported" not in report
        # (x - 5) Phi_66: every piece has the root 5^66, taken from the
        # root 5 of u rather than found again by a divisor scan of 5^66
        x5phi66 = "-5,-4,1,5,4,-1,-5,-4,1,5,4,4,-1,-5,-4,1,5,4,-1,-5,-4"
        inst.write_text(f"p = 5\nlrs = 21;{x5phi66};1{',0' * 20}\n"
                        "terms = 1,1\nn_max = 200\n")
        start = time.perf_counter()
        code, report = run_cli(tmp_path, "classify-pexp", str(inst))
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert "piece 66k+0: two-exponent shape fitted" in report
        assert "exceptional]\n0,21\n" in report
        inst.write_text("p = 5\nlrs = 2;-1,-1;0,1\nterms = 1,1\n"
                        "n_max = 200\n")
        code, report = run_cli(tmp_path, "classify-pexp", str(inst))
        assert code == 0
        assert "unsupported: irrational characteristic roots" in report

    def test_intersect_psets(self, tmp_path):
        inst = tmp_path / "pair.txt"
        inst.write_text("p = 3\nbound = 100\npset1 = 1*p^(1*n1)\n"
                        "pset2 = 2*p^(1*n1)+-1*p^(1*n2)\n")
        code, report = run_cli(tmp_path, "intersect-psets", str(inst))
        assert code == 0
        assert "elements = 1,3,9,27,81" in report
        assert "candidate = 1*p^(1*n1)" in report

    def test_verify_reduction(self, tmp_path):
        inst = tmp_path / "torus.txt"
        inst.write_text("p = 5\nn_max = 20\nmatrix = 2\ny = 0,1/1\n"
                        "alpha = 1,1/1\n")
        code, report = run_cli(tmp_path, "verify-reduction", str(inst))
        assert code == 0
        assert "verified = true" in report
        assert "minpoly = -2,1" in report

    def test_obstruction(self, tmp_path):
        inst = tmp_path / "torus.txt"
        inst.write_text("p = 5\nn_max = 1\nmatrix = 5 0 ; 0 5\n"
                        "y = 1/1 | 1/1\nalpha = 0,1/1 | 0,1/1\n")
        code, report = run_cli(tmp_path, "obstruction", str(inst))
        assert code == 0
        assert "verdict = obstructed(1,1)" in report

    def test_parse_error_exit(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("not an instance\n")
        assert main(["solve-pexp", str(inst)]) == 2

    def test_validation_error_exit(self, tmp_path):
        inst = tmp_path / "bad.txt"
        inst.write_text("p = 4\nlrs = 1;-1;1\nterms = 1,1\nn_max = 5\n")
        assert main(["solve-pexp", str(inst)]) == 3

    def test_empty_variety_rejected(self, tmp_path):
        inst = tmp_path / "torus.txt"
        inst.write_text("p = 5\nn_max = 5\nmatrix = 1\ny = 1/1\n"
                        "alpha = 0,1/1\nequation = \n")
        assert main(["return-set", str(inst)]) == 3

    def test_missing_input_exit(self, tmp_path):
        assert main(["solve-pexp", str(tmp_path / "nope.txt")]) == 2

    def test_resource_cap_exit(self, capsys):
        # (t + a)^(10^6) has one coefficient more than the degree cap
        assert main(["exponent-set", "--p", "5", "--c", "1,1",
                     "--bound", "1000000"]) == 4
        assert capsys.readouterr().err == (
            "resource cap: polynomial with 1000001 coefficients exceeds cap "
            "1000000\n")

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "pdml.cli", "exponent-set", "--p", "5",
             "--c", "1,1", "--bound", "10"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "elements = 2,6,10" in result.stdout


TORUS = ("p = 5\nn_max = {n_max}\nmatrix = 2 0 ; 0 3\ny = 1/1 | 1/1\n"
         "alpha = 0,1/1 | 1,1/1\nequation = {ev} : 1/1 ; 0 0 : 4/1\n")
PEXP = "p = 5\nlrs = 2;1,-2;0,1\nterms = {terms}\n{c}n_max = {n_max}\n"
MALFORMED = [
    ("solve-pexp", PEXP.format(terms="1,1 ; 1,1", c="", n_max="abc")),
    ("solve-pexp", PEXP.format(terms="1,x", c="", n_max="4")),
    ("gen-instance", PEXP.format(terms="1,1", c="c = 1,x\n", n_max="4")),
    ("return-set", TORUS.format(n_max="abc", ev="1 0")),
    ("return-set", TORUS.format(n_max="4", ev="1 z")),
    ("ap-cap-pset", "p = 3\nap = 2,1\npset = 1*p^(1)\n"),
    ("ap-cap-pset", "p = 3\nap = 2\npset = 1*p^(1*n1)\n"),
    ("intersect-psets", "p = 3\nbound = x\npset1 = 1*p^(1*n1)\n"
                        "pset2 = 1*p^(1*n1)\n"),
]
# valid files for the flag tests; {pexp} and friends in argv name them
FLAG_FILES = {
    "pexp": PEXP.format(terms="1,1", c="c = 1,1\n", n_max="4"),
    "torus": TORUS.format(n_max="4", ev="1 0"),
    "pair": "p = 3\nbound = 10\npset1 = 1*p^(1*n1)\npset2 = 1*p^(1*n1)\n",
    "ap": "p = 3\nap = 2,1\npset = 1*p^(1*n1)\n",
}
# the flags each command reads besides --out
COMMAND_FLAGS = {
    "return-set": {"--nmax", "--rmax", "--smax"},
    "solve-pexp": {"--nmax"},
    "classify-pexp": {"--nmax"},
    "intersect-psets": {"--bound"},
    "ap-cap-pset": set(),
    "verify-reduction": {"--nmax"},
    "gen-instance": {"--nmax"},
    "exponent-set": {"--p", "--c", "--bound"},
    "obstruction": {"--rmax", "--smax"},
}


def exit_with_one_line(tmp_path, capsys, argv):
    """main's exit code and stderr for argv, after checking that it returned
    an int and printed exactly one stderr line and no traceback."""
    files = {}
    for name, text in FLAG_FILES.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    code = main([a.format(**files) for a in argv])
    err = capsys.readouterr().err
    assert isinstance(code, int)
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    return code, err


class TestErrorExits:
    @pytest.mark.parametrize("command,text", MALFORMED)
    def test_malformed_numbers_exit_2(self, tmp_path, capsys, command, text):
        inst = tmp_path / "bad.txt"
        inst.write_text(text)
        assert main([command, str(inst)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["exponent-set", "--p", "5", "--c", "1,x",
                      "--bound", "9"], id="bad-c"),
        pytest.param(["exponent-set", "--p", "x", "--c", "1,1",
                      "--bound", "9"], id="bad-p"),
        pytest.param(["solve-pexp", "{pexp}", "--nmax", "abc"],
                     id="bad-nmax"),
        pytest.param(["solve-pexp", "{pexp}", "--foo", "1"],
                     id="unknown-flag"),
        pytest.param(["exponent-set", "--p", "5", "--c", "1,1"],
                     id="missing-bound"),
        pytest.param(["solve-pexp", "{pexp}", "--rmax", "3"],
                     id="unread-rmax"),
        pytest.param(["ap-cap-pset", "{ap}", "--nmax", "4"],
                     id="unread-nmax"),
        pytest.param([], id="no-command")])
    def test_malformed_flag_exit_2(self, tmp_path, capsys, argv):
        # malformed, unknown, missing and unread flags: main returns 2
        # (argparse would raise SystemExit after a usage block)
        assert exit_with_one_line(tmp_path, capsys, argv)[0] == 2

    @pytest.mark.parametrize("argv,field", [
        (["intersect-psets", "{pair}", "--bound", "-1"], "bound"),
        (["verify-reduction", "{torus}", "--nmax", "-1"], "n_max"),
        (["gen-instance", "{pexp}", "--nmax", "-3"], "n_max"),
        (["return-set", "{torus}", "--nmax", "-1"], "n_max"),
        (["exponent-set", "--p", "5", "--c", "1,1", "--bound", "-1"],
         "bound")], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_negative_override_exit_3(self, tmp_path, capsys, argv, field):
        # a flag is checked like the instance field it overrides
        out = tmp_path / "report.txt"
        code, err = exit_with_one_line(tmp_path, capsys,
                                       argv + ["--out", str(out)])
        assert code == 3
        assert err == f"validation error: {field} must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--period-cap", "0"), ("--period-cap", "-3"),
        ("--cyclotomic-bound", "-1"), ("--degree-cap", "10")])
    def test_removed_cap_flags_exit_2(self, tmp_path, capsys, flag, value):
        # the caps are constants or derived from the input: no command
        # takes a flag for one
        out = tmp_path / "report.txt"
        for argv in (["return-set", "{torus}"], ["classify-pexp", "{pexp}"],
                     ["verify-reduction", "{torus}"],
                     ["gen-instance", "{pexp}"],
                     ["exponent-set", "--p", "5", "--c", "1,1",
                      "--bound", "9"]):
            code, err = exit_with_one_line(
                tmp_path, capsys, argv + [flag, value, "--out", str(out)])
            assert code == 2
            assert err.startswith("parse error: unrecognized arguments: ")
            assert not out.exists()

    def test_flags_per_command(self):
        # each command offers exactly the flags it reads, plus --out
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMAND_FLAGS)
        settable = 0
        for name, command in sub.choices.items():
            flags = {s for a in command._actions for s in a.option_strings
                     if s not in ("-h", "--help")}
            assert flags == COMMAND_FLAGS[name] | {"--out"}, name
            settable += len(flags)
        assert settable == 22

    @pytest.mark.parametrize("argv", [[]] + [[c] for c in COMMAND_FLAGS],
                             ids=["pdml", *COMMAND_FLAGS])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv + ["-h"])
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pdml")

    @pytest.mark.parametrize("command", ["solve-pexp", "classify-pexp",
                                         "gen-instance"])
    def test_malformed_pexp_fails_before_pexp_loads(self, tmp_path, command):
        # the file is parsed before the handler imports the layers it runs
        layers = {"gen-instance": ["pdml.constructions", "pdml.torus"]}.get(
            command, ["pdml.pexp"])
        inst = tmp_path / "bad.txt"
        inst.write_text(MALFORMED[0][1])
        code = ("import sys\n"
                "from pdml.cli import main\n"
                f"rc = main([{command!r}, {str(inst)!r}])\n"
                f"print(rc, *(m in sys.modules for m in {layers!r}))\n")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.stdout.split() == ["2"] + ["False"] * len(layers)
        assert len(result.stderr.strip().splitlines()) == 1

    def test_verification_survives_optimize(self, tmp_path):
        # the description is verified outside assert, so -O keeps the bound
        inst = tmp_path / "void.txt"
        inst.write_text(PEXP.format(terms="", c="", n_max="4"))
        result = subprocess.run(
            [sys.executable, "-O", "-m", "pdml.cli", "classify-pexp",
             str(inst)], capture_output=True, text=True)
        assert result.returncode == 0
        assert "[verified_bound]\n4\n" in result.stdout

    @pytest.mark.parametrize("target", ["missing/dir/r.txt", "."])
    def test_unwritable_out_exit_3(self, tmp_path, capsys, target):
        out = tmp_path / target
        assert main(["exponent-set", "--p", "5", "--c", "1,1", "--bound",
                     "10", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["exponent-set", "--p", "10007", "--c", "1,1", "--bound", "3"],
        ["gen-instance", "{inst}"]])
    def test_large_prime_exit_4(self, tmp_path, capsys, argv):
        # the p-set variety lives in G_m^(p-1), and gen-instance's matrix
        # is dense in (p-1)d coordinates; above the dimension cap the
        # construction stops before building either
        inst = tmp_path / "big.txt"
        inst.write_text(PEXP.format(terms="1,1", c="c = 1,1\n", n_max="4")
                        .replace("p = 5", "p = 10007"))
        started = time.monotonic()
        assert main([a.format(inst=inst) for a in argv]) == 4
        assert time.monotonic() - started < 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_failed_verification_exits_5(self, tmp_path, capsys,
                                         monkeypatch):
        import pdml.pexp

        monkeypatch.setattr(pdml.pexp, "desc_verify", lambda *a: False)
        inst = tmp_path / "void.txt"
        inst.write_text(PEXP.format(terms="", c="", n_max="4"))
        assert main(["classify-pexp", str(inst)]) == 5
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_runs_without_numpy():
    # importing pdml.cli loads no numpy, and a run with numpy blocked (any
    # import of it raises ImportError) still works
    code = (
        "import sys\n"
        "import pdml.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.modules['numpy'] = None\n"
        "sys.exit(pdml.cli.main(['exponent-set', '--p', '5', '--c', '1,1',"
        " '--bound', '3125']))\n")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    elements = re.search(r"^elements = (.*)$", result.stdout, re.M).group(1)
    assert len(elements.split(",")) == 15
