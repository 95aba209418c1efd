"""Golden reports: each CLI command on fixed inputs, compared byte for
byte with the reports stored beside them in tests/data/cli, outside [meta].

A change that means to alter a report rewrites the stored reports with
`PYTHONPATH=src python tests/test_cli_golden.py` and shows the diff.
"""

import pathlib
import sys

import pytest

from pdml.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data" / "cli"

# case: its command and arguments; <case>.txt in DATA is the input file of
# a case that reads one, and <case>.report its stored report
GOLDEN = {
    "return-set": ("return-set", []),
    # u_n = 7^n + 2 at c = 1,2: the gen-instance output of that pexp
    # instance, whose subresultant equation is decided in its digit box
    "return-set-pow7": ("return-set", []),
    "solve-pexp": ("solve-pexp", []),
    "classify-pexp": ("classify-pexp", []),
    "intersect-psets": ("intersect-psets", []),
    "ap-cap-pset": ("ap-cap-pset", []),
    "verify-reduction": ("verify-reduction", []),
    "gen-instance": ("gen-instance", []),
    # c = 1,2 adds the subresultant equation to the pulled-back variety
    "gen-instance-c12": ("gen-instance", []),
    "exponent-set": ("exponent-set",
                     ["--p", "5", "--c", "1,1", "--bound", "30"]),
    "exponent-set-c12": ("exponent-set",
                         ["--p", "7", "--c", "1,2", "--bound", "400"]),
    "obstruction": ("obstruction", ["--rmax", "6", "--smax", "8"]),
}


def _report(case: str, out: pathlib.Path) -> str:
    """The report of a golden case, cut before [meta]."""
    command, args = GOLDEN[case]
    source = DATA / f"{case}.txt"
    argv = [command, *([str(source)] if source.exists() else []),
            *args, "--out", str(out)]
    assert main(argv) == 0
    return out.read_text(encoding="utf-8").split("[meta]\n")[0]


def test_every_command_has_a_golden_report():
    from pdml.cli import _COMMANDS

    assert sorted({command for command, _ in GOLDEN.values()}) == sorted(
        _COMMANDS)


@pytest.mark.parametrize("case", GOLDEN)
def test_report_matches_golden(case, tmp_path):
    expected = (DATA / f"{case}.report").read_text(encoding="utf-8")
    assert _report(case, tmp_path / "report.txt") == expected


def test_return_set_pow7_round_trip(tmp_path):
    """The stored return-set-pow7 input came from the earlier G_m^(p-1)
    character-table rows; gen-instance's instance of the same pexp
    instance, with its one divided-difference equation, has the same
    return set and description."""
    source = tmp_path / "pexp.txt"
    source.write_text("p = 7\nlrs = 2;7,-8;3,9\nterms = 1,1 ; 2,1\n"
                      "c = 1,2\nn_max = 30\n")
    inst, out = tmp_path / "inst.txt", tmp_path / "report.txt"
    assert main(["gen-instance", str(source), "--out", str(inst)]) == 0
    stored = (DATA / "return-set-pow7.txt").read_text(encoding="utf-8")
    assert inst.read_text(encoding="utf-8") != stored
    assert main(["return-set", str(inst), "--out", str(out)]) == 0
    expected = (DATA / "return-set-pow7.report").read_text(encoding="utf-8")
    got = out.read_text(encoding="utf-8").split("[meta]\n")[0]
    assert got.split("[result]\n")[1] == expected.split("[result]\n")[1]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN:
            text = _report(name, pathlib.Path(tmp) / "report.txt")
            (DATA / f"{name}.report").write_text(text, encoding="utf-8")
            print(f"wrote {name}.report", file=sys.stderr)
