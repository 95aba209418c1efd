"""Golden reports: each CLI command on one fixed input, compared byte for
byte with the report stored beside it in tests/data/cli, outside [meta].

A change that means to alter a report rewrites the stored reports with
`PYTHONPATH=src python tests/test_cli_golden.py` and shows the diff.
"""

import pathlib
import sys

import pytest

from pdml.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data" / "cli"

# command: its arguments; <name>.txt in DATA is the input file of a command
# that reads one, and <name>.report its stored report
GOLDEN = {
    "return-set": [],
    "solve-pexp": [],
    "classify-pexp": [],
    "intersect-psets": [],
    "ap-cap-pset": [],
    "verify-reduction": [],
    "gen-instance": [],
    "exponent-set": ["--p", "5", "--c", "1,1", "--bound", "30"],
    "obstruction": ["--rmax", "6", "--smax", "8"],
}


def _report(command: str, out: pathlib.Path) -> str:
    """The report of command on its golden input, cut before [meta]."""
    source = DATA / f"{command}.txt"
    argv = [command, *([str(source)] if source.exists() else []),
            *GOLDEN[command], "--out", str(out)]
    assert main(argv) == 0
    return out.read_text(encoding="utf-8").split("[meta]\n")[0]


def test_every_command_has_a_golden_report():
    from pdml.cli import _COMMANDS

    assert sorted(GOLDEN) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", GOLDEN)
def test_report_matches_golden(command, tmp_path):
    expected = (DATA / f"{command}.report").read_text(encoding="utf-8")
    assert _report(command, tmp_path / "report.txt") == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN:
            text = _report(name, pathlib.Path(tmp) / "report.txt")
            (DATA / f"{name}.report").write_text(text, encoding="utf-8")
            print(f"wrote {name}.report", file=sys.stderr)
