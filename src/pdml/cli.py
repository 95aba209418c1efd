"""Batch command-line front end.

Every command reads an instance file (or takes explicit flags), runs one
pipeline, and writes a deterministic report: identical inputs produce
byte-identical reports, with wall time quarantined in the final [meta]
section. Each command takes only the flags it reads (`_COMMANDS`), and a
flag value is parsed like the instance field it overrides. An error is one
stderr line; its class in `pdml.errors` gives the prefix and the exit code:
2 parse, 3 validation, 4 resource cap, 5 internal invariant failure.
Each handler imports the library layers it runs, so a process loads only
those of its command; the pexp-file handlers (solve-pexp, classify-pexp,
gen-instance) parse their file first, so a malformed one fails before
those layers load.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

from . import serial
from .errors import ParseError, PdmlError, ValidationError


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _emit(report: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as e:
            raise ValidationError(f"cannot write {out}: {e}") from e
    else:
        sys.stdout.write(report)


def _lines(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


def _csv(values) -> str:
    return ",".join(str(x) for x in values)


def _report(started: float, *sections: str) -> str:
    """[instance], then the newline-terminated sections, then [meta]."""
    ms = int((time.monotonic() - started) * 1000)
    return ("[instance]\n" + "".join(sections)
            + _lines("[meta]", f"wall_time_ms = {ms}"))


def _torus(args):
    """The torus instance of the input file, n_max replaced by --nmax."""
    p, phi, alpha, variety, n_max = serial.torus_instance_from_text(
        _read(args.input))
    return p, phi, alpha, variety, getattr(args, "nmax", n_max)


def _pexp(args):
    """The pexp instance of the input file, n_max replaced by --nmax."""
    p, u, terms, n_max, c = serial.pexp_instance_from_text(_read(args.input))
    return p, u, terms, getattr(args, "nmax", n_max), c


def _obstruction_bounds(args) -> dict[str, int]:
    """--rmax and --smax as keyword arguments, where given; the torus
    functions hold their defaults."""
    return {name: getattr(args, flag)
            for name, flag in (("r_max", "rmax"), ("s_max", "smax"))
            if hasattr(args, flag)}


def cmd_return_set(args, started: float) -> str:
    from .torus import classify_hits, return_set

    inst = _torus(args)
    _, phi, alpha, variety, n_max = inst
    hits = return_set(phi, alpha, variety, n_max)
    desc = classify_hits(phi, hits, n_max, **_obstruction_bounds(args))
    return _report(started, serial.torus_instance_to_text(*inst),
                   _lines("[result]", "hits = " + _csv(hits)),
                   serial.desc_to_text(desc))


def cmd_solve_pexp(args, started: float) -> str:
    p, u, terms, n_max, _ = _pexp(args)
    from .pexp import PexpInstance, pexp_solve

    sols = pexp_solve(PexpInstance(u, p, terms), n_max)
    solved = _csv(n for n, _ in sols)
    return _report(started, serial.pexp_instance_to_text(p, u, terms, n_max),
                   _lines("[result]", "solutions = " + solved, "[witnesses]",
                          *("\t".join(map(str, (n, *w))) for n, w in sols)))


def cmd_classify_pexp(args, started: float) -> str:
    p, u, terms, n_max, _ = _pexp(args)
    from .pexp import PexpInstance, pexp_classify

    desc = pexp_classify(PexpInstance(u, p, terms), n_max)
    return _report(started, serial.pexp_instance_to_text(p, u, terms, n_max),
                   serial.desc_to_text(desc))


def cmd_intersect_psets(args, started: float) -> str:
    from .psets import pset_intersect_bounded

    p, s1, s2, bound = serial.pset_pair_from_text(_read(args.input))
    bound = getattr(args, "bound", bound)
    elements, cand = pset_intersect_bounded(s1, s2, p, bound)
    cand_text = "none" if cand is None else " ; ".join(
        serial.pset_to_text(ps) for ps in cand)
    return _report(started,
                   _lines(f"p = {p.p}", f"bound = {bound}",
                          "pset1 = " + serial.pset_to_text(s1),
                          "pset2 = " + serial.pset_to_text(s2)),
                   _lines("[result]", "elements = " + _csv(elements),
                          "candidate = " + cand_text))


def cmd_ap_cap_pset(args, started: float) -> str:
    from .psets import ap_intersect_pset

    p, ap, s = serial.ap_pset_from_text(_read(args.input))
    pieces = ap_intersect_pset(ap, s, p)
    return _report(started,
                   _lines(f"p = {p.p}", f"ap = {ap.a},{ap.b}",
                          "pset = " + serial.pset_to_text(s)),
                   _lines("[result]", f"count = {len(pieces)}",
                          *("pset = " + serial.pset_to_text(ps)
                            for ps in pieces)))


def cmd_verify_reduction(args, started: float) -> str:
    from .torus import reduction_decompose, verify_reduction

    inst = _torus(args)
    _, phi, alpha, _, n_max = inst
    rd = reduction_decompose(phi, alpha)
    ok = verify_reduction(rd, phi, alpha, n_max)
    return _report(started, serial.torus_instance_to_text(*inst),
                   _lines("[result]", "minpoly = " + _csv(rd.minpoly),
                          f"verified = {'true' if ok else 'false'}",
                          f"n_max = {n_max}"))


def cmd_gen_instance(args, started: float) -> str:
    p, u, _, n_max, c = _pexp(args)
    if c is None:
        raise ValidationError("gen-instance needs the c field")
    from .constructions import dml_instance

    phi, alpha, variety = dml_instance(u, p, list(c))
    return serial.torus_instance_to_text(p, phi, alpha, variety, n_max)


def cmd_exponent_set(args, started: float) -> str:
    from .constructions import build_pset_variety, exponent_set

    hits = exponent_set(build_pset_variety(args.p, args.c), args.bound)
    return _report(started,
                   _lines(f"p = {args.p.p}", "c = " + _csv(args.c),
                          f"bound = {args.bound}"),
                   _lines("[result]", "elements = " + _csv(hits)))


def cmd_obstruction(args, started: float) -> str:
    from .torus import frobenius_obstruction

    inst = _torus(args)
    p, phi = inst[:2]
    verdict = frobenius_obstruction(phi.matrix, p, **_obstruction_bounds(args))
    return _report(started, serial.torus_instance_to_text(*inst),
                   _lines("[result]", f"verdict = {verdict}"))


def _int(what: str):
    return partial(serial.parse_int, what=what)


# Each flag once: (parser, help). argparse leaves a flag unset unless it
# is given, and a command with no input file requires its flags. A given
# flag overrides the instance field it is parsed like (--nmax, --bound) or
# the default of the library function that reads it (--rmax, --smax).
_FLAGS = {
    "--nmax": (partial(serial.parse_count, what="n_max"),
               "override the instance n_max"),
    "--bound": (partial(serial.parse_count, what="bound"),
                "enumeration bound"),
    "--p": (serial.parse_prime, "prime"),
    "--c": (serial.parse_coeffs, "comma-separated positive coefficients"),
    "--rmax": (_int("rmax"),
               "obstruction iterate bound (default torus.DEFAULT_R_MAX)"),
    "--smax": (_int("smax"), "obstruction Frobenius-power bound "
               "(default torus.DEFAULT_S_MAX)"),
}

# name: (handler, reads an input file, the flags it reads besides --out)
_COMMANDS = {
    "return-set": (cmd_return_set, True, ("--nmax", "--rmax", "--smax")),
    "solve-pexp": (cmd_solve_pexp, True, ("--nmax",)),
    "classify-pexp": (cmd_classify_pexp, True, ("--nmax",)),
    "intersect-psets": (cmd_intersect_psets, True, ("--bound",)),
    "ap-cap-pset": (cmd_ap_cap_pset, True, ()),
    "verify-reduction": (cmd_verify_reduction, True, ("--nmax",)),
    "gen-instance": (cmd_gen_instance, True, ("--nmax",)),
    "exponent-set": (cmd_exponent_set, False, ("--p", "--c", "--bound")),
    "obstruction": (cmd_obstruction, True, ("--rmax", "--smax")),
}


class _Parser(argparse.ArgumentParser):
    """Raises ParseError where argparse would print usage and exit 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdml",
        description="Exact return sets for torus dynamics over F_p(t)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, needs_input, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(handler=handler)
        if needs_input:
            sp.add_argument("input", help="instance file")
        sp.add_argument("--out", help="report path (default stdout)")
        for flag in flags:
            parse, text = _FLAGS[flag]
            sp.add_argument(flag, type=parse, help=text,
                            default=argparse.SUPPRESS,
                            required=not needs_input)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _emit(args.handler(args, time.monotonic()), args.out)
    except PdmlError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
