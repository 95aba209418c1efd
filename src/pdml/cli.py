"""Batch command-line front end.

Every command reads an instance file (or takes explicit flags), runs one
pipeline, and writes a deterministic report: identical inputs produce
byte-identical reports, with wall time quarantined in the final [meta]
section. Errors go to stderr with distinct exit codes: 2 parse, 3
validation, 4 resource cap, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import serial
from .errors import (
    InternalError,
    ParseError,
    PdmlError,
    ResourceLimitError,
    UnsupportedError,
    ValidationError,
)
from .exact import DEFAULT_DEGREE_CAP, set_degree_cap
from .lrs import DEFAULT_CYCLOTOMIC_BOUND
from .pexp import DEFAULT_PERIOD_CAP, PexpInstance, pexp_classify, pexp_solve
from .psets import ap_intersect_pset, pset_intersect_bounded
from .torus import (
    DEFAULT_R_MAX,
    DEFAULT_S_MAX,
    classify_hits,
    frobenius_obstruction,
    reduction_decompose,
    return_set,
    verify_reduction,
)
from .constructions import dml_instance, exponent_set, build_pset_variety

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


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


def _report(instance_lines: list[str], body_lines: list[str],
            started: float) -> str:
    lines = ["[instance]"]
    lines.extend(instance_lines)
    lines.extend(body_lines)
    lines.append("[meta]")
    lines.append(f"wall_time_ms = {int((time.monotonic() - started) * 1000)}")
    return "\n".join(lines) + "\n"


def _desc_lines(desc) -> list[str]:
    return serial.desc_to_text(desc).rstrip("\n").split("\n")


def _echo_torus(p, phi, alpha, variety, n_max) -> list[str]:
    return serial.torus_instance_to_text(
        p, phi, alpha, variety, n_max).rstrip("\n").split("\n")


def _echo_pexp(p, u, terms, n_max, c=None) -> list[str]:
    return serial.pexp_instance_to_text(
        p, u, terms, n_max, c).rstrip("\n").split("\n")


def cmd_return_set(args, started: float) -> str:
    text = _read(args.input)
    p, phi, alpha, variety, n_max = serial.torus_instance_from_text(text)
    if args.nmax is not None:
        n_max = args.nmax
    hits = return_set(phi, alpha, variety, n_max)
    desc = classify_hits(phi, hits, n_max, r_max=args.rmax, s_max=args.smax)
    body = ["[result]", "hits = " + ",".join(str(n) for n in hits)]
    body.extend(_desc_lines(desc))
    return _report(_echo_torus(p, phi, alpha, variety, n_max), body, started)


def cmd_solve_pexp(args, started: float) -> str:
    text = _read(args.input)
    p, u, terms, n_max, _ = serial.pexp_instance_from_text(text)
    if args.nmax is not None:
        n_max = args.nmax
    inst = PexpInstance(u, p, terms)
    sols = pexp_solve(inst, n_max)
    body = ["[result]",
            "solutions = " + ",".join(str(n) for n, _ in sols),
            "[witnesses]"]
    for n, w in sols:
        body.append("\t".join([str(n)] + [str(x) for x in w]))
    return _report(_echo_pexp(p, u, terms, n_max), body, started)


def cmd_classify_pexp(args, started: float) -> str:
    text = _read(args.input)
    p, u, terms, n_max, _ = serial.pexp_instance_from_text(text)
    if args.nmax is not None:
        n_max = args.nmax
    inst = PexpInstance(u, p, terms)
    desc = pexp_classify(inst, n_max, period_cap=args.period_cap,
                         cyclotomic_bound=args.cyclotomic_bound)
    return _report(_echo_pexp(p, u, terms, n_max), _desc_lines(desc), started)


def cmd_intersect_psets(args, started: float) -> str:
    text = _read(args.input)
    p, s1, s2, bound = serial.pset_pair_from_text(text)
    if args.bound is not None:
        bound = args.bound
    elements, cand = pset_intersect_bounded(s1, s2, p, bound)
    echo = [f"p = {p.p}", f"bound = {bound}",
            "pset1 = " + serial.pset_to_text(s1),
            "pset2 = " + serial.pset_to_text(s2)]
    body = ["[result]",
            "elements = " + ",".join(str(n) for n in elements),
            "candidate = " + ("none" if cand is None else " ; ".join(
                serial.pset_to_text(ps) for ps in cand))]
    return _report(echo, body, started)


def cmd_ap_cap_pset(args, started: float) -> str:
    text = _read(args.input)
    p, ap, s = serial.ap_pset_from_text(text)
    pieces = ap_intersect_pset(ap, s, p)
    echo = [f"p = {p.p}", f"ap = {ap.a},{ap.b}",
            "pset = " + serial.pset_to_text(s)]
    body = ["[result]"]
    body.append(f"count = {len(pieces)}")
    for ps in pieces:
        body.append("pset = " + serial.pset_to_text(ps))
    return _report(echo, body, started)


def cmd_verify_reduction(args, started: float) -> str:
    text = _read(args.input)
    p, phi, alpha, variety, n_max = serial.torus_instance_from_text(text)
    if args.nmax is not None:
        n_max = args.nmax
    rd = reduction_decompose(phi, alpha)
    ok = verify_reduction(rd, phi, alpha, n_max)
    body = ["[result]",
            "minpoly = " + ",".join(str(c) for c in rd.minpoly),
            f"verified = {'true' if ok else 'false'}",
            f"n_max = {n_max}"]
    return _report(_echo_torus(p, phi, alpha, variety, n_max), body, started)


def cmd_gen_instance(args, started: float) -> str:
    text = _read(args.input)
    p, u, _, n_max, c = serial.pexp_instance_from_text(text)
    if c is None:
        raise ValidationError("gen-instance needs the c field")
    if args.nmax is not None:
        n_max = args.nmax
    phi, alpha, variety = dml_instance(u, p, list(c))
    return serial.torus_instance_to_text(p, phi, alpha, variety, n_max)


def cmd_exponent_set(args, started: float) -> str:
    p = serial.parse_prime(str(args.p))
    c = [serial.parse_int(x, "c entry") for x in args.c.split(",")]
    pv = build_pset_variety(p, c)
    hits = exponent_set(pv, args.bound)
    inst = [f"p = {p.p}", f"c = {args.c}", f"bound = {args.bound}"]
    body = ["[result]", "elements = " + ",".join(str(n) for n in hits)]
    return _report(inst, body, started)


def cmd_obstruction(args, started: float) -> str:
    text = _read(args.input)
    p, phi, alpha, variety, n_max = serial.torus_instance_from_text(text)
    verdict = frobenius_obstruction(phi.matrix, p, args.rmax, args.smax)
    body = ["[result]", f"verdict = {verdict}"]
    return _report(_echo_torus(p, phi, alpha, variety, n_max), body, started)


_COMMANDS = {
    "return-set": (cmd_return_set, True),
    "solve-pexp": (cmd_solve_pexp, True),
    "classify-pexp": (cmd_classify_pexp, True),
    "intersect-psets": (cmd_intersect_psets, True),
    "ap-cap-pset": (cmd_ap_cap_pset, True),
    "verify-reduction": (cmd_verify_reduction, True),
    "gen-instance": (cmd_gen_instance, True),
    "exponent-set": (cmd_exponent_set, False),
    "obstruction": (cmd_obstruction, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdml",
        description="Exact return sets for torus dynamics over F_p(t)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_input) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if needs_input:
            sp.add_argument("input", help="instance file")
        sp.add_argument("--out", default=None, help="report path (default stdout)")
        sp.add_argument("--nmax", type=int, default=None,
                        help="override the instance n_max")
        sp.add_argument("--bound", type=int, default=None,
                        help="enumeration bound")
        sp.add_argument("--rmax", type=int, default=DEFAULT_R_MAX,
                        help="obstruction iterate bound")
        sp.add_argument("--smax", type=int, default=DEFAULT_S_MAX,
                        help="obstruction Frobenius-power bound")
        sp.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP,
                        help="polynomial coefficient cap (default %(default)s)")
        sp.add_argument("--period-cap", type=int, default=DEFAULT_PERIOD_CAP,
                        help="progression-detection period cap "
                             "(default %(default)s)")
        sp.add_argument("--cyclotomic-bound", type=int,
                        default=DEFAULT_CYCLOTOMIC_BOUND,
                        help="cyclotomic trial-division bound "
                             "(default %(default)s)")
        if name == "exponent-set":
            sp.add_argument("--p", type=int, required=True, help="prime")
            sp.add_argument("--c", type=str, required=True,
                            help="comma-separated positive coefficients")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "exponent-set" and args.bound is None:
        print("error: exponent-set requires --bound", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        set_degree_cap(args.degree_cap)
    except PdmlError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    started = time.monotonic()
    handler, _ = _COMMANDS[args.command]
    try:
        _emit(handler(args, started), args.out)
    except InternalError as e:
        print(f"internal invariant failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, UnsupportedError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except PdmlError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
