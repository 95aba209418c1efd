"""The four workloads: instance generation, the timed operations, checks.

A workload builds its shared inputs in `setup`, then hands out one job list
per pass from `make_pass(i)`. Pass i draws from its own generator, seeded
with "<workload>:<seed>:<i>", and no job key repeats within a run. A job is
an instance plus the operations timed on it and a check that compares the
outputs with answers from `oracles`, which never imports pdml.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import oracles
from pdml import serial
from pdml.constructions import (
    build_pset_variety,
    dml_instance,
    encode_lrs,
    exponent_set,
)
from pdml.exact import FpPoly, PrimeModulus, RatFunc, ratfunc_int_pow
from pdml.lrs import Lrs
from pdml.pexp import PexpInstance, pexp_classify, pexp_solve
from pdml.torus import (
    TorusPoint,
    TorusSelfMap,
    Variety,
    full_pipeline,
    reduction_decompose,
    return_set,
    verify_reduction,
)

P5, P7, P11 = PrimeModulus(5), PrimeModulus(7), PrimeModulus(11)
P_LARGE = PrimeModulus(10007)

# u_n = n + s and u_n = 5^n + b as recurrences (rec_coeffs c_0..c_{d-1}).
LINEAR = (1, -2)
FIVE_POW = (5, -6)
PERIOD2 = (-1, 0)


class Job:
    """One instance: named operations timed together, then checked."""

    def __init__(self, key, ops, check):
        self.key = key
        self.ops = ops          # [(name, thunk)]
        self.check = check      # results dict -> list of error strings
        self.results: dict = {}
        self.failed: list[str] = []
        self.seconds = 0.0


def _desc_data(desc):
    return ([(ap.a, ap.b) for ap in desc.aps],
            [list(ps.terms) for ps in desc.psets],
            list(desc.exceptional))


def _check_desc(desc, expected: set[int], p: int, n_max: int, what: str):
    errs = []
    if desc.verified_bound != n_max:
        errs.append(f"{what}: verified_bound {desc.verified_bound} != {n_max}")
    members = oracles.desc_members(*_desc_data(desc), p, n_max)
    if members != expected:
        errs.append(f"{what}: members differ from the oracle: "
                    f"extra {sorted(members - expected)[:5]}, "
                    f"missing {sorted(expected - members)[:5]}")
    return errs


def _lin(r: int, p: PrimeModulus) -> RatFunc:
    return RatFunc(FpPoly([r, 1], p))


def _poly(coeffs, p: PrimeModulus) -> RatFunc:
    return RatFunc(FpPoly(coeffs, p))


class Exhausted(Exception):
    """Every job key of some kind was used: the run ends its passes."""


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.seen: set = set()
        self.child_spans: list = []   # (span file, wall s, stdout) per CLI child

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def fresh(self, rng: random.Random, draw, key):
        """Draw parameters until their job key is new in this run."""
        for _ in range(10_000):
            value = draw()
            k = key(value)
            if k not in self.seen:
                self.seen.add(k)
                return value
        raise Exhausted(f"{self.name}: instance space exhausted")

    def setup(self):
        pass

    def make_pass(self, i: int) -> list[Job]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pexp-digits
# ---------------------------------------------------------------------------


class PexpDigits(Workload):
    """pexp_solve and pexp_classify on three kinds of instance."""

    name = "pexp-digits"
    POSITIVE_NMAX = (40, 50, 60, 70)
    NEGATIVE_NMAX = (200, 220, 240, 260, 280, 300)
    PSET_NMAX = (150, 250, 350)

    def make_pass(self, i):
        rng = self.rng(i)
        jobs = []
        for n_max in self.POSITIVE_NMAX:
            # u_n = 5^n + b against 5^(n1) + 5^(n2) + (b-1): every n solves
            b = self.fresh(rng, lambda: rng.randrange(2, 10**6),
                           lambda b: ("pos", b, n_max))
            jobs.append(self._job(P5, FIVE_POW, (1 + b, 5 + b),
                                  ((1, 1), (1, 1), (b - 1, 0)), n_max))
        for n_max in self.NEGATIVE_NMAX:
            # b = 3, 4 mod 5 leaves 5^n + b outside {5^(n1) + 5^(n2)}
            b = self.fresh(
                rng, lambda: 5 * rng.randrange(10**6) + rng.choice((3, 4)),
                lambda b: ("neg", b, n_max))
            jobs.append(self._job(P5, FIVE_POW, (1 + b, 5 + b),
                                  ((1, 1), (1, 1)), n_max))
        for p, terms in ((P5, ((1, 1), (1, 1))), (P7, ((1, 1), (2, 1)))):
            for base in self.PSET_NMAX:
                # u_n = n + s: the solution set is a shifted p-set
                s, n_max = self.fresh(
                    rng, lambda: (rng.randrange(40), base + rng.randrange(50)),
                    lambda v: ("pset", p.p, v))
                jobs.append(self._job(p, LINEAR, (s, s + 1), terms, n_max))
        return jobs

    def _job(self, p, rec, init, terms, n_max):
        inst = PexpInstance(Lrs(rec, init), p, terms)
        ops = [("solve", lambda: pexp_solve(inst, n_max)),
               ("classify", lambda: pexp_classify(inst, n_max))]

        def check(res):
            expected = oracles.pexp_solutions(rec, init, terms, p.p, n_max)
            values = oracles.recurrence_values(rec, init, n_max)
            errs = []
            if "solve" in res:
                sols = res["solve"]
                if {n for n, _ in sols} != expected:
                    errs.append("solve: solution set differs from the oracle")
                for n, w in sols:
                    if not oracles.witness_holds(values[n], terms, p.p, w):
                        errs.append(f"solve: bad witness {w} at n={n}")
                        break
            if "classify" in res:
                errs += _check_desc(res["classify"], expected, p.p, n_max,
                                    "classify")
            return errs

        return Job((p.p, rec, init, terms, n_max), ops, check)


# ---------------------------------------------------------------------------
# orbit-factored
# ---------------------------------------------------------------------------


class OrbitFactored(Workload):
    """return_set, full_pipeline and verify_reduction on factored orbits."""

    name = "orbit-factored"
    # (family, p, c, recurrence, template initial values)
    FAMILIES = (("lin5", P5, (1, 1), LINEAR, (0, 1)),
                ("lin7", P7, (1, 2), LINEAR, (0, 1)),
                ("per11", P11, (1, 1), PERIOD2, (2, 3)))

    def setup(self):
        self.families = {}
        for fam, p, c, rec, init in self.FAMILIES:
            phi, alpha, variety = dml_instance(Lrs(rec, init), p, list(c))
            if self._start(p, Lrs(rec, init)) != alpha:
                raise RuntimeError(f"{fam}: start point differs from "
                                   "dml_instance's")
            self.families[fam] = (p, c, rec, phi, variety)
        # The period-2 family starts at a p-set member and a non-member,
        # so its returns are the even n.
        self.s11 = sorted(oracles.pset_values(((1, 1), (1, 1)), 11, 30))
        self.not_s11 = [y for y in range(30) if y not in self.s11]

    @staticmethod
    def _start(p, u):
        """dml_instance's start point for u, from one encode_lrs per base
        t + a; the map and variety depend only on the recurrence."""
        coords = []
        for a in range(1, p.p):
            coords.extend(encode_lrs(u, _lin(a, p), p).Q.coords)
        return TorusPoint(tuple(coords))

    def make_pass(self, i):
        rng = self.rng(i)
        jobs = []
        for fam, base in (("lin5", 60), ("lin5", 80), ("lin7", 45),
                          ("lin7", 65)):
            s, n_max = self.fresh(
                rng, lambda: (rng.randrange(30), base + rng.randrange(20)),
                lambda v: (fam, v))
            jobs.append(self._family_job(fam, (s, s + 1), n_max))
        # Three per11 jobs put the median job of a pass inside one kind.
        for base in (40, 45, 50):
            # small start values: the factored exponents grow with them
            x, y, n_max = self.fresh(
                rng, lambda: (rng.choice(self.s11), rng.choice(self.not_s11),
                              base + rng.randrange(5)),
                lambda v: ("per11", v))
            jobs.append(self._family_job("per11", (x, y), n_max))
        jobs.append(self._large_prime_job(rng))
        return jobs

    def _family_job(self, fam, init, n_max):
        p, c, rec, phi, variety = self.families[fam]
        alpha = self._start(p, Lrs(rec, init))
        terms = tuple((ci, 1) for ci in c)
        return _orbit_job((fam, init, n_max), phi, alpha, variety, n_max,
                          lambda: sorted(oracles.pexp_solutions(
                              rec, init, terms, p.p, n_max)), p.p)

    def _large_prime_job(self, rng):
        """Order-4 endomorphism of G_m^2 at p = 10007: the first coordinate
        returns to its start every 4 steps."""
        p = P_LARGE
        matrix = ((0, -1), (1, 0))
        # roots near p: the root scan that factors each coordinate runs
        # up to its root, so this keeps the instances' cost alike
        r1, r2, e1, e2 = self.fresh(
            rng, lambda: (*rng.sample(range(p.p - 200, p.p), 2),
                          rng.randint(1, 2), rng.randint(1, 2)),
            lambda v: ("large",) + v)
        n_max = 16
        alpha = TorusPoint((ratfunc_int_pow(_lin(r1, p), e1),
                            ratfunc_int_pow(_lin(r2, p), e2)))
        phi = TorusSelfMap.endomorphism(matrix, p)
        variety = Variety(2, ((((1, 0), RatFunc.one(p)),
                               ((0, 0), -ratfunc_int_pow(_lin(r1, p), e1))),))

        def expected():
            orbit = oracles.affine_orbit_exponents(
                matrix, [[0, 0], [0, 0]], [[e1, 0], [0, e2]], n_max)
            eq = (((1, 0), (1, [0, 0])), ((0, 0), (-1, [e1, 0])))
            return oracles.two_term_hits(orbit, eq, p.p)

        return _orbit_job(("large", matrix, r1, r2, e1, e2), phi, alpha,
                          variety, n_max, expected, p.p)


def _orbit_job(key, phi, alpha, variety, n_max, expected, p):
    ops = [("return_set", lambda: return_set(phi, alpha, variety, n_max)),
           ("pipeline", lambda: full_pipeline(phi, alpha, variety, n_max)),
           ("verify", lambda: verify_reduction(
               reduction_decompose(phi, alpha), phi, alpha, n_max))]

    def check(res):
        want = expected()
        errs = []
        if "return_set" in res and res["return_set"] != want:
            errs.append(f"return_set: hits {res['return_set'][:8]} != "
                        f"oracle {want[:8]}")
        if "pipeline" in res:
            errs += _check_desc(res["pipeline"], set(want), p, n_max,
                                "full_pipeline")
        if "verify" in res and res["verify"] is not True:
            errs.append("verify_reduction: identity not verified")
        return errs

    return Job(key, ops, check)


# ---------------------------------------------------------------------------
# orbit-dense
# ---------------------------------------------------------------------------


class OrbitDense(Workload):
    """return_set on dense-path inputs, and exponent_set."""

    name = "orbit-dense"

    def setup(self):
        self.varieties = {(5, (1, 1)): build_pset_variety(P5, [1, 1]),
                          (7, (1, 2)): build_pset_variety(P7, [1, 2])}
        self.quartics = oracles.irreducible_quartics(5, 8)

    def make_pass(self, i):
        rng = self.rng(i)
        jobs = []
        for base in (100, 120, 140):
            jobs.append(self._swap_affine(rng, base))
        for base in (22, 28):
            jobs.append(self._unipotent_affine(rng, base))
        for base in (40, 50, 60):
            jobs.append(self._quartic_endo(rng, base))
        for (p, c), base in (((5, (1, 1)), 500), ((7, (1, 2)), 500)):
            jobs.append(self._exponent_set(rng, p, c, base))
        return jobs

    def _swap_affine(self, rng, base):
        """x -> (y1 x1, y2 / x2) at p = 5 over the bases t+1..t+4: the
        second coordinate alternates, so the returns form a progression."""
        p = P5
        g1, g2, e, f, n_max = self.fresh(
            rng, lambda: (rng.randint(1, 2), rng.randint(1, 5),
                          rng.randint(1, 4), rng.randint(1, 6),
                          base + rng.randrange(40)),
            lambda v: ("swap", v))
        matrix = ((1, 0), (0, -1))
        y_exps = [[g1, 0, 0, 0], [0, g2, 0, 0]]
        a_exps = [[0, 0, e, 0], [0, f, 0, 0]]
        eq = (((0, 1), (1, [0, 0, 0, 0])), ((0, 0), (-1, [0, f, 0, 0])))
        return self._affine_job(("swap",) + (g1, g2, e, f, n_max), p,
                                matrix, y_exps, a_exps, eq, n_max,
                                [_lin(r, p) for r in (1, 2, 3, 4)])

    def _unipotent_affine(self, rng, base):
        """x -> (y1 x1 x2, y2 x2) at p = 7: the first coordinate's degree
        grows quadratically; the variety pins one step K."""
        p = P7
        g1, g2, e, f, n_max, k = self.fresh(
            rng, lambda: (rng.randint(1, 2), rng.randint(1, 2),
                          rng.randint(1, 3), rng.randint(1, 3),
                          base + rng.randrange(8), rng.randrange(base)),
            lambda v: ("unip", v))
        matrix = ((1, 1), (0, 1))
        y_exps = [[g1, 0, 0], [0, g2, 0]]
        a_exps = [[0, 0, e], [0, f, 0]]
        eq = (((0, 1), (1, [0, 0, 0])), ((0, 0), (-1, [0, f + g2 * k, 0])))
        return self._affine_job(("unip", g1, g2, e, f, n_max, k), p, matrix,
                                y_exps, a_exps, eq, n_max,
                                [_lin(r, p) for r in (1, 2, 3)])

    def _quartic_endo(self, rng, base):
        """(x1, x2) -> (x1, x1 x2) at p = 5 with x1 an irreducible quartic
        power: the start point does not factor, so the orbit is dense."""
        p = P5
        qi, e, r, f, n_max, k = self.fresh(
            rng, lambda: (rng.randrange(len(self.quartics)), rng.randint(1, 2),
                          rng.randint(1, 4), rng.randint(1, 3),
                          base + rng.randrange(15), rng.randrange(base)),
            lambda v: ("quartic", v))
        matrix = ((1, 0), (1, 1))
        eq = (((0, 1), (1, [0, 0])), ((0, 0), (-1, [e * k, f])))
        return self._affine_job(("quartic", qi, e, r, f, n_max, k), p,
                                matrix, [[0, 0], [0, 0]], [[e, 0], [0, f]],
                                eq, n_max,
                                [_poly(self.quartics[qi], p), _lin(r, p)])

    def _affine_job(self, key, p, matrix, y_exps, a_exps, eq, n_max, bases):
        """Orbit of x -> y [A]x with every coordinate a product of powers of
        `bases`; the variety is one two-term equation given by exponents."""

        def point(exps):
            coords = []
            for row in exps:
                acc = RatFunc.one(p)
                for base, e in zip(bases, row):
                    if e:
                        acc = acc * ratfunc_int_pow(base, e)
                coords.append(acc)
            return TorusPoint(tuple(coords))

        def coeff(unit, exps):
            acc = RatFunc.const(unit, p)
            for base, e in zip(bases, exps):
                if e:
                    acc = acc * ratfunc_int_pow(base, e)
            return acc

        phi = TorusSelfMap(matrix, point(y_exps))
        alpha = point(a_exps)
        variety = Variety(len(matrix), (tuple(
            (ev, coeff(unit, exps)) for ev, (unit, exps) in eq),))
        ops = [("return_set", lambda: return_set(phi, alpha, variety, n_max))]

        def check(res):
            orbit = oracles.affine_orbit_exponents(matrix, y_exps, a_exps,
                                                   n_max)
            want = oracles.two_term_hits(orbit, eq, p.p)
            if "return_set" in res and res["return_set"] != want:
                return [f"return_set: hits {res['return_set'][:8]} != "
                        f"oracle {want[:8]}"]
            return []

        return Job(key, ops, check)

    def _exponent_set(self, rng, p, c, base):
        pv = self.varieties[(p, c)]
        bound = self.fresh(rng, lambda: base + rng.randrange(300),
                           lambda b: ("expset", p, b))
        ops = [("exponent_set", lambda: exponent_set(pv, bound))]

        def check(res):
            want = sorted(oracles.pset_values([(ci, 1) for ci in c], p, bound))
            if "exponent_set" in res and res["exponent_set"] != want:
                return [f"exponent_set p={p} c={c}: differs from the oracle"]
            return []

        return Job(("expset", p, c, bound), ops, check)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def strip_meta(report: str) -> str:
    return report.split("[meta]")[0]


def report_fields(report: str) -> dict[str, str]:
    out = {}
    for line in report.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            out.setdefault(k.strip(), v.strip())
    return out


def report_section(report: str, name: str) -> list[str]:
    lines = report.splitlines()
    if f"[{name}]" not in lines:
        return []
    out = []
    for line in lines[lines.index(f"[{name}]") + 1:]:
        if line.startswith("["):
            break
        out.append(line)
    return out


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _parse_pset_text(text: str):
    terms = []
    for chunk in text.split("+"):
        c_txt, rest = chunk.split("*p^(", 1)
        k_txt = rest.split("*", 1)[0]
        terms.append((Fraction(c_txt), int(k_txt)))
    return terms


def _report_desc(report: str):
    aps = [tuple(_ints(x)) for x in report_section(report, "aps")]
    psets = [_parse_pset_text(x) for x in report_section(report, "psets")]
    exc = [n for x in report_section(report, "exceptional") for n in _ints(x)]
    vb = report_section(report, "verified_bound")
    return aps, psets, exc, int(vb[0]) if vb else -1


class CliCold(Workload):
    """One fresh `python -m pdml.cli` process per command, one at a time."""

    name = "cli-cold"
    MALFORMED = "p = 5\nlrs = 2;1,-2;0,1\nterms = 1,1 ; 1,1\nn_max = abc\n"

    def __init__(self, seed, outdir, launcher=None):
        super().__init__(seed, outdir)
        self.launcher = launcher  # argv prefix replacing `-m pdml.cli`
        self.spans = itertools.count()

    def _write(self, d, name, text):
        path = os.path.join(d, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def make_pass(self, i):
        rng = self.rng(i)
        d = os.path.join(self.outdir, f"pass{i}")
        os.makedirs(d, exist_ok=True)
        jobs = [self._solve(rng, d), self._classify(rng, d),
                self._return_set(rng, d), self._verify_reduction(rng, d),
                self._gen_instance(rng, d), self._exponent_set(rng),
                self._obstruction(rng, d), self._intersect(rng, d),
                self._ap_cap(rng, d), self._malformed(d)]
        return jobs

    def _cli_job(self, key, argv, check, expect_rc=0):
        span_file = None
        if self.launcher:
            span_file = os.path.join(self.outdir,
                                     f"span-{next(self.spans)}-{key[0]}.json")
            cmd = self.launcher + [span_file, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "pdml.cli"] + argv

        def run():
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
            wall = time.perf_counter() - t0
            if span_file:
                self.child_spans.append((span_file, wall, proc.stdout))
            if proc.returncode != expect_rc:
                last = (proc.stderr.strip().splitlines() or [""])[-1]
                raise RuntimeError(f"{key[0]}: exit {proc.returncode}, "
                                   f"expected {expect_rc}: {last}")
            if expect_rc and (len(proc.stderr.strip().splitlines()) != 1
                              or "Traceback" in proc.stderr):
                raise RuntimeError(f"{key[0]}: error is not one line")
            return proc.stdout

        def full_check(res):
            if "cli" not in res:
                return []
            out = res["cli"]
            errs = check(out) if check else []
            if expect_rc == 0:
                again = self._in_process(argv)
                if strip_meta(again) != strip_meta(out):
                    errs.append(f"{key[0]}: report differs outside [meta] "
                                "between two executions")
            return errs

        return Job(key, [("cli", run)], full_check)

    def _in_process(self, argv):
        """The same command run again in this process, for the
        byte-identity check; its report is read from a file."""
        import pdml.cli

        out = os.path.join(self.outdir, "again.txt")
        rc = pdml.cli.main(argv + ["--out", out])
        if rc != 0:
            return f"exit {rc}"
        with open(out, encoding="utf-8") as fh:
            return fh.read()

    def _pexp_file(self, d, name, p, rec, init, terms, n_max, c=None):
        text = serial.pexp_instance_to_text(p, Lrs(rec, init), terms, n_max,
                                            c)
        return self._write(d, name, text)

    def _solve(self, rng, d):
        b = self.fresh(rng, lambda: rng.randrange(2, 10**6),
                       lambda b: ("solve", b))
        n_max = 35
        terms = ((1, 1), (1, 1), (b - 1, 0))
        init = (1 + b, 5 + b)
        path = self._pexp_file(d, "solve.txt", P5, FIVE_POW, init, terms,
                               n_max)

        def check(out):
            want = oracles.pexp_solutions(FIVE_POW, init, terms, 5, n_max)
            values = oracles.recurrence_values(FIVE_POW, init, n_max)
            got = _ints(report_fields(out).get("solutions", ""))
            errs = [] if set(got) == want else ["solve-pexp: solutions differ"]
            for line in report_section(out, "witnesses"):
                n, *w = (int(x) for x in line.split("\t"))
                if not oracles.witness_holds(values[n], terms, 5, w):
                    errs.append(f"solve-pexp: bad witness at n={n}")
            return errs

        return self._cli_job(("solve", b), ["solve-pexp", path], check)

    def _classify(self, rng, d):
        s, n_max = self.fresh(rng, lambda: (rng.randrange(40),
                                            100 + rng.randrange(100)),
                              lambda v: ("classify", v))
        terms = ((1, 1), (2, 1))
        init = (s, s + 1)
        path = self._pexp_file(d, "classify.txt", P7, LINEAR, init, terms,
                               n_max)

        def check(out):
            want = oracles.pexp_solutions(LINEAR, init, terms, 7, n_max)
            aps, psets, exc, vb = _report_desc(out)
            errs = []
            if vb != n_max:
                errs.append("classify-pexp: verified_bound != n_max")
            if oracles.desc_members(aps, psets, exc, 7, n_max) != want:
                errs.append("classify-pexp: members differ from the oracle")
            return errs

        return self._cli_job(("classify", s, n_max), ["classify-pexp", path],
                             check)

    def _torus_file(self, d, name, p, matrix, y, alpha, eqs, n_max):
        variety = Variety(len(matrix), tuple(eqs))
        text = serial.torus_instance_to_text(
            p, TorusSelfMap(matrix, y), alpha, variety, n_max)
        return self._write(d, name, text)

    def _return_set(self, rng, d):
        """Order-4 endomorphism of G_m^2 at p = 5 on linear coordinates."""
        p = P5
        r1, r2 = rng.sample(range(1, 5), 2)
        e1, e2, n_max = self.fresh(
            rng, lambda: (rng.randint(1, 9), rng.randint(1, 9),
                          30 + rng.randrange(30)),
            lambda v: ("return", r1, r2, v))
        matrix = ((0, -1), (1, 0))
        alpha = TorusPoint((ratfunc_int_pow(_lin(r1, p), e1),
                            ratfunc_int_pow(_lin(r2, p), e2)))
        eq = (((1, 0), RatFunc.one(p)),
              ((0, 0), -ratfunc_int_pow(_lin(r1, p), e1)))
        path = self._torus_file(d, "return.txt", p, matrix,
                                TorusPoint.identity(2, p), alpha, [eq], n_max)

        def check(out):
            orbit = oracles.affine_orbit_exponents(
                matrix, [[0, 0], [0, 0]], [[e1, 0], [0, e2]], n_max)
            want = oracles.two_term_hits(
                orbit, (((1, 0), (1, [0, 0])), ((0, 0), (-1, [e1, 0]))), 5)
            if _ints(report_fields(out).get("hits", "")) != want:
                return ["return-set: hits differ from the oracle"]
            return []

        return self._cli_job(("return", r1, r2, e1, e2, n_max),
                             ["return-set", path], check)

    def _verify_reduction(self, rng, d):
        """Affine map with translation at p = 5; the identity must hold."""
        p = P5
        a, b, c_, e, n_max = self.fresh(
            rng, lambda: (rng.randint(-1, 2), rng.randint(0, 1),
                          rng.randint(-1, 1), rng.randint(1, 3),
                          20 + rng.randrange(10)),
            lambda v: ("verify", v))
        matrix = ((a, b), (c_, 1))
        y = TorusPoint((_lin(1, p), _lin(2, p)))
        alpha = TorusPoint((ratfunc_int_pow(_lin(3, p), e), _lin(4, p)))
        eq = (((1, 0), RatFunc.one(p)), ((0, 1), -RatFunc.one(p)))
        path = self._torus_file(d, "verify.txt", p, matrix, y, alpha, [eq],
                                n_max)

        def check(out):
            f = report_fields(out)
            if f.get("verified") != "true" or f.get("n_max") != str(n_max):
                return ["verify-reduction: not verified"]
            return []

        return self._cli_job(("verify", a, b, c_, e, n_max),
                             ["verify-reduction", path], check)

    def _gen_instance(self, rng, d):
        s, n_max = self.fresh(rng, lambda: (rng.randrange(1, 200),
                                            20 + rng.randrange(40)),
                              lambda v: ("gen", v))
        init = (s, s + 1)
        path = self._pexp_file(d, "gen.txt", P5, LINEAR, init,
                               ((1, 1), (1, 1)), n_max, c=(1, 1))

        def check(out):
            """The companion blocks and start point of the encoding,
            rebuilt from binomial coefficients."""
            f = report_fields(out)
            errs = []
            if f.get("p") != "5" or f.get("n_max") != str(n_max):
                errs.append("gen-instance: header differs")
            want_rows = []
            for blk in range(4):
                for i in range(2):
                    row = [0] * 8
                    if i == 0:
                        row[2 * blk + 1] = 1
                    else:
                        row[2 * blk], row[2 * blk + 1] = -LINEAR[0], -LINEAR[1]
                    want_rows.append(" ".join(map(str, row)))
            if f.get("matrix") != " ; ".join(want_rows):
                errs.append("gen-instance: matrix is not the block companion")
            want_alpha = []
            for a in range(1, 5):
                for m in init:
                    num = ",".join(map(str, oracles.binomial_power(a, m, 5)))
                    want_alpha.append(f"{num}/1")
            if f.get("alpha") != " | ".join(want_alpha):
                errs.append("gen-instance: start point differs")
            if "equation" not in f:
                errs.append("gen-instance: no equations")
            return errs

        return self._cli_job(("gen", s, n_max), ["gen-instance", path], check)

    def _exponent_set(self, rng):
        bound = self.fresh(rng, lambda: 200 + rng.randrange(300),
                           lambda b: ("expset", b))

        def check(out):
            want = sorted(oracles.pset_values(((1, 1), (1, 1)), 5, bound))
            if _ints(report_fields(out).get("elements", "")) != want:
                return ["exponent-set: elements differ from the oracle"]
            return []

        return self._cli_job(("expset", bound),
                             ["exponent-set", "--p", "5", "--c", "1,1",
                              "--bound", str(bound)], check)

    def _obstruction(self, rng, d):
        p = P5
        matrix = self.fresh(rng, lambda: rng.choice((
            ((5, 0), (0, rng.randint(2, 200))),
            ((rng.randint(1, 40), 1), (1, rng.randint(1, 40))),
            ((0, 1), (-1, rng.randint(0, 1))),
            ((25, rng.randint(0, 200)), (0, 1)))), lambda m: ("obs", m))
        alpha = TorusPoint((_lin(1, p), _lin(2, p)))
        path = self._torus_file(d, "obstruction.txt", p, matrix,
                                TorusPoint.identity(2, p), alpha, [], 1)

        def check(out):
            want = oracles.obstruction_verdict(matrix, 5, 6, 8)
            if report_fields(out).get("verdict") != want:
                return [f"obstruction: verdict differs from {want}"]
            return []

        return self._cli_job(("obs", matrix),
                             ["obstruction", path, "--rmax", "6",
                              "--smax", "8"], check)

    def _intersect(self, rng, d):
        c2, k2, bound = self.fresh(
            rng, lambda: (rng.randint(1, 4), rng.randint(1, 2),
                          500 + rng.randrange(1500)),
            lambda v: ("intersect", v))
        t1 = ((1, 1), (1, 1))
        t2 = ((1, 1), (c2, k2))
        text = (f"p = 5\nbound = {bound}\n"
                f"pset1 = 1*p^(1*n1)+1*p^(1*n2)\n"
                f"pset2 = 1*p^(1*n1)+{c2}*p^({k2}*n2)\n")
        path = self._write(d, "intersect.txt", text)

        def check(out):
            want = sorted(oracles.pset_values(t1, 5, bound)
                          & oracles.pset_values(t2, 5, bound))
            if _ints(report_fields(out).get("elements", "")) != want:
                return ["intersect-psets: elements differ from the oracle"]
            return []

        return self._cli_job(("intersect", c2, k2, bound),
                             ["intersect-psets", path], check)

    def _ap_cap(self, rng, d):
        a, b, c2 = self.fresh(
            rng, lambda: (rng.randint(2, 12), rng.randrange(12),
                          rng.randint(1, 3)),
            lambda v: ("apcap", v))
        terms = ((1, 1), (c2, 1))
        text = (f"p = 3\nap = {a},{b}\n"
                f"pset = 1*p^(1*n1)+{c2}*p^(1*n2)\n")
        path = self._write(d, "apcap.txt", text)
        bound = 3000

        def check(out):
            pieces = [_parse_pset_text(x.split(" = ", 1)[1])
                      for x in report_section(out, "result")
                      if x.startswith("pset = ")]
            got = set()
            for terms_ in pieces:
                got |= oracles.pset_values(terms_, 3, bound)
            want = {x for x in oracles.pset_values(terms, 3, bound)
                    if x >= b and (x - b) % a == 0}
            if got != want:
                return ["ap-cap-pset: union of pieces differs from the oracle"]
            return []

        return self._cli_job(("apcap", a, b, c2), ["ap-cap-pset", path],
                             check)

    def _malformed(self, d):
        """A fixed malformed file: must exit 2 with a one-line message."""
        path = self._write(d, "malformed.txt", self.MALFORMED)
        return self._cli_job(("malformed",) + (d,), ["solve-pexp", path],
                             None, expect_rc=2)


WORKLOADS = {w.name: w for w in (PexpDigits, OrbitFactored, OrbitDense,
                                 CliCold)}
