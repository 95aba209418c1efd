"""Cross-validation of the factored/structured evaluation fast paths
against plain dense arithmetic on ranges where both are feasible."""

import itertools
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pdml.torus as torus_mod
from pdml.cli import main
from pdml.constructions import dml_instance
from pdml.errors import ResourceLimitError
from pdml.exact import (_DEGREE_CAP, FpPoly, PrimeModulus, RatFunc,
                        ratfunc_int_pow, slot_bytes)
from pdml.lrs import Lrs, lrs_prefix, mat_pow
from pdml.psets import PSet, pset_enumerate, pset_membership
from pdml.serial import torus_instance_from_text
from pdml.torus import (
    Factored,
    ReductionData,
    TorusPoint,
    TorusSelfMap,
    Variety,
    _basis,
    _combine,
    _linear_zero,
    _plan,
    _rows,
    _shape,
    _structured_zero_test,
    endo_apply,
    reduction_decompose,
    return_set,
    selfmap_iterate,
    variety_contains,
    verify_reduction,
)

P3, P5, P7 = PrimeModulus(3), PrimeModulus(5), PrimeModulus(7)
P11 = PrimeModulus(11)
DATA = pathlib.Path(__file__).resolve().parent / "data" / "cli"


class TestStructuredZeroTest:
    def test_against_dense_random(self):
        rnd = random.Random(808)
        for _ in range(400):
            p = rnd.choice([P3, P5, P7])
            pv = p.p
            shifts = rnd.sample(range(1, pv), rnd.randint(1, pv - 1))
            lams = [rnd.randrange(pv) for _ in shifts]
            const = rnd.randrange(pv)
            m = rnd.randint(0, 120)
            total = FpPoly([const], p)
            for s, lam in zip(shifts, lams):
                base = FpPoly([s, 1], p)
                total = total + (base ** m).scale(lam)
            dense_zero = total.is_zero()
            structured = _structured_zero_test(
                list(zip(shifts, lams)), const, m, pv)
            assert structured == dense_zero, (pv, shifts, lams, const, m)

    def test_vandermonde_rows_are_exercised(self):
        # the linear equation of the p-set variety: it holds at [m]P iff
        # the digit sum of m is sum(c)
        from pdml.constructions import build_pset_variety

        for p in (P3, P5, P7):
            pv = p.p
            ell = 2 if pv > 3 else 1
            (*terms, (_, const)), *_ = build_pset_variety(
                p, [1] * ell).X.equations
            row = [(ev.index(1) + 1, w.num.coeffs[0]) for ev, w in terms]
            const = const.num.coeffs[0]
            assert len(row) == ell + 1
            for m in range(0, 200):
                digit_sum = 0
                mm = m
                while mm:
                    digit_sum += mm % pv
                    mm //= pv
                got = _structured_zero_test(row, const, m, pv)
                dense = FpPoly([const], p)
                for s, lam in row:
                    dense = dense + (FpPoly([s, 1], p) ** m).scale(lam)
                assert got == dense.is_zero() == (digit_sum == ell), m

    def test_negative_exponent_pole_argument(self):
        # nonzero coefficient on a pole can never sum to zero
        assert _structured_zero_test([(1, 2)], 0, -5, 5) is False
        assert _structured_zero_test([(1, 0), (2, 0)], 0, -5, 5) is True


class TestFactoredRatioTest:
    def test_two_term_equations_match_dense(self):
        rnd = random.Random(909)
        for _ in range(200):
            p = rnd.choice([P3, P5])
            pv = p.p
            e1, e2 = rnd.randint(0, 12), rnd.randint(0, 12)
            s1, s2 = rnd.randrange(pv), rnd.randrange(pv)
            c1 = rnd.randrange(1, pv)
            c2 = rnd.randrange(1, pv)
            b1 = RatFunc(FpPoly([s1, 1], p))
            b2 = RatFunc(FpPoly([s2, 1], p))
            f1 = Factored.from_ratfunc(b1)
            f2 = Factored.from_ratfunc(b2)
            k1, k2 = (Factored.from_ratfunc(RatFunc.const(c, p))
                      for c in (c1, c2))
            lhs = ratfunc_int_pow(b1, e1) * RatFunc.const(c1, p) + \
                ratfunc_int_pow(b2, e2) * RatFunc.const(c2, p)
            basis = _basis([f1, f2])
            rows = _rows([f1, f2, k1, k2], basis, 1)
            (ua, qa), (ub, qb) = (_combine(rows[2], [(0, e1)], rows, pv),
                                  _combine(rows[3], [(1, e2)], rows, pv))
            assert (qa == qb and (ua + ub) % pv == 0) == lhs.is_zero()


class TestRationalCoefficients:
    def test_enumerate_with_denominators(self):
        rnd = random.Random(606)
        for _ in range(40):
            p = rnd.choice([P3, P5])
            m = rnd.randint(1, 2)
            terms = []
            for _ in range(m):
                num = rnd.choice([x for x in range(-5, 6) if x])
                den = rnd.choice([1, 2, 3])
                terms.append((Fraction(num, den), rnd.randint(0, 2)))
            S = PSet(tuple(terms))
            bound = 500
            got = set(pset_enumerate(S, p, bound))
            # brute force on exponent tuples
            want = set()
            caps = [range(14 // max(k, 1) + 1) if k else [0]
                    for _, k in S.terms]
            import itertools

            for combo in itertools.product(*caps):
                v = sum(c * p.p ** (k * n)
                        for (c, k), n in zip(S.terms, combo))
                if v.denominator == 1 and 0 <= v <= bound:
                    want.add(int(v))
            assert got == want
            for v in sorted(want)[:10]:
                assert pset_membership(v, S, p) is not None


class TestDenseFallbacks:
    def test_verify_reduction_unfactorable_coordinates(self):
        # degree-4 root-free coordinate: factored into two quadratics
        p = P5
        quartic = FpPoly([2, 0, 1], p) * FpPoly([3, 0, 1], p)
        alpha = TorusPoint((RatFunc(quartic),))
        phi = TorusSelfMap(((2,),), TorusPoint((RatFunc(FpPoly([0, 1], p)),)))
        rd = reduction_decompose(phi, alpha)
        assert verify_reduction(rd, phi, alpha, 6)

    def test_return_set_translation_path(self):
        # translation present: the factored orbit of an affine map
        p = P5
        t = RatFunc(FpPoly([0, 1], p))
        phi = TorusSelfMap(((1,),), TorusPoint((t,)))
        v = Variety(1, ((((1,), RatFunc.one(p)),
                         ((0,), -ratfunc_int_pow(t, 5))),))
        assert return_set(phi, TorusPoint((RatFunc.one(p),)), v, 9) == [5]

    def test_factored_orbit_vs_dense_orbit(self):
        rnd = random.Random(123)
        p = P5
        t1 = RatFunc(FpPoly([1, 1], p))
        t2 = RatFunc(FpPoly([2, 1], p))
        for _ in range(10):
            mat = tuple(tuple(rnd.randint(-1, 2) for _ in range(2))
                        for _ in range(2))
            phi = TorusSelfMap.endomorphism(mat, p)
            alpha = TorusPoint((t1, t2))
            v = Variety(2, ((((1, 0), RatFunc.one(p)),
                             ((0, 1), -RatFunc.one(p))),))
            fast = return_set(phi, alpha, v, 6)
            dense = [n for n in range(7) if variety_contains(
                v, selfmap_iterate(phi, alpha, n))]
            assert fast == dense


def dense_hits(phi, alpha, v, n_max):
    return [n for n in range(n_max + 1)
            if variety_contains(v, selfmap_iterate(phi, alpha, n))]


class TestSingleFactoredPath:
    def test_affine_maps_vs_dense_orbit(self):
        rnd = random.Random(321)
        p = P5

        def lin():
            return RatFunc(FpPoly([rnd.randrange(5), 1], p))

        for _ in range(12):
            mat = tuple(tuple(rnd.randint(-1, 2) for _ in range(2))
                        for _ in range(2))
            phi = TorusSelfMap(mat, TorusPoint((lin(), lin())))
            alpha = TorusPoint((lin(), lin() * lin() / lin()))
            # equations through an orbit point, so the orbit returns
            n0 = rnd.randint(0, 4)
            x1, x2 = selfmap_iterate(phi, alpha, n0).coords
            one = RatFunc.one(p)
            eqs = ((((1, 0), one), ((0, 0), -x1)),
                   (((1, 0), one), ((0, 1), one), ((0, 0), -x1 - x2)))
            v = Variety(2, tuple(eqs[i] for i in rnd.choice(
                ((0,), (1,), (0, 1)))))
            hits = return_set(phi, alpha, v, 5)
            assert n0 in hits
            assert hits == dense_hits(phi, alpha, v, 5), (mat, phi, alpha)
            assert verify_reduction(reduction_decompose(phi, alpha), phi,
                                    alpha, 5)

    def test_irreducible_quartic_start(self):
        p = P5
        quartic = RatFunc(FpPoly([2, 0, 1, 0, 1], p))  # irreducible
        assert Factored.from_ratfunc(quartic).powers == {(2, 0, 1, 0, 1): 1}
        split = RatFunc(FpPoly([2, 0, 1], p) * FpPoly([3, 0, 1], p))
        t1 = RatFunc(FpPoly([1, 1], p))
        for mat in (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((2, 0), (1, 1))):
            phi = TorusSelfMap.endomorphism(mat, p)
            for alpha in (TorusPoint((quartic, t1)),
                          TorusPoint((split, quartic.inv()))):
                for v in (
                    Variety(2, ((((1, 0), RatFunc.one(p)),
                                 ((0, 0), -alpha.coords[0])),)),
                    Variety(2, ((((1, 0), RatFunc.one(p)),
                                 ((0, 1), RatFunc.one(p)),
                                 ((0, 0), -alpha.coords[0]
                                  - alpha.coords[1])),)),
                ):
                    assert return_set(phi, alpha, v, 6) == dense_hits(
                        phi, alpha, v, 6)

    def test_three_terms_with_a_pole(self):
        # x1 + x2 = a1 + a2 at every n: the monomial stripped before
        # expansion carries a negative exponent that only some terms have
        p = P5
        a1 = RatFunc(FpPoly([1, 1], p))
        a2 = RatFunc(FpPoly([2, 1], p)).inv()
        phi = TorusSelfMap.endomorphism(((1, 0), (0, 1)), p)
        alpha = TorusPoint((a1, a2))
        v = Variety(2, ((((1, 0), RatFunc.one(p)), ((0, 1), RatFunc.one(p)),
                         ((0, 0), -(a1 + a2))),))
        assert return_set(phi, alpha, v, 3) == dense_hits(
            phi, alpha, v, 3) == [0, 1, 2, 3]

    def test_large_prime_under_a_second(self):
        p = PrimeModulus(10**9 + 7)
        phi = TorusSelfMap.endomorphism(((0, -1), (1, 0)), p)
        t3 = RatFunc(FpPoly([3, 1], p))
        alpha = TorusPoint((t3, RatFunc(FpPoly([5, 1], p))))
        v = Variety(2, ((((1, 0), RatFunc.one(p)), ((0, 0), -t3)),))
        start = time.perf_counter()
        hits = return_set(phi, alpha, v, 40)
        assert time.perf_counter() - start < 1.0
        assert hits == list(range(0, 41, 4))


class TestRowKernel:
    """The exponent-row orbit against the dense oracle,
    variety_contains(selfmap_iterate(...))."""

    def _count_routes(self, monkeypatch):
        routes = {"structured": 0, "box": 0}
        structured = torus_mod._structured_zero_test
        box = torus_mod._expanded_zero

        def count_structured(*args):
            routes["structured"] += 1
            return structured(*args)

        def count_box(*args):
            routes["box"] += 1
            return box(*args)

        monkeypatch.setattr(torus_mod, "_structured_zero_test",
                            count_structured)
        monkeypatch.setattr(torus_mod, "_expanded_zero", count_box)
        return routes

    def test_multiplicity_instance_linear_sequence(self, monkeypatch):
        # u_n = n + s at p = 7, c = (1, 2): the p-set rows go through the
        # digit-sum route, the subresultant equation through the digit box
        routes = self._count_routes(monkeypatch)
        for s in (0, 4, 9):
            phi, alpha, v = dml_instance(Lrs((1, -2), (s, s + 1)), P7, [1, 2])
            hits = return_set(phi, alpha, v, 12)
            assert hits == dense_hits(phi, alpha, v, 12)
            assert hits == [n for n in range(13) if n + s in (3, 9, 15, 21)]
        assert routes["structured"] > 0 and routes["box"] > 0

    @pytest.mark.parametrize("p, c", [(P5, [1, 2]), (P7, [1, 2]),
                                      (P7, [1, 1, 2])],
                             ids=["5-1,2", "7-1,2", "7-1,1,2"])
    def test_digit_box_on_dml_survivors(self, p, c):
        # u_n = s + a n = sum(c) mod p - 1: the survivors of the linear
        # rows (digit sum sum(c)) reach the subresultant equation, decided
        # in its digit box
        rnd = random.Random(100 * p.p + len(c))
        s = sum(c) + (p.p - 1) * rnd.randrange(5)
        a = (p.p - 1) * rnd.randint(1, 2)
        u = Lrs((1, -2), (s, s + a))
        phi, alpha, v = dml_instance(u, p, c)
        values = lrs_prefix(u, 24)
        survivors = [n for n in range(25)
                     if torus_mod._digit_sum(values[n], p.p) == sum(c)]
        hits = return_set(phi, alpha, v, 24)
        assert set(hits) <= set(survivors)
        sres = torus_mod._factor_equations(v)[-1]
        flipped = 0
        for n in survivors:
            x = selfmap_iterate(phi, alpha, n)
            assert (n in hits) == variety_contains(v, x), n
            # the subresultant equation's terms at x, as exponent lists
            basis = _basis(torus_mod.factor_point(x), [f for _, f in sres])
            cur = list_rows(torus_mod.factor_point(x), basis)
            spec = [list_combine(coeff, ev, cur, p.p) for ev, coeff in zip(
                torus_mod._sparse([ev for ev, _ in sres]),
                list_rows([f for _, f in sres], basis))]
            zero = _expanded(spec, basis, p)
            assert zero == (n in hits) == _dense_zero(spec, basis, p), n
            if zero:
                # one unit changed: the sum is off by a nonzero term
                k = rnd.randrange(len(spec))
                unit, row = spec[k]
                spec[k] = (unit % (p.p - 1) + 1, row)
                assert not _expanded(spec, basis, p)
                assert not _dense_zero(spec, basis, p)
                flipped += 1
        assert len(survivors) >= 5 and flipped > 0

    def test_constant_coordinates_leave_the_digit_sum_route(self):
        # x -> x^2 from x = 2 at p = 7: the coordinate is a constant, so
        # the linear equation goes to the box with an empty basis
        one = RatFunc.one(P7)
        phi = TorusSelfMap.endomorphism(((2,),), P7)
        alpha = TorusPoint((RatFunc.const(2, P7),))
        for c in range(1, 7):
            v = Variety(1, ((((1,), RatFunc.const(3, P7)), ((0,), one),
                             ((-1,), RatFunc.const(c, P7))),))
            hits = return_set(phi, alpha, v, 6)
            assert hits == dense_hits(phi, alpha, v, 6), c
            assert hits == list_return_set(phi, alpha, v, 6), c

    def test_period_two_instance(self):
        # u alternates 2, 3 at p = 11, c = (1, 1): 2 = 1 + 1 is in the
        # p-set and 3 is not, so the returns are the even n
        phi, alpha, v = dml_instance(Lrs((-1, 0), (2, 3)), P11, [1, 1])
        hits = return_set(phi, alpha, v, 7)
        assert hits == dense_hits(phi, alpha, v, 7) == [0, 2, 4, 6]
        assert verify_reduction(reduction_decompose(phi, alpha), phi,
                                alpha, 7)

    def test_affine_maps_with_constant_units(self):
        # the units 2 and 3 have orders 4, 4 at p = 5 and 3, 6 at p = 7;
        # negative entries invert them, so unit exponents wrap mod p - 1
        rnd = random.Random(4242)
        for _ in range(16):
            p = rnd.choice([P5, P7])
            pv = p.p

            def coord():
                unit = RatFunc.const(rnd.choice([1, 2, 3]), p)
                if rnd.random() < 0.3:
                    return unit
                return unit * ratfunc_int_pow(
                    RatFunc(FpPoly([rnd.randrange(pv), 1], p)),
                    rnd.choice([-1, 1, 2]))

            mat = tuple(tuple(rnd.randint(-2, 1) for _ in range(2))
                        for _ in range(2))
            phi = TorusSelfMap(mat, TorusPoint((coord(), coord())))
            alpha = TorusPoint((coord(), coord()))
            n0 = rnd.randint(0, 4)
            x1, x2 = selfmap_iterate(phi, alpha, n0).coords
            one = RatFunc.one(p)
            v = Variety(2, rnd.choice((
                ((((1, 0), one), ((0, 0), -x1)),),
                ((((1, 0), one), ((0, 1), -x1 / x2)),),
                ((((1, 0), one), ((0, 1), one), ((0, 0), -x1 - x2)),),
            )))
            hits = return_set(phi, alpha, v, 6)
            assert n0 in hits
            assert hits == dense_hits(phi, alpha, v, 6), (mat, phi, alpha)
            assert verify_reduction(reduction_decompose(phi, alpha), phi,
                                    alpha, 6)


# ---------------------------------------------------------------------------
# The list-row kernel that packed rows replaced, kept as an oracle: a row is
# (unit, [one exponent per basis key]) and nothing is packed or bounded
# ---------------------------------------------------------------------------


def list_rows(values, basis):
    index = {k: i for i, k in enumerate(basis)}
    out = []
    for f in values:
        row = [0] * len(basis)
        for k, e in f.powers.items():
            row[index[k]] = e
        out.append((f.unit, row))
    return out


def list_combine(base, exps, rows, p):
    unit, acc = base
    for j, e in exps:
        u, row = rows[j]
        unit = unit * pow(u, e % (p - 1), p) % p
        acc = [x + e * y for x, y in zip(acc, row)]
    return unit, acc


def list_orbit(phi, start, y_rows, p, n_max):
    step = torus_mod._sparse(phi.matrix)
    cur = start
    for n in range(n_max + 1):
        yield cur
        if n < n_max:
            cur = [list_combine(y, row, cur, p)
                   for y, row in zip(y_rows, step)]


def list_equation_zero(terms, basis, p):
    """Two terms by equal rows, equal Frobenius powers of linear bases by
    _structured_zero_test, the rest by dense expansion."""
    if len(terms) <= 2:
        return not terms or (len(terms) == 2 and terms[0][1] == terms[1][1]
                             and (terms[0][0] + terms[1][0]) % p.p == 0)
    lin, const, ms = [], 0, set()
    for unit, row in terms:
        nonzero = [(k, e) for k, e in zip(basis, row) if e]
        if not nonzero:
            const += unit
        elif len(nonzero) == 1 and len(nonzero[0][0]) == 2 \
                and nonzero[0][0][0]:
            lin.append((nonzero[0][0][0], unit))
            ms.add(nonzero[0][1])
        else:
            break
    else:
        got = (const % p.p == 0 if not ms else None if len(ms) > 1 else
               _structured_zero_test(lin, const % p.p, ms.pop(), p.p))
        if got is not None:
            return got
    return _dense_zero(terms, basis, p)


def list_return_set(phi, alpha, v, n_max):
    p = alpha.modulus
    f_eqs = torus_mod._factor_equations(v)
    f_y = torus_mod.factor_point(phi.translation)
    f_alpha = torus_mod.factor_point(alpha)
    basis = _basis(f_alpha, f_y, *([f for _, f in eq] for eq in f_eqs))
    eqs = [list(zip(torus_mod._sparse([ev for ev, _ in eq]),
                    list_rows([f for _, f in eq], basis))) for eq in f_eqs]
    orbit = list_orbit(phi, list_rows(f_alpha, basis),
                       list_rows(f_y, basis), p.p, n_max)
    return [n for n, cur in enumerate(orbit)
            if all(list_equation_zero([list_combine(c, ev, cur, p.p)
                                       for ev, c in eq], basis, p)
                   for eq in eqs)]


def list_verify_reduction(rd, phi, alpha, n_max):
    l = len(rd.minpoly) - 1
    pv = alpha.modulus.p
    seqs = [lrs_prefix(seq[i], n_max) for seq in (rd.u_seqs, rd.v_seqs)
            for i in range(l)]
    f_alpha = torus_mod.factor_point(alpha)
    f_y = torus_mod.factor_point(phi.translation)
    f_q = [torus_mod.factor_point(q) for q in rd.q_points]
    basis = _basis(f_alpha, f_y, *f_q)
    one = (1, [0] * len(basis))
    alpha_rows = list_rows(f_alpha, basis)
    aa_rows = [[list_combine(one, row, alpha_rows, pv) for row in
                torus_mod._sparse(mat_pow([list(r) for r in phi.matrix], i))]
               for i in range(l)]
    q_rows = [list_rows(f, basis) for f in f_q]
    factors = [[q[d] for q in q_rows] + [aa[d] for aa in aa_rows]
               for d in range(alpha.dim)]
    orbit = list_orbit(phi, alpha_rows, list_rows(f_y, basis), pv, n_max)
    for n, cur in enumerate(orbit):
        exps = [(k, s[n]) for k, s in enumerate(seqs) if s[n]]
        if any(c != list_combine(one, exps, f, pv)
               for c, f in zip(cur, factors)):
            return False
    return True


def dense_verify_reduction(rd, phi, alpha, n_max):
    """The decomposition identity checked on dense coordinates."""
    l = len(rd.minpoly) - 1
    seqs = [lrs_prefix(seq[i], n_max) for seq in (rd.u_seqs, rd.v_seqs)
            for i in range(l)]
    a = [list(r) for r in phi.matrix]
    factors = list(rd.q_points) + [endo_apply(mat_pow(a, i), alpha)
                                   for i in range(l)]
    for n in range(n_max + 1):
        rhs = TorusPoint.identity(alpha.dim, alpha.modulus)
        for f, s in zip(factors, seqs):
            rhs = rhs * TorusPoint(tuple(ratfunc_int_pow(c, s[n])
                                         for c in f.coords))
        if rhs != selfmap_iterate(phi, alpha, n):
            return False
    return True


def lin(a, p):
    return RatFunc(FpPoly([a, 1], p))


def pack(values, width):
    return sum(v << (8 * width * i) for i, v in enumerate(values))


def block_diag(block, copies):
    d = len(block)
    return tuple(tuple(block[i % d][j % d] if i // d == j // d else 0
                       for j in range(d * copies)) for i in range(d * copies))


class TestPackedRows:
    """Packed exponent rows against the list-row kernel and the dense
    oracle, variety_contains(selfmap_iterate(...))."""

    def test_exponents_past_2_64(self):
        # two copies of [[2, 1], [1, 1]]: x1 = (t+1)^F(2n+1), x2 =
        # (t+1)^F(2n), x3 = (t+2)^F(2n+1) with Fibonacci F, so exponents
        # pass 2^64 at n = 47 and the slots are wider than 8 bytes
        p = P5
        fib = [0, 1]
        while len(fib) < 130:
            fib.append(fib[-1] + fib[-2])
        phi = TorusSelfMap.endomorphism(block_diag(((2, 1), (1, 1)), 2), p)
        one = RatFunc.one(p)
        alpha = TorusPoint((lin(1, p), one, lin(2, p), one))
        n_max = 60
        assert fib[2 * n_max + 1] > 2 ** 64
        rnd = random.Random(2024)
        varieties = [
            # x1^F(100) = x2^F(101) only at n = 50
            Variety(4, ((((fib[100], 0, 0, 0), one),
                          ((0, fib[101], 0, 0), -one)),)),
            # x3 / x1 = ((t+2)/(t+1))^F(2n+1), a pole: never 1 for n >= 0
            Variety(4, ((((0, 0, 1, 0), one), ((1, 0, 0, 0), -one)),)),
        ] + [
            # lam1 (t+1)^m + lam2 (t+2)^m + c with m = F(2n+1): the
            # digit-structured route at every n; (1, -1, 1) vanishes iff m
            # is a power of 5, so at n = 0 and 2
            Variety(4, ((((1, 0, 0, 0), RatFunc.const(lams[0], p)),
                         ((0, 0, 1, 0), RatFunc.const(lams[1], p)),
                         ((0, 0, 0, 0), RatFunc.const(lams[2], p))),))
            for lams in [(1, -1, 1)] + [[rnd.randrange(5) for _ in range(3)]
                                        for _ in range(12)]]
        seen = set()
        for v in varieties:
            hits = return_set(phi, alpha, v, n_max)
            assert hits == list_return_set(phi, alpha, v, n_max)
            seen.add(tuple(hits))
            if v is not varieties[0]:
                assert [n for n in hits if n <= 5] == dense_hits(
                    phi, alpha, v, 5)
        assert {(50,), (), (0, 2)} <= seen
        rd = reduction_decompose(phi, alpha)
        assert verify_reduction(rd, phi, alpha, n_max)
        assert list_verify_reduction(rd, phi, alpha, n_max)
        bad = ReductionData(rd.minpoly, rd.u_seqs, rd.v_seqs,
                            (rd.q_points[0] * alpha,) + rd.q_points[1:])
        assert verify_reduction(bad, phi, alpha, n_max) is False
        assert list_verify_reduction(bad, phi, alpha, n_max) is False

    def test_poles_random_against_dense(self):
        rnd = random.Random(5150)
        for _ in range(24):
            p = rnd.choice([P5, P7])
            pv = p.p

            def coord():
                c = RatFunc.const(rnd.randrange(1, pv), p)
                for _ in range(rnd.randint(0, 2)):
                    c = c * ratfunc_int_pow(lin(rnd.randrange(pv), p),
                                            rnd.choice([-2, -1, 1, 2]))
                return c

            mat = tuple(tuple(rnd.randint(-2, 2) for _ in range(2))
                        for _ in range(2))
            y = TorusPoint((coord(), coord())) if rnd.random() < 0.7 else \
                TorusPoint.identity(2, p)
            phi = TorusSelfMap(mat, y)
            alpha = TorusPoint((coord(), coord()))
            n0 = rnd.randint(0, 3)
            x1, x2 = selfmap_iterate(phi, alpha, n0).coords
            one = RatFunc.one(p)
            v = Variety(2, rnd.choice((
                ((((1, 0), one), ((0, 0), -x1)),),
                ((((1, -1), one), ((0, 0), -x1 / x2)),),
                ((((-1, 0), one), ((0, 1), one),
                  ((0, 0), -x1.inv() - x2)),),
                ((((1, 0), one), ((0, 1), one), ((1, 1), -x2),
                  ((0, 0), -x1 - x2 + x1 * x2 * x2)),),
            )))
            n_max = 4
            hits = return_set(phi, alpha, v, n_max)
            assert n0 in hits
            assert hits == dense_hits(phi, alpha, v, n_max), (mat, v)
            assert hits == list_return_set(phi, alpha, v, n_max)
            rd = reduction_decompose(phi, alpha)
            bad = ReductionData(rd.minpoly, rd.u_seqs, rd.v_seqs,
                                (rd.q_points[0] * TorusPoint((x1, x2)),)
                                + rd.q_points[1:])
            for data in (rd, bad):
                assert verify_reduction(data, phi, alpha, n_max) == \
                    dense_verify_reduction(data, phi, alpha, n_max)
            assert verify_reduction(rd, phi, alpha, n_max)

    def test_unipotent_blocks_n_max_300(self):
        # two companion blocks of (x - 1)^2: exponents grow linearly and
        # the bound stays below 2^64, though ||A||^300 alone is 3^300
        p = P7
        phi = TorusSelfMap.endomorphism(block_diag(((0, 1), (-1, 2)), 2), p)
        a1, a2 = lin(1, p), lin(2, p)
        alpha = TorusPoint((a1, a1 * a1, a2, a2 * a2))
        n_max = 300
        h = torus_mod._orbit_height(phi, 2, 0, n_max)
        assert 2 * n_max < h < 2 ** 64
        one = RatFunc.one(p)
        # x1 = (t+1)^(n+1), x3 = (t+2)^(n+1)
        varieties = (
            # a two-term ratio: n + 1 = 123
            Variety(4, ((((1, 0, 0, 0), one),
                         ((0, 0, 0, 0), -ratfunc_int_pow(a1, 123))),)),
            # (t+1)^m - (t+2)^m + 1 with m = n + 1 vanishes iff m is a
            # power of 7 (digit-structured)
            Variety(4, ((((1, 0, 0, 0), one), ((0, 0, 1, 0), -one),
                         ((0, 0, 0, 0), one)),)),
            # two bases in one term: expanded
            Variety(4, ((((1, 0, 0, 0), one), ((0, 0, 1, 0), one),
                         ((1, 0, 1, 0), RatFunc.const(3, p))),)),
        )
        wants = ([122], [0, 6, 48], None)
        # the dense orbit one step at a time
        points = [alpha]
        while len(points) <= n_max:
            points.append(torus_mod.selfmap_apply(phi, points[-1]))
        assert points[n_max] == selfmap_iterate(phi, alpha, n_max)
        for v, want in zip(varieties, wants):
            hits = return_set(phi, alpha, v, n_max)
            assert hits == [n for n, x in enumerate(points)
                            if variety_contains(v, x)]
            assert hits == list_return_set(phi, alpha, v, n_max)
            if want is not None:
                assert hits == want
        rd = reduction_decompose(phi, alpha)
        assert verify_reduction(rd, phi, alpha, n_max)
        assert list_verify_reduction(rd, phi, alpha, n_max)

    @pytest.mark.parametrize("width", [1, 2, 8, 9, 17])
    def test_two_slot_rows_are_not_structured(self, width):
        basis = [(1, 1), (2, 1)]
        edge = (1 << (8 * width - 1)) - 1
        # (t+1)/(t+2), and rows at the edge of the width
        for row in ([1, -1], [edge, 1], [-edge, 1], [edge, -1], [1, edge],
                    [-1, -edge], [edge, edge], [-edge, -edge], [edge, -edge]):
            assert _shape((1, pack(row, width)), basis, width) is None, row
        # one slot at the edge is still a linear base: (t+1)^m, (t+2)^m;
        # x_0 + x_1 + 3 at x = ((t+1)^m, 4 (t+2)^m) takes the digit-sum route
        eq = [([(0, 1)], (1, 0)), ([(1, 1)], (1, 0)), ([], (3, 0))]
        plan = _plan(eq, P5.p)
        for m in (edge, -edge, 1, -1):
            shapes = [_shape((1, pack([m, 0], width)), basis, width),
                      _shape((4, pack([0, m], width)), basis, width)]
            assert shapes == [(1, 1, m), (4, 2, m)]
            assert _linear_zero(plan, shapes, {}, P5.p) == \
                _structured_zero_test([(1, 1), (2, 4)], 3, m, P5.p)
        # neither a constant nor t^m is a shifted base
        assert _shape((3, 0), basis, width) is None
        assert _shape((1, pack([5, 0], width)), [(0, 1), (1, 1)],
                      width) is None

    def test_linear_verdicts_are_shared_by_digit_sum_class(self):
        # c_1 x_0 + c_2 x_1 + const at x = ((t+1)^m, (t+2)^m), p = 5: one
        # table serves every m, and exponents of one class (digit sum
        # D below 4, else 4 + D mod 4) share an entry
        p, width = P5.p, 2
        basis = [(1, 1), (2, 1)]
        ms = (-3, 1, 5, 25, 2, 10, 4, 8, 24, 3, 7, 19, 124)
        seen = set()
        for c1, c2, const in itertools.product(range(1, 5), range(1, 5),
                                               range(5)):
            eq = [([(0, 1)], (c1, 0)), ([(1, 1)], (c2, 0)),
                  ([], (const, 0))]
            plan, known = _plan(eq, p), {}
            for m in ms:
                shapes = [_shape((1, pack([m, 0], width)), basis, width),
                          _shape((1, pack([0, m], width)), basis, width)]
                want = _structured_zero_test([(1, c1), (2, c2)], const, m, p)
                assert _linear_zero(plan, shapes, known, p) == want, (eq, m)
                seen.add(want)
            # classes -1 (m < 0); 1, 2, 3 (m = 3, 7); 4 (D = 4, 8, 12);
            # 7 (m = 19, D = 7)
            assert len(known) == 6
        assert seen == {False, True}

    def test_verify_width_covers_the_right_side(self):
        # Q_0 off by (t+1)^256 / (t+2): at one-byte slots that difference
        # packs to 0, so the bound on the right side must widen the slots
        p = P5
        phi = TorusSelfMap(((1,),), TorusPoint((lin(1, p),)))
        alpha = TorusPoint((lin(2, p),))
        rd = reduction_decompose(phi, alpha)
        z = TorusPoint((ratfunc_int_pow(lin(1, p), 256) / lin(2, p),))
        bad = ReductionData(rd.minpoly, rd.u_seqs, rd.v_seqs,
                            (rd.q_points[0] * z,) + rd.q_points[1:])
        assert verify_reduction(rd, phi, alpha, 3)
        assert verify_reduction(bad, phi, alpha, 3) is False
        assert dense_verify_reduction(bad, phi, alpha, 3) is False

    def test_translation_drives_the_width(self):
        # alpha has no factors, so the exponents n of x1 = (t+1)^n and
        # x2 = (t+2)^n come from the translation alone
        p = P7
        one = RatFunc.one(p)
        phi = TorusSelfMap(((1, 0), (0, 1)),
                           TorusPoint((lin(1, p), lin(2, p))))
        alpha = TorusPoint((one, RatFunc.const(3, p)))
        v = Variety(2, ((((1, 0), one), ((0, 1), RatFunc.const(2, p)),
                         ((0, 0), one)),))
        points = [alpha]
        while len(points) <= 300:
            points.append(torus_mod.selfmap_apply(phi, points[-1]))
        hits = return_set(phi, alpha, v, 300)
        # (t+1)^n - (t+2)^n + 1 = 0 iff n is a power of 7
        assert hits == [n for n, x in enumerate(points)
                        if variety_contains(v, x)] == [1, 7, 49]

    def test_expansion_route_keeps_the_degree_cap(self, tmp_path, capsys,
                                                  monkeypatch):
        # x + x^2 + 1 with x = ((t+1)(t+3))^(506^n) is neither two-term
        # nor linear; at n = 2 both its digit box (16,160,625 slots) and its
        # dense layout (4 * 506^2 + 1 = 1,024,145 slots) pass the cap
        p = P5
        phi = TorusSelfMap.endomorphism(((506,),), p)
        alpha = TorusPoint((lin(1, p) * lin(3, p),))
        one = RatFunc.one(p)
        v = Variety(1, ((((1,), one), ((2,), one), ((0,), one)),))
        assert return_set(phi, alpha, v, 1) == dense_hits(phi, alpha, v, 1)
        with pytest.raises(ResourceLimitError):
            return_set(phi, alpha, v, 2)
        inst = tmp_path / "cap.txt"
        inst.write_text("p = 5\nn_max = 2\nmatrix = 506\ny = 1/1\n"
                        "alpha = 3,4,1/1\n"
                        "equation = 1 : 1/1 ; 2 : 1/1 ; 0 : 1/1\n")
        assert main(["return-set", str(inst)]) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "cap" in err
        # each term is refused before any of its powers is formed
        powers = []
        monkeypatch.setattr(FpPoly, "__pow__",
                            lambda self, e: powers.append(e))
        half = _DEGREE_CAP // 2 + 1
        basis = [(1, 1), (2, 1)]
        terms = [(1, pack([half, half], 4)), (1, pack([0, 1], 4)), (1, 0)]
        with pytest.raises(ResourceLimitError):
            torus_mod._expanded_zero(terms, basis, p, 4, {})
        assert powers == []

    def test_expansion_product_keeps_the_degree_cap(self):
        # the golden return-set-pow7 input at p = 10^9 + 7: no coordinate
        # is a linear power there, so the subresultant equation takes the
        # expansion route at g = 1 with D growing about 7x a step; its
        # products of K packed factors are refused, not left to run, and
        # the refusal counts 8-byte words, not coefficients
        text = (DATA / "return-set-pow7.txt").read_text()
        text = text.replace("p = 7\n", "p = 1000000007\n", 1)
        _, phi, alpha, v, n_max = torus_instance_from_text(text)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as refused:
            return_set(phi, alpha, v, n_max)
        assert time.perf_counter() - start < 5.0
        assert str(refused.value) == (
            "packed product of 1274079 8-byte words exceeds cap 1000000")


class TestPreperiodicCutoff:
    """return_set stops a repeating orbit at its first detected repeat;
    list_return_set, which tests every n, is the full-walk oracle."""

    @staticmethod
    def _count_tests(monkeypatch):
        calls = []
        test = torus_mod._equation_zero

        def counted(*args):
            calls.append(1)
            return test(*args)

        monkeypatch.setattr(torus_mod, "_equation_zero", counted)
        return calls

    @staticmethod
    def _varieties(p):
        one = RatFunc.one(p)
        x1 = ((1, 0), one)
        return [
            # x1 = t + 1, x1 = x2, x1 + x2 + 1 = 0 (expanded route), and
            # x1 x2 = t + 1 with x1^2 = x2 (two equations)
            Variety(2, ((x1, ((0, 0), -lin(1, p))),)),
            Variety(2, ((x1, ((0, 1), -one)),)),
            Variety(2, ((x1, ((0, 1), one), ((0, 0), one)),)),
            Variety(2, ((((1, 1), one), ((0, 0), -lin(1, p))),
                        (((2, 0), one), ((0, 1), -one)))),
        ]

    @pytest.mark.parametrize("order, matrix", [
        (2, ((0, 1), (1, 0))), (3, ((0, -1), (1, -1))),
        (4, ((0, -1), (1, 0))), (6, ((1, -1), (1, 0)))])
    def test_finite_order_maps(self, monkeypatch, order, matrix):
        assert mat_pow([list(r) for r in matrix], order) == [[1, 0], [0, 1]]
        rnd = random.Random(order)
        for p in (P5, P7):
            t = RatFunc(FpPoly([0, 1], p))
            starts = [TorusPoint((lin(1, p), lin(2, p) * lin(2, p) / lin(3, p))),
                      TorusPoint((lin(1, p), lin(1, p).inv())),
                      TorusPoint((RatFunc.const(2, p), t))]
            # I + A + ... + A^(order-1) = 0 for orders 3, 4 and 6, so any
            # translation keeps the period; the swap needs y2 = 1 / y1
            ys = [TorusPoint.identity(2, p),
                  TorusPoint((lin(2, p), lin(2, p).inv()))]
            if order > 2:
                ys.append(TorusPoint((lin(rnd.randrange(p.p), p),
                                      RatFunc.const(3, p) * t)))
            for y in ys:
                phi = TorusSelfMap(matrix, y)
                for alpha in starts:
                    for v in self._varieties(p):
                        calls = self._count_tests(monkeypatch)
                        hits = return_set(phi, alpha, v, 60)
                        assert len(calls) <= 2 * 20
                        monkeypatch.undo()
                        assert hits == list_return_set(phi, alpha, v, 60)
                        assert hits == sorted(
                            n for n in range(61)
                            if n % order in {h for h in hits if h < order})

    def test_inverse_with_any_translation(self):
        # x -> y / x: Phi^2(x) = y / (y / x) = x, so the period is 2
        for p in (P5, P7):
            for y in (lin(3, p) * lin(3, p), RatFunc.const(2, p) / lin(1, p)):
                phi = TorusSelfMap(((-1,),), TorusPoint((y,)))
                alpha = TorusPoint((lin(1, p),))
                for target in (lin(1, p), y / lin(1, p), lin(2, p)):
                    v = Variety(1, ((((1,), RatFunc.one(p)),
                                     ((0,), -target)),))
                    hits = return_set(phi, alpha, v, 41)
                    assert hits == list_return_set(phi, alpha, v, 41)
                    first = dense_hits(phi, alpha, v, 1)
                    assert hits == [n for n in range(42) if n % 2 in first]

    def test_nilpotent_orbit_is_constant_after_its_tail(self, monkeypatch):
        # A^2 = 0: Phi^n(alpha) = y [A]y for every n >= 2
        p = P5
        phi = TorusSelfMap(((0, 1), (0, 0)),
                           TorusPoint((lin(1, p), lin(2, p))))
        alpha = TorusPoint((lin(3, p), lin(4, p)))
        tail = selfmap_iterate(phi, alpha, 2)
        one = RatFunc.one(p)
        for v in self._varieties(p) + [Variety(2, (
                (((1, 0), one), ((0, 0), -tail.coords[0])),))]:
            calls = self._count_tests(monkeypatch)
            hits = return_set(phi, alpha, v, 50)
            assert len(calls) <= 2 * 4
            monkeypatch.undo()
            assert hits == list_return_set(phi, alpha, v, 50)
            assert hits == dense_hits(phi, alpha, v, 6) + [
                n for n in hits if n > 6]
        assert return_set(phi, alpha, v, 50) == list(range(2, 51))

    def test_unit_period_longer_than_row_period(self):
        # A = I, y = 2 at p = 5: the exponent rows repeat every step but
        # 2 has order 4 mod 5, so Phi^n(alpha) = 2^n alpha has period 4
        p = P5
        phi = TorusSelfMap(((1,),), TorusPoint((RatFunc.const(2, p),)))
        alpha = TorusPoint((lin(1, p),))
        v = Variety(1, ((((1,), RatFunc.one(p)),
                         ((0,), -RatFunc.const(3, p) * lin(1, p))),))
        want = [n for n in range(30) if n % 4 == 3]
        assert return_set(phi, alpha, v, 29) == want
        assert list_return_set(phi, alpha, v, 29) == want

    def test_short_ranges(self):
        # n_max = 0, and n_max below the period of the order-6 map
        p = P7
        phi = TorusSelfMap.endomorphism(((1, -1), (1, 0)), p)
        alpha = TorusPoint((lin(1, p), lin(2, p)))
        for v in self._varieties(p):
            for n_max in range(8):
                assert return_set(phi, alpha, v, n_max) == \
                    list_return_set(phi, alpha, v, n_max)
        v = Variety(2, ((((1, 0), RatFunc.one(p)), ((0, 0), -lin(1, p))),))
        assert return_set(phi, alpha, v, 0) == [0]
        assert return_set(phi, alpha, v, 5) == [0]
        assert return_set(phi, alpha, v, 6) == [0, 6]

    def test_dml_orbits_never_repeat(self, monkeypatch):
        # lin5 and lin7: u_n = n + s, whose orbit rows keep growing
        for p, c in ((P5, [1, 1]), (P7, [1, 2])):
            for s in (0, 3):
                phi, alpha, v = dml_instance(Lrs((1, -2), (s, s + 1)), p, c)
                calls = self._count_tests(monkeypatch)
                hits = return_set(phi, alpha, v, 30)
                assert len(calls) >= 31
                monkeypatch.undo()
                assert hits == list_return_set(phi, alpha, v, 30)
                assert hits == sorted(
                    n for n in range(31) if pset_membership(
                        n + s, PSet(tuple((Fraction(ci), 1) for ci in c)),
                        p) is not None)


def _irreducibles(p):
    """Monic irreducibles of degree 1 and 2 over F_p (at most eight)."""
    out = [(a, 1) for a in range(min(p, 5))]
    out += [(c, b, 1) for b in range(min(p, 4)) for c in range(1, min(p, 4))
            if all((r * r + b * r + c) % p for r in range(p))]
    return out[:8]


def _packed_terms(spec, width):
    """(unit, exponent list) pairs as _expanded_zero's rows."""
    return [(u, pack(row, width)) for u, row in spec]


def _dense_zero(spec, basis, p):
    """The FpPoly expansion after stripping the common monomial."""
    common = [min(col) for col in zip(*(row for _, row in spec))]
    total = FpPoly.zero(p)
    for unit, row in spec:
        term = FpPoly.const(unit, p)
        for key, e, c in zip(basis, row, common):
            term = term * FpPoly(key, p) ** (e - c)
        total = total + term
    return total.is_zero()


def _expanded(spec, basis, p):
    width = slot_bytes(2 * max(abs(e) for _, row in spec for e in row) + 1)
    return torus_mod._expanded_zero(_packed_terms(spec, width), basis, p,
                                    width, {})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_expansion_matches_fppoly(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 10007]))
    pool = _irreducibles(p) if p < 100 else [
        (a, 1) for a in (1, 2, 5000, 10005, 10006)]
    basis = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                      max_size=4, unique=True)))
    if p < 100 and data.draw(st.booleans()):
        # exponents k g with g of 1-4 base-p digits, laid out in the digit
        # box of g or densely, whichever has fewer slots; at most two keys
        # keep the dense oracle cheap
        basis = basis[:2]
        size = data.draw(st.integers(1, 4))
        digits = data.draw(st.lists(st.integers(0, p - 1), min_size=size,
                                    max_size=size))
        digits[-1] = max(digits[-1], 1)
        g = sum(d * p ** l for l, d in enumerate(digits))
        scale = st.integers(-1, 2).map(lambda k: k * g)
        row = st.lists(scale, min_size=len(basis), max_size=len(basis))
    else:
        top = 12 if p < 100 else 6
        row = st.lists(st.integers(-3, top), min_size=len(basis),
                       max_size=len(basis))
    spec = data.draw(st.lists(st.tuples(st.integers(1, p - 1), row),
                              min_size=1, max_size=6))
    # cancelling copies: f g - g f is one row with units u and p - u
    for u, r in data.draw(st.lists(st.sampled_from(spec), max_size=3)):
        spec.append((p - u, r))
    assert _expanded(spec, [tuple(k) for k in basis], PrimeModulus(p)) \
        == _dense_zero(spec, basis, PrimeModulus(p))


class TestPackedExpansion:
    def test_digit_box_picks_the_smaller_layout(self):
        # products of D = 4 factors (t + s)^g at p = 7
        digit_box = torus_mod.digit_box
        # one digit: the box is the dense layout, fold the identity
        assert digit_box(3, 7, 4) == ([(3, 1)], list(range(13)))
        # g = 9 = (2, 1): 37 dense slots against a box of 9 * 5
        assert digit_box(9, 7, 4) == ([(2, 1), (1, 7)], None)
        # g = 15 = (1, 2): a box of 5 * 9 against 61 dense slots
        layout, fold = digit_box(15, 7, 4)
        assert layout == [(1, 1), (2, 5)] and len(fold) == 45
        assert fold[:6] == [0, 1, 2, 3, 4, 7] and fold[-1] == 4 + 8 * 7
        # g = 7^40 + 2: 41 digits, two of them nonzero, a box of 9 * 5
        layout, fold = digit_box(7 ** 40 + 2, 7, 4)
        assert len(layout) == 41 and len(fold) == 45
        assert sorted(set(fold)) == sorted(
            j + k * 7 ** 40 for j in range(9) for k in range(5))
        # the cap is checked on the smaller layout: 4 * 506^2 + 1 dense
        # slots at p = 5, fewer than its box
        with pytest.raises(ResourceLimitError):
            digit_box(506 ** 2, 5, 4)
        assert digit_box(506, 5, 4)[1] is not None

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_frobenius_binomials_cancel(self, p):
        # (t+a)^(p^k) - t^(p^k) - a^(p^k) = 0; any other constant is not
        mod = PrimeModulus(p)
        for a in range(1, p):
            basis = [(0, 1), (a, 1)]
            for k in range(4):
                q = p ** k
                for c in range(1, p):
                    spec = [(1, [0, q]), (p - 1, [q, 0]), (c, [0, 0])]
                    want = c == -a % p
                    assert _expanded(spec, basis, mod) == want
                    assert _dense_zero(spec, basis, mod) == want

    def test_high_degree_terms_take_reduced_powers(self):
        # g = 1 and D = 500: unreduced products of 500 factors would not
        # fit a machine word, so each (key, exponent) is one reduced power
        p = 7
        mod = PrimeModulus(p)
        basis = [(1, 1), (2, 1), (3, 1)]
        for extra in (0, 1):
            spec = [(3, [300, 0, 200]), (4, [300, 0, 200]),
                    (5, [0, 499, 1]), (2, [0, 499, 1])]
            spec += [(6, [1, 1, 1])] * extra
            want = _dense_zero(spec, basis, mod)
            assert want == (extra == 0)
            assert _expanded(spec, basis, mod) == want

    def test_three_factor_terms_at_a_large_prime(self):
        # coefficients reach (p-1)^3 L1 L2 before the sum is reduced
        p = 10007
        mod = PrimeModulus(p)
        basis = [(1, 1), (5000, 1), (10006, 1)]
        rnd = random.Random(10007)
        zeros = 0
        for _ in range(40):
            spec = [(rnd.randint(p - 50, p - 1),
                     [rnd.randint(1, 9) for _ in basis])
                    for _ in range(rnd.randint(3, 6))]
            spec += [(p - u, r) for u, r in spec[:rnd.randint(0, 6)]]
            want = _dense_zero(spec, basis, mod)
            assert _expanded(spec, basis, mod) == want
            zeros += want
        assert 0 < zeros < 40

    def test_degree_cap_error_unchanged(self):
        p = P5
        basis = [(1, 1), (2, 1)]
        spec = [(1, [0, 0]), (1, [_DEGREE_CAP, 0]), (2, [0, 1])]
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            _expanded(spec, basis, p)
        # the cap counts coefficients after the common monomial is gone
        spec = [(1, [_DEGREE_CAP, 1]), (1, [_DEGREE_CAP, 0]),
                (3, [_DEGREE_CAP, 2])]
        assert _expanded(spec, basis, p) == _dense_zero(
            [(u, [0, e]) for u, (_, e) in spec], basis, p)


class TestStructuredExhaustive:
    """_structured_zero_test on every small case against the dense sum
    sum_a lam_a (t + s_a)^m + const of FpPoly powers."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_small_cases(self, p):
        mod = PrimeModulus(p)
        pool = range(1, min(p, 6))
        ms = sorted(set(range(2 * p + 1)) | {p * p - 1, p * p, p ** 3})
        powers = {(s, m): FpPoly([s, 1], mod) ** m for s in pool for m in ms}
        outcomes = set()
        for k in range(1, 4):
            for shifts in itertools.combinations(pool, k):
                for lams in itertools.product(range(3), repeat=k):
                    for m in ms:
                        dense = FpPoly.zero(mod)
                        for s, lam in zip(shifts, lams):
                            dense = dense + powers[s, m].scale(lam)
                        for const in range(3):
                            got = _structured_zero_test(
                                list(zip(shifts, lams)), const, m, p)
                            want = (dense + FpPoly([const], mod)).is_zero()
                            assert got == want, (shifts, lams, const, m)
                            outcomes.add((got, m > 0))
        assert outcomes == {(True, True), (False, True), (True, False),
                            (False, False)}
