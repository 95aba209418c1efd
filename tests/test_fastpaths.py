"""Cross-validation of the factored/structured evaluation fast paths
against plain dense arithmetic on ranges where both are feasible."""

import random
import time
from fractions import Fraction

import pytest

import pdml.torus as torus_mod
from pdml.constructions import dml_instance
from pdml.errors import ResourceLimitError
from pdml.exact import (_DEGREE_CAP, FpPoly, PrimeModulus, RatFunc,
                        ratfunc_int_pow)
from pdml.lrs import Lrs
from pdml.psets import PSet, pset_enumerate, pset_membership
from pdml.torus import (
    Factored,
    TorusPoint,
    TorusSelfMap,
    Variety,
    _basis,
    _combine,
    _rows,
    _structured_zero_test,
    _two_term_zero,
    reduction_decompose,
    return_set,
    selfmap_iterate,
    variety_contains,
    verify_reduction,
)

P3, P5, P7 = PrimeModulus(3), PrimeModulus(5), PrimeModulus(7)
P11 = PrimeModulus(11)


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
        # the all-ones variety rows: membership iff digit sum matches
        from pdml.constructions import vandermonde_inverse

        for p in (P3, P5, P7):
            pv = p.p
            a_inv = vandermonde_inverse(p)
            ell = 2 if pv > 3 else 1
            for m in range(0, 200):
                digit_sum = 0
                mm = m
                while mm:
                    digit_sum += mm % pv
                    mm //= pv
                row = list(zip(range(1, pv), a_inv[ell]))
                got = _structured_zero_test(row, pv - 1, m, pv)
                dense = FpPoly([pv - 1], p)
                for s, lam in row:
                    dense = dense + (FpPoly([s, 1], p) ** m).scale(lam)
                assert got == dense.is_zero()

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
            rows = _rows([f1, f2, k1, k2], basis)
            got = _two_term_zero(_combine(rows[2], [(0, e1)], rows, pv),
                                 _combine(rows[3], [(1, e2)], rows, pv), pv)
            assert got == lhs.is_zero()


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

    def test_expansion_refused_at_degree_cap(self):
        p = P5
        # refused before any product is formed
        with pytest.raises(ResourceLimitError):
            Factored(1, {(1, 1): _DEGREE_CAP}, p).to_ratfunc()
        f = Factored(1, {(1, 1): 50}, p)
        assert f.to_ratfunc() == ratfunc_int_pow(RatFunc(FpPoly([1, 1], p)),
                                                 50)


class TestRowKernel:
    """The exponent-row orbit against the dense oracle,
    variety_contains(selfmap_iterate(...))."""

    def _count_routes(self, monkeypatch):
        routes = {"structured": 0, "expanded": 0}
        structured = torus_mod._structured_zero_test
        expand = Factored.to_ratfunc

        def count_structured(*args):
            routes["structured"] += 1
            return structured(*args)

        def count_expand(self):
            routes["expanded"] += 1
            return expand(self)

        monkeypatch.setattr(torus_mod, "_structured_zero_test",
                            count_structured)
        monkeypatch.setattr(Factored, "to_ratfunc", count_expand)
        return routes

    def test_multiplicity_instance_linear_sequence(self, monkeypatch):
        # u_n = n + s at p = 7, c = (1, 2): the p-set rows go through the
        # structured route, the subresultant equation through expansion
        routes = self._count_routes(monkeypatch)
        for s in (0, 4, 9):
            phi, alpha, v = dml_instance(Lrs((1, -2), (s, s + 1)), P7, [1, 2])
            hits = return_set(phi, alpha, v, 12)
            assert hits == dense_hits(phi, alpha, v, 12)
            assert hits == [n for n in range(13) if n + s in (3, 9, 15, 21)]
        assert routes["structured"] > 0 and routes["expanded"] > 0

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
