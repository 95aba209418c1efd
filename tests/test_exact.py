import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdml.errors import DomainError, ResourceLimitError, UsageError
from pdml.exact import (
    FpPoly,
    PrimeModulus,
    RatFunc,
    is_prime,
    poly_factor,
    ratfunc_int_pow,
)
import pdml.exact as exact_mod
from pdml.exact import (_distinct_degree, _divmod, _factor_chain, _linear_power,
                        _monic, _squarefree)

P5 = PrimeModulus(5)
P3 = PrimeModulus(3)
P2 = PrimeModulus(2)


def poly(coeffs, p=P5):
    return FpPoly(coeffs, p)


def rf(num, den=None, p=P5):
    return RatFunc(poly(num, p), poly(den, p) if den is not None else None)


def _binary_pow(x, e: int):
    """x^e by binary powering, for an FpPoly or a RatFunc x: the reference
    for the base-p digit powers."""
    result = type(x).one(x.modulus)
    base = x
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


class TestPrimeModulus:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 2**31 - 1):
            PrimeModulus(p)

    def test_rejects_composites(self):
        for n in (0, 1, 4, 6, 9, 91, 561):
            with pytest.raises(DomainError):
                PrimeModulus(n)

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for n in range(2, 42):
            assert is_prime(n) == (n in primes)


class TestPolyOps:
    def test_gcd_common_root(self):
        g = poly([4, 0, 1]).gcd(poly([4, 1]))  # t^2-1, t-1 over F_5
        assert g == poly([4, 1])
        assert g.leading() == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
    def test_gcd_matches_divmod_euclid(self, p):
        # the gcd kernel against Euclid by FpPoly.divmod, on pairs with a
        # planted common factor, zero and constant inputs included; both
        # run on the one division kernel, so the gcd must also divide both
        # inputs and be divided by the planted factor
        def divmod_gcd(a, b):
            while not b.is_zero():
                a, b = b, a.divmod(b)[1]
            return (a.scale(pow(a.leading(), -1, p)) if not a.is_zero()
                    else a)

        pm = PrimeModulus(p)
        rnd = random.Random(p)

        def rand(deg):
            return FpPoly([rnd.randrange(p) for _ in range(deg + 1)], pm)

        fixed = [FpPoly.zero(pm), FpPoly.one(pm), FpPoly.const(p - 1, pm)]
        pairs = [(a, b, FpPoly.one(pm))
                 for a in fixed for b in fixed + [rand(3)]]
        for _ in range(300):
            common = rand(rnd.randint(0, 4))
            pairs.append((rand(rnd.randint(0, 8)) * common,
                          rand(rnd.randint(0, 8)) * common, common))
        for a, b, common in pairs:
            for x, y in ((a, b), (b, a)):
                g = x.gcd(y)
                assert g == divmod_gcd(x, y)
                if g.is_zero():
                    assert x.is_zero() and y.is_zero()
                    continue
                # a common divisor that the planted factor divides
                assert g.leading() == 1
                assert (x % g).is_zero() and (y % g).is_zero()
                assert common.is_zero() or (g % common).is_zero()

    def test_mul_mod3(self):
        # (t+1)(t+2) = t^2 + 2 over F_3
        assert poly([1, 1], P3) * poly([2, 1], P3) == poly([2, 0, 1], P3)

    def test_divmod_f2(self):
        q, r = poly([0, 0, 0, 1], P2).divmod(poly([1, 1], P2))
        assert q == poly([1, 1, 1], P2)
        assert r == poly([1], P2)

    def test_divmod_identity(self):
        rnd = random.Random(11)
        for _ in range(50):
            f = poly([rnd.randrange(5) for _ in range(rnd.randint(0, 8))])
            g = poly([rnd.randrange(5) for _ in range(rnd.randint(1, 5))])
            if g.is_zero():
                continue
            q, r = f.divmod(g)
            assert q * g + r == f
            assert r.degree < g.degree

    @given(st.sampled_from([2, 3, 5, 10007]),
           st.lists(st.integers(0, 10**6), max_size=12),
           st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_division_kernel(self, p, a, b):
        # a = q b + r with deg r < deg b, q and r canonical, the product
        # q b by schoolbook
        pm = PrimeModulus(p)
        a, b = FpPoly(a, pm).coeffs, FpPoly(b, pm).coeffs
        assume(b)
        q, r = _divmod(a, b, p)
        assert len(r) < len(b)
        for x in (q, r):
            assert all(0 <= c < p for c in x) and (not x or x[-1])
        qb = schoolbook(q, b, p)
        assert FpPoly([x + y for x, y in itertools.zip_longest(
            qb, r, fillvalue=0)], pm).coeffs == a

    def test_divide_by_zero(self):
        with pytest.raises(DomainError):
            poly([1]).divmod(poly([]))

    def test_degree_cap(self):
        with pytest.raises(ResourceLimitError):
            poly([1, 1]).frobenius(20)

    def test_modulus_compared_by_value(self):
        # equal primes built apart mix; different primes raise and differ
        assert poly([1, 1], PrimeModulus(5)) * poly([1], P5) == poly([1, 1])
        assert poly([1, 1], P3) != poly([1, 1])
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(UsageError):
                op(poly([1, 1], P3), poly([1, 1]))


def schoolbook(a, b, p):
    """Reference product of two coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def random_coeffs(rnd, n, p):
    """n coefficients: random or all p - 1 (the widest slot sums), with
    zeros at the low end and trailing zeros for FpPoly to strip."""
    if rnd.random() < 0.3:
        cs = [p - 1] * n
    else:
        cs = [rnd.randrange(p) for _ in range(n)]
    low = rnd.randrange(min(n, 3) + 1)
    return [0] * low + cs[low:] + [0] * rnd.randrange(2)


class TestProducts:
    # both sides of the schoolbook / Kronecker size selection; 2^61 - 1
    # needs slots wider than 8 bytes
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10007, 10**9 + 7, 2**61 - 1])
    def test_against_schoolbook(self, p):
        pm = PrimeModulus(p)
        rnd = random.Random(p)
        lengths = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 33, 64, 150, 300)
        for la in lengths:
            for lb in (la, rnd.choice(lengths), rnd.choice(lengths)):
                a = random_coeffs(rnd, la, p)
                b = random_coeffs(rnd, lb, p)
                assert (FpPoly(a, pm) * FpPoly(b, pm)).coeffs == \
                    schoolbook(a, b, p)
            f = FpPoly(a, pm)
            assert (f * f).coeffs == schoolbook(a, a, p)

    @pytest.mark.parametrize("p", [5, 2**61 - 1])
    def test_ten_thousand_coefficients(self, p):
        pm = PrimeModulus(p)
        rnd = random.Random(7)
        a = [rnd.randrange(p) for _ in range(9899)] + [1]
        b = [p - 1] * 100 + [1]
        prod = FpPoly(a, pm) * FpPoly(b, pm)
        assert prod.degree == 9999
        assert prod.coeffs == schoolbook(a, b, p)


class TestNormalize:
    def test_common_factor(self):
        # (2t+2)/(t+1) -> 2/1
        x = RatFunc(poly([2, 2]), poly([1, 1]))
        assert x == rf([2])

    def test_cancel_and_monicize(self):
        # (t^2-1)/(2t-2) -> (3t+3)/1
        x = RatFunc(poly([4, 0, 1]), poly([3, 2]))
        assert x == rf([3, 3])

    def test_constant_ratio(self):
        # t/(2t) -> 2/1 over F_3
        x = RatFunc(poly([0, 1], P3), poly([0, 2], P3))
        assert x == rf([2], p=P3)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            RatFunc(poly([1]), poly([]))

    def test_round_trip_common_factors(self):
        rnd = random.Random(5)
        for _ in range(100):
            num = poly([rnd.randrange(5) for _ in range(rnd.randint(1, 5))])
            den = poly([rnd.randrange(5) for _ in range(rnd.randint(1, 4))] + [1])
            h = poly([rnd.randrange(5) for _ in range(rnd.randint(0, 3))] + [
                rnd.randrange(1, 5)])
            if num.is_zero() or den.is_zero():
                continue
            assert RatFunc(num * h, den * h) == RatFunc(num, den)


class TestFrobenius:
    def test_t_plus_one_squared_step(self):
        # (t+1)^(5^2) = t^25 + 1
        x = ratfunc_int_pow(rf([1, 1]), 5 ** 2)
        expected = [1] + [0] * 24 + [1]
        assert list(x.num.coeffs) == expected
        assert x.den.is_one()

    def test_identity_step(self):
        x = rf([2, 0, 1], [1, 1])
        assert ratfunc_int_pow(x, 5 ** 0) == x

    def test_cube_over_f3(self):
        # (2t+1)^3 = 2t^3 + 1 over F_3
        assert ratfunc_int_pow(rf([1, 2], p=P3), 3) == rf([1, 0, 0, 2], p=P3)

    def test_matches_binary_powering(self):
        rnd = random.Random(17)
        for _ in range(100):
            p = random.Random(rnd.random()).choice([P2, P3, P5])
            num = [rnd.randrange(p.p) for _ in range(rnd.randint(1, 3))]
            den = [rnd.randrange(p.p) for _ in range(rnd.randint(0, 2))] + [1]
            x = RatFunc(FpPoly(num, p), FpPoly(den, p))
            if x.is_zero():
                continue
            k = rnd.randint(0, 4)
            if p.p ** k * 4 > 3000:
                k = 2
            assert ratfunc_int_pow(x, p.p ** k) == _binary_pow(x, p.p ** k)


class TestPolyPow:
    # m = 0 and both sides of each base-p digit boundary p^k - 1, p^k,
    # p^k + 1, against repeated products and binary powering
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 10**9 + 7])
    def test_digit_boundaries(self, p):
        pm = PrimeModulus(p)
        rnd = random.Random(p)
        ms = {0} | {p ** k + d for k in range(12) for d in (-1, 0, 1)}
        polys = [FpPoly.zero(pm), FpPoly.one(pm), FpPoly.const(p - 1, pm),
                 FpPoly([0, 1], pm),
                 FpPoly(random_coeffs(rnd, 3, p) + [1], pm),
                 FpPoly([rnd.randrange(p) for _ in range(3)]
                        + [rnd.randrange(1, p)], pm)]
        for f in polys:
            acc = FpPoly.one(pm)
            for m in range(130):
                if m in ms:
                    assert f ** m == acc
                acc = acc * f
            for m in sorted(ms):
                if f.degree < 1:
                    assert f ** m == FpPoly.const(pow(f.leading(), m, p), pm)
                elif 130 <= m <= 2500:
                    assert f ** m == _binary_pow(f, m)
        with pytest.raises(DomainError):
            polys[-1] ** -1


class TestIntPow:
    def test_pow26_matches_binary(self):
        x = rf([1, 1])
        via_digits = ratfunc_int_pow(x, 26)
        assert via_digits == _binary_pow(x, 26)
        assert via_digits == x * ratfunc_int_pow(x, 5 ** 2)

    def test_pow_zero(self):
        assert ratfunc_int_pow(rf([3, 2, 1]), 0) == RatFunc.one(P5)

    def test_negative_is_inverse(self):
        x = rf([1, 1])
        assert ratfunc_int_pow(x, -1) == x.inv()
        assert ratfunc_int_pow(x, -3) == _binary_pow(x.inv(), 3)
        # inverting moves a non-monic numerator into the denominator, which
        # must come out monic
        y = rf([1, 2], [3, 0, 1])
        assert ratfunc_int_pow(y, -3) == _binary_pow(y.inv(), 3)
        assert ratfunc_int_pow(y, -3) == RatFunc.one(P5) / _binary_pow(y, 3)
        assert ratfunc_int_pow(y, -3).den.leading() == 1

    def test_zero_to_negative(self):
        with pytest.raises(DomainError):
            ratfunc_int_pow(RatFunc.zero(P5), -1)

    @given(st.integers(0, 2), st.integers(1, 4), st.integers(0, 60))
    def test_agrees_with_binary(self, c0, c1, m):
        x = rf([c0, c1])
        assert ratfunc_int_pow(x, m) == _binary_pow(x, m)


class TestRatFuncField:
    def test_axioms_random(self):
        rnd = random.Random(23)

        def rand_rf():
            num = [rnd.randrange(5) for _ in range(rnd.randint(1, 3))]
            den = [rnd.randrange(5) for _ in range(rnd.randint(0, 2))] + [1]
            return RatFunc(FpPoly(num, P5), FpPoly(den, P5))

        for _ in range(60):
            x, y, z = rand_rf(), rand_rf(), rand_rf()
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == RatFunc.zero(P5)
            if not x.is_zero():
                assert x * x.inv() == RatFunc.one(P5)

    def test_structural_equality(self):
        a = rf([1, 2], [3, 1])
        b = rf([2, 4], [6, 2])
        assert a == b
        assert hash(a) == hash(b)


def monics(p: PrimeModulus, degree: int):
    for low in itertools.product(range(p.p), repeat=degree):
        yield FpPoly(list(low) + [1], p)


def check_factorisation(f: FpPoly):
    """The factors multiply back to f and each passes trial division by
    every monic polynomial of at most half its degree."""
    unit, factors = poly_factor(f)
    prod = FpPoly.const(unit, f.modulus)
    for g, m in factors:
        assert g.leading() == 1 and g.degree >= 1 and m >= 1
        prod = prod * g ** m
        for d in range(1, g.degree // 2 + 1):
            for h in monics(f.modulus, d):
                assert not (g % h).is_zero(), (f, g, h)
    assert prod == f
    assert len({g for g, _ in factors}) == len(factors)
    return factors


class TestFactor:
    def test_all_monics_small_primes(self):
        for p, top in ((P2, 6), (P3, 5), (P5, 3), (PrimeModulus(7), 2)):
            for d in range(1, top + 1):
                for f in monics(p, d):
                    check_factorisation(f)

    def test_random_against_trial_division(self):
        rnd = random.Random(31)
        for p in (P2, P3, P5, PrimeModulus(7)):
            for _ in range(40):
                # products of small random pieces give repeated factors
                f = FpPoly.const(rnd.randrange(1, p.p), p)
                target = rnd.randint(1, 6)
                while f.degree < target:
                    d = rnd.randint(1, min(3, target - f.degree))
                    f = f * FpPoly([rnd.randrange(p.p) for _ in range(d)]
                                   + [rnd.randrange(1, p.p)], p)
                check_factorisation(f)

    def test_pth_powers(self):
        # t^5 + 1 = (t + 1)^5 over F_5: the derivative vanishes
        assert check_factorisation(poly([1, 0, 0, 0, 0, 1])) == \
            [(poly([1, 1]), 5)]
        # (t^2 + 2)^5 (t + 3)^6
        f = poly([2, 0, 1]) ** 5 * poly([3, 1]) ** 6
        assert check_factorisation(f) == [(poly([3, 1]), 6),
                                          (poly([2, 0, 1]), 5)]
        # t^4 + t^2 + 1 = (t^2 + t + 1)^2 over F_2
        assert check_factorisation(poly([1, 0, 1, 0, 1], P2)) == \
            [(poly([1, 1, 1], P2), 2)]

    def test_unit_and_constants(self, monkeypatch):
        # a unit is answered before any gcd is taken: with the gcd kernel
        # gone units still factor, and a linear polynomial, which reaches
        # the kernel, fails
        monkeypatch.setattr(exact_mod, "_gcd", None)
        for p in (P2, P5, PrimeModulus(10**9 + 7)):
            for c in (1, p.p - 1):
                assert poly_factor(FpPoly.const(c, p)) == (c, [])
        with pytest.raises(TypeError):
            poly_factor(poly([1, 2]))
        monkeypatch.undo()
        assert poly_factor(poly([3])) == (3, [])
        assert poly_factor(poly([1, 2])) == (2, [(poly([3, 1]), 1)])
        with pytest.raises(DomainError):
            poly_factor(FpPoly.zero(P5))

    def test_large_prime(self):
        p = PrimeModulus(10**9 + 7)
        lin = FpPoly([3, 1], p)
        quad = FpPoly([2, 0, 1], p)  # -2 is not a square mod 10^9+7
        f = lin ** 2 * quad * FpPoly([5, 1], p)
        assert poly_factor(f) == (1, [(lin, 2), (FpPoly([5, 1], p), 1),
                                      (quad, 1)])


def chain_factor(f: FpPoly) -> tuple[int, list[tuple[FpPoly, int]]]:
    """poly_factor by the general chain alone, without the linear-power
    route: the oracle for that route."""
    p = f.modulus.p
    mult = _factor_chain(_monic(f.coeffs, p), p)
    return f.leading(), sorted(
        ((FpPoly(g, f.modulus), m) for g, m in mult.items()),
        key=lambda gm: (gm[0].degree, gm[0].coeffs))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 10**9 + 7]), st.data())
def test_linear_power_route_agrees_with_the_chain(q, data):
    """c (t + a)^k, with p or p^2 dividing k and a = 0 among the shifts,
    takes the linear-power route; one changed coefficient and
    (t + a)^i (t + b)^(k - i) fall through to the chain unless it finds a
    single linear factor too. Each gives what the chain gives."""
    p = PrimeModulus(q)
    m = data.draw(st.integers(1, 6), "m")
    c = data.draw(st.integers(1, q - 1), "c")
    for k, a in itertools.product(
            [m * q ** j for j in range(3) if 2 <= m * q ** j <= 100],
            (0, data.draw(st.integers(1, q - 1), "a"))):
        power = FpPoly([a, 1], p) ** k
        near = list(power.coeffs)
        i = data.draw(st.integers(0, k - 1), "i")
        near[i] = (near[i] + data.draw(st.integers(1, q - 1), "dc")) % q
        b = data.draw(st.integers(0, q - 1).filter(lambda x: x != a), "b")
        split = FpPoly([a, 1], p) ** i * FpPoly([b, 1], p) ** (k - i)
        assert poly_factor(power.scale(c)) == (c, [(FpPoly([a, 1], p), k)])
        for f in (power, FpPoly(near, p), split):
            want = chain_factor(f.scale(c))
            assert poly_factor(f.scale(c)) == want
            single = len(want[1]) == 1 and want[1][0][0].degree == 1
            assert (_linear_power(_monic(f.coeffs, q), p) is not None) == \
                single


def squarefree(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """exact._squarefree on the coefficients of monic f, as FpPolys."""
    return [(FpPoly(g, f.modulus), m)
            for g, m in _squarefree(f.coeffs, f.modulus.p)]


def ref_squarefree(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Yun's squarefree split on FpPoly methods, as exact._squarefree ran
    before it moved to coefficient lists: the reference for its factors
    and their order."""
    out = []
    df = f.derivative()
    a = f.gcd(df)
    b = f.divmod(a)[0]
    c = df.divmod(a)[0]
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = b.gcd(d)
        if g.degree > 0:
            out.append((g, i))
            a = a.divmod(g ** (i - 1))[0]
            b = b.divmod(g)[0]
        c = d.divmod(g)[0]
        i += 1
    if a.degree > 0:
        p = f.modulus.p
        root = FpPoly(a.coeffs[::p], f.modulus)
        out.extend((g, m * p) for g, m in ref_squarefree(root))
    return out


def ref_distinct_degree(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Distinct-degree splitting on FpPoly methods, as
    exact._distinct_degree ran before it moved to coefficient lists."""
    out = []
    t = FpPoly([0, 1], f.modulus)
    h = t
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        e, base, h = f.modulus.p, h % f, FpPoly.one(f.modulus)
        while e:  # h^p mod f by binary powering
            if e & 1:
                h = h * base % f
            e >>= 1
            base = base * base % f
        g = f.gcd(h - t)
        if g.degree > 0:
            out.append((g, d))
            f = f.divmod(g)[0]
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def squarefree_by_multiplicity(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Squarefree split with one gcd against the whole cofactor per
    multiplicity: the slow oracle for exact._squarefree."""
    out = []
    c = f.gcd(f.derivative())
    w = f.divmod(c)[0]
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        fac = w.divmod(y)[0]
        if fac.degree > 0:
            out.append((fac, i))
        w = y
        c = c.divmod(y)[0]
        i += 1
    if c.degree > 0:
        p = f.modulus.p
        root = FpPoly(c.coeffs[::p], f.modulus)
        out.extend((g, m * p) for g, m in squarefree_by_multiplicity(root))
    return out


def irreducibles(p: PrimeModulus, rnd: random.Random, count: int,
                 top: int) -> list[FpPoly]:
    """count distinct monic irreducibles of degree at most top, found by
    trial division (linear ones only for a large p)."""
    found: list[FpPoly] = []
    while len(found) < count:
        d = rnd.randint(1, top if p.p < 100 else 1)
        g = FpPoly([rnd.randrange(p.p) for _ in range(d)] + [1], p)
        if g not in found and all(
                not (g % h).is_zero()
                for k in range(1, d // 2 + 1) for h in monics(p, k)):
            found.append(g)
    return found


def level_multiplicities(split, factors) -> list[int]:
    """The multiplicity of each known irreducible, summed over the pieces
    of a squarefree split that it divides."""
    return [sum(m for s, m in split if (s % g).is_zero()) for g in factors]


class TestSquarefree:
    @staticmethod
    def products(p: PrimeModulus, rnd: random.Random):
        """Seeded products with multiplicities above p: p^2 k + r, several
        factors on one residue mod p, pure p-th powers."""
        q = p.p
        for shape in range(12):
            fs = irreducibles(p, rnd, rnd.randint(1, 4), 3)
            if q > 100:
                ms = [rnd.randint(1, 40) for _ in fs]
            elif shape % 3 == 0:
                ms = [q * q * rnd.randint(1, 2) + rnd.randrange(q)
                      for _ in fs]
            elif shape % 3 == 1:
                r = rnd.randrange(1, q)
                ms = [r + q * rnd.randint(0, 6) for _ in fs]
            else:
                ms = [q * rnd.randint(1, 9) for _ in fs]
            yield fs, ms

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 10**9 + 7])
    def test_against_oracle(self, q):
        p = PrimeModulus(q)
        rnd = random.Random(q)
        for fs, ms in self.products(p, rnd):
            f = FpPoly.one(p)
            for g, m in zip(fs, ms):
                f = f * g ** m
            split = squarefree(f)
            assert split == ref_squarefree(f)
            for s, _ in split:
                assert [(FpPoly(g, p), d) for g, d in
                        _distinct_degree(s.coeffs, q)] == \
                    ref_distinct_degree(s)
            assert all(s.leading() == 1 and s.degree > 0 for s, _ in split)
            assert level_multiplicities(split, fs) == ms
            assert level_multiplicities(
                squarefree_by_multiplicity(f), fs) == ms
            expanded = FpPoly.one(p)
            for s, m in split:
                expanded = expanded * s ** m
            assert expanded == f
            lead = rnd.randrange(1, q)
            assert check_factorisation(f.scale(lead)) == sorted(
                zip(fs, ms), key=lambda gm: (gm[0].degree, gm[0].coeffs))

    def test_quartic_power_in_few_steps(self, monkeypatch):
        # (t^4 + t^2 + 2)^112 (t + 3)^3 at p = 5, degree 451: Yun's loop
        # takes 1 + 3, 1 + 2 and 1 + 4 gcds on the levels 112, 22 and 4 of
        # the quartic; one gcd per multiplicity takes 113
        quartic, lin = poly([2, 0, 1, 0, 1]), poly([3, 1])
        f = quartic ** 112 * lin ** 3
        assert f.degree == 451
        calls = []
        gcd = exact_mod._gcd
        monkeypatch.setattr(exact_mod, "_gcd",
                            lambda a, b, p: calls.append(1) or gcd(a, b, p))
        split = squarefree(f)
        monkeypatch.undo()
        assert len(calls) == 12
        assert level_multiplicities(split, [quartic, lin]) == [112, 3]
        assert poly_factor(f.scale(4)) == (4, [(lin, 3), (quartic, 112)])
