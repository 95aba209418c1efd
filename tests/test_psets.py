import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pdml.pexp as pexp_mod
import pdml.psets as psets_mod
from pdml.errors import DomainError, ResourceLimitError
from pdml.exact import PrimeModulus
from pdml.pexp import fit_solution_desc
from pdml.psets import (
    ArithProg,
    PSet,
    ReturnSetDesc,
    ap_intersect_pset,
    desc_verify,
    fit_pset_shapes,
    pset_contains,
    pset_enumerate,
    pset_intersect_bounded,
    pset_membership,
    pset_of,
)

P2, P3, P5, P7, P11 = (PrimeModulus(p) for p in (2, 3, 5, 7, 11))


def oracle_values(S: PSet, p: PrimeModulus, bound: int,
                  exp_cap: int | None = None) -> set[int]:
    """Exhaustive exponent-tuple enumeration, independent of the digit DP."""
    if exp_cap is None:
        exp_cap = 1
        while p.p ** exp_cap <= max(bound, 1) * 10**6:
            exp_cap += 1
    ranges = []
    for c, k in S.terms:
        if k == 0:
            ranges.append([0])
        else:
            ranges.append(range(exp_cap // k + 1))
    out = set()
    for combo in itertools.product(*ranges):
        v = sum(c * p.p ** (k * n)
                for (c, k), n in zip(S.terms, combo))
        if v.denominator == 1 and 0 <= v <= bound:
            out.add(int(v))
    return out


def random_pset(rnd, max_terms=3, coeff_bound=6, k_bound=3) -> PSet:
    m = rnd.randint(1, max_terms)
    terms = []
    for _ in range(m):
        c = 0
        while c == 0:
            c = rnd.randint(-coeff_bound, coeff_bound)
        terms.append((Fraction(c), rnd.randint(0, k_bound)))
    return PSet(tuple(terms))


class TestMembership:
    def test_sum_of_two_powers(self):
        S = pset_of((1, 1), (1, 1))
        assert pset_membership(4, S, P3) == (0, 1)
        assert pset_membership(5, S, P3) is None

    def test_constant_plus_power(self):
        S = pset_of((2, 0), (1, 1))
        assert pset_membership(3, S, P5) == (0, 0)

    def test_witness_reassembles(self):
        rnd = random.Random(99)
        for _ in range(300):
            p = rnd.choice([P2, P3, P5, P7, P11])
            S = random_pset(rnd)
            M = rnd.randint(0, 10**5)
            w = pset_membership(M, S, p)
            if w is not None:
                total = sum(c * p.p ** (k * n)
                            for (c, k), n in zip(S.terms, w))
                assert total == M

    def test_witness_lexicographically_least(self):
        # 3^0 + 3^1 = 4 has witnesses (0,1) and (1,0); least is (0,1)
        S = pset_of((1, 1), (1, 1))
        assert pset_membership(4, S, P3) == (0, 1)
        # 2 = 1 + 1 forces (0, 0)
        assert pset_membership(2, S, P3) == (0, 0)

    def test_witness_lex_least_vs_exhaustive(self):
        rnd = random.Random(31415)
        for _ in range(150):
            p = rnd.choice([P2, P3, P5])
            m = rnd.randint(1, 3)
            # positive coefficients keep every witness exponent bounded,
            # so capped enumeration sees the full witness set
            terms = [(rnd.randint(1, 6), rnd.randint(0, 2))
                     for _ in range(m)]
            S = PSet(tuple((Fraction(c), k) for c, k in terms))
            M = rnd.randint(0, 3000)
            got = pset_membership(M, S, p)
            cap = 1
            while p.p ** cap <= max(M, 1):
                cap += 1
            ranges = [range(cap // k + 2) if k else [0] for _, k in terms]
            best = None
            for combo in itertools.product(*ranges):
                if M == sum(c * p.p ** (k * n)
                            for (c, k), n in zip(terms, combo)):
                    if best is None or combo < best:
                        best = combo
            assert got == best

    def test_fractional_target_rejected(self):
        S = pset_of((Fraction(1, 2), 1))
        assert pset_membership(Fraction(1, 3), S, P5) is None
        assert pset_membership(Fraction(5, 2), S, P5) == (1,)

    def test_rational_coefficients(self):
        S = pset_of((Fraction(1, 2), 1), (Fraction(1, 2), 1))
        # (5^a + 5^b)/2: a=b=0 gives 1, a=0,b=1 gives 3
        assert pset_membership(1, S, P5) == (0, 0)
        assert pset_membership(3, S, P5) == (0, 1)
        assert pset_membership(2, S, P5) is None

    def test_negative_coefficients(self):
        S = pset_of((1, 1), (-1, 1))
        assert pset_membership(0, S, P3) == (0, 0)
        assert pset_membership(2, S, P3) == (1, 0)   # 3 - 1
        assert pset_membership(4, S, P3) is None

    def test_bad_exponent_multiplier(self):
        with pytest.raises(DomainError):
            pset_of((1, -1))


class TestEnumerate:
    def test_two_powers_of_five(self):
        S = pset_of((1, 1), (1, 1))
        assert pset_enumerate(S, P5, 30) == [2, 6, 10, 26, 30]

    def test_below_min(self):
        assert pset_enumerate(pset_of((1, 1), (1, 1)), P5, 1) == []

    def test_squared_levels(self):
        assert pset_enumerate(pset_of((3, 2)), P5, 100) == [3, 75]

    def test_signed(self):
        got = pset_enumerate(pset_of((1, 1), (-1, 1)), P3, 30)
        assert got == [0, 2, 6, 8, 18, 24, 26]

    def test_agrees_with_membership_randomized(self):
        rnd = random.Random(4242)
        for _ in range(60):
            p = rnd.choice([P2, P3, P5, P7, P11])
            S = random_pset(rnd)
            bound = rnd.randint(0, 3000)
            listed = set(pset_enumerate(S, p, bound))
            for M in range(0, bound + 1, max(1, bound // 50)):
                assert (pset_membership(M, S, p) is not None) == (M in listed)

    def test_agrees_with_oracle_randomized(self):
        rnd = random.Random(777)
        for _ in range(40):
            p = rnd.choice([P2, P3, P5])
            S = random_pset(rnd)
            bound = rnd.randint(0, 2000)
            assert set(pset_enumerate(S, p, bound)) == \
                oracle_values(S, p, bound)


class TestApIntersect:
    def test_evens_miss_powers_of_three(self):
        assert ap_intersect_pset(ArithProg(2, 0), pset_of((1, 1)), P3) == []

    def test_odds_keep_powers_of_three(self):
        out = ap_intersect_pset(ArithProg(2, 1), pset_of((1, 1)), P3)
        values = set()
        for ps in out:
            values.update(pset_enumerate(ps, P3, 1000))
        assert values == {1, 3, 9, 27, 81, 243, 729}

    def test_singleton(self):
        S = pset_of((1, 1), (1, 1))
        hit = ap_intersect_pset(ArithProg(0, 4), S, P3)
        assert len(hit) == 1 and pset_enumerate(hit[0], P3, 10) == [4]
        assert ap_intersect_pset(ArithProg(0, 5), S, P3) == []

    def test_exactness_randomized(self):
        rnd = random.Random(2024)
        for _ in range(40):
            p = rnd.choice([P2, P3, P5, P7])
            S = random_pset(rnd)
            a = rnd.randint(1, 12)
            b = rnd.randrange(a)
            A = ArithProg(a, b)
            bound = 10**4
            emitted = ap_intersect_pset(A, S, p)
            got = set()
            for ps in emitted:
                got.update(pset_enumerate(ps, p, bound))
            want = {n for n in pset_enumerate(S, p, bound) if n in A}
            assert got == want

    def test_offset_above_modulus(self):
        # {3k + 4} cap {3^n}: residue-1 powers of 3 that are >= 4
        out = ap_intersect_pset(ArithProg(3, 4), pset_of((1, 1)), P3)
        values = set()
        for ps in out:
            values.update(pset_enumerate(ps, P3, 10**4))
        want = {n for n in pset_enumerate(pset_of((1, 1)), P3, 10**4)
                if n >= 4 and (n - 4) % 3 == 0}
        assert values == want

    def test_pieces_in_full_product_order(self):
        # slow path: every option tuple of every term, filtered by residue,
        # in itertools.product order (the lookup walk must emit the same)
        def every_combo(A, S, p):
            D, terms = psets_mod._cleared(S)
            mod = D * A.a
            choices = []
            for e, k in terms:
                rho, powers = psets_mod._power_orbit(pow(p.p, k, mod), mod)
                pi = len(powers) - rho
                opts = [("pin", v, e * pow(p.p, k * v, mod) % mod)
                        for v in range(rho)]
                opts += [("free", r, e * pow(p.p, k * (rho + r), mod) % mod)
                         for r in range(pi)]
                choices.append((opts, rho, pi))
            out = []
            for combo in itertools.product(*(c[0] for c in choices)):
                if sum(res for _, _, res in combo) % mod != D * A.b % mod:
                    continue
                out.append(PSet(tuple(
                    (c * p.p ** (k * val), 0) if kind == "pin"
                    else (c * p.p ** (k * (rho + val)), k * pi)
                    for (kind, val, _), (c, k), (_, rho, pi)
                    in zip(combo, S.terms, choices))))
            return out

        rnd = random.Random(11)
        pieces = 0
        for _ in range(60):
            p = rnd.choice([P2, P3, P5, P7])
            S = random_pset(rnd)
            if rnd.random() < 0.3:
                j = rnd.randrange(S.m)
                c, k = S.terms[j]
                S = PSet(S.terms[:j] + ((c / rnd.randint(2, 5), k),)
                         + S.terms[j + 1:])
            a = rnd.randint(1, 40)
            A = ArithProg(a, rnd.randrange(a))
            got = ap_intersect_pset(A, S, p)
            assert got == every_combo(A, S, p)
            pieces += len(got)
        assert pieces > 100

    def test_large_modulus_hits_cap(self):
        # 5 has order 100002 mod 100003, 3335 mod 20011 and 504 mod 1009: a
        # power orbit, the choices walked and the pieces emitted each pass
        # a cap, while 254,016 choices on 1009k are walked
        S = pset_of((1, 1), (1, 1))
        assert len(ap_intersect_pset(ArithProg(1009, 0), S, P5)) == 504
        S3 = pset_of((1, 1), (1, 1), (1, 1))
        assert len(ap_intersect_pset(ArithProg(1009, 0), S3, P5)) == 126504
        for A, T in ((ArithProg(100003, 0), S3), (ArithProg(20011, 0), S3),
                     (ArithProg(20011, 0), pset_of((20011, 1), (20011, 1)))):
            with pytest.raises(ResourceLimitError):
                ap_intersect_pset(A, T, P5)

    def test_walk_cap_boundary(self, monkeypatch):
        # 5 has order 3 mod 31: {31*5^a + 31*5^b} on 31k walks 3 choices
        # and emits 9 pieces; {5^a + 5^b + 5^c} walks 9 and emits the 6
        # orders of 1 + 5 + 25
        two = pset_of((31, 1), (31, 1))
        three = pset_of((1, 1), (1, 1), (1, 1))
        A = ArithProg(31, 0)
        monkeypatch.setattr(psets_mod, "_AP_WALK_CAP", 9)
        assert len(ap_intersect_pset(A, two, P5)) == 9
        assert len(ap_intersect_pset(A, three, P5)) == 6
        monkeypatch.setattr(psets_mod, "_AP_WALK_CAP", 8)
        with pytest.raises(ResourceLimitError, match="more than 8 pieces"):
            ap_intersect_pset(A, two, P5)
        with pytest.raises(ResourceLimitError, match="9 exponent choices"):
            ap_intersect_pset(A, three, P5)

    def test_offset_exclusion_accumulation_point(self):
        from pdml.errors import UnsupportedError

        # 0 = 3^a - 3^a sits below the offset but in every exponent branch,
        # so the exclusion must refuse rather than emit a wrong union
        with pytest.raises(UnsupportedError):
            ap_intersect_pset(ArithProg(1, 5), pset_of((1, 1), (-1, 1)), P3)


class TestDescVerify:
    def test_exact_enumeration(self):
        oracle = lambda n: n in {1, 4, 9}
        d = ReturnSetDesc(P5, exceptional=(1, 4, 9))
        assert desc_verify(d, oracle, 100)
        assert d.verified_bound == 100

    def test_missing_element(self):
        d = ReturnSetDesc(P5, exceptional=(1, 4))
        assert not desc_verify(d, lambda n: n in {1, 4, 9}, 100)
        assert d.verified_bound == 0

    def test_even_progression(self):
        d = ReturnSetDesc(P5, aps=(ArithProg(2, 0),))
        assert desc_verify(d, lambda n: n % 2 == 0, 10**4)

    def test_pset_members(self):
        d = ReturnSetDesc(P3, psets=(pset_of((1, 1)),))
        powers = {1, 3, 9, 27, 81, 243, 729}
        assert desc_verify(d, lambda n: n in powers, 1000)


class TestIntersectBounded:
    def test_identity(self):
        S = pset_of((1, 1), (1, 1))
        elements, cand = pset_intersect_bounded(S, S, P5, 100)
        assert elements == [2, 6, 10, 26, 30, 50]
        assert cand == [S]

    def test_cross_shape(self):
        S1 = pset_of((1, 1))
        S2 = pset_of((2, 1), (-1, 1))
        elements, cand = pset_intersect_bounded(S1, S2, P3, 100)
        assert elements == [1, 3, 9, 27, 81]
        assert cand == [S1]

    def test_disjoint_constants(self):
        elements, cand = pset_intersect_bounded(
            pset_of((1, 0)), pset_of((2, 0)), P3, 100)
        assert elements == []
        assert cand == []

    def test_term_bound_invariant(self):
        rnd = random.Random(55)
        for _ in range(25):
            p = rnd.choice([P2, P3, P5])
            S1 = random_pset(rnd, max_terms=2)
            S2 = random_pset(rnd, max_terms=3)
            elements, cand = pset_intersect_bounded(S1, S2, p, 2000)
            want = set(pset_enumerate(S1, p, 2000)) & set(
                pset_enumerate(S2, p, 2000))
            assert set(elements) == want
            if cand is not None:
                for ps in cand:
                    assert ps.m <= max(S1.m, S2.m)


class TestFitShapes:
    def test_pure_powers(self):
        cands = fit_pset_shapes([1, 3, 9, 27, 81], P3)
        assert any(ps.terms == ((Fraction(1), 1),) for ps in cands)

    def test_two_exponent_sum(self):
        cands = fit_pset_shapes([2, 6, 10, 26, 30], P5)
        target = pset_of((1, 1), (1, 1))
        assert any(sorted(ps.terms) == sorted(target.terms) for ps in cands)


def window_witnesses(S: PSet, p: int, lo: int, hi: int) -> dict[int, tuple]:
    """Independent: every exponent tuple up to a generous cap, in
    lexicographic order; the first tuple reaching each value in [lo, hi]."""
    D = 1
    for c, _ in S.terms:
        D = D * c.denominator // math.gcd(D, c.denominator)
    cap = 1
    while p ** cap <= max(-lo, hi, 1) * 10**4:
        cap += 1
    lists = [[int(c * D) * p ** (k * n)
              for n in (range(cap // k + 1) if k else [0])]
             for c, k in S.terms]
    out: dict[int, tuple] = {}
    for combo in itertools.product(*(range(len(v)) for v in lists)):
        total = sum(v[i] for v, i in zip(lists, combo))
        if total % D == 0 and lo <= total // D <= hi:
            out.setdefault(total // D, combo)
    return out


def reassemble(S: PSet, p: int, w: tuple) -> Fraction:
    return sum(c * p ** (k * n) for (c, k), n in zip(S.terms, w))


def same_sign(S: PSet) -> bool:
    """Exponents of every witness are bounded by the target."""
    signs = {c > 0 for c, k in S.terms if k >= 1 and c != 0}
    return len(signs) <= 1


class TestNegativeTargets:
    def test_difference_of_powers(self):
        S = pset_of((1, 1), (-1, 1))
        assert pset_membership(-26, S, P3) == (0, 3)
        assert pset_contains(-26, S, P3)
        assert not pset_contains(-25, S, P3)

    def test_membership_vs_exhaustive(self):
        rnd = random.Random(1618)
        for _ in range(30):
            p = rnd.choice([P2, P3, P5, P7])
            m = rnd.randint(2, 3)
            terms = [(rnd.randint(1, 6), rnd.randint(1, 3)),
                     (-rnd.randint(1, 6), rnd.randint(1, 3))]
            terms += [(rnd.randint(-6, 6), rnd.randint(0, 3))
                      for _ in range(m - 2)]
            S = PSet(tuple((Fraction(c), k) for c, k in terms))
            want = window_witnesses(S, p.p, -10**4, -1)
            for M, w in want.items():
                got = pset_membership(M, S, p)
                assert got is not None and reassemble(S, p.p, got) == M
            for M in range(-10**4, 0, 7):
                assert pset_contains(M, S, p) == (M in want)

    def test_witness_lex_least_vs_exhaustive(self):
        rnd = random.Random(2718)
        for _ in range(60):
            p = rnd.choice([P2, P3, P5])
            m = rnd.randint(1, 3)
            # negative coefficients keep every witness exponent bounded;
            # constants may take either sign
            terms = [(-rnd.randint(1, 6), rnd.randint(1, 2))
                     for _ in range(m)]
            terms.append((rnd.randint(-20, 20), 0))
            rnd.shuffle(terms)
            S = PSet(tuple((Fraction(c), k) for c, k in terms))
            want = window_witnesses(S, p.p, -3000, -1)
            for M in rnd.sample(range(-3000, 0), 40) + list(want)[:20]:
                assert pset_membership(M, S, p) == want.get(M)


class TestAutomatonMemo:
    def test_one_pset_at_two_primes(self):
        S = pset_of((1, 1))
        assert pset_membership(9, S, P3) == (2,)
        assert pset_membership(9, S, P5) is None
        assert pset_contains(9, S, P3) and not pset_contains(9, S, P5)
        assert pset_enumerate(S, P5, 30) == [1, 5, 25]
        assert pset_enumerate(S, P3, 30) == [1, 3, 9, 27]

    def test_int_target_matches_fraction_path(self):
        rnd = random.Random(17)
        for _ in range(200):
            S = PSet(tuple((Fraction(rnd.choice([-5, -2, -1, 1, 3, 7]),
                                     rnd.choice([1, 2, 3, 4])),
                            rnd.randint(0, 3))
                           for _ in range(rnd.randint(1, 3))))
            auto = psets_mod._DigitAutomaton(S, rnd.choice([2, 3, 5, 7]))
            M = rnd.randint(-10 ** 12, 10 ** 12)
            scaled = Fraction(M) * auto.D
            assert scaled.denominator == 1
            assert auto.target(M) == int(scaled) - auto.const
            assert auto.target(Fraction(M)) == auto.target(M)
            assert type(auto.target(M)) is int
        auto = psets_mod._DigitAutomaton(pset_of((Fraction(1, 3), 1)), 5)
        assert auto.target(Fraction(1, 3)) == 1
        assert auto.target(Fraction(1, 2)) is None

    def test_memo_is_not_part_of_equality(self):
        S, T = pset_of((1, 1), (2, 0)), pset_of((1, 1), (2, 0))
        pset_enumerate(S, P3, 100)
        assert S == T and hash(S) == hash(T)
        assert "automata" not in repr(S)


coefficient = st.tuples(st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       terms=st.lists(st.tuples(coefficient, st.integers(0, 3)),
                      min_size=1, max_size=3),
       exps=st.lists(st.integers(0, 5), min_size=3, max_size=3),
       offset=st.one_of(st.sampled_from([0, 0, 1, -1]),
                        st.integers(-2000, 2000)),
       bound=st.integers(0, 2000))
def test_automaton_agrees_with_brute_force(p, terms, exps, offset, bound):
    S = PSet(tuple((Fraction(a, b), k) for (a, b), k in terms))
    agrees_with_brute_force(S, p, exps, offset, bound, window_witnesses)


def summed_witnesses(S: PSet, p: int, lo: int, hi: int) -> dict[int, tuple]:
    """window_witnesses over the same exponent tuples, summed one term at
    a time from the last: each partial sum keeps the least tuple of the
    exponents summed so far. Equal terms reach few distinct sums, so
    p-sets of several of them stay cheap."""
    D = math.lcm(*(c.denominator for c, _ in S.terms))
    cap = 1
    while p ** cap <= max(-lo, hi, 1) * 10**4:
        cap += 1
    suffixes = {0: ()}
    for c, k in reversed(S.terms):
        longer: dict[int, tuple] = {}
        for n in range(cap // k + 1) if k else [0]:
            v = int(c * D) * p ** (k * n)
            for total, rest in suffixes.items():
                longer.setdefault(v + total, (n,) + rest)
        suffixes = longer
    return {total // D: combo for total, combo in suffixes.items()
            if total % D == 0 and lo <= total // D <= hi}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       kinds=st.tuples(st.tuples(coefficient, st.integers(0, 3),
                                 st.integers(2, 4)),
                       st.tuples(coefficient, st.integers(0, 3),
                                 st.integers(0, 2))),
       order=st.randoms(use_true_random=False),
       exps=st.lists(st.integers(0, 5), min_size=4, max_size=4),
       offset=st.one_of(st.sampled_from([0, 0, 1, -1]),
                        st.integers(-500, 500)),
       bound=st.integers(0, 500))
def test_automaton_agrees_with_brute_force_on_equal_terms(
        p, kinds, order, exps, offset, bound):
    """As above, for p-sets of at most four terms, two to four of them
    equal, in any order."""
    terms = [((a, b), k) for (a, b), k, r in kinds for _ in range(r)][:4]
    order.shuffle(terms)
    S = PSet(tuple((Fraction(a, b), k) for (a, b), k in terms))
    agrees_with_brute_force(S, p, exps, offset, bound, summed_witnesses)


def test_equal_terms_enumerate_in_time():
    # s_13(v) = 11 exactly for the sums of eleven powers of 13 below 13^3:
    # splitting a power into thirteen adds twelve terms
    S = PSet(((Fraction(1), 1),) * 11)
    start = time.perf_counter()
    got = pset_enumerate(S, PrimeModulus(13), 400)
    assert time.perf_counter() - start < 0.05
    assert got == [v for v in range(401)
                   if v % 13 + v // 13 % 13 + v // 169 == 11]


def agrees_with_brute_force(S, p, exps, offset, bound, brute_force):
    """Membership, the least witness and enumeration on S against the
    brute_force witnesses."""
    P = PrimeModulus(p)
    # targets near a member half of the time, anywhere otherwise
    M = math.floor(reassemble(S, p, exps)) + offset if abs(offset) <= 1 \
        else offset
    want = brute_force(S, p, min(M, 0), max(M, bound))
    w = pset_membership(M, S, P)
    assert (w is not None) == pset_contains(M, S, P) == (M in want)
    if w is not None:
        assert reassemble(S, p, w) == M
        if same_sign(S):
            assert w == want[M]
    assert pset_enumerate(S, P, bound) == sorted(
        v for v in want if 0 <= v <= bound)


class PerDigitAutomaton(psets_mod._DigitAutomaton):
    """The walk reading one digit per divmod of the whole target: the
    oracle for the walk that reads blocks and chunks of digits."""

    def walk(self, T):
        states = frozenset({(self.start, 0)})
        seen, pairs, start, horizon, level = set(), set(), None, None, 0
        while states and (horizon is None or level < horizon):
            if horizon is None and T in (0, -1):
                key = (level % self.lam, states)
                if key in seen:
                    horizon = start + len(pairs)
                    continue
                start = level if start is None else start
                seen.add(key)
                pairs.update((key[0], s) for s in states)
            T, digit = divmod(T, self.p)
            nxt, done, edges = self.step(level % self.lam, states, digit)
            yield edges, (T if T in done else None)
            states, level = nxt, level + 1


class TestChunkedWalk:
    """Targets of up to several blocks of digits (psets._BLOCK chunks of
    one CPython digit each), near members and anywhere, of both signs."""

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_same_walk_and_witnesses_as_per_digit(self, p):
        rnd = random.Random(9000 + p)
        decisions = set()
        for _ in range(60):
            # large coefficients make the carry bound large too
            big = rnd.random() < 0.3
            terms = [(Fraction(rnd.choice([-1, 1]) * (
                rnd.randint(1, 10**30) if big else rnd.randint(1, 6)),
                rnd.choice([1, 1, 2, 3])), rnd.randint(0, 3))
                for _ in range(rnd.randint(1, 3))]
            S = PSet(tuple(terms))
            fast = psets_mod._DigitAutomaton(S, p)
            slow = PerDigitAutomaton(S, p)
            for _ in range(6):
                exps = [rnd.randint(0, rnd.choice([5, 400, 1500]))
                        for _ in terms]
                M = math.floor(reassemble(S, p, exps))
                M += rnd.choice([0, 0, 1, -1, rnd.randint(-10**6, 10**6)])
                if rnd.random() < 0.25:
                    M = rnd.choice([-1, 1]) * rnd.getrandbits(
                        rnd.randint(1, 4000))
                T = fast.target(M)
                assert list(fast.walk(T)) == list(slow.walk(T)), (S, M)
                w = fast.witness(T)
                assert w == slow.witness(T), (S, M)
                decisions.add((w is not None, T < 0))
        assert {True, False} <= {member for member, _ in decisions}

    def test_chunk_and_block_sizes(self):
        for p in (2, 5, 7, 10007, 2**31 - 1):
            powers, chunk_powers = psets_mod._digit_chunks(p)
            chunk = chunk_powers[1]
            assert powers == tuple(p ** j for j in range(len(powers)))
            assert chunk == p ** len(powers)
            assert chunk < psets_mod._WORD or len(powers) == 1
            assert chunk * p >= psets_mod._WORD
            assert chunk_powers == tuple(
                chunk ** i for i in range(psets_mod._BLOCK + 1))


# ---------------------------------------------------------------------------
# Fit refutation: every shape, enumerated, is the slow path
# ---------------------------------------------------------------------------


def every_shape(values, p):
    """Reference fitter: every shape in Fraction arithmetic, none refuted,
    in the fitter's order and deduplicated."""
    vs = sorted(set(values))
    pv = p.p
    levels = range(1, psets_mod._FIT_LEVEL_MAX + 1)
    out, seen = [], set()

    def emit(d0, pairs):
        terms = [(c, k) for c, k in pairs if c != 0]
        if d0 != 0 or not terms:
            terms.append((d0, 0))
        cand = PSet(tuple(sorted(terms, key=lambda t: (t[1], t[0]))))
        if cand.terms not in seen:
            seen.add(cand.terms)
            out.append(cand)

    if len(vs) >= 2:
        r1, r2 = Fraction(vs[0]), Fraction(vs[1])
        for l1 in levels:
            d1 = (r2 - r1) / (pv ** l1 - 1)
            if d1 != 0:
                emit(r1 - d1, [(d1, l1)])
    if len(vs) >= 3:
        r1, r2, r3 = Fraction(vs[0]), Fraction(vs[1]), Fraction(vs[2])
        for l1 in levels:
            d1 = (r2 - r1) / (pv ** l1 - 1)
            for l2 in levels:
                for r in (r1, r2):
                    d2 = (r3 - r) / (pv ** l2 - 1)
                    if d1 != 0 and d2 != 0:
                        emit(r1 - d1 - d2, [(d1, l1), (d2, l2)])
    return out


def every_shape_fitter(values, p, bound=-1, oracle=None):
    return every_shape(values, p)


def shifted_solution_sets(seed, count):
    """(p, solutions, n_max): a shifted p-set {p^a + c p^(k b) - s} on
    [0, n_max], n_max up to 400, with a few points added or removed in
    half of the cases."""
    rnd = random.Random(seed)
    for _ in range(count):
        P = rnd.choice((P3, P5, P7))
        S = pset_of((1, 1), (rnd.randint(1, P.p - 1), rnd.randint(1, 2)),
                    (-rnd.randrange(40), 0))
        n_max = rnd.randint(60, 400)
        sols = set(pset_enumerate(S, P, n_max))
        if rnd.random() < 0.5:
            sols |= {rnd.randint(0, n_max) for _ in range(rnd.randint(1, 3))}
            sols -= set(rnd.sample(sorted(sols), 1))
        yield P, sols, n_max


class TestFitRefutation:
    def test_survivors_keep_order_and_dropped_shapes_fail(self):
        for P, sols, n_max in shifted_solution_sets(5, 40):
            full = every_shape(sols, P)
            kept = fit_pset_shapes(sols, P, n_max, sols.__contains__)
            assert kept == [c for c in full if c in kept]
            for cand in full:
                if cand not in kept:
                    assert not set(pset_enumerate(cand, P, n_max)) <= sols

    def test_fit_solution_desc_matches_every_shape(self, monkeypatch):
        cases = list(shifted_solution_sets(6, 40))
        fast = [fit_solution_desc(sols, P, n_max, allow_psets=True)
                for P, sols, n_max in cases]
        monkeypatch.setattr(pexp_mod, "fit_pset_shapes", every_shape_fitter)
        slow = [fit_solution_desc(sols, P, n_max, allow_psets=True)
                for P, sols, n_max in cases]
        assert fast == slow
        assert sum(1 for d in fast if d.psets) >= 10

    def test_intersect_matches_every_shape(self, monkeypatch):
        rnd = random.Random(7)
        cases = []
        for _ in range(40):
            P = rnd.choice((P3, P5, P7))
            bound = rnd.randint(60, 400)
            S1 = pset_of((1, 1), (rnd.randint(1, P.p - 1), rnd.randint(1, 2)),
                         (-rnd.randrange(40), 0))
            # S2 = {c p^(k n) + x - c p^(k n0)} meets S1 in a member x
            x = rnd.choice(pset_enumerate(S1, P, bound) or [0])
            c, k = rnd.randint(1, 3), rnd.randint(1, 2)
            const = x - c * P.p ** (k * rnd.randint(0, 1))
            S2 = rnd.choice((pset_of((c, k), (const, 0)),
                             pset_of((c, k), (1, 1), (const - 1, 0))))
            cases.append((S1, S2, P, bound))
        fast = [pset_intersect_bounded(*c) for c in cases]
        monkeypatch.setattr(psets_mod, "fit_pset_shapes", every_shape_fitter)
        slow = [pset_intersect_bounded(*c) for c in cases]
        assert fast == slow
        fitted = [cand for (S1, S2, _, _), (_, cand) in zip(cases, fast)
                  if cand and cand not in ([S1], [S2])
                  and any(k for ps in cand for _, k in ps.terms)]
        assert len(fitted) >= 5


@settings(derandomize=True, max_examples=30, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       values=st.lists(st.integers(-100, 400), min_size=2, max_size=5,
                       unique=True),
       bound=st.integers(0, 600))
def test_fit_refutes_only_by_members(p, values, bound):
    """A shape is dropped only for one of its members in [0, bound]: an
    oracle accepting exactly those members keeps it."""
    P = PrimeModulus(p)
    for cand in fit_pset_shapes(values, P):
        members = set(pset_enumerate(cand, P, bound))
        assert cand in fit_pset_shapes(values, P, bound, members.__contains__)
