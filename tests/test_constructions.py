import math
import random
import subprocess
import sys

import pytest

from pdml.errors import (ConstructionError, DomainError, InternalError,
                         ResourceLimitError)
from pdml.exact import (FpPoly, PrimeModulus, RatFunc, pack_slots,
                        ratfunc_int_pow, slot_bytes, unpack_slots)
from pdml.constructions import (
    PolySystem,
    PsetVariety,
    _node_weights,
    _self_check,
    _self_check_points,
    _subresultant_polys,
    _survivor_point,
    _sym_var,
    _symmetric_recovery,
    build_pset_variety,
    dml_instance,
    encode_lrs,
    encoding_exponent,
    exponent_set,
)
from pdml.lrs import Lrs, constant, fibonacci, lrs_prefix
from pdml.pexp import PexpInstance, pexp_solution_set
from pdml.psets import pset_enumerate, pset_of
from pdml.torus import TorusPoint, Variety, return_set, variety_contains

P3, P5, P7, P11, P13 = (PrimeModulus(p) for p in (3, 5, 7, 11, 13))


def multiple_of_p_point(pv, m):
    return TorusPoint(tuple(ratfunc_int_pow(c, m) for c in pv.P.coords))


def character_table(p):
    """Inverse of the (p-1)x(p-1) Vandermonde matrix (a^j) over F_p: the
    character table A[k][a-1] = -a^(-k) of F_p^*, rows k = 0..p-2 and
    columns a = 1..p-1. Its rows k >= sum(c) were the linear part of the
    p-set variety before the one divided-difference equation; the tests
    keep them as an oracle."""
    pv = p.p
    return tuple(tuple((-pow(a, -k, pv)) % pv for a in range(1, pv))
                 for k in range(pv - 1))


def old_pset_variety(pv):
    """pv with its linear equation replaced by the old linear rows in
    G_m^(p-1): row sum(c) of the character table equals 1 and the rows
    above it vanish."""
    n = pv.p.p - 1
    rows = character_table(pv.p)[pv.ell_prime:]
    linear = [tuple((tuple(int(b == a) for b in range(n)),
                     RatFunc.const(w, pv.p)) for a, w in enumerate(row))
              for row in rows]
    linear[0] += (((0,) * n, -RatFunc.one(pv.p)),)
    X = Variety(n, (*linear, *pv.X.equations[1:]))
    return PsetVariety(pv.p, pv.coefficients, X, pv.P, pv.ell_prime,
                       pv.sres)


def variety_exponent_sets(pvs, bound):
    """{m in [0, bound] : [m]P in pv.X} for each pv of pvs, all at one P:
    every equation of pv.X evaluated at the coordinates (t+a)^m by
    PolySystem.vanishes_at, the linear ones at every m and the others
    where the linear ones vanish."""
    systems = []
    for pv in pvs:
        linear = [eq for eq in pv.X.equations
                  if all(sum(ev) <= 1 for ev, _ in eq)]
        rest = [eq for eq in pv.X.equations if eq not in linear]
        systems.append([PolySystem(eqs, pv.p, pv.X.n_vars)
                        for eqs in (linear, rest) if eqs])
    p, bases = pvs[0].p, [c.num.coeffs for c in pvs[0].P.coords]
    coeffs = [[1] for _ in bases]  # coeffs[a - 1]: (t+a)^m, lowest first
    hits = [[] for _ in pvs]
    for m in range(bound + 1):
        xs = [FpPoly(c, p) for c in coeffs]
        for found, system in zip(hits, systems):
            if all(part.vanishes_at(xs) for part in system):
                found.append(m)
        coeffs = [[(a * x + y) % p.p for x, y in zip(c + [0], [0] + c)]
                  for (a, _), c in zip(bases, coeffs)]
    return hits


def slow_exponent_set(pv, bound):
    """exponent_set by the p - 1-coordinate walk: each (t+a)^m packed
    and stepped for every m, every linear row summed over the coordinates,
    and e_1..e_ell' recovered from the first ell' coordinates."""
    p = pv.p.p
    bits = ((p - 1) ** 3).bit_length()
    shift = bits + p.bit_length()
    recip = -(-(1 << shift) // p)
    width = slot_bytes(((1 << bits) - 1) * recip)
    w = 8 * width
    mask = ((1 << (w - shift)) - 1) * (
        ((1 << (w * (bound + 1))) - 1) // ((1 << w) - 1))

    def mod_p(x):
        return x - p * ((x * recip >> shift) & mask)

    a_inv = character_table(pv.p)
    one_row = list(zip(a_inv[pv.ell_prime], range(p - 1)))
    zero_rows = [list(zip(a_inv[k], range(p - 1)))
                 for k in range(pv.ell_prime + 1, p - 1)]
    e_lin, e_const = _symmetric_recovery(pv.p, pv.ell_prime)
    sres = (PolySystem([poly.items() for poly in pv.sres], pv.p,
                       pv.ell_prime) if pv.sres else None)
    xs = [1] * (p - 1)  # xs[a - 1] = (t+a)^m
    hits = []
    for m in range(bound + 1):
        if (mod_p(sum(c * xs[a] for c, a in one_row)) == 1
                and not any(mod_p(sum(c * xs[a] for c, a in row))
                            for row in zero_rows)
                and (sres is None or sres.vanishes_at([
                    FpPoly(unpack_slots(mod_p(e_const[k] + sum(
                        c * x for c, x in zip(e_lin[k], xs))), width,
                        m + 1), pv.p)
                    for k in range(pv.ell_prime)]))):
            hits.append(m)
        if m < bound:
            xs = [mod_p((x << w) + a * x) for a, x in enumerate(xs, 1)]
    return hits


def row_survivors(pv, bound):
    """(m, b, e) for each m in [0, bound] that passes the linear rows:
    b = (t+1)^m packed at 4 bytes per slot, and e_1..e_ell' as FpPolys
    recovered from the coordinates (t+a)^m."""
    p, n, ell = pv.p.p, pv.p.p - 1, pv.ell_prime
    e_lin, e_const = _symmetric_recovery(pv.p, ell)
    for m in range(ell, bound + 1, n):
        binomials = (FpPoly([1, 1], pv.p) ** m).coeffs
        # row k holds the i with m - i = k mod (p-1): row ell is exactly
        # C(m, 0) = 1 and the rows above it vanish
        if all(i == 0 or (m - i) % n < ell
               for i, c in enumerate(binomials) if c):
            xs = [FpPoly([a, 1], pv.p) ** m for a in range(1, p)]
            e = [FpPoly.const(e_const[k], pv.p) + sum(
                (x.scale(c) for c, x in zip(e_lin[k], xs)),
                FpPoly.zero(pv.p)) for k in range(ell)]
            yield m, pack_slots(binomials, 4), e


def e_weights(pv):
    """(g, e_const): e_k = e_const[k] + sum_j g[k][j] (b on the slots
    i = j mod (p-1)), from the recovery of e_k out of the coordinates
    (t+a)^m = sum_i C(m, i) a^(m-i) t^i at the survivors m = ell' mod
    (p-1)."""
    p, n, ell = pv.p.p, pv.p.p - 1, pv.ell_prime
    e_lin, e_const = _symmetric_recovery(pv.p, ell)
    return [[sum(c * pow(a, (ell - j) % n, p) for a, c in enumerate(row, 1))
             % p for j in range(n)] for row in e_lin], e_const


def box_polys(xs, width, fold, p):
    """The coordinates of a digit box as FpPolys: box slot s is t^fold[s],
    or t^s when fold is None (the dense layout)."""
    out = []
    for x in xs:
        if fold is None:
            out.append(FpPoly(unpack_slots(x, width, -(-x.bit_length() // (
                8 * width))), p))
            continue
        coeffs = [0] * (max(fold) + 1)
        for e, v in zip(fold, unpack_slots(x, width, len(fold))):
            coeffs[e] += v
        out.append(FpPoly(coeffs, p))
    return out


def partitions_at_most(total, max_parts, largest=None):
    """The partitions of total into at most max_parts parts, each a sorted
    tuple."""
    if total == 0:
        return [()]
    if max_parts == 0:
        return []
    largest = total if largest is None else largest
    out = []
    for first in range(min(total, largest), 0, -1):
        for rest in partitions_at_most(total - first, max_parts - 1, first):
            out.append(tuple(sorted(rest + (first,))))
    return sorted(set(out))


def merge_coarsenings(parts):
    """All multisets reachable from parts by repeatedly merging two."""
    start = tuple(sorted(parts))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for i in range(len(cur)):
            for j in range(i + 1, len(cur)):
                nxt = tuple(sorted(
                    cur[:i] + cur[i + 1:j] + cur[j + 1:] + (cur[i] + cur[j],)))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def gauss_jordan_inverse(m, p):
    """Inverse of the invertible square matrix m over F_p, by Gauss-Jordan
    elimination: the oracle for the closed forms of constructions."""
    n = len(m)
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class TestClosedForms:
    def test_vandermonde_inverse_is_the_eliminated_inverse(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            v = [[pow(a, j, p) for j in range(p - 1)] for a in range(1, p)]
            assert character_table(PrimeModulus(p)) == \
                gauss_jordan_inverse(v, p)

    def test_node_weights_are_the_eliminated_divided_difference(self):
        # sum_a w_a a^K = [K = count - 1] for K < count: w is the last row
        # of the inverse of the Vandermonde matrix (a^K) at the nodes
        for p in (3, 5, 7, 11, 13):
            for count in range(1, p):
                v = [[pow(a, k, p) for k in range(count)]
                     for a in range(1, count + 1)]
                assert tuple(_node_weights(PrimeModulus(p), count)) == \
                    gauss_jordan_inverse(v, p)[-1]

    def test_symmetric_recovery_is_the_eliminated_inverse(self):
        # M[a-1][k-1] = a^(ell'-k) at the nodes a = 1..ell', and the
        # constants e = -M^-1 (a^ell')_a
        for p in (3, 5, 7, 11, 13):
            for ell in range(1, p - 1):
                minv = gauss_jordan_inverse(
                    [[pow(a, ell - k, p) for k in range(1, ell + 1)]
                     for a in range(1, ell + 1)], p)
                consts = tuple(-sum(row[a - 1] * pow(a, ell, p)
                                    for a in range(1, ell + 1)) % p
                               for row in minv)
                assert _symmetric_recovery(PrimeModulus(p), ell) == (
                    minv, consts)


def buildable_patterns(p):
    """The c, as sorted tuples, that build_pset_variety accepts at p: the
    few-distinct-roots locus of each is the pattern (as checked by
    test_buildable_exactly_when_the_locus_is_the_pattern)."""
    return [c for total in range(1, p - 1)
            for c in partitions_at_most(total, total)
            if set(partitions_at_most(total, len(c))) == merge_coarsenings(c)]


class TestDividedDifference:
    """The one divided-difference equation against the old G_m^(p-1)
    character-table rows."""

    @pytest.mark.parametrize("p", [
        pytest.param(p, id=str(p.p)) for p in (P5, P7, P11, P13)])
    def test_old_and_new_variety_have_equal_exponent_sets(self, p):
        # The linear part depends on sum(c) alone, and the all-ones c
        # reach every sum(c) < p - 1. Subresultant equations grow fast
        # with sum(c) (at p = 7, evaluating c = (1, 1, 1, 2) at its
        # survivors takes seconds, and c = (6) takes about 13 s to build
        # at p = 11), so those c stop at sum(c) = 4.
        n = p.p - 1
        pvs = [build_pset_variety(p, list(c)) for c in buildable_patterns(p.p)
               if len(c) == sum(c) or sum(c) <= 4]
        assert len(pvs) >= n - 1
        for pv in pvs:
            linear, *rest = pv.X.equations
            assert [ev for ev, _ in linear] == [
                tuple(int(b == a) for b in range(n))
                for a in range(pv.ell_prime + 1)] + [(0,) * n]
            assert linear[-1][1] == -RatFunc.one(p)
            assert len(rest) == len(pv.sres)
        sets = variety_exponent_sets(
            pvs + [old_pset_variety(pv) for pv in pvs], 400)
        for pv, got, want in zip(pvs, sets, sets[len(pvs):]):
            assert got == want == exponent_set(pv, 400), pv.coefficients


class TestVandermonde:
    def test_p3_explicit(self):
        assert character_table(P3) == ((2, 2), (2, 1))

    def test_product_is_identity(self):
        for p in (P3, P5, P7, P11):
            a = character_table(p)
            n = p.p - 1
            v = [[pow(av, j, p.p) for j in range(n)]
                 for av in range(1, p.p)]
            prod = [[sum(a[k][i] * v[i][j] for i in range(n)) % p.p
                     for j in range(n)] for k in range(n)]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]

    def test_defining_identity_beyond_one_period(self):
        # the orthogonality relation holds for every j; spot check
        # j = k + (p-1), one period above the product
        for p in (P3, P5, P7):
            a = character_table(p)
            n = p.p - 1
            for k in range(n):
                total = sum(a[k][av - 1] * pow(av, k + n, p.p)
                            for av in range(1, p.p)) % p.p
                assert total == 1

    def test_too_small_prime(self):
        # sum(c) + 1 distinct nonzero nodes need sum(c) < p - 1: none at
        # p = 2
        with pytest.raises(DomainError):
            build_pset_variety(PrimeModulus(2), [1])


class TestBuildPsetVariety:
    def test_simple_membership(self):
        pv = build_pset_variety(P5, [1, 1])
        assert variety_contains(pv.X, multiple_of_p_point(pv, 6))
        assert not variety_contains(pv.X, multiple_of_p_point(pv, 7))

    def test_multiplicity_membership(self):
        pv = build_pset_variety(P7, [1, 2])
        assert variety_contains(pv.X, multiple_of_p_point(pv, 15))
        # digit sum 3 but wrong multiset {1,1,1}
        assert not variety_contains(pv.X, multiple_of_p_point(pv, 57))

    def test_hypothesis_violation(self):
        with pytest.raises(DomainError):
            build_pset_variety(P5, [2, 2])

    def test_unsupported_pattern(self):
        with pytest.raises(ConstructionError):
            build_pset_variety(P7, [2, 2])

    def test_base_point(self):
        pv = build_pset_variety(P5, [1, 1])
        assert [c.num.coeffs for c in pv.P.coords] == \
            [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_pole_exclusion(self):
        for p, c in ((P5, [1, 1]), (P7, [1, 2]), (P5, [1, 1, 1])):
            pv = build_pset_variety(p, c)
            assert not variety_contains(pv.X, multiple_of_p_point(pv, -1))

    def test_more_multiplicity_patterns(self):
        cases = [
            (P5, [2], 300),        # double root, one condition
            (P7, [3], 400),        # triple root, two conditions
            (P11, [1, 1, 2], 400),  # quartic, one condition
            (P13, [1, 2], 250),    # wider packed slots
        ]
        for p, c, bound in cases:
            pv = build_pset_variety(p, c)
            target = pset_of(*((ci, 1) for ci in c))
            assert exponent_set(pv, bound) == pset_enumerate(target, p, bound)

    def test_buildable_exactly_when_the_locus_is_the_pattern(self,
                                                             monkeypatch):
        # by enumeration: the few-distinct-roots locus is the pattern c when
        # every partition of sum(c) into at most len(c) parts is a merge of c
        import pdml.constructions

        class Reached(Exception):
            pass

        def reached(e, count):
            raise Reached

        monkeypatch.setattr(pdml.constructions, "_subresultant_polys", reached)
        verdicts = set()
        for total in range(2, 9):
            for c in partitions_at_most(total, total - 1):
                buildable = set(partitions_at_most(total, len(c))) == (
                    merge_coarsenings(c))
                with pytest.raises(Reached if buildable
                                   else ConstructionError):
                    build_pset_variety(P11, list(c))
                verdicts.add(buildable)
        assert verdicts == {True, False}

    def test_subresultant_gcd_criterion(self):
        # sres_j(u, u') vanish for j < k iff deg gcd(u, u') >= k
        rnd = random.Random(5)
        for _ in range(400):
            p = rnd.choice([5, 7, 11])
            pm = PrimeModulus(p)
            ell_prime = rnd.randint(2, 4)
            if ell_prime >= p - 1:
                continue
            u = FpPoly([1], pm)
            left = ell_prime
            while left:
                mult = rnd.randint(1, left)
                u = u * FpPoly([-rnd.randrange(p) % p, 1], pm) ** mult
                left -= mult
            d_gcd = u.gcd(u.derivative()).degree
            e = [u.coeffs[ell_prime - k] for k in range(ell_prime + 1)]
            for count in range(1, ell_prime):
                vanish = True
                for poly in _subresultant_polys(
                        [_sym_var(k, ell_prime) for k in range(ell_prime)],
                        count):
                    val = 0
                    for ev, coeff in poly.items():
                        term = coeff
                        for k, power in enumerate(ev):
                            term *= e[k + 1] ** power
                        val += term
                    if val % p:
                        vanish = False
                        break
                assert vanish == (d_gcd >= count)


def mutated(pv, index):
    """pv with the first coefficient of equation `index` moved by one."""
    eqs = list(pv.X.equations)
    (ev, coeff), *rest = eqs[index]
    eqs[index] = ((ev, coeff + RatFunc.one(pv.p)), *rest)
    return PsetVariety(pv.p, pv.coefficients, Variety(pv.X.n_vars, tuple(eqs)),
                       pv.P, pv.ell_prime, pv.sres)


def as_point(coords):
    return TorusPoint(tuple(RatFunc(c) for c in coords))


SELF_CHECK_CASES = [
    pytest.param(p, c, id=f"{p.p}-{','.join(map(str, c))}")
    for p, c in ((P5, [1, 1]), (P7, [1, 2]), (P11, [1, 1]), (P7, [1, 1, 2]))]


class TestPackedEvaluator:
    """PolySystem against torus.variety_contains, the dense oracle."""

    @pytest.mark.parametrize("p,c", SELF_CHECK_CASES)
    def test_agrees_on_self_check_points(self, p, c):
        pv = build_pset_variety(p, c)
        system = PolySystem(pv.X.equations, p, pv.X.n_vars)
        pairs = list(_self_check_points(pv, system.top))
        assert len(pairs) == 50
        for member, twist in pairs:
            assert system.vanishes_at(member)
            assert variety_contains(pv.X, as_point(member))
            assert not system.vanishes_at(twist)
            assert not variety_contains(pv.X, as_point(twist))

    def test_agrees_off_the_variety(self):
        # each equation alone, at multiples of P (on the linear rows, some
        # on the variety) and at random polynomial points
        pv = build_pset_variety(P7, [1, 1, 2])
        rng = random.Random(3)
        points = [[c.num for c in multiple_of_p_point(pv, m).coords]
                  for m in range(12)]
        points += [[FpPoly([rng.randrange(7) for _ in range(4)], P7)
                    for _ in range(6)] for _ in range(4)]
        for k in range(len(pv.X.equations)):
            sub = Variety(6, pv.X.equations[k:k + 1])
            system = PolySystem(sub.equations, P7, 6)
            for pt in points:
                assert system.vanishes_at(pt) == variety_contains(
                    sub, as_point(pt))

    @pytest.mark.parametrize("p,c", SELF_CHECK_CASES)
    def test_mutated_coefficient_fails_self_check(self, p, c):
        pv = build_pset_variety(p, c)
        _self_check(pv)
        for index in range(len(pv.X.equations)):
            with pytest.raises(InternalError):
                _self_check(mutated(pv, index))

    def test_mutated_equation_exits_5(self, monkeypatch, capsys):
        import pdml.constructions
        from pdml.cli import main

        emit = pdml.constructions._subresultant_polys

        def off_by_one(e, count):
            polys = emit(e, count)
            if len(next(iter(e[0]))) == 6:  # the forms e_k(x) over G_m^6
                ev = min(polys[0])
                polys[0] = {**polys[0], ev: polys[0][ev] + 1}
            return polys

        monkeypatch.setattr(pdml.constructions, "_subresultant_polys",
                            off_by_one)
        assert main(["exponent-set", "--p", "7", "--c", "1,2",
                     "--bound", "10"]) == 5
        assert capsys.readouterr().err == (
            "internal invariant failure: parametrized point violates "
            "equations\n")

    def test_denominator_raises(self):
        x = RatFunc(FpPoly([0, 1], P5), FpPoly([1, 1], P5))
        # x1 - x2 vanishes at (x, x); the evaluator refuses, not accepts
        eq = (((1, 0), RatFunc.one(P5)), ((0, 1), -RatFunc.one(P5)))
        assert variety_contains(Variety(2, (eq,)), TorusPoint((x, x)))
        system = PolySystem((eq,), P5, 2)
        with pytest.raises(InternalError):
            system.vanishes_at([x, x])
        t = FpPoly([0, 1], P5)
        assert system.vanishes_at([RatFunc(t), t])

    def test_non_constant_coefficient_raises(self):
        eq = (((1,), RatFunc(FpPoly([0, 1], P5))), ((0,), RatFunc.one(P5)))
        with pytest.raises(InternalError):
            PolySystem((eq,), P5, 1)
        with pytest.raises(InternalError):
            PolySystem(((((1,), RatFunc.const(1, P7)),),), P5, 1)

    def test_negative_exponent_raises(self):
        # x1^-1 - x2: a Laurent equation the dense oracle accepts
        eq = (((-1, 0), RatFunc.one(P5)), ((0, 1), -RatFunc.one(P5)))
        with pytest.raises(InternalError):
            PolySystem((eq,), P5, 2)

    def test_wrong_dimension_raises(self):
        system = PolySystem(((((1, 0), 1),),), P5, 2)
        with pytest.raises(InternalError):
            system.vanishes_at([FpPoly.one(P5)])
        with pytest.raises(InternalError):
            PolySystem(((((1,), 1),),), P5, 2)

    def test_integer_coefficients_reduced_mod_p(self):
        # 7 x^2 - 3 x y - 4 over F_5, coefficients outside [0, p)
        system = PolySystem(({(2, 0): 7, (1, 1): -3, (0, 0): -4}.items(),),
                            P5, 2)
        rng = random.Random(5)
        for _ in range(40):
            x, y = (FpPoly([rng.randrange(5) for _ in range(rng.randint(
                0, 3))], P5) for _ in range(2))
            value = (x * x).scale(7) - (x * y).scale(3) - FpPoly.const(4, P5)
            assert system.vanishes_at([x, y]) == value.is_zero()
        const = [FpPoly.const(a, P5) for a in (2, 4)]
        assert system.vanishes_at(const)  # 28 - 24 - 4 = 0

    def test_fold_adds_slots_that_share_a_power_of_t(self):
        # x_0 with slots 1 and p - 1 both standing for t^0 sums to p = 0
        system = PolySystem(((((1,), 1),),), P7, 1)
        x = pack_slots([1, 6], 1)
        assert system.vanishes_packed([x], 1, [0, 0])
        assert not system.vanishes_packed([x], 1, [0, 1])
        assert not system.vanishes_packed([x], 1)

    def test_checks_survive_optimize(self):
        # no check of the evaluator or the self-check is an assert
        code = (
            "from math import comb\n"
            "from pdml.constructions import (PolySystem, PsetVariety, "
            "_self_check, _survivor_point, build_pset_variety)\n"
            "from pdml.errors import InternalError\n"
            "from pdml.exact import FpPoly, PrimeModulus, RatFunc\n"
            "from pdml.torus import Variety\n"
            "p = PrimeModulus(7)\n"
            "pv = build_pset_variety(p, [1, 2])\n"
            "eqs = list(pv.X.equations)\n"
            "(ev, c), *rest = eqs[-1]\n"
            "eqs[-1] = ((ev, c + RatFunc.one(p)), *rest)\n"
            "bad = PsetVariety(p, pv.coefficients, Variety(6, tuple(eqs)), "
            "pv.P, pv.ell_prime, pv.sres)\n"
            "system = PolySystem(pv.X.equations, p, 6)\n"
            "x = RatFunc(FpPoly([1], p), FpPoly([0, 1], p))\n"
            "sres = PolySystem([q.items() for q in pv.sres], p, 3)\n"
            "b = sum(comb(9, i) % 7 << 32 * i for i in range(10))\n"
            "for call in (lambda: _self_check(bad),\n"
            "             lambda: system.vanishes_at([x] * 6),\n"
            "             lambda: _survivor_point(sres, b + (1 << 96), 9, "
            "32)):\n"
            "    try:\n"
            "        call()\n"
            "    except InternalError:\n"
            "        continue\n"
            "    raise SystemExit('accepted')\n")
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestExponentSet:
    def test_two_powers_of_five(self):
        pv = build_pset_variety(P5, [1, 1])
        assert exponent_set(pv, 30) == [2, 6, 10, 26, 30]

    def test_empty_below_minimum(self):
        pv = build_pset_variety(P5, [1, 1])
        assert exponent_set(pv, 1) == []

    def test_with_multiplicity(self):
        pv = build_pset_variety(P7, [1, 2])
        assert exponent_set(pv, 25) == [3, 9, 15, 21]

    def test_matches_pset_enumerate(self):
        cases = [(P5, [1, 1], 700), (P7, [1, 2], 400), (P3, [1], 250)]
        for p, c, bound in cases:
            pv = build_pset_variety(p, c)
            target = pset_of(*((ci, 1) for ci in c))
            assert exponent_set(pv, bound) == pset_enumerate(target, p, bound)

    def test_matches_generic_variety_evaluation(self):
        pv = build_pset_variety(P5, [1, 1])
        direct = [m for m in range(80)
                  if variety_contains(pv.X, multiple_of_p_point(pv, m))]
        assert exponent_set(pv, 79) == direct

    def test_multiplicity_matches_generic_variety_evaluation(self):
        pv = build_pset_variety(P7, [1, 2])
        direct = [m for m in range(60)
                  if variety_contains(pv.X, multiple_of_p_point(pv, m))]
        assert exponent_set(pv, 59) == direct == [3, 9, 15, 21, 51]

    # the (p, c) of test_more_multiplicity_patterns and
    # test_matches_pset_enumerate
    @pytest.mark.parametrize("p,c", [
        pytest.param(p, c, id=f"{p.p}-{','.join(map(str, c))}")
        for p, c in ((P5, [2]), (P7, [3]), (P11, [1, 1, 2]), (P13, [1, 2]),
                     (P5, [1, 1]), (P7, [1, 2]), (P3, [1]), (P7, [1, 1, 2]),
                     (P13, [1, 1, 2]))])
    def test_matches_coordinate_walk(self, p, c):
        pv = build_pset_variety(p, c)
        q = p.p
        bounds = {0, 1, q - 2, q - 1}
        for k in range(1, 5):
            bounds |= {q ** k - 1, q ** k + 1} if q ** k < 1500 else set()
        rng = random.Random(q * 100 + sum(c))
        bounds |= {rng.randrange(1501) for _ in range(2)}
        for bound in sorted(bounds):
            assert exponent_set(pv, bound) == slow_exponent_set(pv, bound), \
                bound

    @pytest.mark.parametrize("p,c", [
        pytest.param(p, c, id=f"{p.p}-{','.join(map(str, c))}")
        for p, c in ((P7, [1, 2]), (P7, [1, 1, 2]), (P5, [2]))])
    def test_box_agrees_with_dense_vanishes_at(self, p, c):
        # the box on every survivor, against dense vanishes_at on the e_k
        # recovered from the coordinates; the box holds those e_k, which
        # are also b weighted by residue class
        pv = build_pset_variety(p, c)
        sres = PolySystem([poly.items() for poly in pv.sres], p,
                          pv.ell_prime)
        g, e_const = e_weights(pv)
        n = p.p - 1
        count = hits = 0
        for m, b, e in row_survivors(pv, 1500):
            box = _survivor_point(sres, b, m, 32)
            slots = unpack_slots(b, 4, m + 1)
            weighted = [FpPoly([(gk[i % n] * v + (e0 if i == 0 else 0))
                                % p.p for i, v in enumerate(slots)], p)
                        for gk, e0 in zip(g, e_const)]
            assert box_polys(*box, p) == weighted == e, m
            want = sres.vanishes_at(e)
            assert sres.vanishes_packed(*box) == want, m
            count += 1
            hits += want
        assert count >= 4 and 0 < hits < count

    def test_box_fold_gives_each_slot_its_power_of_t(self):
        # slot sum k_l R_l of the box stands for t^(sum k_l p^l); where the
        # D m + 1 dense slots are fewer, they are the layout (fold None)
        pv = build_pset_variety(P7, [1, 2])
        sres = PolySystem([poly.items() for poly in pv.sres], P7, 3)
        layouts = set()
        for m, b, _ in row_survivors(pv, 342):  # m < 7^3
            *_, fold = _survivor_point(sres, b, m, 32)
            digits = [m // 7 ** l % 7 for l in range(3) if 7 ** l <= m]
            radices = [sres.degree * d + 1 for d in digits]
            dense = sres.degree * m + 1
            layouts.add(fold is None)
            if fold is None:
                assert dense < math.prod(radices), m
                continue
            assert len(fold) == math.prod(radices) <= dense, m
            for s, e in enumerate(fold):
                ks = [s // math.prod(radices[:l]) % r
                      for l, r in enumerate(radices)]
                assert e == sum(k * 7 ** l for l, k in enumerate(ks))
        assert layouts == {True, False}

    def test_slot_off_the_lucas_positions_raises(self):
        # m = 9 has base-7 digits (2, 1); 3 = (3, 0) is not below them
        pv = build_pset_variety(P7, [1, 2])
        sres = PolySystem([poly.items() for poly in pv.sres], P7, 3)
        (m, b, _), = (s for s in row_survivors(pv, 9) if s[0] == 9)
        _survivor_point(sres, b, m, 32)
        with pytest.raises(InternalError):
            _survivor_point(sres, b + (1 << 32 * 3), m, 32)
        # m = 10, digits (3, 1), has digit sum 4, not sum(c) = 3
        ten = pack_slots((FpPoly([1, 1], P7) ** 10).coeffs, 4)
        with pytest.raises(InternalError):
            _survivor_point(sres, ten, 10, 32)

    def test_bound_over_degree_cap(self):
        pv = build_pset_variety(P5, [1, 1])
        with pytest.raises(ResourceLimitError):
            exponent_set(pv, 10 ** 6)

    def test_cap_guards_the_box_not_the_dense_product(self, monkeypatch):
        import pdml.exact

        # D = 4: the dense products of survivors m > 249 would have more
        # than 1000 coefficients, but their digit boxes hold at most 5^3
        pv = build_pset_variety(P7, [1, 2])
        want = exponent_set(pv, 800)
        monkeypatch.setattr(pdml.exact, "_DEGREE_CAP", 1000)
        assert exponent_set(pv, 800) == want
        # m = 15, digits (1, 2), has a box of 5 * 9 slots and 61 dense ones
        monkeypatch.setattr(pdml.exact, "_DEGREE_CAP", 40)
        with pytest.raises(ResourceLimitError):
            exponent_set(pv, 39)


class TestEncodeLrs:
    def test_fibonacci_projection(self):
        t1 = RatFunc(FpPoly([1, 1], P5))
        enc = encode_lrs(fibonacci(), t1, P5)
        assert encoding_exponent(enc, 6) == 8
        assert ratfunc_int_pow(enc.base_point, encoding_exponent(enc, 6)) == \
            ratfunc_int_pow(t1, 8)

    def test_constant_sequence(self):
        t1 = RatFunc(FpPoly([1, 1], P5))
        enc = encode_lrs(constant(7), t1, P5)
        assert enc.N == 1
        assert enc.phi_matrix == ((1,),)
        assert enc.Q.coords[0] == ratfunc_int_pow(t1, 7)
        assert all(encoding_exponent(enc, n) == 7 for n in range(6))

    def test_three_pow_minus_two(self):
        t1 = RatFunc(FpPoly([1, 1], P5))
        enc = encode_lrs(Lrs((3, -4), (-1, 1)), t1, P5)
        assert encoding_exponent(enc, 3) == 25

    def test_identity_randomized(self):
        rnd = random.Random(1234)
        for _ in range(20):
            p = rnd.choice([P3, P5])
            d = rnd.randint(1, 4)
            u = Lrs(tuple(rnd.randint(-3, 3) for _ in range(d)),
                    tuple(rnd.randint(-5, 5) for _ in range(d)))
            base = RatFunc(FpPoly([1, 1], p))
            enc = encode_lrs(u, base, p)
            vals = lrs_prefix(u, 25)
            for n in range(26):
                assert encoding_exponent(enc, n) == vals[n]
            # torus-level equality spot check where degrees stay small
            for n in range(26):
                if abs(vals[n]) <= 300:
                    assert ratfunc_int_pow(
                        enc.base_point, encoding_exponent(enc, n)) == \
                        ratfunc_int_pow(base, vals[n])


class TestDmlInstance:
    def test_linear_sequence_return_set(self):
        phi, start, variety = dml_instance(Lrs((1, -2), (0, 1)), P5, [1, 1])
        assert return_set(phi, start, variety, 40) == [2, 6, 10, 26, 30]

    def test_fibonacci_equivalence(self):
        phi, start, variety = dml_instance(fibonacci(), P5, [1, 1])
        hits = return_set(phi, start, variety, 40)
        inst = PexpInstance(fibonacci(), P5, ((1, 1), (1, 1)))
        assert hits == sorted(pexp_solution_set(inst, 40))
        assert hits == [3]

    def test_constant_two_everywhere(self):
        phi, start, variety = dml_instance(constant(2), P5, [1, 1])
        assert return_set(phi, start, variety, 12) == list(range(13))

    def test_equivalence_randomized(self):
        rnd = random.Random(5150)
        for _ in range(8):
            p = rnd.choice([P3, P5])
            kind = rnd.randrange(3)
            if kind == 0:
                u = constant(rnd.randint(-3, 6))
            elif kind == 1:
                u = Lrs((1, -2), (rnd.randint(0, 3), rnd.randint(1, 3)))
            else:
                u = Lrs((rnd.choice([-2, 2, 3]),), (rnd.choice([1, 2]),))
            c = [1] * rnd.randint(1, min(2, p.p - 2))
            phi, start, variety = dml_instance(u, p, c)
            hits = return_set(phi, start, variety, 25)
            inst = PexpInstance(u, p, tuple((ci, 1) for ci in c))
            assert hits == sorted(pexp_solution_set(inst, 25))

    def test_block_structure(self):
        phi, start, variety = dml_instance(fibonacci(), P5, [1, 1])
        assert phi.dim == 8
        assert phi.is_endomorphism()
        assert variety.n_vars == 8

    def test_multiplicity_coefficients_end_to_end(self):
        # the pulled-back subresultant equations ride along
        un = Lrs((1, -2), (0, 1))
        phi, start, variety = dml_instance(un, P7, [1, 2])
        hits = return_set(phi, start, variety, 60)
        inst = PexpInstance(un, P7, ((1, 1), (2, 1)))
        assert hits == sorted(pexp_solution_set(inst, 60))
        assert hits == [3, 9, 15, 21, 51]
        phi2, start2, v2 = dml_instance(fibonacci(), P7, [1, 2])
        hits2 = return_set(phi2, start2, v2, 12)
        inst2 = PexpInstance(fibonacci(), P7, ((1, 1), (2, 1)))
        assert hits2 == sorted(pexp_solution_set(inst2, 12)) == [4, 8]

    def test_power_of_p_plus_two_every_n(self):
        # u_n = 7^n + 2 = 1 * 7^n + 2 * 7^0 at c = (1, 2): every n is a hit.
        # The subresultant equation's exponent has 41 base-7 digits at
        # n = 40, but only two nonzero ones, so its digit box has 9 * 5
        # slots where the dense layout would need 4 * u_40 + 1.
        u = Lrs((7, -8), (3, 9))
        assert lrs_prefix(u, 40)[40] == 7 ** 40 + 2
        hits = return_set(*dml_instance(u, P7, [1, 2]), 40)
        inst = PexpInstance(u, P7, ((1, 1), (2, 1)))
        assert hits == sorted(pexp_solution_set(inst, 40)) == list(range(41))
