import random
import time
from fractions import Fraction

import pytest

import pdml.torus as torus_mod
from pdml.constructions import dml_instance
from pdml.errors import UsageError
from pdml.exact import FpPoly, PrimeModulus, RatFunc, ratfunc_int_pow
from pdml.lrs import (Lrs, _cyclotomic_orders, _synthetic_div,
                      char_poly_of_matrix, distinct_blocks, lrs_char_roots,
                      lrs_prefix, lrs_root_p_dependence, mat_mul, mat_pow)
from pdml.torus import (
    Factored,
    ObstructionVerdict,
    ReductionData,
    TorusPoint,
    TorusSelfMap,
    Variety,
    _basis,
    _combine,
    _rows,
    classify_hits,
    endo_apply,
    factor_point,
    frobenius_obstruction,
    full_pipeline,
    minimal_polynomial,
    reduction_decompose,
    return_set,
    selfmap_iterate,
    variety_contains,
    verify_reduction,
)

P3, P5 = PrimeModulus(3), PrimeModulus(5)


def t(p=P5):
    return RatFunc(FpPoly([0, 1], p))


def t_plus(c, p=P5):
    return RatFunc(FpPoly([c, 1], p))


def const(c, p=P5):
    return RatFunc.const(c, p)


def expand(f):
    """The Factored value f as a RatFunc, by dense products."""
    out = RatFunc.const(f.unit, f.p)
    for key, e in f.powers.items():
        out = out * ratfunc_int_pow(RatFunc(FpPoly(key, f.p)), e)
    return out


def coord_pool(p):
    return [t(p), t_plus(1, p), const(2, p), t_plus(1, p).inv()]


class TestEndoApply:
    def test_identity(self):
        x = TorusPoint((t(), t_plus(1)))
        assert endo_apply([[1, 0], [0, 1]], x).coords == x.coords

    def test_p_times_identity_is_frobenius(self):
        x = TorusPoint((t_plus(1),))
        out = endo_apply([[5]], x)
        assert out.coords[0] == ratfunc_int_pow(t_plus(1), 5)

    def test_shear(self):
        out = endo_apply([[1, 1], [0, 1]], TorusPoint((t(), t_plus(1))))
        assert out.coords[0] == t() * t_plus(1)
        assert out.coords[1] == t_plus(1)

    def test_negative_entries_use_inverses(self):
        out = endo_apply([[-1]], TorusPoint((t_plus(1),)))
        assert out.coords[0] == t_plus(1).inv()

    def test_identity_point_is_returned_unchanged(self, monkeypatch):
        one = TorusPoint.identity(3, P5)
        monkeypatch.setattr(torus_mod, "ratfunc_int_pow", None)
        assert endo_apply([[2, -1, 0], [0, 7, 1], [1, 1, 1]], one) is one
        with pytest.raises(UsageError):
            endo_apply([[1, 0], [0, 1]], one)

    def test_reduction_data_matches_full_products(self, monkeypatch):
        # reduction_decompose with endo_apply raising every coordinate to
        # its power, identity points included, as the reference
        def full_endo_apply(matrix, x):
            coords = []
            for row in matrix:
                acc = RatFunc.one(x.modulus)
                for e, xj in zip(row, x.coords):
                    if e:
                        acc = acc * ratfunc_int_pow(xj, e)
                coords.append(acc)
            return TorusPoint(tuple(coords))

        rnd = random.Random(41)
        pool = coord_pool(P5)
        for _ in range(40):
            n = rnd.randint(1, 3)
            matrix = [[rnd.randint(-2, 3) for _ in range(n)]
                      for _ in range(n)]
            alpha = TorusPoint(tuple(rnd.choice(pool) for _ in range(n)))
            for y in (TorusPoint.identity(n, P5),
                      TorusPoint(tuple(rnd.choice(pool) for _ in range(n)))):
                phi = TorusSelfMap(matrix, y)
                rd = reduction_decompose(phi, alpha)
                with monkeypatch.context() as m:
                    m.setattr(torus_mod, "endo_apply", full_endo_apply)
                    assert reduction_decompose(phi, alpha) == rd


class TestIterate:
    def test_zero_iterations(self):
        phi = TorusSelfMap(((2,),), TorusPoint((t(),)))
        alpha = TorusPoint((RatFunc.one(P5),))
        assert selfmap_iterate(phi, alpha, 0).coords == alpha.coords

    def test_frobenius_orbit(self):
        phi = TorusSelfMap.endomorphism([[5]], P5)
        out = selfmap_iterate(phi, TorusPoint((t_plus(1),)), 2)
        assert out.coords[0] == ratfunc_int_pow(t_plus(1), 5 ** 2)

    def test_affine_orbit(self):
        # Phi(x) = t*x^2 from 1: t^(2^n - 1)
        phi = TorusSelfMap(((2,),), TorusPoint((t(),)))
        alpha = TorusPoint((RatFunc.one(P5),))
        out = selfmap_iterate(phi, alpha, 3)
        assert out.coords[0] == ratfunc_int_pow(t(), 7)

    def test_power_law_randomized(self):
        rnd = random.Random(6)
        for _ in range(20):
            p = rnd.choice([P3, P5])
            n_dim = rnd.randint(1, 2)
            mat = tuple(tuple(rnd.randint(-2, 2) for _ in range(n_dim))
                        for _ in range(n_dim))
            pool = coord_pool(p)
            phi = TorusSelfMap(mat, TorusPoint(
                tuple(rnd.choice(pool) for _ in range(n_dim))))
            alpha = TorusPoint(tuple(rnd.choice(pool) for _ in range(n_dim)))
            m, n = rnd.randint(0, 4), rnd.randint(0, 4)
            lhs = selfmap_iterate(phi, alpha, m + n)
            rhs = selfmap_iterate(phi, selfmap_iterate(phi, alpha, n), m)
            assert lhs.coords == rhs.coords


class TestVariety:
    def test_empty_is_whole_torus(self):
        v = Variety(1, ())
        assert variety_contains(v, TorusPoint((t(),)))

    def test_diagonal(self):
        v = Variety(2, ((((1, 0), RatFunc.one(P5)),
                         ((0, 1), -RatFunc.one(P5))),))
        assert variety_contains(v, TorusPoint((t(), t())))
        assert not variety_contains(v, TorusPoint((t(), t_plus(1))))

    def test_product_one(self):
        v = Variety(2, ((((1, 1), RatFunc.one(P5)),
                         ((0, 0), -RatFunc.one(P5))),))
        assert variety_contains(v, TorusPoint((t_plus(1), t_plus(1).inv())))


class TestReturnSet:
    def test_whole_torus(self):
        phi = TorusSelfMap(((1,),), TorusPoint((t(),)))
        assert return_set(phi, TorusPoint((t(),)), Variety(1, ()), 7) == \
            list(range(8))

    def test_monomial_hit(self):
        phi = TorusSelfMap(((1,),), TorusPoint((t(),)))
        v = Variety(1, ((((1,), RatFunc.one(P5)),
                         ((0,), -ratfunc_int_pow(t(), 3))),))
        assert return_set(phi, TorusPoint((RatFunc.one(P5),)), v, 10) == [3]

    def test_monotone_prefix(self):
        phi = TorusSelfMap(((2,),), TorusPoint((t(),)))
        v = Variety(1, ((((1,), RatFunc.one(P5)),
                         ((0,), -ratfunc_int_pow(t(), 7))),))
        small = return_set(phi, TorusPoint((RatFunc.one(P5),)), v, 5)
        big = return_set(phi, TorusPoint((RatFunc.one(P5),)), v, 12)
        assert [n for n in big if n <= 5] == small

    def test_factored_path_matches_dense(self):
        # pure endomorphism with factorable start: compare both paths
        phi = TorusSelfMap.endomorphism([[2]], P5)
        alpha = TorusPoint((t_plus(1),))
        v = Variety(1, ((((1,), RatFunc.one(P5)),
                         ((0,), -ratfunc_int_pow(t_plus(1), 8))),))
        fast = return_set(phi, alpha, v, 8)
        dense = [n for n in range(9) if variety_contains(
            v, selfmap_iterate(phi, alpha, n))]
        assert fast == dense == [3]


class TestFactored:
    def test_round_trip(self):
        x = t_plus(1) * t_plus(2) * t_plus(1) / t()
        f = Factored.from_ratfunc(x)
        assert f is not None
        assert expand(f) == x

    def test_equality_across_forms(self):
        a = Factored.from_ratfunc(t_plus(1) * t_plus(1))
        f = Factored.from_ratfunc(t_plus(1))
        basis = _basis([a, f])
        b = _combine((1, 0), [(0, 2)], _rows([f], basis, 1), 5)
        assert _rows([a], basis, 1)[0] == b

    def test_unit_torsion(self):
        two = Factored.from_ratfunc(const(2))
        # 2^4 = 16 = 1 mod 5
        assert _combine((1, 0), [(0, 4)], _rows([two], [], 1), 5)[0] == 1

    def test_irreducible_quadratic(self):
        # t^2 + 2 has no roots mod 5
        x = RatFunc(FpPoly([2, 0, 1], P5))
        f = Factored.from_ratfunc(x)
        assert f is not None and expand(f) == x

    def test_degree_four_rejected(self):
        # (t^2+2)(t^2+3) is root-free of degree 4 and still splits
        x = RatFunc(FpPoly([2, 0, 1], P5) * FpPoly([3, 0, 1], P5))
        f = Factored.from_ratfunc(x)
        assert f.unit == 1
        assert f.powers == {(2, 0, 1): 1, (3, 0, 1): 1}

    def test_factor_point(self):
        pt = TorusPoint((t(), t_plus(1).inv(), const(2)))
        fs = factor_point(pt)
        assert fs is not None
        assert [expand(f) for f in fs] == list(pt.coords)


class TestFactorCache:
    def _instance(self):
        phi = TorusSelfMap(((0, -1), (1, 0)),
                           TorusPoint((const(2), t_plus(1))))
        alpha = TorusPoint((t_plus(1) * t_plus(2), t_plus(3).inv()))
        v = Variety(2, ((((1, 0), RatFunc.one(P5)),
                         ((0, 0), -alpha.coords[0])),))
        return phi, alpha, v, reduction_decompose(phi, alpha)

    def test_second_analysis_factors_nothing(self, monkeypatch):
        calls = []
        real = Factored.from_ratfunc

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(Factored, "from_ratfunc", staticmethod(counting))
        ops = (lambda phi, alpha, v, rd: return_set(phi, alpha, v, 8),
               lambda phi, alpha, v, rd: full_pipeline(phi, alpha, v, 8),
               lambda phi, alpha, v, rd: verify_reduction(rd, phi, alpha, 8))
        for op in ops:
            inst = self._instance()
            first = op(*inst)
            made = len(calls)
            assert made > 0
            assert op(*inst) == first
            assert len(calls) == made

    def test_map_derives_once_for_many_start_points(self, monkeypatch):
        """Five start points on one dml_instance map share its reduction,
        obstruction verdict and power bounds, and get what a fresh equal
        map gives; each (r_max, s_max) window keeps its own verdict."""
        calls = {"minimal_polynomial": 0, "frobenius_obstruction": 0}
        for name in calls:
            def counting(*args, _real=getattr(torus_mod, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(torus_mod, name, counting)
        # u_(n+2) = -u_n: A^4 = I, so the default window finds (4, 0)
        n_max = 24
        instances = [dml_instance(Lrs((1, 0), (s, s + 1)), P5, [1, 1])
                     for s in range(5)]
        phi = instances[0][0]

        def analyse(phi, alpha, v):
            return (return_set(phi, alpha, v, n_max),
                    full_pipeline(phi, alpha, v, n_max),
                    verify_reduction(reduction_decompose(phi, alpha), phi,
                                     alpha, n_max))

        shared = [analyse(phi, alpha, v) for _, alpha, v in instances]
        assert calls == {"minimal_polynomial": 1, "frobenius_obstruction": 1}
        assert any(hits for hits, _, _ in shared)
        assert all(verified for _, _, verified in shared)
        for (_, alpha, v), got in zip(instances, shared):
            fresh = TorusSelfMap(phi.matrix, phi.translation)
            assert fresh == phi and not fresh._derived
            assert analyse(fresh, alpha, v) == got
        hits = shared[1][0]
        calls["frobenius_obstruction"] = 0
        for _ in range(2):
            narrow = classify_hits(phi, hits, n_max, r_max=3, s_max=2)
            wide = classify_hits(phi, hits, n_max)
        assert narrow.notes == ("no Frobenius obstruction: "
                                "clear-to-bound(3,2); progressions-only shape",)
        assert wide.notes == ("obstructed(4,0)",)
        assert calls["frobenius_obstruction"] == 1

    def test_cache_is_invisible(self):
        from pdml.serial import torus_instance_to_text

        phi, alpha, v, _ = self._instance()
        twin_phi, twin_alpha, twin_v, _ = self._instance()
        text = torus_instance_to_text(P5, phi, alpha, v, 8)
        reprs = (repr(alpha), repr(v))
        return_set(phi, alpha, v, 8)
        assert alpha._derived and v._derived and not twin_alpha._derived
        assert alpha == twin_alpha and hash(alpha) == hash(twin_alpha)
        assert v == twin_v and hash(v) == hash(twin_v)
        assert phi == twin_phi and hash(phi) == hash(twin_phi)
        assert (repr(alpha), repr(v)) == reprs == (repr(twin_alpha),
                                                   repr(twin_v))
        assert torus_instance_to_text(P5, phi, alpha, v, 8) == text == \
            torus_instance_to_text(P5, twin_phi, twin_alpha, twin_v, 8)


class TestMinimalPolynomial:
    def test_scaled_identity(self):
        assert minimal_polynomial([[5, 0], [0, 5]]) == (-5, 1)

    def test_identity(self):
        assert minimal_polynomial([[1, 0], [0, 1]]) == (-1, 1)

    def test_fibonacci_companion(self):
        assert minimal_polynomial([[0, 1], [1, 1]]) == (-1, -1, 1)

    def test_zero_matrix(self):
        assert minimal_polynomial([[0]]) == (0, 1)

    def test_cayley_hamilton(self):
        rnd = random.Random(8)
        for _ in range(30):
            n = rnd.randint(1, 3)
            a = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            poly = minimal_polynomial(a)
            acc = [[0] * n for _ in range(n)]
            power = [[int(i == j) for j in range(n)] for i in range(n)]
            for c in poly:
                for i in range(n):
                    for j in range(n):
                        acc[i][j] += c * power[i][j]
                power = mat_mul(power, a)
            assert all(x == 0 for row in acc for x in row)


class TestReduction:
    def test_closed_form_order_one(self):
        phi = TorusSelfMap(((2,),), TorusPoint((t(),)))
        alpha = TorusPoint((t_plus(1),))
        rd = reduction_decompose(phi, alpha)
        assert rd.minpoly == (-2, 1)
        assert lrs_prefix(rd.v_seqs[0], 5) == [1, 2, 4, 8, 16, 32]
        assert lrs_prefix(rd.u_seqs[0], 5) == [0, 1, 3, 7, 15, 31]
        assert verify_reduction(rd, phi, alpha, 20)

    def test_pure_endomorphism(self):
        phi = TorusSelfMap.endomorphism([[5]], P5)
        alpha = TorusPoint((t_plus(1),))
        rd = reduction_decompose(phi, alpha)
        assert lrs_prefix(rd.v_seqs[0], 4) == [1, 5, 25, 125, 625]
        assert verify_reduction(rd, phi, alpha, 6)

    def test_corrupted_sequence_fails(self):
        from pdml.lrs import Lrs

        phi = TorusSelfMap(((2,),), TorusPoint((t(),)))
        alpha = TorusPoint((t_plus(1),))
        rd = reduction_decompose(phi, alpha)
        bad = ReductionData(rd.minpoly,
                            (Lrs(rd.u_seqs[0].rec_coeffs, (1, 2)),),
                            rd.v_seqs, rd.q_points)
        assert not verify_reduction(bad, phi, alpha, 5)

    def test_corrupted_point_or_v_sequence_fails(self):
        from pdml.lrs import Lrs

        phi = TorusSelfMap(((0, -1), (1, 1)), TorusPoint((t(), const(2))))
        alpha = TorusPoint((t_plus(1), const(3) * t_plus(2).inv()))
        rd = reduction_decompose(phi, alpha)
        assert verify_reduction(rd, phi, alpha, 8)
        q0 = rd.q_points[0]
        for bad_q in (TorusPoint((q0.coords[0] * t_plus(3), q0.coords[1])),
                      TorusPoint((q0.coords[0], q0.coords[1] * const(4)))):
            bad = ReductionData(rd.minpoly, rd.u_seqs, rd.v_seqs,
                                (bad_q,) + rd.q_points[1:])
            assert not verify_reduction(bad, phi, alpha, 8)
        v1 = rd.v_seqs[1]
        bad = ReductionData(rd.minpoly, rd.u_seqs,
                            (rd.v_seqs[0], Lrs(v1.rec_coeffs, (0, 2))),
                            rd.q_points)
        assert not verify_reduction(bad, phi, alpha, 8)

    def test_randomized(self):
        rnd = random.Random(99)
        for _ in range(20):
            p = rnd.choice([P3, P5])
            n_dim = rnd.randint(1, 3)
            mat = tuple(tuple(rnd.randint(-2, 2) for _ in range(n_dim))
                        for _ in range(n_dim))
            pool = coord_pool(p)
            phi = TorusSelfMap(mat, TorusPoint(
                tuple(rnd.choice(pool) for _ in range(n_dim))))
            alpha = TorusPoint(tuple(rnd.choice(pool) for _ in range(n_dim)))
            rd = reduction_decompose(phi, alpha)
            assert verify_reduction(rd, phi, alpha, 30)


def _eager_minimal_polynomial(a):
    """Reference: every power A^0..A^n first, then the least dependency."""
    n = len(a)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], a))
    vecs = [[Fraction(x) for row in pk for x in row] for pk in powers]
    for l in range(1, n + 1):
        sol = torus_mod._solve_exact(vecs[:l], vecs[l])
        if sol is not None:
            return tuple(int(-c) for c in sol) + (1,)


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def _matrix_cases():
    rnd = random.Random(441)
    cases = [[[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
             for n in (1, 2, 3, 4, 5) for _ in range(8)]
    companions = ([[0, 1], [1, 1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]],
                  [[0, 1, 0], [0, 0, 1], [2, -1, 1]], [[5]], [[-2]])
    for _ in range(12):
        k = rnd.randint(2, 4)
        cases.append(_block_diagonal(
            [rnd.choice(companions) for _ in range(k)]))
    # the per11 shape of the orbit benchmark: ten equal 2x2 blocks
    cases.append(_block_diagonal([[[0, 1], [1, 0]]] * 10))
    return cases


class TestLazyPowers:
    def test_minimal_polynomial_matches_eager(self):
        for a in _matrix_cases():
            assert minimal_polynomial(a) == _eager_minimal_polynomial(a)

    def test_minimal_polynomial_of_repeated_and_distinct_blocks(self):
        swap, fib = [[0, 1], [1, 0]], [[0, 1], [1, 1]]
        cubic = [[0, 1, 0], [0, 0, 1], [2, -1, 1]]
        rnd = random.Random(17)
        for blocks in ([swap] * 3 + [fib] * 2, [fib, swap, fib, cubic, swap],
                       [cubic, cubic], [[[5]], swap, [[5]], [[-2]], [[5]]],
                       [[[0, 2], [1, 0]], [[0, 1], [2, 0]]]):
            a = _block_diagonal(blocks)
            want = _eager_minimal_polynomial(a)
            assert minimal_polynomial(a) == want
            # the same blocks with their indices interleaved
            perm = rnd.sample(range(len(a)), len(a))
            b = [[a[i][j] for j in perm] for i in perm]
            assert minimal_polynomial(b) == _eager_minimal_polynomial(b) == want

    def test_minimal_polynomial_stops_at_its_degree(self, monkeypatch):
        calls = []

        def counting_mul(x, y):
            calls.append(1)
            return mat_mul(x, y)

        monkeypatch.setattr(torus_mod, "mat_mul", counting_mul)
        a = _block_diagonal([[[0, 1], [1, 0]]] * 10)
        assert minimal_polynomial(a) == (-1, 0, 1)
        assert len(calls) == 1  # A^2; the loop starts at A, not I * A

    def test_obstruction_matches_fresh_powers(self):
        for a in _matrix_cases():
            for p in (P3, P5):
                v = frobenius_obstruction(a, p, r_max=4, s_max=6)
                # the scan with A^r recomputed from scratch for every r
                hit = next(((r, s) for r in range(1, 5)
                            for cp in [list(char_poly_of_matrix(
                                mat_pow(a, r)))]
                            for s in range(7)
                            if _synthetic_div(cp, p.p ** s) is not None),
                           None)
                if hit is not None:
                    assert v == ObstructionVerdict(True, *hit)
                else:
                    assert v in (ObstructionVerdict(False, r_max=4, s_max=6),
                                 ObstructionVerdict(True, 2, v.s))


class TestObstruction:
    def test_frobenius_itself(self):
        v = frobenius_obstruction([[5, 0], [0, 5]], P5)
        assert v.obstructed and (v.r, v.s) == (1, 1)

    def test_clear(self):
        v = frobenius_obstruction([[2]], P5)
        assert not v.obstructed
        assert (v.r_max, v.s_max) == (12, 24)
        assert str(v) == "clear-to-bound(12,24)"

    def test_swap_scale(self):
        v = frobenius_obstruction([[0, 5], [1, 0]], P5)
        assert v.obstructed and (v.r, v.s) == (2, 1)

    def test_matches_windowed_scan(self):
        found = 0
        for a, p in _scan_cases():
            v = frobenius_obstruction(a, p, r_max=6, s_max=30)
            assert v == _windowed_obstruction(a, p, 6, 30)
            found += v.obstructed and v.s > 0
        assert found > 50

    def test_huge_r_max_stops_where_the_verdict_is_settled(self):
        # R = 2 e max(2, max{k : phi(k) <= e}), e the largest block size,
        # and the windowed scan 8 iterates past R finds the same verdict;
        # planted: the roots of x^2 - 2x + 2 are sqrt(2) times 8th roots of
        # unity, those of x^2 - 3x + 3 sqrt(3) times 12th roots of unity
        planted = [([[0, -2], [1, 2]], PrimeModulus(2), (8, 4)),
                   ([[0, -3], [1, 3]], P3, (12, 6))]
        for a, p, least in [*((a, p, None) for a, p in _scan_cases()),
                            *planted]:
            e = max(map(len, distinct_blocks(a)))
            r = 2 * e * max([2] + [k for k, _, _ in _cyclotomic_orders(e)])
            start = time.perf_counter()
            v = frobenius_obstruction(a, p, r_max=10 ** 20, s_max=30)
            assert time.perf_counter() - start < 1
            want = _windowed_obstruction(a, p, r + 8, 30)
            assert (v.obstructed, v.r, v.s) == (
                want.obstructed, want.r, want.s)
            assert least is None or (v.r, v.s) == least

    def test_large_s_window_is_cheap(self):
        start = time.perf_counter()
        v = frobenius_obstruction(((2, 1), (1, 1)), P5, 12, 20000)
        assert time.perf_counter() - start < 1
        assert str(v) == "clear-to-bound(12,20000)"

    def test_det_agreement(self):
        rnd = random.Random(44)
        found = 0
        for _ in range(200):
            p = rnd.choice([P3, P5])
            n_dim = rnd.randint(1, 3)
            a = [[rnd.randint(-3, 5) for _ in range(n_dim)]
                 for _ in range(n_dim)]
            v = frobenius_obstruction(a, p, r_max=4, s_max=6)
            if v.obstructed and v.r <= 4 and v.s <= 6:
                found += 1
                ar = mat_pow(a, v.r)
                shifted = [[ar[i][j] - (p.p ** v.s if i == j else 0)
                            for j in range(n_dim)] for i in range(n_dim)]
                assert _det(shifted) == 0
        assert found > 0


def _scan_cases():
    """(a, p): 2x2 and 3x3 matrices, half of them triangular with
    eigenvalues from +-p^k and conjugated by a unimodular shear, at
    p = 2, 3, 5."""
    rnd = random.Random(45)
    for i in range(600):
        p = (PrimeModulus(2), P3, P5)[i % 3]
        n = rnd.choice((2, 3))
        if i % 2:
            a = [[rnd.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        else:
            a = [[rnd.randint(-4, 4) if j > k else 0 for j in range(n)]
                 for k in range(n)]
            for k in range(n):
                a[k][k] = rnd.choice((1, -1)) * rnd.choice(
                    (1, p.p, p.p ** 2, p.p ** 3, rnd.randint(2, 9)))
            j, k, c = *rnd.sample(range(n), 2), rnd.randint(-3, 3)
            for col in range(n):  # E A, E = I + c e_jk
                a[j][col] += c * a[k][col]
            for row in a:  # (E A) E^-1
                row[k] -= c * row[j]
        yield a, p


def _windowed_obstruction(a, p, r_max, s_max):
    """frobenius_obstruction with every p^s of the window tested, each
    computed afresh."""
    m = [list(row) for row in a]
    ar = m
    for r in range(1, r_max + 1):
        if r > 1:
            ar = mat_mul(ar, m)
        cp = list(char_poly_of_matrix(ar))
        for s in range(0, s_max + 1):
            if _synthetic_div(cp, p.p ** s) is not None:
                return ObstructionVerdict(True, r, s)
    minpoly = minimal_polynomial(m)
    roots = lrs_char_roots(Lrs(minpoly[:-1], (0,) * (len(minpoly) - 1)))
    for v in lrs_root_p_dependence(roots, p).verdicts:
        if v.dependent:
            return ObstructionVerdict(True, 2, 2 * v.s)
    return ObstructionVerdict(False, r_max=r_max, s_max=s_max)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestFullPipeline:
    def test_periodic_point_progression(self):
        from pdml.psets import ArithProg

        phi = TorusSelfMap(((1,),), TorusPoint((const(2),)))
        v = Variety(1, ((((1,), RatFunc.one(P5)), ((0,), -t())),))
        desc = full_pipeline(phi, TorusPoint((t(),)), v, 60)
        assert desc.aps == (ArithProg(4, 0),)
        assert desc.exceptional == () and desc.psets == ()
        assert desc.verified_bound == 60

    def test_empty_return_set(self):
        phi = TorusSelfMap.endomorphism([[2]], P5)
        v = Variety(1, ((((1,), RatFunc.one(P5)),
                         ((0,), -ratfunc_int_pow(t(), 3))),))
        desc = full_pipeline(phi, TorusPoint((t(),)), v, 50)
        assert desc.aps == desc.psets == desc.exceptional == ()
        assert desc.verified_bound == 50

    def test_clear_obstruction_forbids_psets(self):
        phi = TorusSelfMap.endomorphism([[2]], P5)
        v = Variety(1, ((((1,), RatFunc.one(P5)),
                         ((0,), -ratfunc_int_pow(t(), 8))),))
        desc = full_pipeline(phi, TorusPoint((t(),)), v, 40)
        assert desc.psets == ()
        assert any("progressions-only" in note for note in desc.notes)
