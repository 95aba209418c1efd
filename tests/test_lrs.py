import math
import random
import time

import pytest

from pdml.errors import ResourceLimitError, UnsupportedError
from pdml.exact import PrimeModulus
import pdml.lrs as lrs_mod
from pdml.lrs import (
    CharRoots,
    _faddeev_leverrier,
    _synthetic_div,
    Lrs,
    char_poly_of_matrix,
    companion_matrix,
    constant,
    cyclotomic_poly,
    fibonacci,
    lrs_char_roots,
    lrs_eval,
    lrs_nondegenerate_split,
    lrs_prefix,
    lrs_root_p_dependence,
    lrs_split_modulus,
    lrs_subsequence,
    lrs_zero_progression_certify,
    mat_mul,
    mat_pow,
    mat_power_bound,
)

P5 = PrimeModulus(5)

THREE_POW_MINUS_TWO = Lrs((3, -4), (-1, 1))  # roots 3 and 1


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def random_lrs(rnd, max_order=4, coeff_bound=3, init_bound=5):
    d = rnd.randint(1, max_order)
    return Lrs(tuple(rnd.randint(-coeff_bound, coeff_bound) for _ in range(d)),
               tuple(rnd.randint(-init_bound, init_bound) for _ in range(d)))


class TestEval:
    def test_fibonacci(self):
        assert lrs_eval(fibonacci(), 10) == 55

    def test_constant(self):
        s = constant(7)
        assert all(lrs_eval(s, n) == 7 for n in range(20))

    def test_three_pow_minus_two(self):
        assert lrs_eval(THREE_POW_MINUS_TWO, 3) == 25
        assert [lrs_eval(THREE_POW_MINUS_TWO, n) for n in range(5)] == \
            [-1, 1, 7, 25, 79]

    def test_matrix_path_matches_iteration(self):
        # force the companion-matrix path via a large index
        s = fibonacci()
        window = list(s.initial)
        for _ in range(2000 - 1):
            window.append(window[-1] + window[-2])
        assert lrs_eval(s, 2000) == window[2000]

    def test_prefix(self):
        assert lrs_prefix(fibonacci(), 7) == [0, 1, 1, 2, 3, 5, 8, 13]


class TestSubsequence:
    def test_fibonacci_even(self):
        sub = lrs_subsequence(fibonacci(), 2, 0)
        assert sub.char_poly() == (1, -3, 1)  # x^2 - 3x + 1
        assert sub.initial == (0, 1)
        assert lrs_eval(sub, 3) == 8  # F_6

    def test_identity(self):
        s = fibonacci()
        assert lrs_subsequence(s, 1, 0) == s

    def test_powers_of_two(self):
        s = Lrs((-2,), (1,))
        sub = lrs_subsequence(s, 3, 1)
        assert sub.char_poly() == (-8, 1)
        assert sub.initial == (2,)
        for k in range(6):
            assert lrs_eval(sub, k) == lrs_eval(s, 3 * k + 1)

    def test_consistency_randomized(self):
        rnd = random.Random(101)
        for _ in range(60):
            s = random_lrs(rnd)
            a = rnd.randint(1, 5)
            b = rnd.randint(0, 5)
            sub = lrs_subsequence(s, a, b)
            direct = lrs_prefix(s, a * 50 + b)
            for k in range(51):
                assert lrs_eval(sub, k) == direct[a * k + b]


class TestZeroCertify:
    def test_alternating(self):
        s = Lrs((-1, 0), (0, 2))  # u_n = 1 - (-1)^n
        assert lrs_zero_progression_certify(s, 2, 0) is True
        assert lrs_zero_progression_certify(s, 2, 1) is False

    def test_zero_sequence(self):
        z = Lrs((1, 1), (0, 0))
        for a, b in ((1, 0), (3, 2), (5, 1)):
            assert lrs_zero_progression_certify(z, a, b) is True

    def test_soundness_randomized(self):
        rnd = random.Random(31)
        for _ in range(40):
            s = random_lrs(rnd, max_order=3)
            a = rnd.randint(1, 4)
            b = rnd.randint(0, 4)
            verdict = lrs_zero_progression_certify(s, a, b)
            vals = lrs_prefix(s, a * 200 + b)
            if verdict:
                assert all(vals[a * k + b] == 0 for k in range(201))
            else:
                d = lrs_subsequence(s, a, b).order
                assert any(vals[a * k + b] != 0 for k in range(d))


class TestCharRoots:
    def test_two_integer_roots(self):
        roots = lrs_char_roots(THREE_POW_MINUS_TWO)
        assert roots.integer_roots == ((1, 1), (3, 1))
        assert roots.unresolved_factor == (1,)

    def test_fibonacci_unresolved(self):
        roots = lrs_char_roots(fibonacci())
        assert roots.integer_roots == ()
        assert roots.unresolved_factor == (-1, -1, 1)

    def test_double_root(self):
        roots = lrs_char_roots(Lrs((4, -4), (0, 0)))
        assert roots.integer_roots == ((2, 2),)

    def test_zero_root(self):
        roots = lrs_char_roots(Lrs((0, -3), (1, 1)))  # x^2 - 3x
        assert roots.integer_roots == ((0, 1), (3, 1))

    def test_reconstruction_invariant(self):
        rnd = random.Random(77)
        for _ in range(80):
            s = random_lrs(rnd)
            roots = lrs_char_roots(s)
            rebuilt = list(roots.unresolved_factor)
            for r, mult in roots.integer_roots:
                for _ in range(mult):
                    rebuilt = _mul_z(rebuilt, [-r, 1])
            assert tuple(rebuilt) == s.char_poly()

    def test_matches_divisor_scan(self):
        # monic products of known roots (with multiplicity) and a cofactor
        rnd = random.Random(4040)
        for _ in range(400):
            # at most five roots below 21 in size keep the scan short
            want = {}
            for _ in range(rnd.randint(0, 5)):
                r = rnd.randint(-20, 20)
                want[r] = want.get(r, 0) + 1
            poly = [1]
            for r, mult in want.items():
                for _ in range(mult):
                    poly = _mul_z(poly, [-r, 1])
            cofactor = [rnd.randint(-9, 9) for _ in range(rnd.randint(0, 3))]
            poly = _mul_z(poly, cofactor + [1])
            if len(poly) < 2:
                continue
            got = lrs_char_roots(Lrs(tuple(poly[:-1]), (0,) * (len(poly) - 1)))
            assert got == divisor_scan_roots(poly)
            mults = dict(got.integer_roots)
            assert all(mults.get(r, 0) >= m for r, m in want.items())

    def test_huge_constant_term(self):
        # u_n = 5^(40 n): a divisor scan would take about 10^14 divisions
        start = time.monotonic()
        for e in (20, 24, 40):
            roots = lrs_char_roots(Lrs((-5 ** e,), (1,)))
            assert roots.integer_roots == ((5 ** e, 1),)
        roots = lrs_char_roots(Lrs((5 ** 80, -2 * 5 ** 40), (1, 1)))
        assert roots == CharRoots(((5 ** 40, 2),), (1,))
        assert time.monotonic() - start < 1


def divisor_scan_roots(poly):
    """lrs_char_roots by trial division: every divisor of the constant term
    (after the roots at 0), each tried by synthetic division."""
    poly, roots = list(poly), []
    mult0 = 0
    while len(poly) > 1 and poly[0] == 0:
        poly, mult0 = poly[1:], mult0 + 1
    if mult0:
        roots.append((0, mult0))
    if len(poly) > 1:
        n = abs(poly[0])
        divisors = [d for i in range(1, math.isqrt(n) + 1) if n % i == 0
                    for d in (i, n // i)]
        for r in sorted({s * d for d in divisors for s in (1, -1)}):
            mult = 0
            while len(poly) > 1 and (quo := _synthetic_div(poly, r)):
                poly, mult = quo, mult + 1
            if mult:
                roots.append((r, mult))
    return CharRoots(tuple(sorted(roots)), tuple(poly))


def _mul_z(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestNondegenerateSplit:
    def test_plus_minus_two(self):
        s = Lrs((-4, 0), (2, 0))  # (-2)^n + 2^n
        pieces = lrs_nondegenerate_split(s)
        assert [(a, b) for a, b, _ in pieces] == [(2, 0), (2, 1)]
        even = pieces[0][2]
        assert lrs_char_roots(even).root_set() == {4}
        assert lrs_prefix(even, 3) == [2, 8, 32, 128]
        odd = pieces[1][2]
        assert all(v == 0 for v in lrs_prefix(odd, 10))

    def test_already_nondegenerate(self):
        pieces = lrs_nondegenerate_split(THREE_POW_MINUS_TWO)
        assert [(a, b) for a, b, _ in pieces] == [(1, 0)]

    def test_constant(self):
        pieces = lrs_nondegenerate_split(constant(3))
        assert [(a, b) for a, b, _ in pieces] == [(1, 0)]
        assert lrs_char_roots(pieces[0][2]).root_set() == {1}

    def test_cyclotomic_order_four(self):
        # roots i, -i: x^2 + 1
        s = Lrs((1, 0), (1, 0))
        pieces = lrs_nondegenerate_split(s)
        assert pieces[0][0] == 4

    def test_unsupported_irrational(self):
        with pytest.raises(UnsupportedError):
            lrs_nondegenerate_split(fibonacci())
        with pytest.raises(UnsupportedError):
            lrs_nondegenerate_split(Lrs((-1, -1) + (0,) * 62, (0,) * 64))
        # palindromic, but with a factor x^4 + 3x^2 + 1 beside Phi_66
        poly = lrs_mod._poly_mul_z(cyclotomic_poly(66), (1, 0, 3, 0, 1))
        with pytest.raises(UnsupportedError):
            lrs_split_modulus(CharRoots((), poly))

    def test_high_order_refuses_quickly(self):
        # x^1000 - x - 1 is not palindromic, so no Phi_m is tried; the
        # palindromic x^1000 + 3x^500 + 1 fails the test mod a prime for
        # each of the ~2000 m with phi(m) <= 1000
        start = time.perf_counter()
        for poly in ((-1, -1) + (0,) * 998 + (1,),
                     (1,) + (0,) * 499 + (3,) + (0,) * 499 + (1,)):
            s = lrs_mod.lrs_from_char_poly(poly, (0,) * 1000)
            with pytest.raises(UnsupportedError):
                lrs_nondegenerate_split(s)
        assert time.perf_counter() - start < 3.0

    def test_split_modulus_of_large_orders(self):
        # Phi_1000 Phi_997 has degree 1396; the modulus comes without
        # building its 997000 pieces
        poly = lrs_mod._poly_mul_z(cyclotomic_poly(1000), cyclotomic_poly(997))
        start = time.perf_counter()
        assert lrs_split_modulus(CharRoots((), poly)) == 997000
        assert lrs_split_modulus(CharRoots(((-2, 1), (2, 1)), poly)) == 997000
        assert lrs_split_modulus(CharRoots(((-1, 1),), (1,))) == 2
        assert time.perf_counter() - start < 3.0

    def test_split_too_large_refused(self):
        # Phi_1000 Phi_997: 997000 pieces would need a prefix of 1.39e9
        # terms; the split refuses once the modulus is known
        poly = lrs_mod._poly_mul_z(cyclotomic_poly(1000), cyclotomic_poly(997))
        s = lrs_mod.lrs_from_char_poly(poly, (1,) + (0,) * 1395)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            lrs_nondegenerate_split(s)
        assert time.perf_counter() - start < 3.0

    def test_cyclotomic_order_66(self):
        # Phi_66 has degree 20; its roots have order 66, above 64
        s = lrs_mod.lrs_from_char_poly(cyclotomic_poly(66), (1,) + (0,) * 19)
        pieces = lrs_nondegenerate_split(s)
        assert [(a, b) for a, b, _ in pieces] == [(66, l) for l in range(66)]
        vals = lrs_prefix(s, 66 * 25 - 1)
        for _, off, piece in pieces:
            assert lrs_char_roots(piece).integer_roots == ((1, 20),)
            assert lrs_prefix(piece, 24) == vals[off::66]

    def test_pieces_match_subsequence(self):
        # one prefix and one power of C for all pieces gives exactly the
        # recurrences lrs_subsequence builds piece by piece
        mul = lrs_mod._poly_mul_z
        rnd = random.Random(8)
        for poly in (mul(cyclotomic_poly(3), cyclotomic_poly(4)),
                     mul(cyclotomic_poly(5), (-2, 1)),
                     mul(mul(cyclotomic_poly(12), (2, 1)), (-2, 1)),
                     mul(cyclotomic_poly(9), (3, 1)), (-3, 1), (1, 1)):
            init = tuple(rnd.randint(-5, 5) for _ in range(len(poly) - 1))
            s = lrs_mod.lrs_from_char_poly(poly, init)
            pieces = lrs_nondegenerate_split(s)
            mod = pieces[0][0]
            assert pieces == [(mod, l, lrs_subsequence(s, mod, l))
                              for l in range(mod)]

    def test_piece_roots_follow_roots_of_u(self):
        # a piece has the roots r^mod of the integer roots r of u and 1 for
        # its roots of unity, and is independent of p exactly when u is
        mul = lrs_mod._poly_mul_z
        for poly in ((6, -5, 1), (-4, 0, 1), mul(cyclotomic_poly(3), (-5, 1)),
                     mul(cyclotomic_poly(4), (-3, 1)), mul((1, 1), (-25, 1)),
                     mul(mul(cyclotomic_poly(6), (-2, 1)), (2, 1))):
            s = lrs_mod.lrs_from_char_poly(poly, (1,) * (len(poly) - 1))
            u_roots = lrs_char_roots(s)
            independent = lrs_root_p_dependence(u_roots, P5).all_independent()
            for mod, _, piece in lrs_nondegenerate_split(s):
                roots = lrs_char_roots(piece)
                assert roots.fully_resolved()
                assert roots.root_set() == (
                    {r ** mod for r in u_roots.root_set()}
                    | ({1} if len(u_roots.unresolved_factor) > 1 else set()))
                assert lrs_root_p_dependence(
                    roots, P5).all_independent() == independent

    def test_subsequence_far_out(self):
        # past _ITER_LIMIT the first terms come from powers of C
        s = fibonacci()
        sub = lrs_subsequence(s, 2000, 3)
        assert sub.initial == (lrs_eval(s, 3), lrs_eval(s, 2003))
        assert lrs_eval(sub, 2) == lrs_eval(s, 4003)

    def test_split_correctness_randomized(self):
        rnd = random.Random(13)
        done = 0
        while done < 30:
            s = random_lrs(rnd, max_order=3, coeff_bound=2)
            try:
                pieces = lrs_nondegenerate_split(s)
            except UnsupportedError:
                continue
            done += 1
            vals = lrs_prefix(s, 500)
            for mod, off, piece in pieces:
                for k in range((500 - off) // mod + 1):
                    assert lrs_eval(piece, k) == vals[mod * k + off]
                roots = lrs_char_roots(piece).root_set()
                assert -1 not in roots
                assert not any(r > 0 and -r in roots for r in roots)

    def test_cyclotomic_polys(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)


class TestRootPDependence:
    def test_independent(self):
        report = lrs_root_p_dependence(lrs_char_roots(Lrs((-3,), (1,))), P5)
        assert not report.verdicts[0].dependent

    def test_power(self):
        report = lrs_root_p_dependence(lrs_char_roots(Lrs((-25,), (1,))), P5)
        v = report.verdicts[0]
        assert v.dependent and v.s == 2 and v.sign == 1

    def test_negative_power(self):
        report = lrs_root_p_dependence(lrs_char_roots(Lrs((5,), (1,))), P5)
        v = report.verdicts[0]
        assert v.dependent and v.s == 1 and v.sign == -1

    def test_unit_roots_depend(self):
        report = lrs_root_p_dependence(lrs_char_roots(Lrs((-1,), (1,))), P5)
        assert report.verdicts[0].dependent and report.verdicts[0].s == 0

    def test_unresolved_unknown(self):
        report = lrs_root_p_dependence(lrs_char_roots(fibonacci()), P5)
        assert report.unresolved_unknown
        assert not report.all_independent()


class TestMatrixHelpers:
    def test_char_poly_companion_round_trip(self):
        rnd = random.Random(3)
        for _ in range(40):
            s = random_lrs(rnd)
            assert char_poly_of_matrix(companion_matrix(s)) == s.char_poly()

    def test_mat_pow(self):
        m = mat_pow([[1, 1], [0, 1]], 13)
        assert m == [[1, 13], [0, 1]]

    def test_power_bound_against_every_power(self):
        # oracle: the row sums of A^k for every k <= n, by repeated products
        rnd = random.Random(2718)
        cases = [[[0, 1], [-1, 2]], [[2, 1], [1, 1]], [[0, -1], [1, 0]],
                 [[0]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]]
        for _ in range(60):
            n = rnd.randint(1, 4)
            cases.append([[rnd.randint(-2, 2) if rnd.random() < 0.6 else 0
                           for _ in range(n)] for _ in range(n)])
        for a in cases:
            norm = max(1, max(sum(map(abs, row)) for row in a))
            for n in (0, 1, 2, 5, 16, 33):
                bound = mat_power_bound(a, n)
                for k in range(n + 1):
                    assert bound >= max(sum(map(abs, row))
                                        for row in mat_pow(a, k)), (a, n, k)
                assert bound <= norm ** n
        # a unipotent block: O(log^2 n) bits, where ||A||^n has 1.6 n
        assert mat_power_bound([[0, 1], [-1, 2]], 2 ** 20) < 2 ** 250
        assert mat_power_bound([[0, 1], [-1, 2]], 2 ** 20 - 1) < 2 ** 250

    def test_power_bound_squares_each_distinct_block_once(self,
                                                          monkeypatch):
        # oracle: the bound with every block of matrix_blocks squared, as
        # before repeated blocks were skipped
        def every_block_bound(a, n):
            def norm(m):
                return max(1, max(sum(map(abs, row)) for row in m))

            bound = 1
            for idx in lrs_mod.matrix_blocks(a):
                block = square = [[a[i][j] for j in idx] for i in idx]
                product = 1
                for j in range(n.bit_length()):
                    square = mat_mul(square, square) if j else square
                    product *= norm(square)
                bound = max(bound, min(product, norm(block) ** n))
            return bound

        rnd = random.Random(97)
        blocks = ([[0, 1], [1, 0]], [[0, 1], [1, 1]], [[1, 1], [0, 1]],
                  [[0, 1], [-1, 2]], [[2]], [[-1]], [[0, 1, 0], [0, 0, 1],
                                                     [2, -1, 1]])
        for _ in range(40):
            chosen = [rnd.choice(blocks) for _ in range(rnd.randint(2, 6))]
            chosen += [rnd.choice(chosen)] * rnd.randint(1, 3)
            a = block_diagonal(chosen)
            perm = rnd.sample(range(len(a)), len(a))
            for m in (a, [[a[i][j] for j in perm] for i in perm]):
                for n in (0, 1, 2, 5, 12):
                    bound = mat_power_bound(m, n)
                    assert bound == every_block_bound(m, n)
                    for k in range(n + 1):
                        assert bound >= max(sum(map(abs, row))
                                            for row in mat_pow(m, k))
        # ten equal blocks at n = 16: the four squarings run once
        calls = []
        monkeypatch.setattr(lrs_mod, "mat_mul",
                            lambda x, y: calls.append(1) or mat_mul(x, y))
        assert mat_power_bound(block_diagonal([[[0, 1], [1, 0]]] * 10),
                               16) == 1
        assert len(calls) == 4

    def test_char_poly_block_split_matches_whole_matrix(self):
        # oracle: Faddeev-LeVerrier on the whole matrix, unsplit
        rnd = random.Random(122)
        cases = []
        for _ in range(200):
            n = rnd.randint(1, 8)
            cases.append([[rnd.randint(-3, 3) if rnd.random() < 0.25 else 0
                           for _ in range(n)] for _ in range(n)])
        for _ in range(40):
            sizes = [rnd.randint(1, 3) for _ in range(rnd.randint(2, 4))]
            n = sum(sizes)
            m = [[0] * n for _ in range(n)]
            at = 0
            for k in sizes:
                for i in range(at, at + k):
                    for j in range(at, at + k):
                        m[i][j] = rnd.randint(-3, 3)
                at += k
            perm = rnd.sample(range(n), n)
            cases.append([[m[perm[i]][perm[j]] for j in range(n)]
                          for i in range(n)])
        from pdml.constructions import dml_instance

        for p, c, u in ((5, [1, 1], Lrs((1, -2), (0, 1))),
                        (5, [1, 1], fibonacci()),
                        (7, [1, 2], Lrs((1, -2), (0, 1))),
                        (11, [1, 1], Lrs((-1, 0), (2, 3)))):
            phi, _, _ = dml_instance(u, PrimeModulus(p), c)
            cases.append([list(r) for r in phi.matrix])
        for a in cases:
            assert char_poly_of_matrix(a) == _faddeev_leverrier(a)

    def test_char_poly_runs_per_block(self, monkeypatch):
        sizes = []
        real = lrs_mod._faddeev_leverrier

        def counting(a):
            sizes.append(len(a))
            return real(a)

        monkeypatch.setattr(lrs_mod, "_faddeev_leverrier", counting)
        # the per11 shape: ten 2x2 swap blocks
        a = [[int(j == i ^ 1) for j in range(20)] for i in range(20)]
        assert char_poly_of_matrix(a) == _faddeev_leverrier(a)
        assert sizes == [2] * 10
