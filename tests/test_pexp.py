import itertools
import random
import time

import pytest

import pdml.pexp as pexp_mod
import pdml.psets as psets_mod
from pdml.exact import PrimeModulus
from pdml.lrs import Lrs, constant, fibonacci, lrs_prefix
from pdml.pexp import (
    PexpInstance,
    fit_solution_desc,
    pexp_classify,
    pexp_solution_set,
    pexp_solve,
)
from pdml.psets import ArithProg, ReturnSetDesc, pset_of

P2, P3, P5, P7 = (PrimeModulus(p) for p in (2, 3, 5, 7))

THREE_POW_MINUS_TWO = Lrs((3, -4), (-1, 1))
LINEAR = Lrs((1, -2), (0, 1))  # u_n = n


def oracle_solutions(inst: PexpInstance, n_max: int) -> set[int]:
    """Direct double loop: values by naive recurrence, representability by
    exhaustive exponent tuples under a value bound."""
    values = lrs_prefix(inst.u, n_max)
    p = inst.p.p
    out = set()
    for n, v in enumerate(values):
        if not inst.terms:
            out.add(n)
            continue
        cap = 1
        while p ** cap <= (abs(v) + 1) * 10**4:
            cap += 1
        ranges = [range(cap // k + 1) if k else [0] for _, k in inst.terms]
        for combo in itertools.product(*ranges):
            if v == sum(c * p ** (k * e)
                        for (c, k), e in zip(inst.terms, combo)):
                out.add(n)
                break
    return out


class TestSolve:
    def test_three_pow_minus_two(self):
        inst = PexpInstance(THREE_POW_MINUS_TWO, P5, ((1, 1),))
        sols = pexp_solve(inst, 10**4)
        assert [n for n, _ in sols] == [1, 3]
        assert sols[0][1] == (0,)
        assert sols[1][1] == (2,)

    def test_all_powers_of_two(self):
        inst = PexpInstance(Lrs((-2,), (1,)), P2, ((1, 1),))
        sols = pexp_solve(inst, 50)
        assert [n for n, _ in sols] == list(range(51))
        assert all(w == (n,) for n, w in sols)

    def test_linear_picks_powers(self):
        inst = PexpInstance(LINEAR, P3, ((1, 1),))
        assert sorted(pexp_solution_set(inst, 100)) == [1, 3, 9, 27, 81]

    def test_void_equation(self):
        inst = PexpInstance(fibonacci(), P5, ())
        assert sorted(pexp_solution_set(inst, 30)) == list(range(31))

    def test_oracle_agreement_polynomial_growth(self):
        rnd = random.Random(12)
        for _ in range(120):
            p = rnd.choice([P2, P3, P5])
            kind = rnd.randrange(3)
            if kind == 0:
                u = constant(rnd.randint(-6, 6))
            elif kind == 1:
                u = Lrs((1, -2), (rnd.randint(0, 4), rnd.randint(1, 5)))
            else:
                u = Lrs((-1, 0), (rnd.randint(0, 3), rnd.randint(0, 3)))
            m = rnd.randint(1, 3)
            terms = tuple(
                (rnd.choice([c for c in range(-4, 5) if c]), rnd.randint(0, 2))
                for _ in range(m))
            inst = PexpInstance(u, p, terms)
            assert pexp_solution_set(inst, 200) == oracle_solutions(inst, 200)

    def test_oracle_agreement_geometric(self):
        rnd = random.Random(13)
        for _ in range(80):
            p = rnd.choice([P2, P3, P5])
            u = Lrs((rnd.choice([-3, -2, 2, 3]),),
                    (rnd.choice([-2, -1, 1, 2]),))
            m = rnd.randint(1, 3)
            terms = tuple(
                (rnd.choice([c for c in range(-4, 5) if c]), rnd.randint(0, 2))
                for _ in range(m))
            inst = PexpInstance(u, p, terms)
            assert pexp_solution_set(inst, 24) == oracle_solutions(inst, 24)


    def test_witnesses_to_n_800_in_time(self):
        # u_n = 5^n + 2 = 5^0 + 5^n + 1: the least witness is (0, n, 0)
        inst = PexpInstance(Lrs((5, -6), (3, 7)), P5,
                            ((1, 1), (1, 1), (1, 0)))
        start = time.monotonic()
        sols = pexp_solve(inst, 800)
        elapsed = time.monotonic() - start
        assert sols == [(n, (0, n, 0)) for n in range(801)]
        assert elapsed < 5


class TestClassify:
    def test_three_pow_minus_two(self):
        inst = PexpInstance(THREE_POW_MINUS_TWO, P5, ((1, 1),))
        desc = pexp_classify(inst, 2000)
        assert desc.aps == ()
        assert desc.psets == ()
        assert desc.exceptional == (1, 3)
        assert desc.verified_bound == 2000

    def test_linear_fits_power_pset(self):
        inst = PexpInstance(LINEAR, P3, ((1, 1),))
        desc = pexp_classify(inst, 2000)
        assert len(desc.psets) == 1
        ps = desc.psets[0]
        assert ps.nontrivial_terms() == 1
        assert desc.exceptional == ()
        assert desc.verified_bound == 2000

    def test_void_is_ambient_progression(self):
        desc = pexp_classify(PexpInstance(fibonacci(), P5, ()), 100)
        assert desc.aps == (ArithProg(1, 0),)
        assert desc.psets == () and desc.exceptional == ()

    def test_unsupported_roots_fall_back(self):
        inst = PexpInstance(fibonacci(), P5, ((1, 1), (1, 1)))
        desc = pexp_classify(inst, 60)
        assert desc.verified_bound == 60
        assert any("unsupported" in note for note in desc.notes)
        assert set(desc.exceptional) == pexp_solution_set(inst, 60)

    def test_a_path_no_nontrivial_psets(self):
        # roots {2, 3}: both independent of p = 5
        u = Lrs((6, -5), (2, 5))  # (x-2)(x-3) = x^2 - 5x + 6
        inst = PexpInstance(u, P5, ((1, 1),))
        desc = pexp_classify(inst, 400)
        assert all(ps.nontrivial_terms() == 0 for ps in desc.psets)
        assert any("independent" in note for note in desc.notes)
        assert desc.verified_bound == 400

    def test_b_path_shape_bound(self):
        inst = PexpInstance(LINEAR, P3, ((1, 1), (1, 2)))
        desc = pexp_classify(inst, 1500)
        for ps in desc.psets:
            assert ps.nontrivial_terms() <= 2
        assert desc.verified_bound == 1500

    def test_degenerate_split_classify(self):
        # u_n = (-2)^n + 2^n: even progression solves 2*4^k = 2^(n1), odds 0
        u = Lrs((-4, 0), (2, 0))
        inst = PexpInstance(u, P2, ((2, 1),))
        desc = pexp_classify(inst, 300)
        assert desc.verified_bound == 300
        sols = pexp_solution_set(inst, 300)
        assert desc.members(300) == sols

    def test_power_roots_not_factored(self):
        # (x^2 - 25) Phi_7 splits mod 14 with the double root 5^14 on each
        # piece; the dispatch reads the roots of u, so no piece's constant
        # term 5^28 is scanned for divisors
        u = Lrs((-25, -25, -24, -24, -24, -24, -24, 1),
                (-2, 1, 1, -1, 3, 4, -4, 1))
        inst = PexpInstance(u, P3, ((1, 2), (3, 2)))
        start = time.perf_counter()
        desc = pexp_classify(inst, 22)
        assert time.perf_counter() - start < 2.0
        assert desc.notes == tuple(
            f"piece 14k+{l}: two-exponent shape fitted" for l in range(14))
        assert desc.members(22) == oracle_solutions(inst, 22) == {5}

    def test_every_description_verified(self):
        rnd = random.Random(21)
        for _ in range(25):
            p = rnd.choice([P2, P3, P5])
            u = rnd.choice([
                constant(rnd.randint(-4, 4)),
                Lrs((1, -2), (rnd.randint(0, 3), rnd.randint(1, 3))),
                Lrs((rnd.choice([-3, -2, 2]),), (rnd.choice([-2, 1, 2]),)),
            ])
            terms = tuple(
                (rnd.choice([c for c in range(-3, 4) if c]), rnd.randint(0, 2))
                for _ in range(rnd.randint(0, 2)))
            n_max = 150
            desc = pexp_classify(PexpInstance(u, p, terms), n_max)
            assert desc.verified_bound == n_max


class TestFitSolutionDesc:
    def test_periodic(self):
        sols = {n for n in range(301) if n % 3 == 1}
        desc = fit_solution_desc(sols, P5, 300, allow_psets=True)
        assert desc.aps == (ArithProg(3, 1),)
        assert desc.exceptional == ()

    def test_periodic_with_exception(self):
        sols = {n for n in range(301) if n % 4 == 2} | {1}
        desc = fit_solution_desc(sols, P5, 300, allow_psets=True)
        assert ArithProg(4, 2) in desc.aps
        assert 1 in desc.exceptional

    def test_empty(self):
        desc = fit_solution_desc(set(), P5, 200, allow_psets=True)
        assert desc.aps == desc.psets == desc.exceptional == ()
        assert desc.verified_bound == 200

    def test_full(self):
        desc = fit_solution_desc(set(range(201)), P5, 200, allow_psets=True)
        assert desc.aps == (ArithProg(1, 0),)

    def test_progression_plus_pset_mix(self):
        n_max = 300
        sols = {n for n in range(n_max + 1) if n % 2 == 0}
        sols |= {1, 3, 9, 27, 81, 243}
        desc = fit_solution_desc(sols, P3, n_max, allow_psets=True)
        assert ArithProg(2, 0) in desc.aps
        assert len(desc.psets) == 1 and desc.psets[0].nontrivial_terms() == 1
        assert desc.verified_bound == n_max

    def test_refuted_shapes_build_no_automaton(self, monkeypatch):
        """u_n = n + 36 against 7^a + 2 7^b: about 80 fitted shapes, most
        refuted by a small member before any automaton is built."""
        built = []
        init = psets_mod._DigitAutomaton.__init__

        def counting(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(psets_mod._DigitAutomaton, "__init__", counting)
        inst = PexpInstance(Lrs((1, -2), (36, 37)), P7, ((1, 1), (2, 1)))
        desc = pexp_classify(inst, 179)
        assert desc == ReturnSetDesc(
            P7, psets=(pset_of((2, 1), (13, 0)),), exceptional=(63, 69),
            verified_bound=179,
            notes=("piece 1k+0: two-exponent shape fitted",))
        assert len(built) <= 10


# The three instance kinds of the pexp-digits benchmark workload, and a void
# equation: (name, instance, n_max).
DECIDED_CASES = [
    # u_n = 5^n + 40 against 5^(n1) + 5^(n2) + 39: every n, with witnesses
    ("positive", PexpInstance(Lrs((5, -6), (41, 45)), P5,
                              ((1, 1), (1, 1), (39, 0))), 40),
    # u_n = 5^n + 23 against 5^(n1) + 5^(n2): 23 = 3 mod 5, no n
    ("negative", PexpInstance(Lrs((5, -6), (24, 28)), P5,
                              ((1, 1), (1, 1))), 30),
    # u_n = n + 17 against 7^(n1) + 2 7^(n2): a shifted p-set
    ("pset", PexpInstance(Lrs((1, -2), (17, 18)), P7, ((1, 1), (2, 1))),
     150),
    ("void", PexpInstance(fibonacci(), P5, ()), 30),
]


def fresh(inst: PexpInstance) -> PexpInstance:
    return PexpInstance(inst.u, inst.p, inst.terms)


class TestDecidedOnce:
    """pexp_solve and pexp_classify share the instance's decided hits:
    any order of calls and of bounds gives what fresh instances give."""

    @pytest.mark.parametrize("name,inst,n_max", DECIDED_CASES,
                             ids=[c[0] for c in DECIDED_CASES])
    def test_any_call_order_and_bounds(self, name, inst, n_max):
        oracle = oracle_solutions(inst, n_max)
        values = lrs_prefix(inst.u, n_max)

        def check(n, got_solve, got_desc):
            want = {m for m in oracle if m <= n}
            assert got_solve == pexp_solve(fresh(inst), n)
            assert {m for m, _ in got_solve} == want
            for m, w in got_solve:
                assert len(w) == len(inst.terms)
                # the void equation's empty witness sums to nothing
                assert not inst.terms or values[m] == sum(
                    c * inst.p.p ** (k * e)
                    for (c, k), e in zip(inst.terms, w))
            assert got_desc == pexp_classify(fresh(inst), n)
            assert got_desc.members(n) == want

        one = fresh(inst)
        check(n_max, pexp_solve(one, n_max), pexp_classify(one, n_max))
        one = fresh(inst)
        desc = pexp_classify(one, n_max)
        check(n_max, pexp_solve(one, n_max), desc)
        one = fresh(inst)
        for n in (n_max // 3, n_max // 2, n_max, n_max // 2, n_max // 5):
            desc = pexp_classify(one, n)
            check(n, pexp_solve(one, n), desc)
            check(n, pexp_solve(one, n), pexp_classify(one, n))
        assert pexp_solution_set(one, n_max) == oracle

    def test_each_n_decided_once(self, monkeypatch):
        calls = {"lrs_prefix": 0, "pset_contains": 0, "pset_membership": 0}
        for fn in calls:
            def counting(*args, _real=getattr(pexp_mod, fn), _fn=fn):
                calls[_fn] += 1
                return _real(*args)

            monkeypatch.setattr(pexp_mod, fn, counting)
        _, inst, n_max = DECIDED_CASES[0]
        inst = fresh(inst)
        sols = pexp_solve(inst, n_max)
        assert calls == {"lrs_prefix": 1, "pset_contains": 0,
                         "pset_membership": n_max + 1}
        pexp_classify(inst, n_max)
        pexp_classify(inst, n_max // 2)
        assert pexp_solve(inst, n_max // 2) == sols[:n_max // 2 + 1]
        assert calls == {"lrs_prefix": 1, "pset_contains": 0,
                         "pset_membership": n_max + 1}
        # past the bound only the new n are decided, without witnesses
        pexp_classify(inst, n_max + 5)
        assert calls == {"lrs_prefix": 2, "pset_contains": 5,
                         "pset_membership": n_max + 1}
        # then only those hits get a witness
        got = pexp_solve(inst, n_max + 5)
        assert calls == {"lrs_prefix": 3, "pset_contains": 5,
                         "pset_membership": n_max + 6}
        assert got == pexp_solve(fresh(inst), n_max + 5)
