"""Arithmetic progressions, p-sets, and return-set descriptions.

A p-set is {sum_j c_j p^(k_j n_j) : n_j >= 0} with exact rational c_j;
a k_j = 0 term is a constant. Such a set is p-automatic (H. Derksen,
Invent. Math. 168, 2007): for each prime one finite automaton reading base-p
digits from the lowest recognises it. Each PSet builds that automaton lazily,
once per prime, over states (level class, unplaced terms, carry), and keeps
its transitions. Membership, the lexicographically least exponent witness
and bounded enumeration are all walks over that one table.

Structure fitting is always advisory: a description is only emitted after
desc_verify has checked it against an oracle in both directions on the
stated range.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from fractions import Fraction
from math import lcm, prod

from .errors import (DomainError, InternalError, ResourceLimitError,
                     UnsupportedError)
from .exact import PrimeModulus, Record, derived

# Split depth for excluding single points from a p-set before giving up.
_EXCLUDE_SPLIT_CAP = 64

# ap_intersect_pset follows a power orbit mod the progression modulus for
# at most _AP_ORBIT_CAP steps; a piece's coefficients reach p^(k * orbit
# length). It walks at most _AP_WALK_CAP choices for all terms but the
# last and emits at most _AP_WALK_CAP pieces, counted before any is built.
# Near the walk cap a call takes seconds and about 150 MB: with p = 5,
# {1009 p^a + 1009 p^b} on 1009k (504 choices, 254,016 pieces) took 2.7 s
# and 148 MB peak, {p^a + p^b + p^c} on 1009k (254,016 choices, 126,504
# pieces) 2.5 s and 98 MB, one run each on a 2-core Xeon.
_AP_ORBIT_CAP = 10**4
_AP_WALK_CAP = 2**18

# The digit automaton reads a target in blocks of _BLOCK chunks, and each
# chunk is the most base-p digits whose power of p stays below _WORD, one
# CPython int digit. A block costs one big-int divmod, a chunk one divmod
# of the block by a single-digit divisor (the fastest CPython has), and a
# digit one divmod of small ints.
_WORD = 2**30
_BLOCK = 32

# Singleton-union fallback in pset_intersect_bounded is only offered for
# element sets that are plausibly complete: all below bound // p and few.
_SINGLETON_FIT_MAX = 32

# Largest exponent multiplier l in the shapes fit_pset_shapes proposes.
_FIT_LEVEL_MAX = 6

# Exponents n_i at which fit_pset_shapes checks a shape's own members.
_REFUTE_EXPONENTS = (0, 1, 2)


class ArithProg(Record):
    """{a k + b : k in N_0}; a = 0 denotes the singleton {b}."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 0 or b < 0:
            raise DomainError("modulus and offset must be non-negative")
        self._init(a, b)

    def __contains__(self, n: int) -> bool:
        if self.a == 0:
            return n == self.b
        return n >= self.b and (n - self.b) % self.a == 0

    def members(self, bound: int) -> list[int]:
        if self.a == 0:
            return [self.b] if self.b <= bound else []
        return list(range(self.b, bound + 1, self.a))


class PSet(Record):
    """terms = ((c_1, k_1), ..., (c_m, k_m)) with rational c_j, k_j >= 0."""

    # _derived: digit automata by prime, built on first use (see _automaton)
    __slots__ = ("terms", "_derived")

    def __init__(self, terms: tuple[tuple[Fraction, int], ...]):
        norm = tuple((Fraction(c), int(k)) for c, k in terms)
        if len(norm) < 1:
            raise DomainError("a p-set needs at least one term")
        if any(k < 0 for _, k in norm):
            raise DomainError("exponent multipliers must be non-negative")
        self._init(norm, {})

    @property
    def m(self) -> int:
        return len(self.terms)

    def nontrivial_terms(self) -> int:
        return sum(1 for c, k in self.terms if k >= 1 and c != 0)

    def constant_part(self) -> Fraction:
        return sum((c for c, k in self.terms if k == 0), Fraction(0))


def pset_of(*terms: tuple[int | Fraction, int]) -> PSet:
    return PSet(tuple((Fraction(c), k) for c, k in terms))


def _cleared(S: PSet) -> tuple[int, list[tuple[int, int]]]:
    """Least common denominator D and integer terms (D*c_j, k_j)."""
    D = lcm(*(c.denominator for c, _ in S.terms))
    return D, [(int(c * D), k) for c, k in S.terms]


@lru_cache(maxsize=64)
def _digit_chunks(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """p^j for j below the chunk length K, and chunk^i for i <= _BLOCK,
    where the chunk p^K is the largest power of p below _WORD (at least p
    itself); chunk^_BLOCK is the block."""
    powers = [1]
    while powers[-1] * p * p < _WORD:
        powers.append(powers[-1] * p)
    chunk = powers[-1] * p
    return tuple(powers), tuple(chunk ** i for i in range(_BLOCK + 1))


class _DigitAutomaton:
    """The base-p digit automaton of one p-set, built lazily.

    Constant (k = 0) terms are folded out: M is in S iff T = D*M - C is a
    sum of e_j p^(v_j) over the other cleared terms, each v_j a multiple of
    k_j. A state (level class mod lcm k_j, mask of unplaced terms, carry)
    at level l means the terms placed below l sum to (T mod p^l) + carry
    p^l. A move places a subset, of sum sigma, of the unplaced terms allowed
    at l, writes the digit (carry + sigma) mod p and carries the rest; the
    carries stay in |carry| <= sum|e_j|/(p-1) + 1. Equal terms (same e_j
    and k_j) are placed in index order, so a move places a prefix of the
    unplaced ones of each kind: m equal terms cost m + 1 subsets, not 2^m.
    That keeps every member, and the least witness, whose levels never
    decrease over equal terms. Moves are tabled once per set of placeable
    terms, as sigma does not depend on the carry. A state with every term
    placed accepts iff its carry is floor(T / p^l). Above its top digit T
    reads 0 forever, or p - 1 if negative.
    """

    def __init__(self, S: PSet, p: int):
        self.p = p
        self.D, cleared = _cleared(S)
        self.const = sum(e for e, k in cleared if k == 0)
        self.ks = [k for _, k in cleared]
        self.terms = [(e, k) for e, k in cleared if k >= 1]
        self.lam = lcm(*(k for _, k in self.terms))
        kinds: dict[tuple[int, int], list[int]] = {}
        for j, term in enumerate(self.terms):
            kinds.setdefault(term, []).append(j)
        self.kinds = [(e, js) for (e, _), js in kinds.items()]
        self.start = (1 << len(self.terms)) - 1
        # every carry stays within cap: |carry| <= C gives |carry'| <= C
        # for C >= sum|e_j| / (p - 1) + 2
        self.cap = sum(abs(e) for e, _ in self.terms) // (p - 1) + 3
        self.powers, self.chunk_powers = _digit_chunks(p)
        self._allowed: dict[int, int] = {}  # level class -> placeable terms
        # placeable unplaced terms -> {sigma mod p: [(placed, sigma), ...]}
        self._table: dict[int, dict[int, list]] = {}
        # (class, states, digit) -> (live states, finished carries, moves)
        self._steps: dict[tuple, tuple] = {}

    def target(self, M: int | Fraction) -> int | None:
        if isinstance(M, int):
            return M * self.D - self.const
        scaled = Fraction(M) * self.D
        return int(scaled) - self.const if scaled.denominator == 1 else None

    def groups(self, cls: int, mask: int) -> dict[int, list]:
        if cls not in self._allowed:
            self._allowed[cls] = sum(1 << j for j, (_, k) in
                                     enumerate(self.terms) if cls % k == 0)
        avail = mask & self._allowed[cls]
        if avail not in self._table:
            out = self._table[avail] = {}
            # per kind, the (placed, sigma) of each prefix of its terms in
            # avail, the empty one first
            prefixes = []
            for e, js in self.kinds:
                row = [(0, 0)]
                for j in js:
                    if avail >> j & 1:
                        row.append((row[-1][0] | 1 << j, row[-1][1] + e))
                prefixes.append(row)
            for moves in itertools.product(*prefixes):
                sub = sum(placed for placed, _ in moves)
                sigma = sum(part for _, part in moves)
                out.setdefault(sigma % self.p, []).append((sub, sigma))
        return self._table[avail]

    def step(self, cls: int, states: frozenset, digit: int) -> tuple:
        """Live successors, carries of the states with every term placed,
        and the moves (state, placed, mask', carry') writing digit."""
        key = (cls, states, digit)
        if key not in self._steps:
            live, done, edges = set(), set(), []
            for mask, carry in states:
                for sub, sigma in self.groups(cls, mask).get(
                        (digit - carry) % self.p, ()):
                    s2 = (mask & ~sub, (carry + sigma - digit) // self.p)
                    edges.append(((mask, carry), sub) + s2)
                    if s2[0]:
                        live.add(s2)
                    else:
                        done.add(s2[1])
            self._steps[key] = (frozenset(live), frozenset(done), edges)
        return self._steps[key]

    def walk(self, T: int):
        """(moves, floor(T / p^(l+1)) if a state accepts there, else None)
        for each level l, until a least witness has surely accepted.

        Above the top digit a least witness never repeats a (level class,
        state) pair, or cutting out the repeat would lower it.

        Digits are read in blocks and chunks (see _BLOCK): floor(T / p^l)
        is (high chunk^c + rest) p^j + low with 0 <= rest < chunk^c and
        0 <= low < p^j. Such a value x q + r with 0 <= r < q has |x q + r|
        >= |x|, and is neither 0 nor -1 unless x is, so the quotient is
        formed only while high and then mid = high chunk^c + rest lie
        within self.cap, which bounds every carry; elsewhere it can match
        no carry and is not needed.
        """
        p, cap, lam, steps = self.p, self.cap, self.lam, self._steps
        powers, chunk_powers = self.powers, self.chunk_powers
        chunk, block = chunk_powers[1], chunk_powers[_BLOCK]
        states = frozenset({(self.start, 0)})
        seen, pairs, start, horizon, level = set(), set(), None, None, 0
        high, rest, c, low, j, mid, quot = T, 0, 0, 0, 0, None, T
        while states and (horizon is None or level < horizon):
            if horizon is None and quot in (0, -1):
                key = (level % lam, states)
                if key in seen:
                    horizon = start + len(pairs)
                    continue
                start = level if start is None else start
                seen.add(key)
                pairs.update((key[0], s) for s in states)
            if not j:
                if not c:
                    high, rest = divmod(high, block)
                    c = _BLOCK
                rest, low = divmod(rest, chunk)
                c, j = c - 1, len(powers)
                mid = (high * chunk_powers[c] + rest if -cap <= high <= cap
                       else None)
                if mid is not None and abs(mid) > cap:
                    mid = None
            low, digit = divmod(low, p)
            j -= 1
            quot = None if mid is None else mid * powers[j] + low
            key = (level % lam, states, digit)
            nxt, done, edges = steps.get(key) or self.step(*key)
            yield edges, (quot if quot in done else None)
            states, level = nxt, level + 1

    def witness(self, T: int) -> tuple[int, ...] | None:
        """Lexicographically least (n_1, ..., n_m): after the forward walk,
        a backward pass keeps for each live state the least levels at
        which its unplaced terms can still be placed."""
        path = list(self.walk(T))
        if all(high is None for _, high in path):
            return None
        best: dict[tuple[int, int], tuple[int, ...]] = {}
        unset = (-1,) * len(self.terms)
        for level in range(len(path) - 1, -1, -1):
            edges, high = path[level]
            cur: dict[tuple[int, int], tuple[int, ...]] = {}
            for s, sub, mask2, carry2 in edges:
                rest = (best.get((mask2, carry2)) if mask2
                        else unset if carry2 == high else None)
                if rest is None:
                    continue
                cand = rest if not sub else tuple(
                    level if sub >> j & 1 else v for j, v in enumerate(rest))
                if s not in cur or cand < cur[s]:
                    cur[s] = cand
            best = cur
        levels = best.get((self.start, 0))
        if levels is None:
            raise InternalError("accepting walk lost in the witness pass")
        ns = iter(v // k for v, (_, k) in zip(levels, self.terms))
        return tuple(next(ns) if k else 0 for k in self.ks)

    def enumerate(self, bound: int) -> list[int]:
        """Walks every move from carry C; the written low digits are V mod
        p^level for any final value V, so low parts above the scaled bound
        are pruned exactly."""
        p, D, TB = self.p, self.D, bound * self.D
        top = 1
        while p ** top <= TB:
            top += 1
        found: set[int] = set()
        frontier = {(self.start, self.const, 0)}  # (unplaced, carry, low)
        visited = set()
        level = 0
        while frontier:
            nxt: set[tuple[int, int, int]] = set()
            plev = p ** level
            # above the top only zero digits are written
            fold = min(level + 1, top + 1 + (level - top) % self.lam)
            for mask, carry, low in frontier:
                for g, moves in self.groups(level % self.lam, mask).items():
                    digit = (carry + g) % p
                    low2 = low + digit * plev
                    for sub, sigma in moves if low2 <= TB else ():
                        carry2 = (carry + sigma - digit) // p
                        state = (mask & ~sub, carry2, low2)
                        if not state[0]:
                            found.add(low2 + carry2 * plev * p)
                        elif (fold,) + state not in visited:
                            visited.add((fold,) + state)
                            nxt.add(state)
            frontier = nxt
            level += 1
        return sorted(V // D for V in found if 0 <= V <= TB and V % D == 0)


def _automaton(S: PSet, p: PrimeModulus) -> _DigitAutomaton:
    """S's digit automaton for p, built on first use and kept on S."""
    return derived(S, p.p, _DigitAutomaton, S, p.p)


def pset_contains(M: int | Fraction, S: PSet, p: PrimeModulus) -> bool:
    """Is M in S? Decides on S's digit automaton, building no witness."""
    auto = _automaton(S, p)
    T = auto.target(M)
    if T is not None:
        for _, high in auto.walk(T):
            if high is not None:
                return True
    return False


def pset_membership(M: int | Fraction, S: PSet, p: PrimeModulus
                    ) -> tuple[int, ...] | None:
    """The lexicographically least exponent witness (n_1, ..., n_m) if M is
    in S, else None; read off S's digit automaton by a forward and a
    backward walk over the target's digits. Constant terms get 0."""
    auto = _automaton(S, p)
    T = auto.target(M)
    return None if T is None else auto.witness(T)


def pset_enumerate(S: PSet, p: PrimeModulus, bound: int) -> list[int]:
    """All elements of S in [0, bound], deduplicated and sorted, by a walk
    over the moves of S's digit automaton pruned on the low digits."""
    return _automaton(S, p).enumerate(bound) if bound >= 0 else []


# ---------------------------------------------------------------------------
# AP intersect p-set (constructive)
# ---------------------------------------------------------------------------


def _power_orbit(g: int, mod: int) -> tuple[int, list[int]]:
    """Preperiod rho of g^n mod `mod` and the powers g^n mod `mod` for n
    below rho plus the period."""
    seen: dict[int, int] = {}
    x = 1 % mod
    while x not in seen:
        if len(seen) == _AP_ORBIT_CAP:
            raise ResourceLimitError(
                f"powers of {g} mod {mod} repeat beyond cap {_AP_ORBIT_CAP}")
        seen[x] = len(seen)
        x = x * g % mod
    return seen[x], list(seen)


def ap_intersect_pset(A: ArithProg, S: PSet, p: PrimeModulus) -> list[PSet]:
    """A cap S as an exact finite union of p-sets.

    Powers of p are preperiodic modulo the progression modulus, so each
    exponent variable either gets pinned to a preperiodic value (the term
    becomes a constant) or restricted to a residue class of its period (the
    term's coefficient absorbs p^(k(rho+r)) and its step becomes k*period).
    The choices of all terms but the last are walked; the last term's
    choices are looked up by the residue they must hit, so pieces come out
    in the order of the full product.
    """
    pv = p.p
    if A.a == 0:
        return [pset_of((A.b, 0))] if pset_contains(A.b, S, p) else []
    D, terms = _cleared(S)
    mod = D * A.a
    b_res = (D * A.b) % mod
    orbits = [_power_orbit(pow(pv, k, mod), mod) for _, k in terms]
    walked = prod(len(powers) for _, powers in orbits[:-1])
    if walked > _AP_WALK_CAP:
        raise ResourceLimitError(
            f"{walked} exponent choices exceed cap {_AP_WALK_CAP}")
    # per term: (v, residue of its cleared coefficient times p^(k v)) for v
    # below rho plus the period; v < rho pins the term to p^(k v), a larger
    # v frees it on the class of v mod the period
    options = [[(v, e * x % mod) for v, x in enumerate(powers)]
               for (e, _), (_, powers) in zip(terms, orbits)]
    last: dict[int, list[int]] = {}
    for v, res in options[-1]:
        last.setdefault(res, []).append(v)
    chosen: list[list[int]] = []
    for head in itertools.product(*options[:-1]):
        need = (b_res - sum(res for _, res in head)) % mod
        for v_last in last.get(need, ()):
            chosen.append([v for v, _ in head] + [v_last])
        if len(chosen) > _AP_WALK_CAP:
            raise ResourceLimitError(f"more than {_AP_WALK_CAP} pieces")
    # per term, the (coefficient, step) of each v, shared by the pieces
    made = [[(c * pv ** (k * v), 0 if v < rho else k * (len(powers) - rho))
             for v in range(len(powers))]
            for (c, k), (rho, powers) in zip(S.terms, orbits)]
    out = [PSet(tuple(t[v] for t, v in zip(made, vs))) for vs in chosen]
    if A.b >= A.a:
        out = _exclude_prefix(out, A, S, p)
    return out


def _exclude_prefix(emitted: list[PSet], A: ArithProg, S: PSet,
                    p: PrimeModulus) -> list[PSet]:
    """Remove the finitely many residue-class elements below the offset."""
    excess = [x for x in pset_enumerate(S, p, A.b - 1)
              if (x - A.b) % A.a == 0]
    for x in excess:
        refined: list[PSet] = []
        for Q in emitted:
            refined.extend(_exclude_point(Q, x, p, _EXCLUDE_SPLIT_CAP))
        emitted = refined
    return emitted


def _exclude_point(Q: PSet, x: int, p: PrimeModulus, depth: int) -> list[PSet]:
    if not pset_contains(x, Q, p):
        return [Q]
    free = [j for j, (c, k) in enumerate(Q.terms) if k >= 1]
    if not free:
        # constant singleton; drop it iff it is exactly {x}
        return [] if Q.constant_part() == x else [Q]
    if depth <= 0:
        raise UnsupportedError(
            f"cannot exclude {x}: the point persists under exponent splitting")
    j = free[0]
    c, k = Q.terms[j]
    pinned = Q.terms[:j] + ((c, 0),) + Q.terms[j + 1:]
    shifted = Q.terms[:j] + ((c * p.p ** k, k),) + Q.terms[j + 1:]
    return (_exclude_point(PSet(pinned), x, p, depth - 1)
            + _exclude_point(PSet(shifted), x, p, depth - 1))


# ---------------------------------------------------------------------------
# Return-set descriptions and verification
# ---------------------------------------------------------------------------


class ReturnSetDesc(Record):
    """Finite union of progressions, p-sets, and explicit exceptional points.

    verified_bound is a verification stamp: the membership predicate has been
    checked against an oracle in both directions on [0, verified_bound].
    Everything else is immutable.
    """

    __slots__ = ("p", "aps", "psets", "exceptional", "verified_bound",
                 "notes")
    # mutable for the stamp, hence unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, p: PrimeModulus, aps: tuple[ArithProg, ...] = (),
                 psets: tuple[PSet, ...] = (),
                 exceptional: tuple[int, ...] = (), verified_bound: int = 0,
                 notes: tuple[str, ...] = ()):
        self._init(p, tuple(aps), tuple(psets), tuple(sorted(exceptional)),
                   verified_bound, tuple(notes))

    def members(self, bound: int) -> set[int]:
        out = set(n for n in self.exceptional if 0 <= n <= bound)
        for ap in self.aps:
            out.update(ap.members(bound))
        for ps in self.psets:
            out.update(pset_enumerate(ps, self.p, bound))
        return out


def desc_verify(D: ReturnSetDesc, oracle, bound: int) -> bool:
    """True iff D's predicate agrees with the oracle on all of [0, bound].

    On success D.verified_bound is stamped with the bound.
    """
    mem = D.members(bound)
    for n in range(bound + 1):
        if (n in mem) != bool(oracle(n)):
            return False
    D.verified_bound = bound
    return True


# ---------------------------------------------------------------------------
# Bounded p-set intersection with advisory structure fitting
# ---------------------------------------------------------------------------


def pset_intersect_bounded(
    S1: PSet, S2: PSet, p: PrimeModulus, bound: int
) -> tuple[list[int], list[PSet] | None]:
    """Exact S1 cap S2 on [0, bound] plus an optional verified description.

    The candidate description is fitted from the elements (identity fits
    first, then the two-exponent shape, then a finite union of constants) and
    is only returned when it verifies in both directions on [0, bound]; each
    candidate p-set has at most max(m1, m2) terms.
    """
    e1 = pset_enumerate(S1, p, bound)
    e2 = set(pset_enumerate(S2, p, bound))
    elements = [x for x in e1 if x in e2]
    max_terms = max(S1.m, S2.m)

    oracle = set(elements).__contains__
    candidates: list[list[PSet]] = []
    if elements == e1:
        candidates.append([S1])
    if elements == sorted(e2):
        candidates.append([S2])
    for fit in fit_pset_shapes(elements, p, bound, oracle):
        candidates.append([fit])
    if elements and max(elements) <= bound // p.p and len(elements) <= _SINGLETON_FIT_MAX:
        candidates.append([pset_of((x, 0)) for x in elements])
    if not elements:
        candidates.append([])
    for cand in candidates:
        if any(ps.m > max_terms for ps in cand):
            continue
        desc = ReturnSetDesc(p, psets=tuple(cand))
        if desc_verify(desc, oracle, bound):
            return elements, cand
    return elements, None


def fit_pset_shapes(values: list[int], p: PrimeModulus, bound: int = -1,
                    oracle=None) -> list[PSet]:
    """Deterministic candidates of shape d0 + d1 p^(l1 n1) + d2 p^(l2 n2).

    Solved exactly from the smallest values under fixed exponent-pattern
    assignments, in cleared form d_i = e_i / D with integer e_i and
    D = prod (p^l_i - 1). Given an oracle, a shape is dropped before it
    becomes a PSet when one of its members with every n_i in
    _REFUTE_EXPONENTS lies in [0, bound] and the oracle rejects it: that
    shape would fail verification against the oracle on [0, bound].
    Callers must verify every candidate before use.
    """
    vs = sorted(set(values))
    pv = p.p
    out: list[PSet] = []
    seen: set[tuple] = set()
    levels = range(1, _FIT_LEVEL_MAX + 1)
    steps = {l: [pv ** (l * n) for n in _REFUTE_EXPONENTS] for l in levels}

    def emit(D: int, e0: int, pairs: list[tuple[int, int]]):
        if oracle is not None:
            # exact: a member is r1 plus integer multiples of
            # (p^(l n) - 1) / (p^l - 1), so D divides its numerator
            for ps in itertools.product(*(steps[l] for _, l in pairs)):
                M = (e0 + sum(e * q for (e, _), q in zip(pairs, ps))) // D
                if 0 <= M <= bound and not oracle(M):
                    return
        terms = [(Fraction(e, D), l) for e, l in pairs]
        if e0:
            terms.append((Fraction(e0, D), 0))
        cand = PSet(tuple(sorted(terms, key=lambda t: (t[1], t[0]))))
        if cand.terms not in seen:
            seen.add(cand.terms)
            out.append(cand)

    # vs is strictly increasing, so every d_i below is positive
    if len(vs) >= 2:
        for l1 in levels:
            D = pv ** l1 - 1
            emit(D, vs[0] * D - (vs[1] - vs[0]), [(vs[1] - vs[0], l1)])
    if len(vs) >= 3:
        for l1 in levels:
            for l2 in levels:
                q1, q2 = pv ** l1 - 1, pv ** l2 - 1
                # assignments (0,0), (1,0) and then (0,1) or (1,1)
                for r in vs[:2]:
                    e1, e2 = (vs[1] - vs[0]) * q2, (vs[2] - r) * q1
                    emit(q1 * q2, vs[0] * q1 * q2 - e1 - e2,
                         [(e1, l1), (e2, l2)])
    return out
