"""Arithmetic progressions, p-sets, and return-set descriptions.

A p-set is {sum_j c_j p^(k_j n_j) : n_j >= 0} with exact rational c_j;
a k_j = 0 term is a constant. Membership is decided by a carry-propagating
base-p digit dynamic program over states (level class, unplaced terms,
residual); enumeration shares the same digit structure walked forwards.

Structure fitting is always advisory: a description is only emitted after
desc_verify has checked it against an oracle in both directions on the
stated range.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, InternalError, UnsupportedError
from .exact import PrimeModulus

# Split depth for excluding single points from a p-set before giving up.
_EXCLUDE_SPLIT_CAP = 64

# Singleton-union fallback in pset_intersect_bounded is only offered for
# element sets that are plausibly complete: all below bound // p and few.
_SINGLETON_FIT_MAX = 32


@dataclass(frozen=True)
class ArithProg:
    """{a k + b : k in N_0}; a = 0 denotes the singleton {b}."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise DomainError("modulus and offset must be non-negative")

    def __contains__(self, n: int) -> bool:
        if self.a == 0:
            return n == self.b
        return n >= self.b and (n - self.b) % self.a == 0

    def members(self, bound: int) -> list[int]:
        if self.a == 0:
            return [self.b] if self.b <= bound else []
        return list(range(self.b, bound + 1, self.a))


@dataclass(frozen=True)
class PSet:
    """terms = ((c_1, k_1), ..., (c_m, k_m)) with rational c_j, k_j >= 0."""

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        norm = tuple((Fraction(c), int(k)) for c, k in self.terms)
        if len(norm) < 1:
            raise DomainError("a p-set needs at least one term")
        if any(k < 0 for _, k in norm):
            raise DomainError("exponent multipliers must be non-negative")
        object.__setattr__(self, "terms", norm)

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
    D = 1
    for c, _ in S.terms:
        D = lcm(D, c.denominator)
    out = []
    for c, k in S.terms:
        e = c * D
        if e.denominator != 1:
            raise DomainError("coefficient does not clear the common denominator")
        out.append((int(e), k))
    return D, out


def _level_lcm(ks: list[int]) -> int:
    out = 1
    for k in ks:
        if k >= 1:
            out = lcm(out, k)
    return out


def _decide(T: int, terms: list[tuple[int, int]], p: int) -> int | None:
    """Is T = sum e_j p^(v_j) with v_j a multiple of k_j (v_j = 0 if k_j = 0)?

    Reachability search over states (level, unplaced set, residual R) where
    the unplaced terms must satisfy sum e_j p^(v_j - level) = R. Levels fold
    onto classes modulo lcm(k_j) once level >= 1, which keeps the state space
    finite; the residual shrinks geometrically into |R| <= sum|e_j|/(p-1)+1.
    Returns the level at which acceptance was first reached (all placements
    happen strictly below it), or None.
    """
    m = len(terms)
    if m == 0:
        return 0 if T == 0 else None
    lam = _level_lcm([k for _, k in terms])
    full = (1 << m) - 1
    has_const = [j for j in range(m) if terms[j][1] == 0]

    def cls(level: int) -> int:
        return 0 if level == 0 else 1 + (level - 1) % lam

    frontier: set[tuple[int, int]] = {(full, T)}
    visited: set[tuple[int, int, int]] = {(0, full, T)}
    level = 0
    while frontier:
        nxt: set[tuple[int, int]] = set()
        ncls = cls(level + 1)
        for S, R in frontier:
            if S == 0:
                if R == 0:
                    return level
                continue
            if level >= 1 and any(S >> j & 1 for j in has_const):
                continue
            valid = [
                j for j in range(m)
                if S >> j & 1 and (
                    (terms[j][1] == 0 and level == 0)
                    or (terms[j][1] >= 1 and level % terms[j][1] == 0))
            ]
            # the empty subset is always a legal choice
            for r in range(1 << len(valid)):
                sigma = 0
                A = 0
                for i, j in enumerate(valid):
                    if r >> i & 1:
                        sigma += terms[j][0]
                        A |= 1 << j
                if (R - sigma) % p:
                    continue
                state = (S & ~A, (R - sigma) // p)
                key = (ncls, state[0], state[1])
                if key not in visited:
                    visited.add(key)
                    nxt.add(state)
        # accept may sit in the new frontier; check before next expansion
        for S, R in nxt:
            if S == 0 and R == 0:
                return level + 1
        frontier = nxt
        level += 1
    return None


def pset_membership(M: int | Fraction, S: PSet, p: PrimeModulus
                    ) -> tuple[int, ...] | None:
    """Exponent witness (n_1, ..., n_m) if M is in S, else None.

    The witness is the lexicographically least one: each n_j is minimized in
    turn by re-running the decision procedure on the reduced target.
    """
    D, terms = _cleared(S)
    scaled = Fraction(M) * D
    if scaled.denominator != 1:
        return None
    T = int(scaled)
    pv = p.p
    if _decide(T, terms, pv) is None:
        return None
    witness: list[int] = []
    remaining = list(terms)
    for j in range(len(terms)):
        e, k = remaining.pop(0)
        if k == 0:
            witness.append(0)
            T -= e
            continue
        # some witness of the current subproblem has k*n below this level
        top = _decide(T, [(e, k)] + remaining, pv)
        if top is None:
            raise InternalError("witness subproblem lost its solution")
        n = 0
        while True:
            if _decide(T - e * pv ** (k * n), remaining, pv) is not None:
                witness.append(n)
                T -= e * pv ** (k * n)
                break
            n += 1
            if k * n > max(top, k):
                raise InternalError("witness scan exceeded certified level")
    return tuple(witness)


def pset_enumerate(S: PSet, p: PrimeModulus, bound: int) -> list[int]:
    """All elements of S in [0, bound], deduplicated and sorted.

    Walks base-p digit positions upward, carrying the overflow of placed
    terms; the written low digits always equal V mod p^level for any final
    value V in range, so states with low part above the scaled bound are
    pruned exactly.
    """
    if bound < 0:
        return []
    D, terms = _cleared(S)
    pv = p.p
    TB = bound * D
    m = len(terms)
    lam = _level_lcm([k for _, k in terms])
    has_const = [j for j in range(m) if terms[j][1] == 0]
    L0 = 1
    while pv ** L0 <= TB:
        L0 += 1

    def fold(level: int) -> int:
        return level if level <= L0 else L0 + 1 + (level - L0 - 1) % lam

    found: set[int] = set()
    full = (1 << m) - 1
    start = (full, 0, 0)  # (unplaced, carry, low value)
    if full == 0:
        return [0] if 0 <= 0 <= bound and 0 % D == 0 else []
    frontier = {start}
    visited = {(0,) + start}
    level = 0
    while frontier:
        nxt: set[tuple[int, int, int]] = set()
        plam = pv ** level
        fkey = fold(level + 1)
        for Sb, c, vlow in frontier:
            if level >= 1 and any(Sb >> j & 1 for j in has_const):
                continue
            valid = [
                j for j in range(m)
                if Sb >> j & 1 and (
                    (terms[j][1] == 0 and level == 0)
                    or (terms[j][1] >= 1 and level % terms[j][1] == 0))
            ]
            for r in range(1 << len(valid)):
                g = 0
                A = 0
                for i, j in enumerate(valid):
                    if r >> i & 1:
                        g += terms[j][0]
                        A |= 1 << j
                total = c + g
                digit = total % pv
                c2 = (total - digit) // pv
                vlow2 = vlow + digit * plam
                if vlow2 > TB:
                    continue
                S2 = Sb & ~A
                if S2 == 0:
                    V = vlow2 + c2 * plam * pv
                    if 0 <= V <= TB and V % D == 0:
                        found.add(V // D)
                    continue
                key = (fkey, S2, c2, vlow2)
                if key not in visited:
                    visited.add(key)
                    nxt.add((S2, c2, vlow2))
        frontier = nxt
        level += 1
    return sorted(found)


# ---------------------------------------------------------------------------
# AP intersect p-set (constructive)
# ---------------------------------------------------------------------------


def _power_orbit(g: int, mod: int) -> tuple[int, int]:
    """Preperiod and period of g^n mod `mod` starting at n = 0."""
    seen: dict[int, int] = {}
    x = 1 % mod
    n = 0
    while x not in seen:
        seen[x] = n
        x = x * g % mod
        n += 1
    rho = seen[x]
    return rho, n - rho


def ap_intersect_pset(A: ArithProg, S: PSet, p: PrimeModulus) -> list[PSet]:
    """A cap S as an exact finite union of p-sets.

    Powers of p are preperiodic modulo the progression modulus, so each
    exponent variable either gets pinned to a preperiodic value (the term
    becomes a constant) or restricted to a residue class of its period (the
    term's coefficient absorbs p^(k(rho+r)) and its step becomes k*period).
    """
    pv = p.p
    if A.a == 0:
        return [pset_of((A.b, 0))] if pset_membership(A.b, S, p) is not None else []
    D, terms = _cleared(S)
    mod = D * A.a
    b_res = (D * A.b) % mod
    choices: list[list[tuple[str, int, int]]] = []
    for e, k in terms:
        g = pow(pv, k, mod)
        rho, pi = _power_orbit(g, mod)
        opts: list[tuple[str, int, int]] = []
        for v in range(rho):
            opts.append(("pin", v, e * pow(pv, k * v, mod) % mod))
        for r in range(pi):
            opts.append(("free", r, e * pow(pv, k * (rho + r), mod) % mod))
        choices.append((opts, rho, pi))
    out: list[PSet] = []
    for combo in itertools.product(*(c[0] for c in choices)):
        if sum(res for _, _, res in combo) % mod != b_res:
            continue
        new_terms: list[tuple[Fraction, int]] = []
        for (kind, val, _), (c, k), (_, rho, pi) in zip(combo, S.terms, choices):
            if kind == "pin":
                new_terms.append((c * pv ** (k * val), 0))
            else:
                new_terms.append((c * pv ** (k * (rho + val)), k * pi))
        out.append(PSet(tuple(new_terms)))
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
    if pset_membership(x, Q, p) is None:
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
    out = []
    out.extend(_exclude_point(PSet(pinned), x, p, depth - 1))
    out.extend(_exclude_point(PSet(shifted), x, p, depth - 1))
    return out


# ---------------------------------------------------------------------------
# Return-set descriptions and verification
# ---------------------------------------------------------------------------


@dataclass
class ReturnSetDesc:
    """Finite union of progressions, p-sets, and explicit exceptional points.

    verified_bound is a verification stamp: the membership predicate has been
    checked against an oracle in both directions on [0, verified_bound].
    Everything else is immutable.
    """

    p: PrimeModulus
    aps: tuple[ArithProg, ...] = ()
    psets: tuple[PSet, ...] = ()
    exceptional: tuple[int, ...] = ()
    verified_bound: int = 0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        self.aps = tuple(self.aps)
        self.psets = tuple(self.psets)
        self.exceptional = tuple(sorted(self.exceptional))
        self.notes = tuple(self.notes)

    def members(self, bound: int) -> set[int]:
        out = set(n for n in self.exceptional if 0 <= n <= bound)
        for ap in self.aps:
            out.update(ap.members(bound))
        for ps in self.psets:
            out.update(pset_enumerate(ps, self.p, bound))
        return out

    def is_empty(self) -> bool:
        return not (self.aps or self.psets or self.exceptional)


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

    def oracle(n: int) -> bool:
        return n in el_set

    el_set = set(elements)
    candidates: list[list[PSet]] = []
    if elements == e1:
        candidates.append([S1])
    if elements == sorted(e2):
        candidates.append([S2])
    for fit in fit_pset_shapes(elements, p):
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


def fit_pset_shapes(values: list[int], p: PrimeModulus,
                    lmax: int = 6) -> list[PSet]:
    """Deterministic candidates of shape d0 + d1 p^(l1 n1) + d2 p^(l2 n2).

    Solved exactly from the smallest values under fixed exponent-pattern
    assignments; callers must verify every candidate before use.
    """
    vs = sorted(set(values))
    pv = p.p
    out: list[PSet] = []
    seen: set[tuple] = set()

    def emit(d0: Fraction, pairs: list[tuple[Fraction, int]]):
        terms = [(c, k) for c, k in pairs if c != 0]
        if d0 != 0 or not terms:
            terms.append((d0, 0))
        cand = PSet(tuple(sorted(terms, key=lambda t: (t[1], t[0]))))
        if cand.terms not in seen:
            seen.add(cand.terms)
            out.append(cand)

    if len(vs) >= 2:
        r1, r2 = Fraction(vs[0]), Fraction(vs[1])
        for l1 in range(1, lmax + 1):
            d1 = (r2 - r1) / (pv ** l1 - 1)
            if d1 == 0:
                continue
            emit(r1 - d1, [(d1, l1)])
    if len(vs) >= 3:
        r1, r2, r3 = Fraction(vs[0]), Fraction(vs[1]), Fraction(vs[2])
        for l1 in range(1, lmax + 1):
            for l2 in range(1, lmax + 1):
                # assignments (0,0), (1,0), (0,1)
                d1 = (r2 - r1) / (pv ** l1 - 1)
                d2 = (r3 - r1) / (pv ** l2 - 1)
                if d1 != 0 and d2 != 0:
                    emit(r1 - d1 - d2, [(d1, l1), (d2, l2)])
                # assignments (0,0), (1,0), (1,1)
                d1 = (r2 - r1) / (pv ** l1 - 1)
                d2 = (r3 - r2) / (pv ** l2 - 1)
                if d1 != 0 and d2 != 0:
                    emit(r1 - d1 - d2, [(d1, l1), (d2, l2)])
    return out
