"""Instance generators: recurrences as torus dynamics and p-set varieties.

The p-set variety lives in G_m^(p-1), around P = (t+1, ..., t+p-1). Its
linear part is one equation: the ell'-th divided difference of the first
ell' + 1 coordinates is 1, ell' the coefficient total, and at
[m]P = ((t+1)^m, ..., (t+p-1)^m) that holds iff the base-p digit sum of m
is ell' (E. Lucas, Amer. J. Math. 1 (1878)). Multiplicity patterns
additionally need the evaluated points to come from a polynomial with few
distinct roots, which is expressed through vanishing principal subresultant
coefficients of (u, u'), Sylvester determinants over the coefficients e_k
of u. The e_k are affine in the torus coordinates (by Lagrange
interpolation at the nodes 1..ell'), so the one determinant helper gives
the equations of X over those forms, and the same equations in the
variables e_k. Every construction self-checks against its
parametrization before it is released, by exact packed-int evaluation
(PolySystem). exponent_set tests the e_k-form equations at each m that
passes the linear rows: there e_k is (t+1)^m on the positions of base-p
digit sum k that Lucas's theorem leaves nonzero, read off unweighted into
the layout torus.digit_box gives m, the one return_set's digit box route
uses: the base-p digit box of m, or the dense slots when they are fewer.
"""

from __future__ import annotations

import math
import random

from .errors import (ConstructionError, DomainError, InternalError,
                     ResourceLimitError)
from .exact import (FpPoly, PrimeModulus, RatFunc, Record, _guard_size,
                    pack_slots, ratfunc_int_pow, slot_bytes)
from .lrs import Lrs, companion_matrix, mat_pow
from .torus import (Equation, TorusPoint, TorusSelfMap, Variety, box_zero,
                    digit_box)

_SELF_CHECK_SAMPLES = 50
_SELF_CHECK_SEED = 0x5E1F
# Largest ambient dimension p - 1 of a p-set variety. dml_instance pulls
# it back to a dense (p-1)d x (p-1)d matrix for a recurrence of order d,
# and every later command reads and iterates that matrix.
_MAX_VARIETY_DIM = 112


# ---------------------------------------------------------------------------
# Symbolic multivariate polynomials over Z (for subresultant equations)
# ---------------------------------------------------------------------------

SymPoly = dict[tuple[int, ...], int]


def _sym_const(c: int, nvars: int) -> SymPoly:
    return {(0,) * nvars: c} if c else {}


def _sym_var(i: int, nvars: int) -> SymPoly:
    ev = [0] * nvars
    ev[i] = 1
    return {tuple(ev): 1}


def _sym_add(a: SymPoly, b: SymPoly) -> SymPoly:
    out = dict(a)
    for ev, c in b.items():
        nc = out.get(ev, 0) + c
        if nc:
            out[ev] = nc
        elif ev in out:
            del out[ev]
    return out


def _sym_mul(a: SymPoly, b: SymPoly) -> SymPoly:
    out: SymPoly = {}
    for ev1, c1 in a.items():
        for ev2, c2 in b.items():
            ev = tuple(x + y for x, y in zip(ev1, ev2))
            nc = out.get(ev, 0) + c1 * c2
            if nc:
                out[ev] = nc
            elif ev in out:
                del out[ev]
    return out


def _sym_det(matrix: list[list[SymPoly]], nvars: int) -> SymPoly:
    """Determinant by expansion along first columns with bitmask memo."""
    n = len(matrix)
    memo: dict[int, SymPoly] = {}

    def rec(rows_mask: int, col: int) -> SymPoly:
        if col == n:
            return _sym_const(1, nvars)
        if rows_mask in memo:
            return memo[rows_mask]
        out: SymPoly = {}
        sign = 1
        for r in range(n):
            if rows_mask >> r & 1:
                entry = matrix[r][col]
                if entry:
                    sub = rec(rows_mask & ~(1 << r), col + 1)
                    term = _sym_mul(entry, sub)
                    if sign < 0:
                        term = {ev: -c for ev, c in term.items()}
                    out = _sym_add(out, term)
                sign = -sign
        memo[rows_mask] = out
        return out

    return rec((1 << n) - 1, 0)


def _subresultant_polys(e: list[SymPoly], count: int) -> list[SymPoly]:
    """Principal subresultant coefficients sres_j(u, u'), j = 0..count-1,
    of the monic u = X^ell' + e_1 X^(ell'-1) + ... + e_ell', as Sylvester
    determinants over the coefficient forms e = [e_1, ..., e_ell'] (SymPolys
    in one set of variables, none of them empty).

    With every root multiplicity below p, sres_0..sres_{count-1} all vanish
    iff u has at most ell' - count distinct roots.
    """
    m, n = len(e), len(e) - 1
    nv = len(next(iter(e[0])))
    # high -> low: u is 1, e_1, ..., e_ell'; u' is ell', (ell'-1) e_1, ...
    F = [_sym_const(1, nv), *e]
    G = [_sym_const(m, nv)] + [{ev: c * (m - 1 - k) for ev, c in e[k].items()}
                               for k in range(n)]
    out = []
    for j in range(count):
        size = m + n - 2 * j
        rows: list[list[SymPoly]] = []
        for i in range(n - j):
            rows.append([F[c - i] if 0 <= c - i <= m else {} for c in range(size)])
        for i in range(m - j):
            rows.append([G[c - i] if 0 <= c - i <= n else {} for c in range(size)])
        out.append(_sym_det(rows, nv))
    return out


class PsetVariety(Record):
    """The torus variety whose multiple-of-P membership set is a p-set;
    sres holds its subresultant equations in the variables e_1..e_ell'."""

    __slots__ = ("p", "coefficients", "X", "P", "ell_prime", "sres")

    def __init__(self, p: PrimeModulus, coefficients: tuple[int, ...],
                 X: Variety, P: TorusPoint, ell_prime: int,
                 sres: tuple[SymPoly, ...]):
        self._init(p, coefficients, X, P, ell_prime, sres)


def build_pset_variety(p: PrimeModulus, c: list[int]) -> PsetVariety:
    """Variety X in G_m^(p-1) with [m]P in X iff m = sum c_i p^(n_i).

    Linear part: sum_(a=1..ell'+1) w_a x_a = 1, ell' = sum(c), w from
    _node_weights (ell' < p - 1 keeps the nodes distinct and nonzero). At
    [m]P, (t+a)^m = prod_l (T_l + a)^(d_l), T_l = t^(p^l) over the base-p
    digits of m, is monic of degree s(m) = sum d_l in a. Its divided
    difference is 0 if s(m) < ell' and 1 if s(m) = ell'; if s(m) > ell',
    its part of degree s(m) - ell' in the T_l, e_(s(m)-ell') of the T_l
    taken d_l times each, is nonzero by Lucas. When some c_i > 1, subresultant equations in the recovered
    elementary-symmetric coordinates force the evaluation polynomial to
    have at most len(c) distinct roots. That locus is the pattern c only
    when c is the one partition of sum(c) into len(c) parts (merging parts
    lowers their count, so every other pattern on the locus is a merge of
    c), i.e. len(c) = 1 or sum(c) = len(c) + 1; other patterns are
    rejected. The emitted equation set must pass a parametrized-point /
    non-member self-check.
    """
    pv = p.p
    c = [int(x) for x in c]
    if any(x < 1 for x in c):
        raise DomainError("coefficients must be positive")
    ell = len(c)
    ell_prime = sum(c)
    if ell_prime >= pv - 1:
        raise DomainError("need sum(c) < p - 1")
    n = pv - 1
    if n > _MAX_VARIETY_DIM:
        raise ResourceLimitError(
            f"p-set variety in G_m^{n} exceeds the dimension cap "
            f"{_MAX_VARIETY_DIM}")

    def unit_ev(a: int) -> tuple[int, ...]:
        ev = [0] * n
        ev[a - 1] = 1
        return tuple(ev)

    equations: list[Equation] = [(
        *((unit_ev(a), RatFunc.const(w, p)) for a, w
          in enumerate(_node_weights(p, ell_prime + 1), 1)),
        ((0,) * n, -RatFunc.one(p)))]

    sres: tuple[SymPoly, ...] = ()
    if ell < ell_prime:
        if ell > 1 and ell_prime > ell + 1:
            raise ConstructionError(
                f"multiplicity pattern {tuple(sorted(c))} does not match the "
                "few-distinct-roots locus; variety not expressible here")
        count = ell_prime - ell
        sres = tuple(_subresultant_polys(
            [_sym_var(k, ell_prime) for k in range(ell_prime)], count))
        # the same determinants over e_k(x), affine in the torus coordinates
        minv, e_const = _symmetric_recovery(p, ell_prime)
        e_x = [{**_sym_const(e0, n), **{unit_ev(a): coeff for a, coeff
                                        in enumerate(row, 1) if coeff}}
               for row, e0 in zip(minv, e_const)]
        for poly in _subresultant_polys(e_x, count):
            equations.append(tuple((ev, RatFunc.const(cc, p))
                                   for ev, cc in sorted(poly.items())
                                   if cc % pv))

    P = TorusPoint(tuple(
        RatFunc(FpPoly([a, 1], p)) for a in range(1, pv)))
    pvar = PsetVariety(p, tuple(c), Variety(n, tuple(equations)), P,
                       ell_prime, sres)
    _self_check(pvar)
    return pvar


def _node_weights(p: PrimeModulus, count: int) -> list[int]:
    """w_a = 1 / prod_(b != a) (a - b) mod p at the nodes a = 1..count:
    sum_a w_a f(a) is the divided difference of f, the leading coefficient
    of its interpolant of degree below count (0 for f = X^K, K < count - 1;
    1 at K = count - 1)."""
    nodes = range(1, count + 1)
    return [pow(math.prod(a - b for b in nodes if b != a), -1, p.p)
            for a in nodes]


def _symmetric_recovery(p: PrimeModulus, ell_prime: int
                        ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Solve x_a = a^ell' + sum_k e_k a^(ell'-k) for e_1..e_ell' from the
    first ell' coordinates: e = M^-1 (x - consts).

    q = sum_k e_k X^(ell'-k) has degree below ell' and q(a) = x_a - a^ell'
    at the nodes a = 1..ell', so q = sum_a (x_a - a^ell') L_a over the
    Lagrange basis L_a = w_a prod_(b != a) (X - b), w_a of _node_weights
    over these ell' nodes: column a of M^-1 holds the coefficients of L_a,
    highest first. At x = 0 the monic X^ell' + q vanishes at every node, so
    it is u = prod_b (X - b), and the constants are the coefficients of u
    below its leading one.
    """
    pv = p.p
    nodes = range(1, ell_prime + 1)
    u = [1]  # prod_b (X - b), highest first
    for b in nodes:
        u = [(x - b * y) % pv for x, y in zip(u + [0], [0] + u)]
    columns = []
    for a, scale in zip(nodes, _node_weights(p, ell_prime)):
        # u / (X - a) by synthetic division, then divided by its value at a
        q = [1]
        for c in u[1:-1]:
            q.append((c + a * q[-1]) % pv)
        columns.append([x * scale % pv for x in q])
    return tuple(zip(*columns)), tuple(u[1:])


class PolySystem:
    """Equations sum c * prod x_a^(e_a) = 0 with integer coefficients and
    exponents e_a >= 0, evaluated exactly at points whose coordinates are
    polynomials over F_p.

    Each coordinate is packed once into one int at a slot width no sum
    can carry out of (exact.pack_slots), the powers each term needs come
    from one table per point, and every equation is summed over Z and
    reduced mod p once per slot after unpacking. Terms are kept sorted so
    that each reuses the product of the factors it shares with the term
    before it, as a walk over a prefix tree. Inputs outside that shape
    (a coefficient that is not a constant, a coordinate with a
    denominator, a negative exponent) raise InternalError: no term is ever
    skipped. torus.variety_contains stays the dense oracle.
    """

    def __init__(self, equations, p: PrimeModulus, n_vars: int):
        self.p = p
        self.n_vars = n_vars
        pv = p.p
        eqs = []
        self.top: dict[int, int] = {}  # largest exponent of each variable
        self.degree = 0
        self.terms = 1
        self.monomials: set[tuple[tuple[int, int], ...]] = set()
        for eq in equations:
            terms = []
            for ev, coeff in eq:
                if len(ev) != n_vars or any(e < 0 for e in ev):
                    raise InternalError(
                        "packed evaluation needs non-negative exponent "
                        f"vectors of length {n_vars}")
                c = _int_coefficient(coeff, p) % pv
                if not c:
                    continue
                factors = tuple((a, e) for a, e in enumerate(ev) if e)
                for a, e in factors:
                    self.top[a] = max(self.top.get(a, 0), e)
                self.degree = max(self.degree, sum(ev))
                self.monomials.add(factors)
                terms.append((factors, c))
            self.terms = max(self.terms, len(terms))
            # (c, k, rest): the first k factors are the previous term's
            prefixed = []
            prev: tuple[tuple[int, int], ...] = ()
            for factors, c in sorted(terms):
                k = 0
                while k < min(len(prev), len(factors)) and (
                        prev[k] == factors[k]):
                    k += 1
                prefixed.append((c, k, factors[k:]))
                prev = factors
            eqs.append(tuple(prefixed))
        self.equations = tuple(eqs)

    def width(self, span: int) -> int:
        """Slot bytes for coordinates of at most span nonzero slots: a
        product coefficient of d of them sums at most span^(d-1) products
        of d values below p, and c < p, so no equation's sum reaches it."""
        return slot_bytes(self.terms * (self.p.p - 1) ** (self.degree + 1)
                          * span ** max(self.degree - 1, 0))

    def vanishes_at(self, xs) -> bool:
        """Does every equation vanish at the polynomial point xs?"""
        if len(xs) != self.n_vars:
            raise InternalError("packed evaluation at a point of the wrong "
                                "dimension")
        polys = [_poly_value(x, self.p) for x in xs]
        _guard_size(max((sum(e * (len(polys[a].coeffs) - 1) for a, e in f)
                         for f in self.monomials), default=0) + 1)
        width = self.width(max((len(f.coeffs) for f in polys), default=1))
        return self.vanishes_packed(
            {a: pack_slots(polys[a].coeffs, width) for a in self.top}, width)

    def vanishes_packed(self, xs, width: int, fold=None) -> bool:
        """vanishes_at for coordinates packed at a width from self.width,
        xs[a] for variable a. Slot s stands for t^s, or t^fold[s]: slots
        sharing a power of t are added before the zero test mod p."""
        pv = self.p.p
        powers = {}
        for a, top in self.top.items():
            row = [1, xs[a]]
            for _ in range(top - 1):
                row.append(row[-1] * xs[a])
            powers[a] = row
        for eq in self.equations:
            total = 0
            stack = [1]  # stack[i]: the current term's first i factors
            for c, k, rest in eq:
                del stack[k + 1:]
                for a, e in rest:
                    stack.append(stack[-1] * powers[a][e])
                total += c * stack[-1]
            if not box_zero(total, width, fold, pv):
                return False
        return True


def _int_coefficient(c, p: PrimeModulus) -> int:
    """c as an int: an int, or a RatFunc that is a constant of F_p."""
    if isinstance(c, RatFunc):
        if (c.modulus.p != p.p or not c.den.is_one()
                or c.num.degree > 0):
            raise InternalError(f"packed evaluation needs constant "
                                f"coefficients in F_{p.p}, got {c!r}")
        return c.num.coeffs[0] if c.num.coeffs else 0
    if isinstance(c, int):
        return c
    raise InternalError(f"packed evaluation needs integer coefficients, "
                        f"got {c!r}")


def _poly_value(x, p: PrimeModulus) -> FpPoly:
    """x as an FpPoly: an FpPoly, or a RatFunc with denominator 1."""
    if isinstance(x, RatFunc):
        if not x.den.is_one():
            raise InternalError(f"packed evaluation needs polynomial "
                                f"coordinates, got {x!r}")
        x = x.num
    if not isinstance(x, FpPoly) or x.modulus.p != p.p:
        raise InternalError(f"packed evaluation needs coordinates in "
                            f"F_{p.p}[t], got {x!r}")
    return x


def _self_check(pv: PsetVariety):
    """Emitted equations must vanish on parametrized sample points and
    reject perturbed non-members; failure aborts the construction."""
    system = PolySystem(pv.X.equations, pv.p, pv.X.n_vars)
    for member, twist in _self_check_points(pv, system.top):
        if not system.vanishes_at(member):
            raise InternalError("parametrized point violates equations")
        if system.vanishes_at(twist):
            raise InternalError("perturbed non-member satisfied equations")


def _self_check_points(pv: PsetVariety, read):
    """The self-check's seeded (member, non-member) pairs of polynomial
    points: x_a = prod (y_j + a)^(c_j) on the coordinates x_(i+1), i in
    read, that the equations read, 1 on the others, which no equation
    constrains, and the same point with its first coordinate times t + r."""
    rng = random.Random(_SELF_CHECK_SEED)
    p = pv.p
    for _ in range(_SELF_CHECK_SAMPLES):
        # degree >= 1 parameters keep every shifted base nonzero
        ys = [_random_poly(rng, p) for _ in range(len(pv.coefficients))]
        member = [FpPoly.one(p)] * (p.p - 1)
        for i in read:
            acc = FpPoly.one(p)
            for y, cj in zip(ys, pv.coefficients):
                acc = acc * (y + FpPoly.const(i + 1, p)) ** cj
            member[i] = acc
        # the linear equation moves by w_1 x_1 (t + r - 1), w_1 != 0: a
        # non-member by construction
        twist = list(member)
        twist[0] = twist[0] * FpPoly([rng.randrange(p.p), 1], p)
        yield member, twist


def _random_poly(rng: random.Random, p: PrimeModulus) -> FpPoly:
    deg = rng.randint(1, 3)
    coeffs = [rng.randrange(p.p) for _ in range(deg)] + [
        rng.randrange(1, p.p)]
    return FpPoly(coeffs, p)


def exponent_set(pv: PsetVariety, bound: int) -> list[int]:
    """{m in [0, bound] : [m]P in X} by exact evaluation.

    By (t+a)^m = sum_i C(m,i) a^(m-i) t^i and the character sum
    sum_a a^(j-k) = -[j = k mod (p-1)] over F_p^*, row k at [m]P,
    -sum_a a^(-k) (t+a)^m, is the part of b = (t+1)^m on the slots i with
    m - i = k mod (p-1). Slot 0 holds C(m,0) = 1, so row ell' = sum(c) is 1
    only if m = ell' mod (p-1), and only those m are walked: b is one
    packed int, times (t+1)^(p-1) per step with every slot reduced mod p by
    one multiply-shift-mask quotient, and rows ell'..p-2 are one mask: row
    ell' is 1, the others vanish. By Lucas's theorem C(m, i) != 0 mod p
    only where no base-p digit of i exceeds that of m, and then
    s(m - i) = s(m) - s(i) for the digit sum s; were s(m) > ell' (so
    >= ell' + p - 1), an i != 0 with s(i) = s(m) - ell' would sit in row
    ell'. So the mask keeps the m with s(m) = ell', as the divided-
    difference equation of build_pset_variety does, without using it. As
    a^(p-1) = 1 each Lucas position i has a^(m-i) = a^(ell' - s(i)):
    (t+a)^m = sum_k a^(ell'-k) E_k with E_k the part of b on the Lucas
    positions of digit sum k. E_0 = 1, so by the uniqueness of the solve of
    _symmetric_recovery, e_k = E_k. Survivors get the subresultant
    equations (degree D) at e_1..e_ell', which live unweighted on at most
    2^ell' slots of b; _survivor_point packs them in the layout of
    torus.digit_box: a digit box of at most (D+1)^ell' slots, or the
    D m + 1 dense slots when those are fewer, each slot below
    terms (p-1)^(D+1) 2^(ell'(D-1)). Nothing here uses the membership
    tests of torus, only its layout, so this stays their independent
    oracle.
    """
    if bound < 0:
        raise DomainError("bound must be non-negative")
    _guard_size(bound + 1)
    p, ell, n = pv.p.p, pv.ell_prime, pv.p.p - 1
    # Slots hold values below 2^bits: reduced coefficients, a step's sum of
    # p products (at most p(p-1)^2). For those, floor(v * recip / 2^shift)
    # = floor(v / p), and v * recip fits in one slot, so the quotients of
    # all slots come out in one product.
    bits = (p * n * n).bit_length()
    shift = bits + p.bit_length()
    recip = -(-(1 << shift) // p)
    width = slot_bytes(((1 << bits) - 1) * recip)
    w = 8 * width
    slot, slots = (1 << w) - 1, (1 << (w * (bound + 1))) - 1
    mask = ((1 << (w - shift)) - 1) * (slots // slot)
    period = ((1 << (w * n * (bound // n + 1))) - 1) // ((1 << (w * n)) - 1)

    def mod_p(x: int) -> int:
        return x - p * ((x * recip >> shift) & mask)

    # slot i is in row (ell - i) mod (p-1): row ell is 1, those above vanish
    sieve = sum(slot << (w * j) for j in [0, *range(ell + 1, n)]) * period
    sieve &= slots
    if pv.sres:
        sres = PolySystem([poly.items() for poly in pv.sres], pv.p, ell)
    step = pack_slots([math.comb(n, i) % p for i in range(p)], width)
    b = pack_slots([math.comb(ell, i) % p for i in range(ell + 1)], width)
    hits = []
    for m in range(ell, bound + 1, n):
        if b & sieve == 1 and (not pv.sres or sres.vanishes_packed(
                *_survivor_point(sres, b, m, w))):
            hits.append(m)
        b = mod_p(b * step) & slots
    return hits


def _survivor_point(sres: PolySystem, b: int, m: int, w: int):
    """e_1..e_ell' of the survivor m, as the arguments (xs, width, fold) of
    sres.vanishes_packed. e_k is b = (t+1)^m (w bits a slot) on the Lucas
    positions i of digit sum k, whose digits k_l are at most the digits d_l
    of m (exponent_set); a nonzero slot of b elsewhere, or a digit sum of
    m other than ell', raises InternalError. Slot i goes to slot
    sum k_l R_l of the layout torus.digit_box gives products of D
    coordinates: the digit box, where no product carries between digits
    and fold maps box slots to powers of t, or the dense slots, R_l = p^l
    and fold None, when those are fewer."""
    p, ell, D = sres.p.p, sres.n_vars, sres.degree
    layout, fold = digit_box(m, p, D)
    # (i, box slot, digit sum of i) for each Lucas position i
    pos, power = [(0, 0, 0)], 1
    for d, radix in layout:
        pos = [(i + k * power, s + k * radix, ds + k)
               for k in range(d + 1) for i, s, ds in pos]
        power *= p
    if pos[-1][2] != ell:  # pos[-1] is i = m
        raise InternalError("survivor's digit sum is not sum(c)")
    slot = (1 << w) - 1
    if b & ~sum(slot << (w * i) for i, _, _ in pos):
        raise InternalError("binomial row nonzero off its Lucas positions")
    width = sres.width(len(pos))
    bits = 8 * width
    xs = [0] * (ell + 1)
    for i, s, ds in pos:
        xs[ds] |= (b >> (w * i) & slot) << (s * bits)
    return xs[1:], width, fold


# ---------------------------------------------------------------------------
# Encoding recurrences as torus dynamics
# ---------------------------------------------------------------------------


class LrsEncoding(Record):
    """Companion realization with pi(Phi^n(Q)) = P^(u_n)."""

    __slots__ = ("N", "phi_matrix", "pi_exponents", "Q", "base_point",
                 "initial_exponents")

    def __init__(self, N: int, phi_matrix: tuple[tuple[int, ...], ...],
                 pi_exponents: tuple[int, ...], Q: TorusPoint,
                 base_point: RatFunc, initial_exponents: tuple[int, ...]):
        self._init(N, phi_matrix, pi_exponents, Q, base_point,
                   initial_exponents)


def encode_lrs(u: Lrs, P: RatFunc, p: PrimeModulus) -> LrsEncoding:
    """Companion matrix acting on exponent windows (u_n, ..., u_(n+d-1));
    first-coordinate projection reads off P^(u_n)."""
    if P.is_zero():
        raise DomainError("base point must be nonzero")
    d = u.order
    q = TorusPoint(tuple(ratfunc_int_pow(P, u.initial[i]) for i in range(d)))
    return LrsEncoding(d, tuple(map(tuple, companion_matrix(u))),
                       (1,) + (0,) * (d - 1), q, P,
                       tuple(u.initial))


def encoding_exponent(enc: LrsEncoding, n: int) -> int:
    """Exponent e with pi(Phi^n(Q)) = P^e, via the matrix action."""
    m = mat_pow([list(r) for r in enc.phi_matrix], n)
    return sum(pe * sum(m[i][j] * enc.initial_exponents[j]
                        for j in range(enc.N))
               for i, pe in enumerate(enc.pi_exponents))


def dml_instance(u: Lrs, p: PrimeModulus, c: list[int]
                 ) -> tuple[TorusSelfMap, TorusPoint, Variety]:
    """Torus instance whose return set is {n : u_n = sum c_i p^(n_i)}.

    One companion block per coordinate of P = (t+1, ..., t+p-1); the p-set
    variety pulls back along the blockwise first-coordinate projections.
    """
    pvar = build_pset_variety(p, c)
    d = u.order
    n_amb = (p.p - 1) * d
    block = companion_matrix(u)
    big = [[0] * n_amb for _ in range(n_amb)]
    for b in range(p.p - 1):
        for i in range(d):
            for j in range(d):
                big[b * d + i][b * d + j] = block[i][j]
    coords = []
    for a in range(1, p.p):
        base = RatFunc(FpPoly([a, 1], p))
        for i in range(d):
            coords.append(ratfunc_int_pow(base, u.initial[i]))
    start = TorusPoint(tuple(coords))
    equations = []
    for eq in pvar.X.equations:
        new_terms = []
        for ev, coeff in eq:
            big_ev = [0] * n_amb
            for a_idx, e in enumerate(ev):
                if e:
                    big_ev[a_idx * d] = e
            new_terms.append((tuple(big_ev), coeff))
        equations.append(tuple(new_terms))
    phi = TorusSelfMap.endomorphism(big, p)
    return phi, start, Variety(n_amb, tuple(equations))
