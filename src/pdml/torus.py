"""Dynamics of affine self-maps x -> y * [A]x on split tori over F_p(t).

Every coordinate of Phi^n(alpha) is a product of powers of the irreducible
factors of alpha and y, so orbits are exponent rows: a unit mod p and one
int that packs a signed exponent per key of a sorted basis of monic
irreducibles, in slots as wide as a bound proven before the orbit is
walked. A step row_i <- y_i + sum_j A_ij row_j is then a few int products,
so points like (t+1)^(10^8) stay cheap. Points and varieties keep their
factorizations, and maps what depends on them alone, built on first use.
Membership is a row ratio test for two terms, a digit-sum test for linear
equations in equal Frobenius powers (from coordinate shapes decoded once
per step), and otherwise a packed sum in the base-p digit box of the
terms' common exponent, under the degree cap. A preperiodic orbit is
walked only to its first detected repeat.
Everything user-facing remains plain RatFunc coordinates; dense iteration
(selfmap_iterate, variety_contains) stays as the independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .errors import DomainError, InternalError, UsageError
from .exact import (FpPoly, PrimeModulus, RatFunc, Record, _guard_size,
                    derived, pack_slots, poly_factor, ratfunc_int_pow,
                    slot_bytes, unpack_slots)
from .lrs import (Lrs, _cyclotomic_orders, _poly_mul_z, _synthetic_div,
                  char_poly_of_matrix, distinct_blocks, lrs_char_roots,
                  lrs_prefix, lrs_root_p_dependence, mat_mul, mat_power_bound)
from .psets import ReturnSetDesc

Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows) -> Matrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if not m or any(len(row) != len(m) for row in m):
        raise DomainError("matrix must be square and nonempty")
    return m


class TorusPoint(Record):
    """Point of G_m^N: every coordinate a nonzero element of F_p(t)."""

    # _derived: the coordinates' factorizations, made by factor_point
    __slots__ = ("coords", "_derived")

    def __init__(self, coords: tuple[RatFunc, ...]):
        coords = tuple(coords)
        if not coords:
            raise DomainError("need at least one coordinate")
        if any(c.is_zero() for c in coords):
            raise DomainError("torus points have nonzero coordinates")
        self._init(coords, {})

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def modulus(self) -> PrimeModulus:
        return self.coords[0].modulus

    @staticmethod
    def identity(n: int, p: PrimeModulus) -> "TorusPoint":
        return TorusPoint(tuple(RatFunc.one(p) for _ in range(n)))

    def is_identity(self) -> bool:
        return all(c.is_one() for c in self.coords)

    def __mul__(self, other: "TorusPoint") -> "TorusPoint":
        if self.dim != other.dim:
            raise UsageError("dimension mismatch")
        return TorusPoint(tuple(a * b for a, b in
                                zip(self.coords, other.coords)))


class TorusSelfMap(Record):
    """x -> translation * [matrix]x with the matrix acting multiplicatively."""

    # _derived: what depends on the map alone, built on first use
    __slots__ = ("matrix", "translation", "_derived")

    def __init__(self, matrix: Matrix, translation: TorusPoint):
        matrix = _as_matrix(matrix)
        if len(matrix) != translation.dim:
            raise DomainError("matrix size and translation dimension differ")
        self._init(matrix, translation, {})

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def is_endomorphism(self) -> bool:
        return self.translation.is_identity()

    @staticmethod
    def endomorphism(matrix, p: PrimeModulus) -> "TorusSelfMap":
        m = _as_matrix(matrix)
        return TorusSelfMap(m, TorusPoint.identity(len(m), p))


Equation = tuple[tuple[tuple[int, ...], RatFunc], ...]


class Variety(Record):
    """Zero set of Laurent polynomials; an empty list is the whole torus."""

    # _derived: the factored equations, made by _factor_equations
    __slots__ = ("n_vars", "equations", "_derived")

    def __init__(self, n_vars: int, equations: tuple[Equation, ...]):
        eqs = []
        for eq in equations:
            terms = tuple((tuple(int(e) for e in ev), c) for ev, c in eq)
            for ev, _ in terms:
                if len(ev) != n_vars:
                    raise DomainError("exponent vector has wrong length")
            eqs.append(terms)
        self._init(n_vars, tuple(eqs), {})


def endo_apply(matrix, x: TorusPoint) -> TorusPoint:
    """([A]x)_i = prod_j x_j^(A_ij); negative entries use inverses."""
    m = _as_matrix(matrix)
    if len(m[0]) != x.dim:
        raise UsageError("dimension mismatch")
    if x.is_identity():  # 1^a = 1
        return x
    coords = []
    for row in m:
        acc = RatFunc.one(x.modulus)
        for a, xj in zip(row, x.coords):
            if a:
                acc = acc * ratfunc_int_pow(xj, a)
        coords.append(acc)
    return TorusPoint(tuple(coords))


def selfmap_apply(phi: TorusSelfMap, x: TorusPoint) -> TorusPoint:
    return phi.translation * endo_apply(phi.matrix, x)


def selfmap_compose(f: TorusSelfMap, g: TorusSelfMap) -> TorusSelfMap:
    """(f o g)(x) = f(g(x)): matrices multiply, translations twist."""
    return TorusSelfMap(
        mat_mul([list(r) for r in f.matrix], [list(r) for r in g.matrix]),
        f.translation * endo_apply(f.matrix, g.translation))


def selfmap_iterate(phi: TorusSelfMap, alpha: TorusPoint, n: int
                    ) -> TorusPoint:
    """Phi^n(alpha) by binary composition of affine pairs."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return alpha
    acc: TorusSelfMap | None = None
    base = phi
    e = n
    while e:
        if e & 1:
            acc = base if acc is None else selfmap_compose(acc, base)
        e >>= 1
        if e:
            base = selfmap_compose(base, base)
    return selfmap_apply(acc, alpha)


def variety_contains(v: Variety, x: TorusPoint) -> bool:
    """Exact membership: every equation evaluates to zero."""
    if v.n_vars != x.dim:
        raise UsageError("dimension mismatch")
    powers: dict[tuple[int, int], RatFunc] = {}

    def coord_pow(i: int, e: int) -> RatFunc:
        key = (i, e)
        if key not in powers:
            powers[key] = ratfunc_int_pow(x.coords[i], e)
        return powers[key]

    for eq in v.equations:
        acc = RatFunc.zero(x.modulus)
        for ev, coeff in eq:
            term = coeff
            for i, e in enumerate(ev):
                if e:
                    term = term * coord_pow(i, e)
            acc = acc + term
        if not acc.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Factored values: unit * prod (monic irreducible)^exponent
# ---------------------------------------------------------------------------


class Factored:
    """Element of F_p(t)^* in factored form with exact integer exponents.

    Keys are monic irreducible polynomials (by canonical coefficient tuple).
    """

    __slots__ = ("unit", "powers", "p")

    def __init__(self, unit: int, powers: dict[tuple[int, ...], int],
                 p: PrimeModulus):
        self.unit = unit % p.p
        self.powers = {k: e for k, e in powers.items() if e != 0}
        self.p = p
        if self.unit == 0:
            raise DomainError("factored values are nonzero")

    @staticmethod
    def from_ratfunc(x: RatFunc) -> "Factored":
        """Factor a nonzero x; numerator and denominator are coprime and the
        denominator is monic, so the unit is the numerator's leading
        coefficient."""
        unit, factors = poly_factor(x.num)
        powers = {f.coeffs: m for f, m in factors}
        for f, m in poly_factor(x.den)[1]:
            powers[f.coeffs] = -m
        return Factored(unit, powers, x.modulus)

    def __repr__(self):
        return f"Factored(unit={self.unit}, powers={self.powers})"


def factor_point(x: TorusPoint) -> list[Factored]:
    """The coordinates' factorizations, computed once per point."""
    return list(derived(x, "factors", lambda: [
        Factored.from_ratfunc(c) for c in x.coords]))


# ---------------------------------------------------------------------------
# Exponent rows: a unit mod p and the exponents over a shared basis, packed
# ---------------------------------------------------------------------------


# (unit, sum_i e_i 2^(8 w i)) with |e_i| < 2^(8 w - 1): linear, one-to-one
Row = tuple[int, int]


def _basis(*groups: list[Factored]) -> list[tuple[int, ...]]:
    """The sorted monic irreducible keys of every value in groups."""
    return sorted({k for g in groups for f in g for k in f.powers})


def _height(*values: Factored) -> int:
    """The largest |exponent| of any of the values."""
    return max((abs(e) for f in values for e in f.powers.values()), default=0)


def _orbit_height(phi: TorusSelfMap, start: int, y: int, n_max: int) -> int:
    """A bound on every |exponent| of Phi^n(alpha), n <= n_max: the rows are
    A^n alpha + sum_(k<n) A^k y, so M (|alpha| + n_max |y|) bounds them when
    M, kept per map, bounds the row sums ||A^k|| for k <= n_max."""
    return derived(phi, ("power bound", n_max), mat_power_bound, phi.matrix,
                  n_max) * (start + n_max * y)


def _rows(values: list[Factored], basis: list[tuple[int, ...]], width: int
          ) -> list[Row]:
    index = {k: 8 * width * i for i, k in enumerate(basis)}
    return [(f.unit, sum(e << index[k] for k, e in f.powers.items()))
            for f in values]


def _sparse(matrix) -> list[list[tuple[int, int]]]:
    """The (column, entry) pairs of each row's nonzero entries."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in matrix]


def _combine(base: Row, exps: list[tuple[int, int]], rows: list[Row],
             p: int) -> Row:
    """base * prod rows[j]^e over the pairs (j, e) of exps; units are
    nonzero mod p, so their exponents reduce mod p - 1."""
    unit, acc = base
    for j, e in exps:
        u, row = rows[j]
        if u != 1:
            unit = unit * pow(u, e % (p - 1), p) % p
        acc += e * row
    return unit, acc


def _orbit(phi: TorusSelfMap, start: list[Row], y_rows: list[Row], p: int,
           n_max: int):
    """The rows of Phi^n(start) for n = 0..n_max."""
    step = _sparse(phi.matrix)
    cur = start
    for n in range(n_max + 1):
        yield cur
        if n < n_max:
            cur = [_combine(y, row, cur, p) for y, row in zip(y_rows, step)]


# ---------------------------------------------------------------------------
# Equation evaluation on Frobenius-power points
# ---------------------------------------------------------------------------


def _digit_sum(m: int, p: int) -> int:
    s = 0
    while m:
        s += m % p
        m //= p
    return s


def _structured_zero_test(lin: list[tuple[int, int]], const: int, m: int,
                          p: int) -> bool:
    """Is sum_a lam_a (t + s_a)^m + const zero over F_p?

    Precondition: the shifts s_a are distinct and nonzero mod p (the one
    caller, _linear_zero, keys lam by shift, and _shape rejects s = 0).
    The Frobenius factorization (t+s)^m = prod_i (t^(p^i) + s)^(d_i) over
    the base-p digits d_i of m makes every coefficient a binomial product
    (nonzero mod p by Lucas) times W(K) = sum_a lam_a s_a^K, so the
    polynomial vanishes iff W does on the achievable exponent range.
    """
    lam = [(s % p, l % p) for s, l in lin]
    if m == 0:
        return (sum(l for _, l in lam) + const) % p == 0
    if m < 0:
        return all(l == 0 for _, l in lam) and const % p == 0
    D = _digit_sum(m, p)
    powers = [1] * len(lam)
    for _ in range(min(D, p - 1)):
        if sum(l * x for (_, l), x in zip(lam, powers)) % p:
            return False
        powers = [x * s % p for (s, _), x in zip(lam, powers)]
    return (sum(l * pow(s, D % (p - 1), p) for s, l in lam) + const) % p == 0


def digit_box(m: int, p: int, D: int
              ) -> tuple[list[tuple[int, int]], list[int] | None]:
    """Slots for products of D factors (t + s)^m = prod_l (T_l + s)^(d_l),
    T_l = t^(p^l) over the base-p digits d_l of m: T_l^j at slot j R_l,
    R_l = prod_(k<l) (D d_k + 1), so no digit carries, and fold maps slots
    to powers of t; or, when its D m + 1 slots are fewer, the dense layout
    (R_l = p^l, fold None). Returns [(d_l, R_l)] and fold, cap checked."""
    digits, rest, box = [], m, 1
    while rest:
        rest, d = divmod(rest, p)
        digits.append(d)
        box *= D * d + 1
    if box > D * m + 1:
        _guard_size(D * m + 1)
        return [(d, p ** l) for l, d in enumerate(digits)], None
    _guard_size(box)
    layout, fold, power = [], [0], 1
    for d in digits:
        layout.append((d, len(fold)))
        if d:
            fold = [e + k * power for k in range(D * d + 1) for e in fold]
        power *= p
    return layout, fold


def box_zero(total: int, width: int, fold: list[int] | None, p: int
             ) -> bool:
    """Is the packed sum total (width-byte slots of a digit_box layout)
    zero mod p once slots that share a power of t, fold[s], are added?"""
    values = unpack_slots(total, width, -(-total.bit_length() // (8 * width)))
    if fold is not None:
        if len(values) > len(fold):
            raise InternalError("packed sum outgrew its digit box")
        folded: dict[int, int] = {}
        for e, v in zip(fold, values):
            folded[e] = folded.get(e, 0) + v
        values = folded.values()
    return not any(v % p for v in values)


FactoredEquation = list[tuple[tuple[int, ...], Factored]]


def _factor_equations(v: Variety) -> list[FactoredEquation]:
    """The equations with their nonzero coefficients factored, computed
    once per variety; zero coefficients drop out."""
    return derived(v, "factored", lambda: [
        [(ev, Factored.from_ratfunc(c)) for ev, c in eq if not c.is_zero()]
        for eq in v.equations])


# (sparse exponent vector, coefficient row) per term
RowEquation = list[tuple[list[tuple[int, int]], Row]]
# (sum of the constants c, [(j, e, c)] for the terms c x_j^e)
LinearPlan = tuple[int, list[tuple[int, int, int]]]


def _plan(eq: RowEquation, p: int) -> tuple | None:
    """What _equation_zero needs of eq, once per call: for two terms the
    coefficient row and exponents of their quotient; for more, each a
    constant or a constant times a coordinate power, a LinearPlan."""
    if len(eq) == 2:
        (ev_a, (ua, qa)), (ev_b, (ub, qb)) = eq
        diff = dict(ev_a)
        for j, e in ev_b:
            diff[j] = diff.get(j, 0) - e
        return ((ua * pow(ub, -1, p) % p, qa - qb),
                [(j, e) for j, e in diff.items() if e])
    if len(eq) < 2 or any(q or len(ev) > 1 for ev, (_, q) in eq):
        return None
    return (sum(c for ev, (c, _) in eq if not ev),
            [(j, e, c) for ev, (c, _) in eq for j, e in ev])


def _equation_zero(eq: tuple[RowEquation, tuple | None], cur: list[Row],
                   shapes: list | None, known: dict, powers: dict,
                   basis: list[tuple[int, ...]], p: PrimeModulus,
                   width: int) -> bool:
    """Exact zero test of one equation (with its _plan) at the rows cur.

    One term never vanishes; two vanish iff their quotient is -1, whose
    degrees are exact: its row is (p - 1, 0). Linear combinations of
    equal Frobenius powers of distinct linear bases take _linear_zero, the
    rest _expanded_zero; known (linear verdicts) and powers (digit powers)
    are their tables for one return_set call.
    """
    terms, plan = eq
    pv = p.p
    if len(terms) < 2:
        return not terms
    if len(terms) == 2:
        return _combine(*plan, cur, pv) == (pv - 1, 0)
    if plan is not None:
        linear = _linear_zero(plan, shapes, known, pv)
        if linear is not None:
            return linear
    rows = [_combine(coeff, ev, cur, pv) for ev, coeff in terms]
    return _expanded_zero(rows, basis, p, width, powers)


def _shape(row: Row, basis: list[tuple[int, ...]], width: int
           ) -> tuple[int, int, int] | None:
    """(unit, s, m) for a row unit (t + s)^m with s, m != 0, else None."""
    unit, q = row
    if not q:
        return None
    # the lowest nonzero slot; q holds no other slot iff its value there
    # lies inside the balanced-digit bound
    i = ((q & -q).bit_length() - 1) // (8 * width)
    m = q >> (8 * width * i)
    if abs(m) >= 1 << (8 * width - 1) or len(basis[i]) != 2 or \
            basis[i][0] == 0:
        return None
    return unit, basis[i][0], m


def _linear_zero(plan: LinearPlan, shapes: list, known: dict, p: int
                 ) -> bool | None:
    """_structured_zero_test at coordinates u (t + s)^m of one exponent
    e m, kept in known by (lambda per shift, constant, class of the digit
    sum D of e m: D below p - 1, else D mod (p - 1)); None if a coordinate
    has another shape or the exponents differ."""
    const, lin = plan
    lam: dict[int, int] = {}
    m = None
    for j, e, c in lin:
        shape = shapes[j]
        if shape is None:
            return None
        u, s, mj = shape
        if e * mj != m:
            if m is not None:
                return None
            m = e * mj
        if u != 1:
            c = c * pow(u, e % (p - 1), p)
        lam[s] = (lam.get(s, 0) + c) % p
    if m is None:
        return const % p == 0
    D = _digit_sum(m, p) if m > 0 else -1
    # no sort: the plan fixes the order, and another would only miss
    key = (tuple(lam.items()), const % p,
           D if D < p - 1 else p - 1 + D % (p - 1))
    if key not in known:
        known[key] = _structured_zero_test(list(key[0]), key[1], m, p)
    return known[key]


def _expanded_zero(terms: list[Row], basis: list[tuple[int, ...]],
                   p: PrimeModulus, width: int, table: dict) -> bool:
    """Zero test in the digit box of the terms' common exponent, the only
    route that decodes whole rows. Stripping the common monomial leaves
    zeroness alone and makes each term u prod_i Y_i^(k_i), Y_i = key_i^g
    for g the gcd of the exponents left, of degree at most D g, D the
    largest sum_i deg(key_i) k_i; digit_box lays it out. Powers are built
    reduced mod p: densely, or in the box as tensor products of digit
    powers key_i(T_l)^(k d_l), which table keeps. A term is the unreduced
    big-int product of packed powers: of the Y_i, at most D factors, while
    those slots fit a machine word, else of one reduced power per (key,
    exponent), at most K = len(term) factors; box_zero tests the sum.
    Slots hold len(terms) (p-1)^(K+1) N^(K-1) (K = D for the Y_i) for
    factors of at most N nonzero coefficients below p, as K of them
    multiply to coefficients below (p-1)^K N^(K-1). The product of a
    term's K factors, each of up to all the layout's slots, is held under
    the degree cap counted in 8-byte words.
    """
    # all rows, biased into unsigned slots, unpacked at once
    n, w = len(basis), 8 * width
    bias = (1 << (w - 1)) * ((1 << (w * n)) - 1) // ((1 << w) - 1)
    flat = unpack_slots(sum((q + bias) << (w * n * k)
                            for k, (_, q) in enumerate(terms)),
                        width, n * len(terms))
    rows = [flat[k * n:k * n + n] for k in range(len(terms))]
    common = [min(col) for col in zip(*rows)]
    exps = [[(i, e - c) for i, e, c in zip(range(n), row, common) if e > c]
            for row in rows]
    pv = p.p
    g = gcd(*(e for ex in exps for _, e in ex))
    if not g:
        return sum(unit for unit, _ in terms) % pv == 0
    D = max(sum((len(basis[i]) - 1) * e for i, e in ex) for ex in exps) // g
    layout, fold = digit_box(g, pv, D)
    digits = [d for d, _ in layout if d]

    def power(i: int, k: int) -> list[int]:
        """key_i^(k g) reduced mod p in the layout: one dense power, or
        the tensor product of the digit powers key_i(T_l)^(k d_l), T_l^j
        at slot j R_l with R_l = len(y), which table keeps."""
        if fold is None:
            return (FpPoly(basis[i], p, _canonical=True) ** (k * g)).coeffs
        y = [1]
        for d in digits:
            if (i, k * d) not in table:
                table[i, k * d] = (FpPoly(basis[i], p, _canonical=True)
                                   ** (k * d)).coeffs
            r = len(y)
            out = [0] * (r * (D * d + 1))
            for j, c in enumerate(table[i, k * d]):
                out[j * r:j * r + r] = [c * x % pv for x in y]
            y = out
        return y

    powers = {f for ex in exps for f in ex}
    K = max(map(len, exps))
    box = len(fold) if fold is not None else D * g + 1
    ys = {i: power(i, 1) for i in {i for i, _ in powers}}
    N = max(len(y) - y.count(0) for y in ys.values())
    slot = slot_bytes(len(terms) * (pv - 1) ** (D + 1) * N ** (D - 1))
    # powers of the Y_i are plain int powers, but their slots grow with D:
    # they are taken while slots are machine words (x^500 at g = 1 would
    # need 225-byte slots and ran about 80 times slower than with reduced
    # powers)
    if slot <= 8:
        _guard_size(K * box * slot // 8, "packed product of {} 8-byte words")
        ys = {i: pack_slots(y, slot) for i, y in ys.items()}
        packed = {(i, e): ys[i] ** (e // g) for i, e in powers}
    else:
        ys = {(i, e): power(i, e // g) for i, e in powers}
        N = max(len(y) - y.count(0) for y in ys.values())
        slot = slot_bytes(len(terms) * (pv - 1) ** (K + 1) * N ** (K - 1))
        _guard_size(K * box * slot // 8, "packed product of {} 8-byte words")
        packed = {f: pack_slots(y, slot) for f, y in ys.items()}
    return box_zero(sum(unit * prod(packed[f] for f in ex)
                        for (unit, _), ex in zip(terms, exps)),
                    slot, fold, pv)


# ---------------------------------------------------------------------------
# Return sets
# ---------------------------------------------------------------------------


def return_set(phi: TorusSelfMap, alpha: TorusPoint, v: Variety,
               n_max: int) -> list[int]:
    """{n <= n_max : Phi^n(alpha) in V} by sequential iteration.

    alpha, y and the equation coefficients become rows over one basis; a
    step cur -> y * [A]cur is an integer row recurrence. One orbit row is
    kept, replaced at every n that is a power of two (R. P. Brent, BIT 20
    (1980)), and each new row is compared with it. Rows are one-to-one, so
    the first n whose row equals the one kept from m has Phi^n(alpha) =
    Phi^m(alpha): the orbit repeats with period n - m from m on, and the
    hits beyond n are read off those of m..n-1 without testing. A
    preperiodic orbit (finite-order map, torsion start point) stops within
    about twice its preperiod plus period; any other orbit pays one row
    comparison per step."""
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    if v.n_vars != alpha.dim or phi.dim != alpha.dim:
        raise UsageError("dimension mismatch")
    p = alpha.modulus
    f_eqs = _factor_equations(v)
    f_y = factor_point(phi.translation)
    f_alpha = factor_point(alpha)
    basis = _basis(f_alpha, f_y, *([f for _, f in eq] for eq in f_eqs))
    reach = _orbit_height(phi, _height(*f_alpha), _height(*f_y), n_max)
    width = slot_bytes(2 * max([reach] + [
        _height(f) + reach * sum(map(abs, ev)) for eq in f_eqs for ev, f in eq
    ]) + 1)
    equations = [list(zip(_sparse([ev for ev, _ in eq]),
                          _rows([f for _, f in eq], basis, width)))
                 for eq in f_eqs]
    equations = [(eq, _plan(eq, p.p)) for eq in equations]
    # the coordinates linear plans read, shaped once per step
    linear = sorted({j for eq, plan in equations if plan and len(eq) > 2
                     for j, _, _ in plan[1]})
    known: dict = {}
    powers: dict = {}
    shapes = None
    orbit = _orbit(phi, _rows(f_alpha, basis, width),
                   _rows(f_y, basis, width), p.p, n_max)
    inside: list[bool] = []
    saved, m = None, 0
    for n, cur in enumerate(orbit):
        if cur == saved:
            inside += [inside[m + (k - m) % (n - m)]
                       for k in range(n, n_max + 1)]
            break
        if not n & (n - 1):
            saved, m = cur, n
        if linear:
            shapes = [None] * len(cur)
            for j in linear:
                shapes[j] = _shape(cur[j], basis, width)
        inside.append(all(_equation_zero(eq, cur, shapes, known, powers,
                                         basis, p, width)
                          for eq in equations))
    return [n for n, hit in enumerate(inside) if hit]


# ---------------------------------------------------------------------------
# Minimal polynomial and the decomposition of Phi^n
# ---------------------------------------------------------------------------


def minimal_polynomial(a) -> tuple[int, ...]:
    """Minimal monic polynomial of an integer matrix, lowest degree first.

    It is the lcm of the minimal polynomials of the blocks of matrix_blocks,
    which repeated blocks do not change, so A is first cut down to one copy
    of each distinct block (distinct_blocks). Finds the least degree l with
    A^l in the span of lower powers by exact rational elimination; the
    result has integer coefficients because A is integral over Z.
    """
    full = _as_matrix(a)
    keep = [i for idx in distinct_blocks(full) for i in idx]
    m = [[full[i][j] for j in keep] for i in keep]
    n = len(m)
    vecs = [[Fraction(int(i == j)) for i in range(n) for j in range(n)]]
    for l in range(1, n + 1):
        # A^l only when no lower degree gave a dependency
        power = mat_mul(power, m) if l > 1 else m
        vecs.append([Fraction(x) for row in power for x in row])
        sol = _solve_exact(vecs[:l], vecs[l])
        if sol is not None:
            coeffs = [-c for c in sol] + [Fraction(1)]
            if any(c.denominator != 1 for c in coeffs):
                raise InternalError("minimal polynomial is not integral")
            return tuple(int(c) for c in coeffs)
    raise InternalError("Cayley-Hamilton guarantees degree <= n")


def _solve_exact(columns: list[list[Fraction]], target: list[Fraction]
                 ) -> list[Fraction] | None:
    """Solve sum x_i columns[i] = target exactly, or None if inconsistent."""
    rows = len(target)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [target[i]]
           for i in range(rows)]
    piv_cols: list[int] = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(rows):
        if all(aug[i][j] == 0 for j in range(k)) and aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][k]
    return sol


class ReductionData(Record):
    """Phi^n(alpha) = prod_i [u_i(n)]Q_i * prod_i [v_i(n)](A^i alpha).

    v-sequences express A^n in the basis A^0..A^(l-1) (delta initial
    conditions, minimal-polynomial recurrence); u-sequences expand the
    geometric operator sum S_n = I + A + ... + A^(n-1) in the triangular
    basis S_1..S_l, so their recurrence is (x - 1) times the minimal
    polynomial. Q_i = prod_{j<i} [A^j]y.
    """

    __slots__ = ("minpoly", "u_seqs", "v_seqs", "q_points")

    def __init__(self, minpoly: tuple[int, ...], u_seqs: tuple[Lrs, ...],
                 v_seqs: tuple[Lrs, ...], q_points: tuple[TorusPoint, ...]):
        self._init(minpoly, u_seqs, v_seqs, q_points)


def reduction_decompose(phi: TorusSelfMap, alpha: TorusPoint
                        ) -> ReductionData:
    """The decomposition of Phi^n as ReductionData. It reads only phi, not
    alpha, so it is built once per map and shared by every start point."""
    return derived(phi, "reduction", _reduction, phi)


def _reduction(phi: TorusSelfMap) -> ReductionData:
    minpoly = minimal_polynomial(phi.matrix)
    l = len(minpoly) - 1
    v_seqs = tuple(
        Lrs(minpoly[:-1], tuple(int(i == j) for j in range(l)))
        for i in range(l))
    # s_{n+1} = x*s_n + 1 in Z[x]/(minpoly); u_i(n) = c_{i-1}(s_n) - c_i(s_n)
    urec = _poly_mul_z(minpoly, (-1, 1))
    s: list[int] = [0] * l
    u_init: list[list[int]] = [[] for _ in range(l)]
    for _ in range(l + 1):
        coeffs = s + [0]
        for i in range(1, l + 1):
            u_init[i - 1].append(coeffs[i - 1] - coeffs[i])
        s = _shift_mod(s, minpoly)
        s[0] += 1
    u_seqs = tuple(Lrs(urec[:-1], tuple(u_init[i])) for i in range(l))
    # q_1 = y and q_(i+1) = q_i * A^i(y), so A^l is never needed
    q_points = [phi.translation]
    for apow in _matrix_powers(phi.matrix, l)[1:]:
        q_points.append(q_points[-1] * endo_apply(apow, phi.translation))
    return ReductionData(minpoly, u_seqs, v_seqs, tuple(q_points))


def _matrix_powers(m, count: int) -> list:
    """[I, m, ..., m^(count-1)], by count - 2 products."""
    n = len(m)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], m][:count]
    while len(powers) < count:
        powers.append(mat_mul(powers[-1], m))
    return powers


def _shift_mod(s: list[int], minpoly: tuple[int, ...]) -> list[int]:
    """x * s mod minpoly over Z, for monic minpoly of degree l = len(s)."""
    out = [0] + s[:-1]
    lead = s[-1]
    if lead:
        for i in range(len(s)):
            out[i] -= lead * minpoly[i]
    return out


def verify_reduction(rd: ReductionData, phi: TorusSelfMap,
                     alpha: TorusPoint, n_max: int) -> bool:
    """Exact check of the decomposition identity for every n <= n_max.

    Both sides are computed independently as exponent rows over one basis:
    the left by iterating the affine map, the right from the stored
    recurrences and points.
    """
    l = len(rd.minpoly) - 1
    pv = alpha.modulus.p
    seqs = [lrs_prefix(seq[i], n_max) for seq in (rd.u_seqs, rd.v_seqs)
            for i in range(l)]
    f_alpha = factor_point(alpha)
    f_y = factor_point(phi.translation)
    f_q = [factor_point(rd.q_points[i]) for i in range(l)]
    basis = _basis(f_alpha, f_y, *f_q)
    apows = _matrix_powers(phi.matrix, l)
    h_alpha = _height(*f_alpha)
    # the largest |exponent| of any coordinate of each right-side factor
    h_factors = [_height(*fq) for fq in f_q] + [
        h_alpha * max(sum(map(abs, row)) for row in ap) for ap in apows]
    width = slot_bytes(2 * max(
        [_orbit_height(phi, h_alpha, _height(*f_y), n_max)]
        + [sum(abs(s[n]) * h for s, h in zip(seqs, h_factors))
           for n in range(n_max + 1)]) + 1)
    alpha_rows = _rows(f_alpha, basis, width)
    aa_rows = [[_combine((1, 0), row, alpha_rows, pv) for row in _sparse(ap)]
               for ap in apows]
    # coordinate d of the right side is prod_k factors[d][k]^seqs[k][n]
    q_rows = [_rows(f, basis, width) for f in f_q]
    factors = [[q[d] for q in q_rows] + [aa[d] for aa in aa_rows]
               for d in range(alpha.dim)]
    orbit = _orbit(phi, alpha_rows, _rows(f_y, basis, width), pv, n_max)
    for n, cur in enumerate(orbit):
        exps = [(k, s[n]) for k, s in enumerate(seqs) if s[n]]
        if any(c != _combine((1, 0), exps, f, pv)
               for c, f in zip(cur, factors)):
            return False
    return True


# ---------------------------------------------------------------------------
# Frobenius obstruction (bounded decision)
# ---------------------------------------------------------------------------


# Default scan window (r, s) of frobenius_obstruction.
DEFAULT_R_MAX = 12
DEFAULT_S_MAX = 24


class ObstructionVerdict(Record):
    __slots__ = ("obstructed", "r", "s", "r_max", "s_max")

    def __init__(self, obstructed: bool, r: int | None = None,
                 s: int | None = None, r_max: int | None = None,
                 s_max: int | None = None):
        self._init(obstructed, r, s, r_max, s_max)

    def __str__(self):
        if self.obstructed:
            return f"obstructed({self.r},{self.s})"
        return f"clear-to-bound({self.r_max},{self.s_max})"


def frobenius_obstruction(a, p: PrimeModulus, r_max: int = DEFAULT_R_MAX,
                          s_max: int = DEFAULT_S_MAX) -> ObstructionVerdict:
    """Does some iterate act as a Frobenius power on a proper subgroup?

    Scans det(A^r - p^s I) = 0 for r <= r_max, s <= s_max in lexicographic
    order, each s only while p^s is within Cauchy's root bound; afterwards
    any integer eigenvalue of absolute value p^b forces obstructed(2, 2b)
    even beyond the scan window. A clear verdict is explicitly bounded.

    The r scan stops at R = 2 e max(2, max{k : phi(k) <= e}), e the size of
    the largest block of A, past which it finds nothing new: if lam^r = p^s,
    every conjugate of lam is lam times an r-th root of unity, so for
    d = deg lam <= e, lam^d / N(lam) is a root of unity in Q(lam), of an
    order k with phi(k) <= e, and N(lam) = +-p^j gives lam^(2dk) = p^(2jk).
    The pairs (r, s) of one lam are multiples of its least one, whose r is
    thus at most R and whose s is the least.
    """
    if r_max < 1 or s_max < 1:
        raise DomainError("bounds must be at least 1")
    m = [list(r) for r in _as_matrix(a)]
    e = max(map(len, distinct_blocks(m)))
    r_stop = min(r_max, 2 * e * max(
        [2] + [k for k, _, _ in _cyclotomic_orders(e)]))
    ar = m
    for r in range(1, r_stop + 1):
        if r > 1:
            ar = mat_mul(ar, m)
        cp = list(char_poly_of_matrix(ar))
        # a root of the monic cp is below 1 + max |c_i| (Cauchy), so the
        # scan stops at the first p^s above that
        bound = 1 + max(map(abs, cp[:-1]))
        ps = 1
        for s in range(0, s_max + 1):
            if ps > bound:
                break
            if _synthetic_div(cp, ps) is not None:
                return ObstructionVerdict(True, r, s)
            ps *= p.p
    minpoly = minimal_polynomial(m)
    roots = lrs_char_roots(Lrs(minpoly[:-1], (0,) * (len(minpoly) - 1)))
    for v in lrs_root_p_dependence(roots, p).verdicts:
        if v.dependent:
            return ObstructionVerdict(True, 2, 2 * v.s)
    return ObstructionVerdict(False, r_max=r_max, s_max=s_max)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def full_pipeline(phi: TorusSelfMap, alpha: TorusPoint, v: Variety,
                  n_max: int) -> ReturnSetDesc:
    """return_set followed by classify_hits."""
    return classify_hits(phi, return_set(phi, alpha, v, n_max), n_max)


def classify_hits(phi: TorusSelfMap, hits: list[int], n_max: int,
                  r_max: int = DEFAULT_R_MAX,
                  s_max: int = DEFAULT_S_MAX) -> ReturnSetDesc:
    """Fit-and-verify classification of the return set hits on [0, n_max].

    Pure endomorphisms that are clear of the Frobenius obstruction get the
    progressions-only shape; every other map also fits p-sets with at most
    two nontrivial exponent terms. The description always verifies against
    the raw hits on [0, n_max].
    """
    from .pexp import fit_solution_desc

    p = phi.translation.modulus
    notes: list[str] = []
    allow_psets = True
    if phi.is_endomorphism():
        verdict = derived(phi, ("obstruction", r_max, s_max),
                          frobenius_obstruction, phi.matrix, p, r_max, s_max)
        if not verdict.obstructed:
            allow_psets = False
            notes.append(f"no Frobenius obstruction: {verdict}; "
                         "progressions-only shape")
        else:
            notes.append(str(verdict))
    return fit_solution_desc(set(hits), p, n_max, allow_psets=allow_psets,
                             notes=tuple(notes))
