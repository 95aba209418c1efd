"""Integer linear recurrence sequences.

A sequence is stored as the recurrence u_{n+d} + c_{d-1} u_{n+d-1} + ... +
c_0 u_n = 0 together with its first d terms. The stored recurrence is the
one used for every derived computation; no hidden minimalization happens.
All arithmetic is exact over Python ints.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm

from .errors import DomainError, InternalError, UnsupportedError
from .exact import FpPoly, PrimeModulus, Record, _guard_size, is_prime

# Threshold below which lrs_eval iterates the recurrence (lrs_prefix) instead
# of powering the companion matrix.
_ITER_LIMIT = 1024


class Lrs(Record):
    """Integer linear recurrence sequence of fixed order.

    rec_coeffs = (c_0, ..., c_{d-1}) encodes
    u_{n+d} + c_{d-1} u_{n+d-1} + ... + c_0 u_n = 0.
    """

    __slots__ = ("rec_coeffs", "initial")

    def __init__(self, rec_coeffs: tuple[int, ...], initial: tuple[int, ...]):
        rec_coeffs, initial = tuple(rec_coeffs), tuple(initial)
        if len(rec_coeffs) < 1:
            raise DomainError("order must be at least 1")
        if len(initial) != len(rec_coeffs):
            raise DomainError("need exactly d initial terms for order d")
        self._init(rec_coeffs, initial)

    @property
    def order(self) -> int:
        return len(self.rec_coeffs)

    def char_poly(self) -> tuple[int, ...]:
        """Monic characteristic polynomial, lowest degree first (ends in 1)."""
        return self.rec_coeffs + (1,)


def lrs_from_char_poly(poly: tuple[int, ...], initial: tuple[int, ...]) -> Lrs:
    """Build an Lrs from a monic char polynomial (lowest degree first)."""
    if poly[-1] != 1:
        raise DomainError("characteristic polynomial must be monic")
    return Lrs(tuple(poly[:-1]), tuple(initial))


def fibonacci() -> Lrs:
    """x^2 - x - 1 with initial terms 0, 1."""
    return Lrs((-1, -1), (0, 1))


def constant(value: int) -> Lrs:
    return Lrs((-1,), (value,))


def lrs_eval(s: Lrs, n: int) -> int:
    """Exact u_n; companion-matrix binary powering for large n."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n < _ITER_LIMIT:
        return lrs_prefix(s, n)[n]
    m = mat_pow(companion_matrix(s), n)
    return sum(m[0][j] * s.initial[j] for j in range(s.order))


def lrs_prefix(s: Lrs, n_max: int) -> list[int]:
    """[u_0, ..., u_{n_max}] by forward iteration."""
    out = list(s.initial[: n_max + 1])
    window = list(s.initial)
    while len(out) <= n_max:
        nxt = -sum(c * u for c, u in zip(s.rec_coeffs, window))
        window.pop(0)
        window.append(nxt)
        out.append(nxt)
    return out


def companion_matrix(s: Lrs) -> list[list[int]]:
    """Companion matrix C with (u_n, ..., u_{n+d-1}) C-step = next window."""
    d = s.order
    m = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        m[i][i + 1] = 1
    for j in range(d):
        m[d - 1][j] = -s.rec_coeffs[j]
    return m


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    k, m = len(b), len(b[0])
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_pow(a: list[list[int]], e: int) -> list[list[int]]:
    n = len(a)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def matrix_blocks(a) -> list[list[int]]:
    """Index sets of the connected blocks of a square matrix's nonzero
    pattern (i ~ j when A_ij or A_ji is nonzero), each in increasing order;
    a simultaneous permutation makes them diagonal blocks."""
    n = len(a)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(n):
            if a[i][j]:
                parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def distinct_blocks(a) -> list[list[int]]:
    """The index sets of matrix_blocks, keeping only the first of the
    blocks that hold equal submatrices."""
    first: dict[tuple, list[int]] = {}
    for idx in matrix_blocks(a):
        first.setdefault(tuple(tuple(a[i][j] for j in idx) for i in idx), idx)
    return list(first.values())


def mat_power_bound(a, n: int) -> int:
    """A bound on the largest absolute row sum ||A^k|| for every k <= n.

    A^k is block diagonal over matrix_blocks, each distinct block bounded
    once (distinct_blocks), and ||B^k|| is at most
    max(1, ||B||)^n and at most the product of max(1, ||B^(2^j)||) over
    j < bit_length(n); for unipotent blocks, whose powers grow
    polynomially, the second has O(log^2 n) bits where the first has O(n)."""
    def norm(m) -> int:
        return max(1, max(sum(map(abs, row)) for row in m))

    bound = 1
    for idx in distinct_blocks(a):
        block = square = [[a[i][j] for j in idx] for i in idx]
        product = 1
        for j in range(n.bit_length()):
            square = mat_mul(square, square) if j else square
            product *= norm(square)
        bound = max(bound, min(product, norm(block) ** n))
    return bound


def char_poly_of_matrix(a: list[list[int]]) -> tuple[int, ...]:
    """det(xI - A) over Z, lowest degree first: the product over the
    blocks of matrix_blocks."""
    out: tuple[int, ...] = (1,)
    for idx in matrix_blocks(a):
        out = _poly_mul_z(out, _faddeev_leverrier(
            [[a[i][j] for j in idx] for i in idx]))
    return out


def _faddeev_leverrier(a: list[list[int]]) -> tuple[int, ...]:
    """det(xI - A) by Faddeev-LeVerrier; each division by k is exact for
    integer matrices."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        m = mat_mul(a, m)
        tr = sum(m[i][i] for i in range(n))
        if tr % k:
            raise InternalError("Faddeev-LeVerrier trace not divisible")
        c = -tr // k
        coeffs[n - k] = c
    return tuple(coeffs)


def _poly_mul_z(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def lrs_subsequence(s: Lrs, a: int, b: int,
                    poly: tuple[int, ...] | None = None,
                    values: list[int] | None = None) -> Lrs:
    """The sequence v_k = u_{a k + b} as an Lrs.

    v satisfies the recurrence whose characteristic polynomial is that of
    C^a, C the companion matrix of s; the order stays d. Its first d terms
    come from one prefix of u, or from powers of C past _ITER_LIMIT. A
    caller building many subsequences passes that polynomial as poly and a
    prefix reaching u_{b + a(d-1)} as values.
    """
    if a < 1:
        raise DomainError("step a must be positive")
    if b < 0:
        raise DomainError("offset b must be non-negative")
    if a == 1 and b == 0:
        return s
    if poly is None:
        poly = char_poly_of_matrix(mat_pow(companion_matrix(s), a))
    idx = range(b, b + a * s.order, a)
    if values is None and idx[-1] < _ITER_LIMIT:
        values = lrs_prefix(s, idx[-1])
    if values is None:
        init = tuple(lrs_eval(s, n) for n in idx)
    else:
        init = tuple(values[n] for n in idx)
    return lrs_from_char_poly(poly, init)


def lrs_zero_progression_certify(s: Lrs, a: int, b: int) -> bool:
    """Sound and complete certificate that u_{ak+b} = 0 for every k >= 0.

    The subsequence is an order-d' recurrence, so d' leading zeros force it
    to vanish identically.
    """
    sub = lrs_subsequence(s, a, b)
    return all(v == 0 for v in lrs_prefix(sub, sub.order - 1))


class CharRoots(Record):
    """Integer roots with multiplicity plus the unresolved integer factor.

    prod (x - r)^mult  *  unresolved_factor == char poly of the sequence,
    with unresolved_factor monic, lowest degree first.
    """

    __slots__ = ("integer_roots", "unresolved_factor")

    def __init__(self, integer_roots: tuple[tuple[int, int], ...],
                 unresolved_factor: tuple[int, ...]):
        self._init(integer_roots, unresolved_factor)

    def root_set(self) -> set[int]:
        return {r for r, _ in self.integer_roots}

    def fully_resolved(self) -> bool:
        return self.unresolved_factor == (1,)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int] | None:
    """num / den over Z if exact, else None. Lowest degree first, den monic-led."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        if num[i] == 0:
            continue
        if num[i] % den[-1] != 0:
            return None
        q = num[i] // den[-1]
        out[i - len(den) + 1] = q
        for j, c in enumerate(den):
            num[i - len(den) + 1 + j] -= q * c
    if any(num[: len(den) - 1]):
        return None
    return out


def lrs_char_roots(s: Lrs) -> CharRoots:
    """Integer roots with multiplicity and the factor left after dividing
    them out. Candidates are the simple roots mod a prime q of the
    squarefree part g, lifted by Newton's iteration mod q^(2^i) past twice
    the Cauchy bound of g, so every integer root is one of them; each is
    confirmed, and its multiplicity counted, by synthetic division."""
    poly = list(s.char_poly())
    roots: list[tuple[int, int]] = []
    # root 0 first: strip the zero coefficients at the low end
    mult0 = 0
    while len(poly) > 1 and poly[0] == 0:
        poly = poly[1:]
        mult0 += 1
    if mult0:
        roots.append((0, mult0))
    if len(poly) > 1:
        for r in _root_candidates(poly):
            mult = 0
            while len(poly) > 1:
                quo = _synthetic_div(poly, r)
                if quo is None:
                    break
                poly = quo
                mult += 1
            if mult:
                roots.append((r, mult))
    return CharRoots(tuple(sorted(roots)), tuple(poly))


def _root_candidates(f: list[int]) -> list[int]:
    """A list of integers holding every integer root of monic f."""
    g = _squarefree_part(f)
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 1 + max(map(abs, g))
    for q in filter(is_prime, itertools.count(2)):  # g mod q squarefree
        gq = FpPoly(g, PrimeModulus(q))
        if gq.gcd(gq.derivative()).degree == 0:
            break
    out = []
    for r in range(q):
        if _horner(g, r) % q:
            continue
        mod = q
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _horner(g, r) * pow(_horner(dg, r), -1, mod)) % mod
        out.append(r if 2 * r <= mod else r - mod)
    return out


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for monic f over Z.

    The gcd G is monic with integer coefficients, and G mod q divides the
    gcd mod every prime q. So the gcds mod primes of least degree are
    joined by the Chinese remainder theorem, and the first candidate that
    divides f and f' over Z is G: no gcd mod a prime has lower degree.
    """
    df = [i * c for i, c in enumerate(f)][1:]
    least, mod, crt = len(f), 1, []
    for q in filter(is_prime, itertools.count(2)):
        gq = FpPoly(f, PrimeModulus(q)).gcd(FpPoly(df, PrimeModulus(q)))
        if gq.degree > least:
            continue
        if gq.degree < least:
            least, mod, crt = gq.degree, 1, [0] * len(gq.coeffs)
        inv = pow(mod, -1, q)
        crt = [c + mod * ((x - c) * inv % q) for c, x in zip(crt, gq.coeffs)]
        mod *= q
        gcd = [c if 2 * c <= mod else c - mod for c in crt]
        g = _poly_divide_exact(f, gcd)
        if g is not None and _poly_divide_exact(df, gcd) is not None:
            return g


def _horner(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _synthetic_div(poly: list[int], r: int) -> list[int] | None:
    """poly / (x - r) if r is a root, else None."""
    out = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, -1, -1):
        acc = acc * r + poly[i]
        if i > 0:
            out[i - 1] = acc
    if acc != 0:
        return None
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """m-th cyclotomic polynomial over Z, lowest degree first."""
    # Phi_m(x) = (x^m - 1) / prod_{d | m, d < m} Phi_d(x)
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q = _poly_divide_exact(num, list(cyclotomic_poly(d)))
            if q is None:
                raise InternalError("cyclotomic division left a remainder")
            num = q
    return tuple(num)


def _cyclotomic_orders(deg: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(m, phi(m), primes of m) for every m >= 3 with phi(m) <= deg,
    ascending in m. Each m is built from primes q with q - 1 <= deg, so no m
    with phi(m) > deg is visited; there are about 2 deg of them."""
    primes = [q for q in range(2, deg + 2) if is_prime(q)]
    out = []
    stack = [(1, 1, 0, ())]
    while stack:
        m, phi, i, qs = stack.pop()
        if m > 2:
            out.append((m, phi, qs))
        for j in range(i, len(primes)):
            q = primes[j]
            mq, fq = m * q, phi * (q - 1)
            if fq > deg:
                break
            while fq <= deg:
                stack.append((mq, fq, j + 1, qs + (q,)))
                mq, fq = mq * q, fq * q
    return sorted(out)


def _unit_root(m: int, primes: tuple[int, ...]) -> tuple[int, int]:
    """A prime q = 1 mod m and an element w of order m in F_q; w is a root
    of Phi_m mod q, so Phi_m | f over Z forces f(w) = 0 mod q."""
    q = m + 1
    while not is_prime(q):
        q += m
    g = 2
    while True:
        w = pow(g, (q - 1) // m, q)
        if all(pow(w, m // r, q) != 1 for r in primes):
            return q, w
        g += 1


def lrs_split_modulus(roots: CharRoots) -> int:
    """Least modulus M killing every root of unity among the characteristic
    roots and every ratio -1 between integer roots.

    Requires the unresolved factor to be a product of cyclotomics;
    otherwise raises UnsupportedError and the caller must fall back to
    bounded search. With the roots +-1 taken out such a product is
    palindromic, and each Phi_m in it has phi(m) <= deg, deg the degree of
    the factor left so far; Phi_m is divided out only where the factor
    vanishes mod a prime at a root of Phi_m.
    """
    rem = list(roots.unresolved_factor)
    if rem != rem[::-1]:
        raise UnsupportedError(
            "characteristic polynomial has a non-cyclotomic irrational factor")
    mod = 1
    for m, phi, primes in _cyclotomic_orders(len(rem) - 1):
        if phi > len(rem) - 1:
            continue
        q, w = _unit_root(m, primes)
        at_w = 0
        for c in reversed(rem):
            at_w = (at_w * w + c) % q
        if at_w:
            continue
        cyc = list(cyclotomic_poly(m))
        while (quo := _poly_divide_exact(rem, cyc)) is not None:
            rem = quo
            mod = lcm(mod, m)
    if len(rem) > 1:
        raise UnsupportedError(
            "characteristic polynomial has a non-cyclotomic irrational factor")
    ints = roots.root_set()
    if -1 in ints or any(r in ints and -r in ints and r > 0 for r in ints):
        mod = lcm(mod, 2)
    return mod


def lrs_nondegenerate_split(s: Lrs) -> list[tuple[int, int, Lrs]]:
    """Partition N_0 into progressions {Mk + l} with non-degenerate pieces.

    M is lrs_split_modulus of the characteristic roots, and the piece on
    {Mk + l} is lrs_subsequence(s, M, l). All pieces share one prefix of u
    and one characteristic polynomial, that of C^M: its roots are r^M for
    each integer root r and 1 for each root of unity. The prefix of
    M * order terms is held to the degree cap, so a modulus too large to
    split raises ResourceLimitError before any term is computed.
    """
    roots = lrs_char_roots(s)
    mod = lrs_split_modulus(roots)
    if mod == 1:
        return [(1, 0, s)]
    _guard_size(mod * s.order)
    poly: tuple[int, ...] = (1,)
    for _ in range(len(roots.unresolved_factor) - 1):
        poly = _poly_mul_z(poly, (-1, 1))
    for r, k in roots.integer_roots:
        for _ in range(k):
            poly = _poly_mul_z(poly, (-(r ** mod), 1))
    values = lrs_prefix(s, mod * s.order - 1)
    return [(mod, l, lrs_subsequence(s, mod, l, poly, values))
            for l in range(mod)]


class RootPVerdict(Record):
    """Multiplicative dependence of a single integer root on the prime p;
    |root| == p^s when dependent."""

    __slots__ = ("root", "dependent", "s", "sign")

    def __init__(self, root: int, dependent: bool, s: int | None = None,
                 sign: int | None = None):
        self._init(root, dependent, s, sign)


class RootPReport(Record):
    __slots__ = ("verdicts", "unresolved_unknown")

    def __init__(self, verdicts: tuple[RootPVerdict, ...],
                 unresolved_unknown: bool):
        self._init(verdicts, unresolved_unknown)

    def all_independent(self) -> bool:
        return not self.unresolved_unknown and not any(
            v.dependent for v in self.verdicts)


def lrs_root_p_dependence(roots: CharRoots, p: PrimeModulus) -> RootPReport:
    """Per-root verdict: r is multiplicatively dependent with p iff
    r^j = p^k has a solution (j, k) != (0, 0).

    For integers that holds iff |r| is a power of p, including r = +-1
    (r^2 = p^0). A nonconstant unresolved factor yields verdict unknown.
    """
    verdicts = []
    for r, _ in roots.integer_roots:
        a = abs(r)
        s_exp = 0
        while a > 1 and a % p.p == 0:
            a //= p.p
            s_exp += 1
        if a == 1:
            verdicts.append(
                RootPVerdict(r, True, s_exp, 1 if r > 0 else -1))
        else:
            verdicts.append(RootPVerdict(r, False))
    return RootPReport(tuple(verdicts), not roots.fully_resolved())
