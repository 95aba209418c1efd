"""Answers computed apart from pdml, used to check its outputs.

Nothing here imports pdml: recurrences are iterated directly, p-sets are
enumerated by brute force over exponent vectors, orbits of maps whose
coordinates are products of powers of fixed polynomials are followed as
integer exponent matrices, and the Frobenius obstruction scan uses 2x2
integer algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def recurrence_values(rec: tuple[int, ...], initial: tuple[int, ...],
                      n_max: int) -> list[int]:
    """u_0..u_n_max for u_{n+d} + c_{d-1} u_{n+d-1} + ... + c_0 u_n = 0."""
    out = list(initial)
    while len(out) <= n_max:
        window = out[-len(rec):]
        out.append(-sum(c * u for c, u in zip(rec, window)))
    return out[:n_max + 1]


def pset_values(terms, p: int, bound: int) -> set[int]:
    """Integers in [0, bound] of the form sum c_j p^(k_j n_j), n_j >= 0.

    Terms with k_j = 0 are constants. Every c_j with k_j >= 1 must be
    positive, which makes the enumeration finite. Rational c_j are scaled
    by their common denominator D, so the walk is in integers.
    """
    D, const, free = _scaled(terms)
    free.sort(key=lambda t: -t[0])
    top = bound * D
    out: set[int] = set()
    floor = [sum(c for c, _ in free[i:]) for i in range(len(free) + 1)]

    def walk(i: int, acc: int):
        if i == len(free):
            if acc >= 0 and acc % D == 0:
                out.add(acc // D)
            return
        c, k = free[i]
        step = p ** k
        term = c
        while acc + term + floor[i + 1] <= top:
            walk(i + 1, acc + term)
            term *= step

    walk(0, const)
    return out


def _scaled(terms):
    """(D, D * constant part, [(D * c_j, k_j) for k_j >= 1]) in integers."""
    terms = [(Fraction(c), k) for c, k in terms]
    D = 1
    for c, _ in terms:
        D = D * c.denominator // gcd(D, c.denominator)
    const = sum(int(c * D) for c, k in terms if k == 0)
    free = [(int(c * D), k) for c, k in terms if k != 0]
    if any(c <= 0 for c, _ in free):
        raise ValueError("brute force needs positive coefficients")
    return D, const, free


def _contains(target: int, free, p: int) -> bool:
    """Is target = sum c_j p^(k_j n_j) over the scaled terms `free`?

    Brute force over the exponents of all terms but the last, whose
    quotient is tested for being a power of p^k directly; sums of unit
    powers of p go through the digit-sum test."""
    if not free:
        return target == 0
    if all(t == (1, 1) for t in free):
        return _sum_of_powers(target, len(free), p)

    def search(i: int, rest: int) -> bool:
        c, k = free[i]
        step = p ** k
        if i == len(free) - 1:
            if rest < c or rest % c:
                return False
            q = rest // c
            while q % step == 0:
                q //= step
            return q == 1
        floor = sum(cj for cj, _ in free[i + 1:])
        term = c
        while term + floor <= rest:
            if search(i + 1, rest - term):
                return True
            term *= step
        return False

    return search(0, target)


def _sum_of_powers(target: int, m: int, p: int) -> bool:
    """Is target a sum of exactly m powers of p?

    Such a sum has base-p digit sum s <= m with s = m mod (p - 1), and
    target >= m. Conversely, from its digits, splitting one p^a (a >= 1)
    into p copies of p^(a-1) adds p - 1 terms, and a term to split exists
    while fewer than m <= target terms are used.
    """
    if target < m:
        return False
    s, t = 0, target
    while t:
        t, d = divmod(t, p)
        s += d
    return s <= m and (m - s) % (p - 1) == 0


def pexp_solutions(rec, initial, terms, p: int, n_max: int) -> set[int]:
    """{n <= n_max : u_n = sum c_i p^(k_i n_i)} by brute force."""
    values = recurrence_values(rec, initial, n_max)
    D, const, free = _scaled(terms)
    return {n for n, v in enumerate(values)
            if _contains(v * D - const, free, p)}


def witness_holds(value: int, terms, p: int, witness) -> bool:
    if len(witness) != len(terms):
        return False
    total = sum(c * (p ** (k * w) if k else 1)
                for (c, k), w in zip(terms, witness))
    return total == value and all(
        w == 0 for (c, k), w in zip(terms, witness) if k == 0)


def desc_members(aps, psets, exceptional, p: int, bound: int) -> set[int]:
    """Members in [0, bound] of a description given as plain data:
    aps as (a, b), psets as lists of (c, k), exceptional as ints."""
    out = {n for n in exceptional if 0 <= n <= bound}
    for a, b in aps:
        if a:
            out.update(range(b, bound + 1, a))
        elif b <= bound:
            out.add(b)
    for terms in psets:
        out.update(pset_values(terms, p, bound))
    return out


# -- orbits as exponent matrices ------------------------------------------------


def affine_orbit_exponents(matrix, y_exps, alpha_exps, n_max: int):
    """Exponent matrices E_n (coordinate x factor) of Phi^n(alpha) for
    Phi(x) = y * [A]x, when every coordinate is a product of powers of the
    same fixed polynomials: E_{n+1}[i] = Y[i] + sum_j A[i][j] E_n[j]."""
    dim = len(matrix)
    nf = len(alpha_exps[0])
    cur = [list(row) for row in alpha_exps]
    out = [cur]
    for _ in range(n_max):
        nxt = []
        for i in range(dim):
            row = list(y_exps[i])
            for j in range(dim):
                a = matrix[i][j]
                if a:
                    for f in range(nf):
                        row[f] += a * cur[j][f]
            nxt.append(row)
        cur = nxt
        out.append(cur)
    return out


def two_term_hits(orbit, eq, p: int) -> list[int]:
    """n with c1 x^ev1 + c2 x^ev2 = 0 at orbit point n, where each c is
    (unit, factor exponents). Unique factorisation makes this an equality
    of exponent vectors plus a unit condition."""
    (ev1, (u1, f1)), (ev2, (u2, f2)) = eq
    if (u1 + u2) % p:
        return []
    hits = []
    for n, e in enumerate(orbit):
        nf = len(e[0])
        lhs = [f1[f] + sum(ev1[i] * e[i][f] for i in range(len(ev1)))
               for f in range(nf)]
        rhs = [f2[f] + sum(ev2[i] * e[i][f] for i in range(len(ev2)))
               for f in range(nf)]
        if lhs == rhs:
            hits.append(n)
    return hits


# -- polynomials over F_p as coefficient lists, lowest degree first -------------


def poly_rem(a, m, p: int):
    a = list(a)
    inv = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        f = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - f * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def irreducible_quartics(p: int, count: int):
    """The first `count` monic irreducible quartics over F_p, in order of
    their coefficient vectors: no root and no monic irreducible quadratic
    factor."""
    quads = [[c0, c1, 1] for c1 in range(p) for c0 in range(p)
             if all((r * r + c1 * r + c0) % p for r in range(p))]
    out = []
    idx = 0
    while len(out) < count and idx < p ** 4:
        c = [(idx // p ** i) % p for i in range(4)] + [1]
        idx += 1
        if any(sum(ci * pow(r, i, p) for i, ci in enumerate(c)) % p == 0
               for r in range(p)):
            continue
        if any(not poly_rem(c, q, p) for q in quads):
            continue
        out.append(c)
    return out


def binomial_power(a: int, m: int, p: int) -> list[int]:
    """Coefficients of (t + a)^m over F_p, lowest degree first, trimmed."""
    coeffs = []
    c = 1
    for j in range(m + 1):
        # C(m, j) a^(m-j)
        coeffs.append(c * pow(a, m - j, p) % p)
        c = c * (m - j) // (j + 1)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# -- Frobenius obstruction for 2x2 integer matrices ------------------------------


def _mat2_mul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def obstruction_verdict(matrix, p: int, r_max: int, s_max: int) -> str:
    """First (r, s) in lexicographic order with det(A^r - p^s I) = 0; else
    an integer eigenvalue +-p^b gives (2, 2b); else clear to the bounds."""
    power = [[1, 0], [0, 1]]
    for r in range(1, r_max + 1):
        power = _mat2_mul(power, matrix)
        tr = power[0][0] + power[1][1]
        det = power[0][0] * power[1][1] - power[0][1] * power[1][0]
        for s in range(s_max + 1):
            lam = p ** s
            if lam * lam - tr * lam + det == 0:
                return f"obstructed({r},{s})"
    tr = matrix[0][0] + matrix[1][1]
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    disc = tr * tr - 4 * det
    if disc >= 0:
        root = int(disc ** 0.5)
        while root * root > disc:
            root -= 1
        while (root + 1) ** 2 <= disc:
            root += 1
        if root * root == disc and (tr + root) % 2 == 0:
            for lam in {(tr + root) // 2, (tr - root) // 2}:
                v, b = abs(lam), 0
                while v > 1 and v % p == 0:
                    v //= p
                    b += 1
                if v == 1:
                    return f"obstructed(2,{2 * b})"
    return f"clear-to-bound({r_max},{s_max})"
