"""Exact arithmetic over F_p, F_p[t] and F_p(t).

Values are immutable after construction and safe to share between threads.
Polynomials store their coefficients lowest degree first as plain ints in
[0, p); the zero polynomial is the empty coefficient list, so ``degree ==
len(coeffs) - 1`` and the Frobenius re-indexing x -> x^p is a stride copy.
Product, division, gcd and powers mod f are kernels on such coefficient
lists: FpPoly wraps them, and factoring runs on them directly, so it makes
no FpPoly until it returns its factors.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections.abc import Iterable
from operator import attrgetter

from .errors import DomainError, ResourceLimitError, UsageError

# Intermediate polynomials above this many coefficients are rejected instead
# of exhausting memory; x^m for huge m is degree m, so callers must bound m.
# _guard_size is the one reader.
_DEGREE_CAP = 10**6

# Schoolbook multiplication below this many coefficient products; one
# packed big-int product (Kronecker substitution) from there on.
_KRONECKER_MIN = 32

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981  # witness set is deterministic below this


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n below ~3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise UnsupportedPrimeSize(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class UnsupportedPrimeSize(DomainError):
    def __init__(self, n: int):
        super().__init__(f"primality test limited to n < {_MR_LIMIT}, got {n}")


_set = object.__setattr__


class Record:
    """Base of the value classes: a subclass lists its fields in __slots__
    and sets them in its __init__ with _init. Equality (between instances
    of one class), hashing and repr read the slots not starting with "_";
    one that does is the cache slot _derived, a dict filled through
    derived. Assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(s for s in cls.__slots__ if s[0] != "_")
        get = attrgetter(*fields)
        # obj -> the tuple of its field values, one field included
        cls._values = staticmethod(
            get if len(fields) > 1 else lambda obj: (get(obj),))

    def _init(self, *values):
        """Set every slot, in __slots__ order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_UNMADE = object()


def derived(obj: Record, key, make, *args):
    """obj's datum key, made by make(*args), which reads obj alone, once,
    and kept in obj's cache slot _derived: the one place a Record cache is
    written. A hit costs one dict lookup."""
    cache = obj._derived
    value = cache.get(key, _UNMADE)
    if value is _UNMADE:
        value = cache[key] = make(*args)
    return value


class PrimeModulus(Record):
    """A prime p, validated once at construction so hot loops need not."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self._init(p)

    def __repr__(self):
        return f"PrimeModulus({self.p})"


class FpPoly:
    """Polynomial over F_p, coefficients lowest degree first.

    Canonical form: no trailing zero coefficients; the zero polynomial has an
    empty tuple. Coefficients are plain ints in [0, p).
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Iterable[int], modulus: PrimeModulus,
                 _canonical: bool = False):
        self.modulus = modulus
        if _canonical:
            self.coeffs = tuple(coeffs)
            return
        p = modulus.p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(modulus: PrimeModulus) -> "FpPoly":
        return FpPoly((), modulus, _canonical=True)

    @staticmethod
    def one(modulus: PrimeModulus) -> "FpPoly":
        return FpPoly((1,), modulus, _canonical=True)

    @staticmethod
    def const(c: int, modulus: PrimeModulus) -> "FpPoly":
        return FpPoly((c,), modulus)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, FpPoly) and self.coeffs == other.coeffs
                and self.modulus.p == other.modulus.p)

    def __hash__(self):
        return hash((self.coeffs, self.modulus.p))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"FpPoly({list(self.coeffs)}, p={self.modulus.p})"

    def _check(self, other: "FpPoly"):
        if self.modulus.p != other.modulus.p:
            raise UsageError("modulus mismatch")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "FpPoly") -> "FpPoly":
        return self._add(other, 1)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self._add(other, -1)

    def _add(self, other: "FpPoly", sign: int) -> "FpPoly":
        self._check(other)
        return FpPoly(_add(self.coeffs, other.coeffs, self.modulus.p, sign),
                      self.modulus, _canonical=True)

    def __neg__(self) -> "FpPoly":
        p = self.modulus.p
        return FpPoly(tuple((-c) % p for c in self.coeffs), self.modulus,
                      _canonical=True)

    def scale(self, c: int) -> "FpPoly":
        p = self.modulus.p
        c %= p
        if c == 0:
            return FpPoly.zero(self.modulus)
        return FpPoly([a * c % p for a in self.coeffs], self.modulus)

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        return FpPoly(_mul(self.coeffs, other.coeffs, self.modulus.p),
                      self.modulus, _canonical=True)

    def divmod(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        """Euclidean division: self = q*other + r with deg r < deg other."""
        self._check(other)
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        q, r = _divmod(self.coeffs, other.coeffs, self.modulus.p)
        return (FpPoly(q, self.modulus, _canonical=True),
                FpPoly(r, self.modulus, _canonical=True))

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[1]

    def gcd(self, other: "FpPoly") -> "FpPoly":
        """Monic gcd; gcd(0, 0) = 0."""
        self._check(other)
        return FpPoly(_gcd(self.coeffs, other.coeffs, self.modulus.p),
                      self.modulus, _canonical=True)

    def derivative(self) -> "FpPoly":
        return FpPoly(_derivative(self.coeffs, self.modulus.p), self.modulus,
                      _canonical=True)

    def __pow__(self, e: int) -> "FpPoly":
        """self^e by base-p splitting: e = sum d_i p^i gives
        prod (self^(d_i))^(p^i), each digit power by binary powering and
        each p^i a Frobenius stride, so no intermediate outgrows the
        result. Degree grows linearly in e, guarded by the degree cap."""
        if e < 0:
            raise DomainError("negative power of a polynomial")
        p = self.modulus.p
        digit_pows: dict[int, FpPoly] = {}
        result = FpPoly.one(self.modulus)
        i = 0
        while e:
            e, d = divmod(e, p)
            if d:
                if d not in digit_pows:
                    digit_pows[d] = FpPoly(_powmod(self.coeffs, d, p),
                                           self.modulus, _canonical=True)
                result = result * digit_pows[d].frobenius(i)
            i += 1
        return result

    def frobenius(self, k: int = 1) -> "FpPoly":
        """self(t)^(p^k) = self(t^(p^k)): coefficient re-indexing."""
        if k < 0:
            raise DomainError("negative Frobenius step")
        if k == 0 or self.is_zero():
            return self
        q = self.modulus.p ** k
        _guard_size((len(self.coeffs) - 1) * q + 1)
        out = [0] * ((len(self.coeffs) - 1) * q + 1)
        for i, c in enumerate(self.coeffs):
            out[i * q] = c  # c^(p^k) = c in F_p
        return FpPoly(out, self.modulus, _canonical=True)


# ---------------------------------------------------------------------------
# Kronecker substitution: a coefficient list as one big int
# ---------------------------------------------------------------------------

# Machine widths whose slots pack through `array`; its items are in native
# byte order, which matches the little-endian int layout only on
# little-endian hosts.
_ARRAY_CODES = ({array(code).itemsize: code for code in "BHIQ"}
                if sys.byteorder == "little" else {})
_ARRAY_WIDTHS = sorted(_ARRAY_CODES)


def slot_bytes(bound: int) -> int:
    """Bytes per slot for values up to bound, rounded up to a machine width
    when one is wide enough (those pack and unpack fastest)."""
    need = (bound.bit_length() + 7) // 8
    return next((w for w in _ARRAY_WIDTHS if w >= need), need)


def pack_slots(values: Iterable[int], width: int) -> int:
    """sum values[i] * 256^(width*i) for non-negative values below
    256^width: the polynomial evaluated at t = 256^width (D. Harvey,
    J. Symb. Comput. 44 (2009))."""
    code = _ARRAY_CODES.get(width)
    if code:
        data = array(code, values).tobytes()
    else:
        data = b"".join(v.to_bytes(width, "little") for v in values)
    return int.from_bytes(data, "little")


def unpack_slots(x: int, width: int, n: int) -> list[int]:
    """The n slots of a non-negative x packed at this width, lowest first."""
    data = x.to_bytes(n * width, "little")
    code = _ARRAY_CODES.get(width)
    if code:
        return array(code, data).tolist()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


# ---------------------------------------------------------------------------
# Kernels on canonical coefficient lists or tuples (lowest degree first,
# entries in [0, p), no trailing zero), which they never modify; FpPoly and
# the factoring below share them
# ---------------------------------------------------------------------------


def _add(a, b, p: int, sign: int = 1) -> list[int]:
    """a + sign * b, each coefficient reduced once."""
    out = [(x + sign * y) % p for x, y in zip(a, b)]
    out.extend(a[len(b):])
    out.extend(b[len(a):] if sign > 0 else [-y % p for y in b[len(a):]])
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a, b, p: int) -> list[int]:
    """a * b: schoolbook for few coefficient products, else one packed
    big-int product (Kronecker substitution)."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    _guard_size(n)
    if len(a) * len(b) >= _KRONECKER_MIN:
        # every product coefficient is a sum of at most min(len) terms
        # below p^2, so it fits its slot without carrying into the next
        width = slot_bytes(min(len(a), len(b)) * (p - 1) ** 2)
        x = pack_slots(a, width)
        out = unpack_slots(x * x if b is a else x * pack_slots(b, width),
                           width, n)
    else:
        out = [0] * n
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
    return [c % p for c in out]  # a field: the top coefficient stays nonzero


def _divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q * b + r and deg r < deg b, for nonzero b: each step
    cancels the top of the remainder with a multiple of t^k * b."""
    d = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    if not d:
        return [x * inv % p for x in a], []
    r = list(a)
    q = [0] * max(0, len(r) - d)
    for k in range(len(q) - 1, -1, -1):
        top = r[k + d]
        if top:
            q[k] = c = top * inv % p
            r[k:k + d] = [(x - c * y) % p for x, y in zip(r[k:k + d], b)]
    del r[d:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _gcd(a, b, p: int) -> list[int]:
    """Monic gcd by Euclid, computing remainders only; gcd(0, 0) = 0."""
    while len(b) > 1:
        a, b = b, _divmod(a, b, p)[1]
    return [1] if b else _monic(a, p)  # a nonzero constant is a unit


def _monic(a, p: int) -> list[int]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _derivative(a, p: int) -> list[int]:
    out = [i * c % p for i, c in enumerate(a)][1:]
    while out and not out[-1]:
        out.pop()
    return out


def _powmod(a, e: int, p: int, f=None) -> list[int]:
    """a^e by binary powering, reduced mod f after every product when f is
    given."""
    def mul(x, y):
        return _mul(x, y, p) if f is None else _divmod(_mul(x, y, p), f, p)[1]

    result = [1]
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _guard_size(n: int, what: str = "polynomial with {} coefficients"):
    """Refuse a size n above the degree cap; what names what n counts."""
    if n > _DEGREE_CAP:
        raise ResourceLimitError(
            f"{what.format(n)} exceeds cap {_DEGREE_CAP}")


class RatFunc:
    """Element of F_p(t) as a reduced fraction with monic denominator.

    Equality of values is structural equality of the canonical forms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: FpPoly, den: FpPoly | None = None,
                 _canonical: bool = False):
        if den is None:
            den = FpPoly.one(num.modulus)
        if _canonical:
            self.num = num
            self.den = den
            return
        num._check(den)
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            den = FpPoly.one(num.modulus)
        elif not den.is_one():
            g = num.gcd(den)
            if not g.is_one():
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.coeffs[-1]
            if lead != 1:
                p = num.modulus.p
                inv = pow(lead, p - 2, p)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(modulus: PrimeModulus) -> "RatFunc":
        return RatFunc(FpPoly.zero(modulus), FpPoly.one(modulus),
                       _canonical=True)

    @staticmethod
    def one(modulus: PrimeModulus) -> "RatFunc":
        return RatFunc(FpPoly.one(modulus), FpPoly.one(modulus),
                       _canonical=True)

    @staticmethod
    def const(c: int, modulus: PrimeModulus) -> "RatFunc":
        return RatFunc(FpPoly.const(c, modulus))

    # -- queries ---------------------------------------------------------------

    @property
    def modulus(self) -> PrimeModulus:
        return self.num.modulus

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RatFunc({list(self.num.coeffs)}/{list(self.den.coeffs)}, p={self.modulus.p})"

    # -- field operations --------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _canonical=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise DomainError("division by zero")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise DomainError("inversion of zero")
        return RatFunc(self.den, self.num)


def ratfunc_int_pow(x: RatFunc, m: int) -> RatFunc:
    """x^m for arbitrary-precision m: numerator and denominator are powered
    apart (FpPoly.__pow__, base-p splitting of m). Powers of coprime
    polynomials stay coprime and a monic denominator stays monic, so the
    result is canonical without a gcd.
    """
    if m < 0:
        return ratfunc_int_pow(x.inv(), -m)
    return RatFunc(x.num ** m, x.den ** m, _canonical=True)


# ---------------------------------------------------------------------------
# Factoring in F_p[t]
# ---------------------------------------------------------------------------

# Equal-degree splitting draws random polynomials; factorisations are
# unique, so the seed fixes only the running time, never the result.
_FACTOR_SEED = 0


def poly_factor(poly: FpPoly) -> tuple[int, list[tuple[FpPoly, int]]]:
    """(leading coefficient, [(monic irreducible, multiplicity), ...]).

    Squarefree splitting by Yun's algorithm (D. Y. Y. Yun, SYMSAC 1976) in
    at most min(p - 1, largest multiplicity) gcd steps per p-th-root level,
    then distinct-degree splitting, then equal-degree splitting (D. Cantor
    and H. Zassenhaus, Math. Comp. 36 (1981)); the time is polynomial in
    the degree and in log p. A unit gives (unit, []). Factors are sorted by
    degree, then by coefficients. The whole chain runs on coefficient lists
    through the kernels above; FpPoly objects are made only for the result,
    and a random generator only when an equal-degree split is needed.
    A power (t + a)^k of degree 2 or more skips it (_linear_power).
    """
    if poly.is_zero():
        raise DomainError("factorisation of zero")
    if poly.degree == 0:
        return poly.leading(), []
    p = poly.modulus.p
    f = _monic(poly.coeffs, p)
    mult = ((_linear_power(f, poly.modulus) if len(f) > 2 else None)
            or _factor_chain(f, p))
    return poly.leading(), [
        (FpPoly(g, poly.modulus, _canonical=True), m)
        for g, m in sorted(mult.items(), key=lambda gm: (len(gm[0]), gm[0]))]


def _factor_chain(f: list[int], p: int) -> dict[tuple[int, ...], int]:
    """Monic f as {monic irreducible: multiplicity}: the general chain."""
    rng = None
    mult: dict[tuple[int, ...], int] = {}
    for sqf, m in _squarefree(f, p):
        for g, d in _distinct_degree(sqf, p):
            if len(g) - 1 > d and rng is None:
                rng = random.Random(_FACTOR_SEED)
            for h in _equal_degree(g, d, p, rng):
                h = tuple(h)
                mult[h] = mult.get(h, 0) + m
    return mult


def _linear_power(f, modulus: PrimeModulus) -> dict | None:
    """{(a, 1): k} if monic f is (t + a)^k = (t^(p^j) + a)^m, k = p^j m
    and p not dividing m, whose t^(k - p^j) coefficient is m a; a^k must be
    f's constant term and (t + a)^k, by base-p powering, f itself."""
    p = modulus.p
    k = m = len(f) - 1
    while m % p == 0:
        m //= p
    a = f[k - k // m] * pow(m, -1, p) % p
    if f[0] != pow(a, k, p) or \
            (FpPoly((a, 1), modulus, _canonical=True) ** k).coeffs != tuple(f):
        return None
    return {(a, 1): k}


def _squarefree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic f as [(squarefree monic factor, multiplicity)], by Yun's
    algorithm in characteristic p (J. von zur Gathen and J. Gerhard,
    Modern Computer Algebra, ch. 14).

    With a = gcd(f, f'), b = f / a and c = f' / a, step i takes
    g = gcd(b, c - b'): the product of the factors of b whose multiplicity
    is i mod p. Then b <- b / g, c <- (c - b') / g and a <- a / g^(i-1), so
    at most min(p - 1, largest multiplicity) steps run, each on
    polynomials no larger than b. What is left of a is a p-th power; its
    p-th root is a stride of its coefficients and is split the same way.
    So an irreducible of multiplicity i + p q with 0 < i < p and q > 0 is
    listed twice, at i and at a multiple of p; poly_factor adds the
    multiplicities per irreducible.
    """
    out = []
    df = _derivative(f, p)
    a = _gcd(f, df, p)
    b = _divmod(f, a, p)[0]
    c = _divmod(df, a, p)[0]
    i = 1
    while len(b) > 1:
        c = _add(c, _derivative(b, p), p, -1)
        g = _gcd(b, c, p)
        if len(g) > 1:
            out.append((g, i))
            if i > 1:
                a = _divmod(a, _powmod(g, i - 1, p), p)[0]
            b = _divmod(b, g, p)[0]
            c = _divmod(c, g, p)[0]
        i += 1
    if len(a) > 1:
        out.extend((g, m * p) for g, m in _squarefree(a[::p], p))
    return out


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree monic f as [(product of its factors of degree d, d)]:
    gcd(f, t^(p^d) - t) collects the irreducible factors of degree d."""
    out = []
    t = h = [0, 1]
    d = 0
    while len(f) > 2 * (d + 1):
        d += 1
        h = _powmod(h, p, p, f)
        g = _gcd(f, _add(h, t, p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int,
                  rng: random.Random | None) -> list[list[int]]:
    """The degree-d monic irreducible factors of squarefree monic g.

    For a random a, gcd(g, a^((p^d-1)/2) - 1) (for p = 2, gcd(g, trace of
    a) with trace a + a^2 + ... + a^(2^(d-1))) is a proper factor with
    probability about 1/2.
    """
    if len(g) - 1 == d:
        return [g]
    while True:
        a = [rng.randrange(p) for _ in range(len(g) - 1)]
        while a and not a[-1]:
            a.pop()
        if len(a) < 2:
            continue
        if p == 2:
            b = sq = a
            for _ in range(d - 1):
                sq = _divmod(_mul(sq, sq, p), g, p)[1]
                b = _add(b, sq, p)
        else:
            b = _add(_powmod(a, (p ** d - 1) // 2, p, g), [1], p, -1)
        u = _gcd(g, b, p)
        if 1 < len(u) < len(g):
            return (_equal_degree(u, d, p, rng)
                    + _equal_degree(_divmod(g, u, p)[0], d, p, rng))
