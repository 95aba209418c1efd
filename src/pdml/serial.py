"""Textual forms for every exchanged object; all integers base 10.

RatFunc:  num/den with comma-separated coefficients low to high, `1,1/1`.
Lrs:      `order;c_0,...,c_{d-1};u_0,...,u_{d-1}`.
PSet:     `c*p^(k*n1)+...` with rational c as num or num/den.
Instance files and ReturnSetDesc documents are line-oriented `key = value`
or `[section]` text; round trips are bit-exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ParseError, ValidationError
from .exact import FpPoly, PrimeModulus, RatFunc
from .psets import ArithProg, PSet, ReturnSetDesc


def parse_int(text: str, what: str) -> int:
    """One base-10 integer field; anything else is a ParseError."""
    try:
        return int(text)
    except ValueError as e:
        raise ParseError(f"bad {what} {text!r}") from e


def parse_count(text: str, what: str) -> int:
    """A non-negative integer field such as n_max or bound."""
    value = parse_int(text, what)
    if value < 0:
        raise ValidationError(f"{what} must be non-negative")
    return value


def parse_coeffs(text: str) -> tuple[int, ...]:
    """The comma-separated positive coefficients c of a p-set variety."""
    c = tuple(parse_int(x, "c entry") for x in text.split(","))
    if any(x < 1 for x in c):
        raise ValidationError("c entries must be positive")
    return c


# -- RatFunc -----------------------------------------------------------------


def ratfunc_to_text(x: RatFunc) -> str:
    num = ",".join(str(c) for c in x.num.coeffs) or "0"
    den = ",".join(str(c) for c in x.den.coeffs) or "0"
    return f"{num}/{den}"


def ratfunc_from_text(text: str, p: PrimeModulus) -> RatFunc:
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ParseError(f"rational function needs num/den: {text!r}")
    num = [parse_int(c, "coefficient") for c in parts[0].split(",")]
    den = [parse_int(c, "coefficient") for c in parts[1].split(",")]
    return RatFunc(FpPoly(num, p), FpPoly(den, p))


# -- Lrs ---------------------------------------------------------------------


def lrs_to_text(s: Lrs) -> str:
    return "{};{};{}".format(
        s.order,
        ",".join(str(c) for c in s.rec_coeffs),
        ",".join(str(u) for u in s.initial))


def lrs_from_text(text: str) -> Lrs:
    from .lrs import Lrs

    parts = text.strip().split(";")
    if len(parts) != 3:
        raise ParseError(f"recurrence needs order;coeffs;initial: {text!r}")
    order = parse_int(parts[0], "recurrence order")
    coeffs = tuple(parse_int(c, "recurrence coefficient")
                   for c in parts[1].split(","))
    initial = tuple(parse_int(c, "initial value") for c in parts[2].split(","))
    if order != len(coeffs) or order != len(initial):
        raise ParseError(f"order mismatch in {text!r}")
    return Lrs(coeffs, initial)


# -- PSet --------------------------------------------------------------------


def _frac_to_text(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def pset_to_text(s: PSet) -> str:
    parts = []
    for i, (c, k) in enumerate(s.terms, start=1):
        parts.append(f"{_frac_to_text(c)}*p^({k}*n{i})")
    return "+".join(parts)


def pset_from_text(text: str) -> PSet:
    # split on '+' that starts a new term (every term contains '*p^(')
    raw = text.strip()
    if not raw:
        raise ParseError("empty p-set")
    chunks = raw.split("+")
    terms = []
    for chunk in chunks:
        if "*p^(" not in chunk or not chunk.endswith(")"):
            raise ParseError(f"bad p-set term {chunk!r}")
        c_txt, rest = chunk.split("*p^(", 1)
        k_txt, _, n_txt = rest[:-1].partition("*")
        if not n_txt.startswith("n"):
            raise ParseError(f"bad exponent variable in {chunk!r}")
        try:
            c = Fraction(c_txt)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad p-set term {chunk!r}") from e
        terms.append((c, parse_int(k_txt, "p-set exponent multiplier")))
    return PSet(tuple(terms))


# -- ReturnSetDesc document ----------------------------------------------------


def desc_to_text(d: ReturnSetDesc) -> str:
    lines = ["[aps]"]
    lines.extend(f"{ap.a},{ap.b}" for ap in d.aps)
    lines.append("[psets]")
    lines.extend(pset_to_text(ps) for ps in d.psets)
    lines.append("[exceptional]")
    if d.exceptional:
        lines.append(",".join(str(n) for n in d.exceptional))
    lines.append("[verified_bound]")
    lines.append(str(d.verified_bound))
    if d.notes:
        lines.append("[notes]")
        lines.extend(d.notes)
    return "\n".join(lines) + "\n"


def desc_from_text(text: str, p: PrimeModulus) -> ReturnSetDesc:
    sections = _split_sections(text)
    aps = tuple(_progression(line) for line in sections.get("aps", ()))
    psets = tuple(pset_from_text(line) for line in sections.get("psets", ()))
    exc_lines = sections.get("exceptional", ())
    exceptional = tuple(parse_int(x, "exceptional point")
                        for line in exc_lines for x in line.split(",") if x)
    vb_lines = sections.get("verified_bound", ())
    vb = parse_int(vb_lines[0], "verified bound") if vb_lines else 0
    notes = tuple(sections.get("notes", ()))
    return ReturnSetDesc(p, aps=aps, psets=psets, exceptional=exceptional,
                         verified_bound=vb, notes=notes)


def _progression(text: str) -> ArithProg:
    """`a,b` for the progression {a*n + b}."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"progression needs a,b: {text!r}")
    return ArithProg(*(parse_int(x, "progression entry") for x in parts))


def _split_sections(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            out.setdefault(current, [])
        elif current is not None:
            out[current].append(line)
        else:
            raise ParseError(f"content before first section: {line!r}")
    return out


# -- key = value files ----------------------------------------------------------


def _split_kv(text: str) -> list[tuple[str, str]]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value: {line!r}")
        key, val = line.split("=", 1)
        out.append((key.strip(), val.strip()))
    return out


def _kv_dict(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for k, v in _split_kv(text):
        out.setdefault(k, []).append(v)
    return out


def _require(kv: dict[str, list[str]], key: str) -> str:
    if key not in kv or not kv[key]:
        raise ParseError(f"missing field {key!r}")
    if len(kv[key]) > 1 and key != "equation":
        raise ParseError(f"duplicate field {key!r}")
    return kv[key][0]


def parse_prime(text: str) -> PrimeModulus:
    value = parse_int(text, "prime")
    try:
        return PrimeModulus(value)
    except DomainError as e:
        raise ValidationError(str(e)) from e


# -- torus instance files --------------------------------------------------------


def torus_instance_to_text(p: PrimeModulus, phi: TorusSelfMap,
                           alpha: TorusPoint, variety: Variety,
                           n_max: int) -> str:
    lines = [f"p = {p.p}", f"n_max = {n_max}"]
    lines.append("matrix = " + " ; ".join(
        " ".join(str(x) for x in row) for row in phi.matrix))
    lines.append("y = " + " | ".join(
        ratfunc_to_text(c) for c in phi.translation.coords))
    lines.append("alpha = " + " | ".join(
        ratfunc_to_text(c) for c in alpha.coords))
    for eq in variety.equations:
        terms = " ; ".join(
            "{} : {}".format(" ".join(str(e) for e in ev),
                             ratfunc_to_text(c)) for ev, c in eq)
        lines.append(f"equation = {terms}")
    return "\n".join(lines) + "\n"


def torus_instance_from_text(
    text: str
) -> tuple[PrimeModulus, TorusSelfMap, TorusPoint, Variety, int]:
    from .torus import TorusPoint, TorusSelfMap, Variety

    kv = _kv_dict(text)
    p = parse_prime(_require(kv, "p"))
    n_max = parse_count(_require(kv, "n_max"), "n_max")
    matrix = tuple(tuple(parse_int(x, "matrix entry") for x in row.split())
                   for row in _require(kv, "matrix").split(";"))
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("matrix must be square")

    def point(field: str) -> TorusPoint:
        coords = [ratfunc_from_text(c, p)
                  for c in _require(kv, field).split("|")]
        if len(coords) != n:
            raise ValidationError(f"{field} needs {n} coordinates")
        if any(c.is_zero() for c in coords):
            raise ValidationError(f"{field} has a zero coordinate")
        return TorusPoint(tuple(coords))

    y = point("y")
    alpha = point("alpha")
    equations = []
    for eq_text in kv.get("equation", []):
        terms = []
        for term in eq_text.split(";"):
            term = term.strip()
            if not term:
                raise ValidationError("empty equation term")
            if ":" not in term:
                raise ParseError(f"equation term needs expvec : coeff: {term!r}")
            ev_txt, c_txt = term.split(":", 1)
            ev = tuple(parse_int(x, "exponent") for x in ev_txt.split())
            if len(ev) != n:
                raise ValidationError("exponent vector has wrong length")
            terms.append((ev, ratfunc_from_text(c_txt, p)))
        equations.append(tuple(terms))
    if "equation" in kv and not equations:
        raise ValidationError("variety present but empty")
    variety = Variety(n, tuple(equations))
    return p, TorusSelfMap(matrix, y), alpha, variety, n_max


# -- pexp instance files ----------------------------------------------------------


def pexp_instance_to_text(p: PrimeModulus, u: Lrs,
                          terms: tuple[tuple[int, int], ...],
                          n_max: int, c: tuple[int, ...] | None = None) -> str:
    lines = [f"p = {p.p}", f"lrs = {lrs_to_text(u)}"]
    joined = " ; ".join(f"{c_},{k}" for c_, k in terms)
    lines.append(f"terms = {joined}" if joined else "terms =")
    if c is not None:
        lines.append("c = " + ",".join(str(x) for x in c))
    lines.append(f"n_max = {n_max}")
    return "\n".join(lines) + "\n"


def pexp_instance_from_text(
    text: str
) -> tuple[PrimeModulus, Lrs, tuple[tuple[int, int], ...], int,
           tuple[int, ...] | None]:
    kv = _kv_dict(text)
    p = parse_prime(_require(kv, "p"))
    u = lrs_from_text(_require(kv, "lrs"))
    terms_txt = _require(kv, "terms")
    terms = []
    for chunk in terms_txt.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad term {chunk!r}")
        c_, k = (parse_int(x, "term entry") for x in parts)
        if k < 0:
            raise ValidationError("exponent multiplier must be non-negative")
        terms.append((c_, k))
    n_max = parse_count(_require(kv, "n_max"), "n_max")
    c = parse_coeffs(_require(kv, "c")) if "c" in kv else None
    return p, u, tuple(terms), n_max, c


# -- p-set pair / ap files ----------------------------------------------------------


def pset_pair_from_text(text: str
                        ) -> tuple[PrimeModulus, PSet, PSet, int]:
    kv = _kv_dict(text)
    p = parse_prime(_require(kv, "p"))
    s1 = pset_from_text(_require(kv, "pset1"))
    s2 = pset_from_text(_require(kv, "pset2"))
    return p, s1, s2, parse_count(_require(kv, "bound"), "bound")


def ap_pset_from_text(text: str) -> tuple[PrimeModulus, ArithProg, PSet]:
    kv = _kv_dict(text)
    p = parse_prime(_require(kv, "p"))
    ap = _progression(_require(kv, "ap"))
    s = pset_from_text(_require(kv, "pset"))
    return p, ap, s
