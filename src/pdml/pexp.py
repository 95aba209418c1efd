"""Polynomial-exponential equations u_n = sum c_i p^(k_i n_i).

pexp_solve decides representability of each u_n exactly through the digit
DP; pexp_classify fits the solution set into arithmetic progressions plus
p-sets of the two-exponent shape, re-verifying every emitted description
against the solver on the full range. The classifier never extrapolates
unverified structure: shape fitting is advisory, the oracle check
is mandatory.

An instance decides each n once. Its PSet, the largest n decided so far
and the hits up to it, with their witnesses once built, stay on the
instance, so pexp_classify after pexp_solve, or any call after another at
any bound, decides only the n past that bound and builds only the missing
witnesses. A CLI process runs one command on a fresh instance and gains
nothing from this.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InternalError, UnsupportedError
from .exact import PrimeModulus, Record, derived
from .lrs import (
    Lrs,
    lrs_char_roots,
    lrs_prefix,
    lrs_root_p_dependence,
    lrs_split_modulus,
)
from .psets import (ArithProg, PSet, ReturnSetDesc, desc_verify,
                    fit_pset_shapes, pset_contains, pset_enumerate,
                    pset_membership)

# Largest period AP extraction tries.
_PERIOD_CAP = 360

# Residual sets at least this large get a p-set fit attempt before the
# plain exceptional-set fallback.
_PSET_FIT_MIN = 4

# Largest exceptional set a structured description may carry.
_EXCEPTIONAL_CAP = 64


class PexpInstance(Record):
    """u_n = sum c_i p^(k_i n_i); empty terms mean the void equation, which
    every n satisfies."""

    # _derived: what the instance has decided, kept by _decide
    __slots__ = ("u", "p", "terms", "_derived")

    def __init__(self, u: Lrs, p: PrimeModulus,
                 terms: tuple[tuple[int, int], ...]):
        terms = tuple((int(c), int(k)) for c, k in terms)
        if any(k < 0 for _, k in terms):
            raise DomainError("exponent multipliers must be non-negative")
        self._init(u, p, terms, {})

    def nontrivial_terms(self) -> int:
        return sum(1 for c, k in self.terms if k >= 1 and c != 0)


class _Decided:
    """What one instance has decided: its PSet (None for the void
    equation), whose digit automaton serves every call, the largest n
    decided so far, and the hits up to it, each mapped to its witness, or
    to None while none is built."""

    __slots__ = ("pset", "bound", "hits")

    def __init__(self, inst: PexpInstance):
        self.pset = (PSet(tuple((Fraction(c), k) for c, k in inst.terms))
                     if inst.terms else None)
        self.bound = -1
        self.hits: dict[int, tuple[int, ...] | None] = {}


def _decide(inst: PexpInstance, n_max: int, witnesses: bool
            ) -> dict[int, tuple[int, ...] | None]:
    """The hits n <= n_max, each with its witness if witnesses is set.

    Only the n past the instance's decided bound are decided, and only the
    hits that lack a wanted witness get one; u's prefix is computed only
    when one of the two is needed."""
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    table = derived(inst, "decided", _Decided, inst)
    S, bound = table.pset, table.bound
    hits = {n: w for n, w in table.hits.items() if n <= n_max}
    lacking = [n for n, w in hits.items() if w is None] if witnesses else []
    if n_max > bound or lacking:
        values = lrs_prefix(inst.u, n_max)
        for n in lacking:
            hits[n] = pset_membership(values[n], S, inst.p)
        for n in range(bound + 1, n_max + 1):
            if S is None:
                hits[n] = ()
            elif witnesses:
                w = pset_membership(values[n], S, inst.p)
                if w is not None:
                    hits[n] = w
            elif pset_contains(values[n], S, inst.p):
                hits[n] = None
        table.hits.update(hits)
        table.bound = max(table.bound, n_max)
    return hits


def pexp_solve(inst: PexpInstance, n_max: int
               ) -> list[tuple[int, tuple[int, ...]]]:
    """All (n, lexicographically least witness) with n <= n_max."""
    return sorted(_decide(inst, n_max, True).items())


def pexp_solution_set(inst: PexpInstance, n_max: int) -> set[int]:
    """All n <= n_max with u_n representable; builds no witness."""
    return set(_decide(inst, n_max, False))


# ---------------------------------------------------------------------------
# Description fitting (shared with the torus pipeline)
# ---------------------------------------------------------------------------


def _extract_aps(indicator: list[bool]) -> list[tuple[int, int]]:
    """The progressions (q, offset) of the smallest period q <= _PERIOD_CAP
    for which the indicator is q-periodic on a tail covering at least three
    periods; [] when no period is."""
    n = len(indicator)
    for q in range(1, _PERIOD_CAP + 1):
        if 3 * q > n:
            break
        start = 0
        for i in range(n - q - 1, -1, -1):
            if indicator[i] != indicator[i + q]:
                start = i + 1
                break
        if start + 3 * q <= n:
            aps = []
            for r in range(q):
                first = next(
                    (i for i in range(start, min(start + q, n))
                     if i % q == r % q and indicator[i]), None)
                if first is not None:
                    # extend the progression backwards while it keeps holding
                    while first - q >= 0 and indicator[first - q]:
                        first -= q
                    aps.append((q, first))
            return aps
    return []


def fit_solution_desc(
    solutions: set[int],
    p: PrimeModulus,
    n_max: int,
    allow_psets: bool,
    notes: tuple[str, ...] = (),
) -> ReturnSetDesc:
    """Fit-and-verify a ReturnSetDesc for a solution set on [0, n_max].

    Tries AP extraction, then (if allowed) two-exponent p-set shapes on the
    residual, then falls back to the raw exceptional set. fit_pset_shapes
    drops every shape with a small member in [0, n_max] outside the
    solutions, so only the survivors are enumerated. Every description
    built here equals the solutions on [0, n_max] by construction (fitted
    progressions hold only hits, a p-set candidate's members come from
    the pset_enumerate call desc_verify makes and its leftovers are the
    rest), so the best one is checked once, InternalError on a mismatch.
    The returned description always carries verified_bound = n_max.
    """
    oracle = solutions.__contains__
    indicator = [n in solutions for n in range(n_max + 1)]
    aps = tuple(ArithProg(q, b) for q, b in _extract_aps(indicator))
    covered = set()
    for ap in aps:
        covered.update(ap.members(n_max))
    residual = sorted(solutions - covered)

    candidates: list[tuple[tuple[int, int], ReturnSetDesc]] = []
    if residual and len(residual) >= _PSET_FIT_MIN and allow_psets:
        for cand in fit_pset_shapes(residual, p, n_max, oracle):
            cand_members = set(pset_enumerate(cand, p, n_max))
            if not cand_members <= solutions:
                continue
            leftovers = tuple(sorted(set(residual) - cand_members))
            if len(leftovers) > _EXCEPTIONAL_CAP:
                continue
            candidates.append(((len(leftovers), cand.m), ReturnSetDesc(
                p, aps=aps, psets=(cand,), exceptional=leftovers,
                notes=notes)))
    # fewest leftover exceptional points first, then simplest shape
    best = min(candidates, key=lambda kv: kv[0])[1] if candidates else None
    # a fit that explains most of the residual beats the plain list
    if len(residual) <= _EXCEPTIONAL_CAP and (
            best is None or len(best.exceptional) > len(residual) // 2):
        best = ReturnSetDesc(
            p, aps=aps, psets=(), exceptional=tuple(residual), notes=notes)
    if best is None:
        best = ReturnSetDesc(p, exceptional=tuple(sorted(solutions)),
                             notes=notes + ("fallback: raw solution set",))
    return _verified(best, oracle, n_max)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def pexp_classify(inst: PexpInstance, n_max: int) -> ReturnSetDesc:
    """Classify {n : u_n representable} into a verified description.

    Dispatch per non-degenerate piece of u: when every integer root is
    multiplicatively independent of p only progressions and exceptional
    points are fitted; with at most two nontrivial terms the two-exponent
    p-set shape is additionally tried; otherwise raw solutions are returned.
    Unresolved irrational root factors force the raw fallback, flagged in
    the notes.
    """
    solutions = pexp_solution_set(inst, n_max)
    oracle = solutions.__contains__
    if not inst.terms:
        desc = ReturnSetDesc(inst.p, aps=(ArithProg(1, 0),),
                             notes=("void equation: ambient progression",))
        return _verified(desc, oracle, n_max)
    roots = lrs_char_roots(inst.u)
    try:
        mod = lrs_split_modulus(roots)
    except UnsupportedError:
        desc = ReturnSetDesc(
            inst.p, exceptional=tuple(sorted(solutions)),
            notes=("unsupported: irrational characteristic roots; "
                   "raw solutions to bound",))
        return _verified(desc, oracle, n_max)
    # every piece has the roots r^mod of the integer roots r and 1 for each
    # root of unity; |r^mod| is a power of p iff |r| is, so the roots of u
    # decide the dispatch and no piece is built or factored
    independent = lrs_root_p_dependence(roots, inst.p).all_independent()

    all_aps: list[ArithProg] = []
    all_psets: list[PSet] = []
    all_exc: list[int] = []
    notes: list[str] = []
    for off in range(min(mod, n_max + 1)):
        k_max = (n_max - off) // mod
        k_sols = {(n - off) // mod for n in solutions
                  if n >= off and (n - off) % mod == 0}
        if independent:
            allow = False
            notes.append(f"piece {mod}k+{off}: roots independent of p")
        elif inst.nontrivial_terms() <= 2:
            allow = True
            notes.append(f"piece {mod}k+{off}: two-exponent shape fitted")
        else:
            all_exc.extend(mod * k + off for k in sorted(k_sols))
            notes.append(f"piece {mod}k+{off}: raw solutions")
            continue
        sub = fit_solution_desc(k_sols, inst.p, k_max, allow_psets=allow)
        for ap in sub.aps:
            all_aps.append(ArithProg(ap.a * mod, ap.b * mod + off))
        for ps in sub.psets:
            all_psets.append(_affine_pset(ps, mod, off))
        all_exc.extend(mod * k + off for k in sub.exceptional)

    desc = ReturnSetDesc(inst.p, aps=tuple(all_aps), psets=tuple(all_psets),
                         exceptional=tuple(sorted(all_exc)),
                         notes=tuple(notes))
    if desc_verify(desc, oracle, n_max):
        return desc
    desc = ReturnSetDesc(inst.p, exceptional=tuple(sorted(solutions)),
                         notes=("fallback: piecewise fit failed to verify",))
    return _verified(desc, oracle, n_max)


def _verified(desc: ReturnSetDesc, oracle, n_max: int) -> ReturnSetDesc:
    """desc, checked against the oracle on [0, n_max]."""
    if not desc_verify(desc, oracle, n_max):
        raise InternalError("description failed to verify")
    return desc


def _affine_pset(ps: PSet, scale: int, shift: int) -> PSet:
    """Image of a p-set under k -> scale*k + shift, again a p-set."""
    terms = [(c * scale, k) for c, k in ps.terms]
    const = sum((c for c, k in terms if k == 0), Fraction(0)) + shift
    rest = [(c, k) for c, k in terms if k != 0]
    if const != 0 or not rest:
        rest.append((const, 0))
    return PSet(tuple(rest))
