"""The full toroidal Lie algebra over N+1 torus variables, with exact brackets.

Basis symbols are t_0^j t^r X where X is a simple-algebra element ('g'), a
one-form generator k_p ('k'), a vector field d_p ('d'), or a shifted vector
field ('dt'): dt_p = d_p - nu r_p k_0 for p >= 1 and
dt_0 = -d_0 + (mu + nu)(j + 1/2) k_0.  One-forms are taken modulo exact
forms, which imposes one linear relation among k_0..k_N per nonzero degree;
elements are always stored center-canonicalized.  The vector-field bracket
carries the two-cocycle mu tau_1 + nu tau_2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .finite_lie_data import SimpleAlgebra
from .linalg import add_into, merge, tally, vec_add, vec_scale

Q = Fraction


class ConfigError(ValueError):
    """Raised for invalid parameters or mixed-parameter operations."""


@dataclass(frozen=True)
class Params:
    """Algebra parameters: N space variables, cocycle weights, central charge."""

    N: int
    mu: Fraction
    nu: Fraction
    c: Fraction
    g_dot: SimpleAlgebra

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError("N must be at least 1")
        if self.c == 0:
            raise ConfigError(
                "central charge c must be nonzero: bounded weight modules with "
                "a nonzero central action exist only for the character "
                "(c, 0, ..., 0) with c != 0")

    def zero_r(self):
        return (0,) * self.N


class BasisSymbol(NamedTuple):
    """t_0^j t^r X with X selected by (tag, idx).

    tag 'g': idx indexes the simple-algebra basis;
    tag 'k'/'d'/'dt': idx = p in 0..N.
    """

    tag: str
    j: int
    r: tuple
    idx: int

    def degree(self):
        return (self.j,) + self.r

    def exponent(self, p):
        """p-th torus exponent, p = 0..N (p = 0 is the t_0 exponent)."""
        return self.j if p == 0 else self.r[p - 1]


def g_sym(params, j, r, i):
    return BasisSymbol("g", j, tuple(r), i)


def k_sym(params, j, r, p):
    return BasisSymbol("k", j, tuple(r), p)


def d_sym(params, j, r, p):
    return BasisSymbol("d", j, tuple(r), p)


def dt_sym(params, j, r, p):
    return BasisSymbol("dt", j, tuple(r), p)


def canonicalize_center(params: Params, sym: BasisSymbol) -> dict:
    """Canonical representative of a one-form symbol modulo exact forms.

    At nonzero degree rho the relation sum_p rho_p t^rho k_p = 0 eliminates
    k_{p_min} for the smallest p_min with rho_{p_min} != 0.  Returns a dict
    BasisSymbol -> coefficient.
    """
    if sym.tag != "k":
        raise ConfigError("canonicalize_center applies to one-form symbols only")
    deg = sym.degree()
    if all(x == 0 for x in deg):
        return {sym: Q(1)}
    p_min = next(p for p in range(params.N + 1) if deg[p] != 0)
    if sym.idx != p_min:
        return {sym: Q(1)}
    scale = Q(-1, deg[p_min])
    out = {}
    for p in range(params.N + 1):
        if p == p_min or deg[p] == 0:
            continue
        out[BasisSymbol("k", sym.j, sym.r, p)] = scale * deg[p]
    return out


class ToroidalElement:
    """Sparse exact linear combination of basis symbols, center-canonicalized."""

    __slots__ = ("params", "terms")

    def __init__(self, params: Params, terms=None):
        self.params = params
        self.terms = {}
        for sym, cf in (terms or {}).items():
            cf = Q(cf)
            if sym.tag == "k":
                add_into(self.terms, canonicalize_center(params, sym), cf)
            else:
                merge(self.terms, sym, cf)

    @classmethod
    def from_symbol(cls, params, sym, coeff=Q(1)):
        return cls(params, {sym: coeff})

    def __add__(self, other):
        self._check(other)
        return ToroidalElement(self.params, vec_add(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(Q(-1))

    def scale(self, s):
        return ToroidalElement(self.params, vec_scale(self.terms, s))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, ToroidalElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check(self, other):
        if other.params is not self.params and other.params != self.params:
            raise ConfigError("elements built over different parameters")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for sym, cf in sorted(self.terms.items()):
            bits.append(f"{cf}*{sym.tag}[{sym.idx}]@({sym.j},{sym.r})")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def _exact_form_terms(params, degree_src: BasisSymbol, target_j, target_r, coeff):
    """coeff * sum_p rho_p t^target k_p where rho is degree_src's degree."""
    out = {}
    for p in range(params.N + 1):
        e = degree_src.exponent(p)
        if e:
            merge(out, BasisSymbol("k", target_j, target_r, p), coeff * e)
    return out


_RANK = {"g": 0, "k": 0, "d": 1, "dt": 2}


def _rank(sym):
    """Bracket order of a symbol: dt_0, then dt_p, then d, then g and k."""
    return _RANK.get(sym.tag, 0) + (sym.tag == "dt" and sym.idx == 0)


def _bracket_basis(params: Params, a: BasisSymbol, b: BasisSymbol) -> dict:
    """Raw bracket of two basis symbols (not yet canonicalized).

    Antisymmetry is the one rule for the order: each pair is computed with
    the factor of higher ``_rank`` on the left.
    """
    if _rank(a) < _rank(b):
        return _negate(_bracket_basis(params, b, a))
    ta, tb = a.tag, b.tag

    if ta == "dt":
        if tb == "dt":
            return _bracket_tilde(params, a, b)
        # over d and k_0; k_0 brackets to zero against g and k
        out = {}
        for sym, cf in _tilde_to_plain(params, a).items():
            add_into(out, _bracket_basis(params, sym, b), cf)
        return out

    j, r = a.j + b.j, tuple(x + y for x, y in zip(a.r, b.r))
    if ta == "d" and tb == "g":
        # [t^rho d_a, t^sigma g] = sigma_a t^(rho+sigma) g
        out = {}
        merge(out, BasisSymbol("g", j, r, b.idx), Q(b.exponent(a.idx)))
        return out

    if ta == "d" and tb == "k":
        # [t^rho d_a, t^sigma k_b] = sigma_a t^+ k_b + delta_ab sum_p rho_p t^+ k_p
        out = {}
        merge(out, BasisSymbol("k", j, r, b.idx), Q(b.exponent(a.idx)))
        if a.idx == b.idx:
            add_into(out, _exact_form_terms(params, a, j, r, Q(1)))
        return out

    if ta == "d" and tb == "d":
        out = {}
        merge(out, BasisSymbol("d", j, r, b.idx), Q(b.exponent(a.idx)))
        merge(out, BasisSymbol("d", j, r, a.idx), Q(-a.exponent(b.idx)))
        tau = params.mu * b.exponent(a.idx) * a.exponent(b.idx) \
            + params.nu * a.exponent(a.idx) * b.exponent(b.idx)
        if tau:
            add_into(out, _exact_form_terms(params, b, j, r, tau))
        return out

    if ta == "g" and tb == "g":
        out = {}
        for kidx, cf in params.g_dot.struct[a.idx][b.idx]:
            merge(out, BasisSymbol("g", j, r, kidx), cf)
        pairing = params.g_dot.pair(a.idx, b.idx)
        if pairing:
            add_into(out, _exact_form_terms(params, a, j, r, pairing))
        return out

    if ta in ("g", "k") and tb in ("g", "k"):
        return {}

    raise ConfigError(f"unhandled bracket tags {ta!r}, {tb!r}")


def _negate(d):
    return {s: -c for s, c in d.items()}


def _bracket_tilde(params: Params, a: BasisSymbol, b: BasisSymbol) -> dict:
    """Brackets of the shifted vector fields, in their own coordinates;
    ``a`` is dt_0 whenever ``b`` is."""
    i, jj = a.j, b.j
    rr, ss = a.r, b.r
    j, r = i + jj, tuple(x + y for x, y in zip(rr, ss))
    mu, nu = params.mu, params.nu
    out = {}

    def add_k(coef_k0, coef_s):
        merge(out, BasisSymbol("k", j, r, 0), coef_k0)
        for p in range(1, params.N + 1):
            merge(out, BasisSymbol("k", j, r, p), coef_s * ss[p - 1])

    if a.idx >= 1:
        sa, rb = Q(ss[a.idx - 1]), Q(rr[b.idx - 1])
        ra, sb = Q(rr[a.idx - 1]), Q(ss[b.idx - 1])
        merge(out, BasisSymbol("dt", j, r, b.idx), sa)
        merge(out, BasisSymbol("dt", j, r, a.idx), -rb)
        w = mu * sa * rb + nu * ra * sb
        if w:
            add_k(w * jj, w)
        return out

    if b.idx >= 1:
        rb, sb = Q(rr[b.idx - 1]), Q(ss[b.idx - 1])
        merge(out, BasisSymbol("dt", j, r, b.idx), Q(-jj))
        merge(out, BasisSymbol("dt", j, r, 0), -rb)
        add_k(-(mu * rb * (jj - 1) + nu * sb * (i + 1)) * jj,
              -(mu * rb * jj + nu * sb * (i + 1)))
        return out

    # both are the shifted d_0
    merge(out, BasisSymbol("dt", j, r, 0), Q(i - jj))
    w = (mu + nu) * (jj + 1) * (i + 1)
    add_k(w * jj, w)
    return out


# ---------------------------------------------------------------------------
# tilde basis change
# ---------------------------------------------------------------------------

def _change_basis(params: Params, sym: BasisSymbol, src, dst, nu_sign):
    """Expand one ``src`` symbol over ``dst`` and k_0 at the same degree.

    The change is its own inverse up to the sign of the nu r_p k_0 term:
    d_p = dt_p + nu r_p k_0 for p >= 1, and at p = 0 both
    dt_0 = -d_0 + (mu + nu)(j + 1/2) k_0 and d_0 = -dt_0 + (the same) k_0.
    """
    if sym.tag != src:
        return {sym: Q(1)}
    j, r, p = sym.j, sym.r, sym.idx
    if p >= 1:
        out = {BasisSymbol(dst, j, r, p): Q(1)}
        cf = nu_sign * params.nu * r[p - 1]
    else:
        out = {BasisSymbol(dst, j, r, 0): Q(-1)}
        cf = (params.mu + params.nu) * (Q(j) + Q(1, 2))
    if cf:
        out[BasisSymbol("k", j, r, 0)] = cf
    return out


def _tilde_to_plain(params: Params, sym: BasisSymbol) -> dict:
    """Expand one 'dt' symbol over 'd' and 'k' symbols at the same degree."""
    return _change_basis(params, sym, "dt", "d", -1)


def _plain_to_tilde(params: Params, sym: BasisSymbol) -> dict:
    """Expand one 'd' symbol over 'dt' and 'k' symbols at the same degree."""
    return _change_basis(params, sym, "d", "dt", 1)


def to_tilde(el: ToroidalElement) -> ToroidalElement:
    out = {}
    for sym, cf in el.terms.items():
        add_into(out, _plain_to_tilde(el.params, sym), cf)
    return ToroidalElement(el.params, out)


def from_tilde(el: ToroidalElement) -> ToroidalElement:
    out = {}
    for sym, cf in el.terms.items():
        add_into(out, _tilde_to_plain(el.params, sym), cf)
    return ToroidalElement(el.params, out)


# ---------------------------------------------------------------------------
# public bracket and checks
# ---------------------------------------------------------------------------

def bracket(a: ToroidalElement, b: ToroidalElement) -> ToroidalElement:
    a._check(b)
    out = {}
    for sa, ca in a.terms.items():
        for sb, cb in b.terms.items():
            add_into(out, _bracket_basis(a.params, sa, sb), ca * cb)
    return ToroidalElement(a.params, out)


def bracket_symbols(params: Params, a: BasisSymbol, b: BasisSymbol) -> ToroidalElement:
    return ToroidalElement(params, _bracket_basis(params, a, b))


def _jacobiator(params: Params, a: BasisSymbol, b: BasisSymbol, c: BasisSymbol):
    """[a, [b, c]] + [b, [c, a]] + [c, [a, b]], zero in a Lie algebra."""
    ea, eb, ec = (ToroidalElement.from_symbol(params, x) for x in (a, b, c))
    return bracket(ea, bracket(eb, ec)) \
        + bracket(eb, bracket(ec, ea)) \
        + bracket(ec, bracket(ea, eb))


def jacobi_check(params: Params, a: BasisSymbol, b: BasisSymbol, c: BasisSymbol) -> bool:
    return _jacobiator(params, a, b, c).is_zero()


def random_symbol(params: Params, rng: random.Random, jmax=3, rmax=2,
                  tags=("g", "k", "d")) -> BasisSymbol:
    tag = rng.choice(tags)
    j = rng.randint(-jmax, jmax)
    r = tuple(rng.randint(-rmax, rmax) for _ in range(params.N))
    if tag == "g":
        idx = rng.randrange(params.g_dot.dim)
    else:
        idx = rng.randrange(params.N + 1)
    return BasisSymbol(tag, j, r, idx)


def jacobi_sweep(params: Params, rng: random.Random, count, jmax, rmax):
    """Draw ``count`` seeded triples of basis symbols; check the Jacobi
    identity on each triple and antisymmetry on its first two symbols.

    Returns (checked, failures) from ``tally`` for Jacobi, then antisymmetry.
    """
    triples = [tuple(random_symbol(params, rng, jmax=jmax, rmax=rmax)
                     for _ in range(3)) for _ in range(count)]
    return (tally(("jacobi", _jacobiator(params, *t).terms, {}, t)
                  for t in triples),
            tally(("antisymmetry", (bracket_symbols(params, a, b)
                                    + bracket_symbols(params, b, a)).terms,
                   {}, (a, b)) for a, b, _c in triples))
