"""Rank-2N hyperbolic lattice, its oscillator algebra, coset Fock modules,
exponential vertex operators, and exact normally ordered field modes.

Lattice vectors are tuples of 2N rationals: the first N coordinates are
along the isotropic generators u_1..u_N, the last N along v_1..v_N, with
(u_i|v_j) = delta_ij and (u|u) = (v|v) = 0.  In a key, an integral
coordinate or z-exponent is an int and a non-integral one the interned
Fraction that ``_canon`` returns, which computes its hash once; both forms
equal the plain value with the same hash, so callers may pass either.  A
Fock vector is a dict {(osc, lat): Fraction} where osc is a sorted tuple
of (generator, mode) pairs with negative modes, and lat is the lattice
point of the coset e^{(alpha+m)u + beta v}.

Fields are handled by z-exponent: the coefficient of z^e in a field F(z) is
written F[e]; for an oscillator field x(z) = sum x(j) z^(-j-1) the creation
part is e >= 0 and the annihilation part e < 0, and normal ordering of a
product splits the left factor accordingly.

Every field mode goes through the memoized engine ``_term_apply``.  Each
exponential is memoized once, in ``_exp_cache``; ``_field_cache`` holds only
products with an oscillator factor.  The engine, its int core ``_chains_on``
and the sums of ``voa_axiom_check`` up to ``tally`` compute on int vectors
(den, {key: numerator}), a positive int denominator over nonzero int
numerators.  Only the public modes (``field_mode``, ``state_mode``,
``hyp_virasoro_mode``, ``translate``) build Fractions, one per output entry.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import cache
from itertools import chain
from math import ceil, factorial, lcm
from operator import mul

from .linalg import (add_into, add_over, combine, cross, merge, reduced, tally,
                     to_fractions, to_ints)

Q = Fraction


class _KeyFraction(Fraction):
    """A non-integral key coordinate or exponent.  ``_canon`` makes one per
    value and stores its hash, which memo lookups would otherwise compute
    again for every key that holds it."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __reduce__(self):
        return _canon, (Fraction(self._numerator, self._denominator),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


_INTERNED = {}


def _canon(x):
    """The key form of a rational coordinate or exponent: an int when x is
    integral, else the one ``_KeyFraction`` of its value."""
    if type(x) is int or type(x) is _KeyFraction:
        return x
    if not isinstance(x, Fraction):
        x = Q(x)
    n, d = x.numerator, x.denominator
    if d == 1:
        return n
    hit = _INTERNED.get((n, d))
    if hit is None:
        hit = _INTERNED[n, d] = Fraction.__new__(_KeyFraction, n, d)
        hit._hash = Fraction.__hash__(hit)
    return hit


def _canon_vec(v):
    return tuple(map(_canon, v))


def falling(a, k):
    out = 1
    for s in range(k):
        out *= (a - s)
    return out


def binom(a, k):
    """The binomial coefficient of an int a, as an int."""
    if k < 0:
        return 0
    return falling(a, k) // factorial(k)


class HypLattice:
    """Hyperbolic lattice data: bilinear form and the sign two-cocycle."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("N must be >= 1")
        self.N = N
        self._exp_cache = {}
        self._field_cache = {}

    def gen(self, g):
        """Coordinate vector of the g-th generator (0..N-1 are u, N..2N-1
        are v).  Public API with no caller in the package:
        ``tests/test_lattice_fock.py::TestLattice`` and the ``voa`` workload
        in ``perfbench/workloads.py`` read it."""
        return tuple(1 if i == g else 0 for i in range(2 * self.N))

    def form(self, x, y):
        N = self.N
        out = 0
        for p, a in enumerate(x):
            if a:
                b = y[p + N] if p < N else y[p - N]
                if b:
                    out += a * b
        return out

    def epsilon(self, x, y):
        """Sign cocycle: epsilon(v_i, u_j) = (-1)^delta_ij on generators,
        extended bimultiplicatively.  Arguments need integer coordinates on
        the contributing directions."""
        N = self.N
        expo = 0
        for p in range(N):
            a = x[N + p]
            if a and y[p]:
                expo += a * y[p]
        if expo.denominator != 1:
            raise ValueError("sign cocycle undefined on non-integral overlap")
        return -1 if int(expo) % 2 else 1


def coset_point(L: HypLattice, alpha, m=None, beta=None):
    """Lattice point (alpha + m) u + beta v as a coordinate tuple."""
    N = L.N
    m = (0,) * N if m is None else m
    beta = (0,) * N if beta is None else beta
    return (_canon_vec(Q(alpha[p]) + Q(m[p]) for p in range(N))
            + _canon_vec(beta))


def vacuum_vector(L: HypLattice, alpha=None, m=None, beta=None):
    alpha = (0,) * L.N if alpha is None else alpha
    return {((), coset_point(L, alpha, m, beta)): Q(1)}


def fock_depth(osc):
    return -sum(mode for _g, mode in osc)


def _osc_order(entry):
    """Sort key of an oscillator entry: deeper modes first, then by
    generator."""
    g, mode = entry
    return -mode, g


def _insert_osc(osc, g, mode):
    """``osc`` with the entry (g, mode) inserted in ``_osc_order``, after
    any equal entry."""
    lst = list(osc)
    insort(lst, (g, mode), key=_osc_order)
    return tuple(lst)


def random_osc(rng, N, max_degree):
    """Seeded oscillator monomial over the 2N generators, of a depth drawn
    uniformly from 0..max_degree."""
    osc = ()
    left = rng.randint(0, max_degree)
    while left > 0:
        step = rng.randint(1, left)
        g = rng.randrange(2 * N)
        osc = _insert_osc(osc, g, -step)
        left -= step
    return osc


def random_state(L: HypLattice, rng, max_degree):
    """Seeded basis state: a random oscillator monomial at a random point
    m u with m in {-1, 0, 1}^N."""
    osc = random_osc(rng, L.N, max_degree)
    m = tuple(rng.randint(-1, 1) for _ in range(L.N))
    return {(osc, coset_point(L, (0,) * L.N, m)): Q(1)}


def _reading(L: HypLattice, g, x):
    """The pairing of the g-th generator with x: the reading of its zero
    mode on e^x."""
    N = L.N
    return x[N + g] if g < N else x[g - N]


def heis_act_gen(L: HypLattice, g: int, n: int, vec):
    """Action of the mode n of the g-th oscillator generator."""
    N = L.N
    out = {}
    if n < 0:
        for (osc, lat), cf in vec.items():
            merge(out, (_insert_osc(osc, g, n), lat), cf)
        return out
    if n == 0:
        for (osc, lat), cf in vec.items():
            merge(out, (osc, lat), cf * _reading(L, g, lat))
        return out
    partner = g + N if g < N else g - N
    for (osc, lat), cf in vec.items():
        for pos, (g2, m2) in enumerate(osc):
            if g2 == partner and m2 == -n:
                merge(out, (osc[:pos] + osc[pos + 1:], lat), cf * n)
    return out


def heis_act(L: HypLattice, x, n: int, vec):
    """Oscillator action for x either a generator index or a coordinate vector."""
    if isinstance(x, int):
        return heis_act_gen(L, x, n, vec)
    out = {}
    for g, comp in enumerate(x):
        if comp:
            add_into(out, heis_act_gen(L, g, n, vec), comp)
    return out


# ---------------------------------------------------------------------------
# exponential vertex operators
# ---------------------------------------------------------------------------

@cache
def _creation_terms(ycomps, ec):
    """Expansion of exp(sum_{j>=1} y(-j) z^j / j) at order z^ec, for the
    nonzero components ycomps ((g, comp), ...) of y.

    Returns (den, ((num, insertions), ...)): each term is num / den times
    the oscillators ``insertions`` ((g, -j), ...), sorted by ``_osc_order``.
    den is the lcm of the terms' denominators.  It divides ec! when
    y is integral (n!/z_lambda is an integer), but y may be half-integral.
    """
    parts = [(g, comp, j) for j in range(1, ec + 1) for (g, comp) in ycomps]
    terms = []

    def rec(i, left, coeff, acc):
        if left == 0:
            terms.append((coeff, tuple(acc)))
            return
        if i >= len(parts):
            return
        g, comp, j = parts[i]
        count = 0
        unit = Q(comp, j)
        c = coeff
        while True:
            rec(i + 1, left - count * j, c, acc + [(g, -j)] * count)
            count += 1
            if count * j > left:
                break
            c = c * unit / count

    rec(0, ec, Q(1), [])
    den = lcm(*(c.denominator for c, _ins in terms))
    return den, tuple((c.numerator * (den // c.denominator), ins)
                      for c, ins in terms)


def _exp_term(L: HypLattice, y, e, osc, lat):
    """Coefficient of z^e in Y(e^y, z) applied to one basis monomial, as
    (den, {key: numerator})."""
    key = (y, e, osc, lat)
    hit = L._exp_cache.get(key)
    if hit is not None:
        return hit
    k = e - L.form(y, lat)
    den, out = 1, {}
    if k.denominator == 1:
        # each oscillator stays, or pairs with the annihilation part of the
        # exponential for -(y|g) z^mode, which raises the creation order ec
        branches = [((), L.epsilon(y, lat), int(k))]
        for entry in osc:
            g, mode = entry
            pr = _reading(L, g, y)
            grown = []
            for kept, cf, ec in branches:
                grown.append((kept + (entry,), cf, ec))
                if pr:
                    grown.append((kept, -pr * cf, ec - mode))
            branches = grown
        ycomps = tuple((g, comp) for g, comp in enumerate(y) if comp)
        parts = [(kept, cf, *_creation_terms(ycomps, ec))
                 for kept, cf, ec in branches if ec >= 0]
        den = lcm(*(cden * cf.denominator for _kept, cf, cden, _t in parts))
        # lat + y: only the coordinates y moves change
        new_lat = list(lat)
        for i, b in enumerate(y):
            if b:
                new_lat[i] = _canon(lat[i] + b)
        new_lat = tuple(new_lat)
        for kept, cf, cden, created in parts:
            scale = cf.numerator * (den // (cden * cf.denominator))
            for num, ins in created:
                newosc = (tuple(sorted(kept + ins, key=_osc_order))
                          if kept and ins else kept + ins)
                merge(out, (newosc, new_lat), scale * num)
    hit = L._exp_cache[key] = (den, out)
    return hit


def exp_vertex_mode(L: HypLattice, y, exponent, vec):
    """Coefficient of z^exponent of Y(e^y, z) applied to a Fock vector.

    Terms whose z-support misses the requested exponent's coset contribute
    nothing.
    """
    return field_mode(L, (), y, exponent, vec)


# ---------------------------------------------------------------------------
# normally ordered products of fields
# ---------------------------------------------------------------------------

def hyp_virasoro_mode(L: HypLattice, m: int, vec):
    """Mode m (Virasoro indexing) of sum_p :u_p(z) v_p(z):, the z^(-m-2)
    coefficient of the N two-oscillator products."""
    return to_fractions(*_virasoro_ints(L, m, _ints(vec)))


def _virasoro_ints(L, m, vec):
    """``hyp_virasoro_mode`` on int vectors."""
    return _chains_on(L, [(1, (("osc", p, 0), ("osc", L.N + p, 0)), None,
                           _canon(-m - 2)) for p in range(L.N)], 1, vec)


def _factor_at(L, factor, e, den, nums):
    """The z^e coefficient of one oscillator factor on nums / den, a
    nonzero numerator vector whose keys share one lattice point, as
    (den, numerators)."""
    _, g, nd = factor
    j = -e - 1 - nd
    cf = binom(-j - 1, nd)
    if j:
        if not cf:
            return den, {}
        res = heis_act_gen(L, g, j, nums)
        return den, (res if cf == 1 else {k: cf * v for k, v in res.items()})
    # the zero mode reads the shared point; only a non-integral reading adds
    # a denominator
    cf *= _reading(L, g, next(iter(nums))[1])
    if not cf:
        return den, {}
    return (den * cf.denominator,
            {k: cf.numerator * v for k, v in nums.items()})


def _term_min_exponent(L, factors, expy, osc, lat):
    xi = L.form(expy, lat) if expy is not None else 0
    return xi - fock_depth(osc) - sum(1 + f[2] for f in factors)


def _term_apply(L, factors, expy, osc, lat, e):
    """One basis monomial through the suffix product at one exponent, as
    (den, {key: numerator}).  The empty chain is the exponential (memoized
    by ``_exp_term``) or the identity; longer chains are cached here, so
    sweeps share repeated work."""
    if not factors:
        if expy is not None:
            return _exp_term(L, expy, e, osc, lat)
        return (1, {(osc, lat): 1}) if e == 0 else (1, {})
    key = (factors, expy, osc, lat, e)
    hit = L._field_cache.get(key)
    if hit is not None:
        return hit
    F, rest = factors[0], factors[1:]
    den, out = 1, {}
    # the annihilation part of the leftmost factor (exponents below 0) acts
    # first; on this monomial it vanishes below -1 - depth - nderiv
    for e1 in range(-1, -2 - fock_depth(osc) - F[2], -1):
        aden, ann = _factor_at(L, F, e1, 1, {(osc, lat): 1})
        for (osc2, lat2), cf in ann.items():
            pden, piece = _term_apply(L, rest, expy, osc2, lat2, e - e1)
            den = add_over(out, den, pden * aden, piece, cf)
    lo = _term_min_exponent(L, rest, expy, osc, lat)
    e1 = 0
    while e - e1 >= lo:
        iden, inner = _term_apply(L, rest, expy, osc, lat, e - e1)
        if inner:
            den = add_over(out, den, *_factor_at(L, F, e1, iden, inner))
        e1 += 1
    hit = L._field_cache[key] = (den, out)
    return hit


def _ints(vec):
    """A Fock vector in int form, its lattice points in key form."""
    return to_ints({(osc, _canon_vec(lat)): cf
                    for (osc, lat), cf in vec.items()})


def _chains_on(L, chains, cden, vec):
    """The int core of every field and state mode: the sum over the
    (num, factors, expy, e) of ``chains`` of num / cden times the z^e
    coefficient of :factors Y(e^expy, z): on the int vector ``vec``, keys
    in key form.  The result is reduced: gcd(den, numerators) = 1."""
    vden, vnums = vec
    den, out = combine((num * cf, _term_apply(L, factors, expy, osc, lat, e))
                       for num, factors, expy, e in chains
                       for (osc, lat), cf in vnums.items())
    return reduced(den * cden * vden, out)


def field_mode(L: HypLattice, factors, expy, exponent, vec):
    """Coefficient of z^exponent of :F_1(z) ... F_r(z) Y(e^expy, z): on a
    Fock vector.  Each factor ('osc', g, nd) is the nd-th derivative of the
    g-th oscillator field over nd!; expy None means no exponential."""
    expy = expy and _canon_vec(expy)
    return to_fractions(*_chains_on(
        L, [(1, factors, expy, _canon(exponent))], 1, _ints(vec)))


# ---------------------------------------------------------------------------
# states as fields, degrees, and axiom checks
# ---------------------------------------------------------------------------

def state_degree(vec):
    """Conformal degree of a homogeneous vector: oscillator depth plus half
    the lattice norm, sum_p lat[p] lat[N + p].  Public API with no caller
    in the package: ``tests/test_lattice_fock.py::TestDegrees`` reads it."""
    degs = {fock_depth(osc) + sum(map(mul, lat, lat[len(lat) // 2:]))
            for osc, lat in vec}
    if len(degs) != 1:
        raise ValueError("vector is not homogeneous")
    return degs.pop()


def _state_factors(osc):
    """Factor chain of an oscillator monomial's field: g(m) is the
    (-m-1)-th derivative of g(z) over (-m-1)!."""
    return tuple(("osc", g, -m - 1) for (g, m) in osc)


def state_mode(L: HypLattice, state, n, vec):
    """VOA mode: coefficient of z^(-n-1) of the field of ``state`` applied
    to ``vec``.  The state must have integral lattice points."""
    return to_fractions(*_state_ints(L, _ints(state), n, _ints(vec)))


def _state_ints(L, state, n, vec):
    """``state_mode`` on int vectors."""
    sden, snums = state
    if any(x.denominator != 1 for _osc, lat in snums for x in lat):
        raise ValueError("state fields need integral lattice points")
    return _chains_on(L, [(num, _state_factors(osc), lat, _canon(-n - 1))
                          for (osc, lat), num in snums.items()], sden, vec)


def _mode_bound(L: HypLattice, x, y):
    """x_(j) y = 0 for j >= this: minus the lowest z-power of Y(x, z) y.
    (Conformal weight is no bound: lattice norms can be negative.)"""
    return max((ceil(-_term_min_exponent(L, _state_factors(ox), lx, oy, ly))
                for ox, lx in x for oy, ly in y), default=0)


def translate(L: HypLattice, vec):
    """The translation operator D = mode -1 of the lattice Virasoro field."""
    return hyp_virasoro_mode(L, -1, vec)


def voa_axiom_check(L: HypLattice, a, b, c, window=3, borcherds_window=2):
    """Exact check on the triple (a, b, c) of the Borcherds identity at
    (k, m, n) in [-borcherds_window, borcherds_window]^3, of its k = 0 slice
    (the commutator formula) also at m, n in [-window, window], and of
    skew-symmetry at n in [-window, window].  Sums stop at ``_mode_bound``.

    Returns the failures from ``tally``: ("commutator", (m, n)),
    ("borcherds", (k, m, n)) and ("skew", n); empty means all identities
    hold.  All mode applications are cached, so the sweeps stay table driven.
    """
    return tally(_axiom_cases(L, a, b, c, window, borcherds_window))[1]


def _axiom_cases(L, a, b, c, window, borcherds_window):
    a, b, c = _ints(a), _ints(b), _ints(c)
    bab = _mode_bound(L, a[1], b[1])
    bac = _mode_bound(L, a[1], c[1])
    bbc = _mode_bound(L, b[1], c[1])

    @cache
    def ac(i):
        return _state_ints(L, a, i, c)

    @cache
    def bc(i):
        return _state_ints(L, b, i, c)

    @cache
    def prod(q):
        return _state_ints(L, a, q, b)

    @cache
    def ba(l, i):
        return _state_ints(L, b, l, ac(i))

    @cache
    def ab(l, i):
        return _state_ints(L, a, l, bc(i))

    @cache
    def pc(q, l):
        return _state_ints(L, prod(q), l, c)

    win = range(-window, window + 1)
    bwin = range(-borcherds_window, borcherds_window + 1)
    indices = {(0, m, n) for m in win for n in win}
    indices.update((k, m, n) for k in bwin for m in bwin for n in bwin)
    for k, m, n in sorted(indices):
        # a zero binomial skips its mode application
        lhs = combine((cf, pc(k + j, m + n - j)) for j in range(bab - k)
                      if (cf := binom(m, j)))
        rhs = combine(chain(
            ((-cf if (k + j + 1) % 2 else cf, ba(n + k - j, m + j))
             for j in range(bac - m) if (cf := binom(k, j))),
            ((-cf if j % 2 else cf, ab(m + k - j, n + j))
             for j in range(bbc - n) if (cf := binom(k, j)))))
        # tally compares the two sides cross-multiplied
        got, want = cross(lhs, rhs)
        yield (("borcherds", got, want, (k, m, n)) if k
               else ("commutator", got, want, (m, n)))

    ba_states = {}
    for n in win:
        rden, rhs = 1, {}
        for j in range(0, bab - n):
            if n + j not in ba_states:
                ba_states[n + j] = _state_ints(L, b, n + j, a)
            base = ba_states[n + j]
            if not base[1]:
                continue
            for _ in range(j):
                base = _virasoro_ints(L, -1, base)
            sgn = -1 if (n + j + 1) % 2 else 1
            rden = add_over(rhs, rden, base[0] * factorial(j), base[1], sgn)
        yield "skew", *cross(prod(n), (rden, rhs)), n


def random_triples(L: HypLattice, rng, count, max_degree):
    """``count`` seeded triples of basis states, each drawn a, b, c in turn."""
    return [tuple(random_state(L, rng, max_degree) for _ in range(3))
            for _ in range(count)]


def voa_sweep(L: HypLattice, triples, window, borcherds_window):
    """``voa_axiom_check`` on each triple: (checked, failures), a failure
    being (triple, that triple's failure records)."""
    checks = ((t, voa_axiom_check(L, *t, window=window,
                                  borcherds_window=borcherds_window))
              for t in triples)
    return len(triples), [(t, fails) for t, fails in checks if fails]
