"""The twisted Virasoro-current algebra on g + gl_N and its bounded modules.

Mode symbols are ('L', n), ('f', i, n) with i indexing the g + gl_N basis,
and central symbols ('C', name) with name in {'c_g', 'c_sl', 'c_hei',
'c_vh', 'c_vir'}.  Brackets:

    [L(n), L(m)] = (n - m) L(n+m) + (n^3 - n)/12 delta_{n,-m} C_vir
    [L(n), f(m)] = -m f(n+m) - (n^2 + n) delta_{n,-m} psi(f)
    [f(n), g(m)] = [f, g](n+m) + n delta_{n,-m} phi(f, g)

Modules are induced from a finite top V (x) W on which L(0) acts by h_vir,
the identity current by h_hei, positive modes by zero, and the centers by a
fixed character.  The ``vacuum`` flavor additionally kills L(-1) on the top,
which realizes the enveloping-vertex-algebra quotient for the trivial top.
An ``FModule`` holds the frozen ``CentralCharacter`` it is given, and reads
each central value from it by name.

A PBW monomial of negative modes has ``depth`` minus the sum of its modes,
and a mode above that depth annihilates it; ``apply_sym`` answers such a
mode with zero at once and does not store it.

An ``FModule`` keeps two memo tables: ``apply_sym``'s image of each mode
symbol on each PBW basis monomial, and the image of each mode of the
corrected Virasoro field L'(z) on each basis monomial.  Both hold reduced
int forms (den, {(mono, top): numerator}) (``linalg``), and every empty
image is the one shared entry ``_EMPTY``.  L'(m) is computed once per
monomial from its definition: L(m) minus the normally ordered Sugawara
quadratics of g, sl_N and the Heisenberg current, plus the dI correction.
The quadratics are one tensor T over basis currents, in ints over a common
denominator, and L'(m) is one pass over T and the split modes of
:x_i x_j:(m) that adds each second current's image once.  ``act``,
``act_current`` and ``sugawara_mode`` extend the images linearly to
vectors; they are the Fraction boundary, converting their input once and
building one Fraction per output entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .finite_lie_data import FiniteModule, GLModule, ReductiveF, ValidationError
from .linalg import (add_into, add_over, combine, merge, nullspace, reduced,
                     tally, to_fractions, to_ints, vec_add, vec_scale)

Q = Fraction

# the one empty image both memo tables share
_EMPTY = (1, {})


@dataclass(frozen=True)
class CentralCharacter:
    c_g: Fraction
    c_sl: Fraction
    c_hei: Fraction
    c_vh: Fraction
    c_vir: Fraction

    @classmethod
    def from_params(cls, params):
        """The character carried by the standard bounded realization."""
        N, mu, nu, c = params.N, params.mu, params.nu, params.c
        return cls(
            c_g=c,
            c_sl=1 - mu * c,
            c_hei=N * (1 - mu * c) - N * N * nu * c,
            c_vh=N * (Q(1, 2) - nu * c),
            c_vir=12 * c * (mu + nu) - 2 * N,
        )

    def as_dict(self):
        return {"c_g": self.c_g, "c_sl": self.c_sl, "c_hei": self.c_hei,
                "c_vh": self.c_vh, "c_vir": self.c_vir}


class CriticalLevelError(ValueError):
    """Raised when a normalization denominator of the corrected Virasoro
    field vanishes; the message names the failing inequality."""


def mode_of(sym):
    return sym[1] if sym[0] == "L" else sym[2]


def depth(mono):
    """PBW depth of a monomial of negative modes: the L(0) grading below
    the top.  A mode above its monomial's depth annihilates it."""
    return -sum(map(mode_of, mono))


def _key(sym):
    # PBW order: ascending depth, ties L before currents, then basis index
    if sym[0] == "L":
        return (-sym[1], 0, 0)
    return (-sym[2], 1, sym[1])


def f_bracket(fd: ReductiveF, a, b) -> dict:
    """Bracket of two mode symbols as dict symbol -> coefficient.

    Central symbols appear as ('C', name).
    """
    if a[0] == "C" or b[0] == "C":
        return {}
    out = {}
    if a[0] == "L" and b[0] == "L":
        n, m = a[1], b[1]
        if n != m:
            out[("L", n + m)] = Q(n - m)
        if n == -m:
            merge(out, ("C", "c_vir"), Q(n ** 3 - n, 12))
        return out
    if a[0] == "L" and b[0] == "f":
        n, i, m = a[1], b[1], b[2]
        if m:
            out[("f", i, n + m)] = Q(-m)
        if n == -m:
            ps = fd.psi(i)
            if ps and (n * n + n):
                out[("C", "c_vh")] = -Q(n * n + n) * ps
        return out
    if a[0] == "f" and b[0] == "L":
        return {k: -v for k, v in f_bracket(fd, b, a).items()}
    # current-current
    i, n = a[1], a[2]
    j, m = b[1], b[2]
    for k, cf in fd.bracket(i, j).items():
        merge(out, ("f", k, n + m), cf)
    if n == -m:
        for name, cf in fd.phi(i, j).items():
            merge(out, ("C", name), n * cf)
    return out


class FModule:
    """Induced bounded module for the twisted Virasoro-current algebra.

    Vectors are dicts {(mono, top): coefficient} with mono a tuple of
    negative-mode symbols in PBW order and top = (iv, iw).
    """

    def __init__(self, fd: ReductiveF, gamma: CentralCharacter,
                 V: FiniteModule, W: GLModule,
                 h_hei: Fraction, h_vir: Fraction, vacuum: bool = False):
        self.fd = fd
        self.gamma = gamma
        self.V = V
        self.W = W
        self.h_hei = Q(h_hei)
        self.h_vir = Q(h_vir)
        self.vacuum = vacuum
        if vacuum and not (V.dim == 1 and W.dim == 1
                           and self.h_hei == 0 and self.h_vir == 0):
            raise ValidationError(
                "vacuum flavor requires a one-dimensional top with "
                "h_hei = h_vir = 0")
        self.top_dim = V.dim * W.dim
        self.tops = [(iv, iw) for iv in range(V.dim) for iw in range(W.dim)]
        self._zero_action = self._build_zero_modes()
        # the Sugawara tensor of _casimir_tensor; built by sugawara_mode
        # once the level is known not to be critical
        self._casimir = None
        # the two memo tables: apply_sym's (sym, mono, top) and the
        # corrected Virasoro field's (m, mono, top) images, each a reduced
        # int form.  Their keys share one copy of each mode symbol, and every
        # empty image is the one _EMPTY; unshared, each of the two cost about
        # 0.6 MB of the 6.2 MB that a cold sweep of perfbench's sugawara
        # workload retains (tracemalloc, Python 3.11, x86-64)
        self._cache = {}
        self._sugawara_cache = {}
        self._shared = {}

    # -- static structure ---------------------------------------------------

    def _build_zero_modes(self):
        """Per basis current, its top action: source top -> int image
        (den, {((), dst_top): numerator}).  A g current acts on V, E_ab on W
        through its traceless part, plus h_hei / N on the diagonal when
        a = b."""
        table = []
        for sym in self.fd.basis:
            if sym[0] == "g":
                mat, slot, scalar = self.V.mats[sym[1]], 0, 0
            else:
                _, a, b = sym
                mat, slot = self.W.traceless_part_action(a, b), 1
                scalar = self.h_hei / self.fd.N if a == b else 0
            images = {}
            for top in self.tops:
                img = {}
                for k, row in enumerate(mat):
                    dst = (k, top[1]) if slot == 0 else (top[0], k)
                    merge(img, ((), dst), row[top[slot]])
                merge(img, ((), top), scalar)
                if img:
                    images[top] = to_ints(img)
            table.append(images)
        return table

    def top_vector(self, iv=0, iw=0):
        return {((), (iv, iw)): Q(1)}

    # -- straightening ------------------------------------------------------

    def _top_apply(self, sym, top):
        if sym[0] == "L":
            h = self.h_vir
            return (h.denominator, {((), top): h.numerator}) if h else _EMPTY
        return self._zero_action[sym[1]].get(top, _EMPTY)

    def apply_sym(self, sym, mono, top):
        """sym * (mono acting on top) as a reduced int form
        (den, {(mono, top): numerator}); returns a cached entry, do not
        mutate.

        A mode above the monomial's depth gives zero by grading, which is
        returned at once and not stored."""
        if sym[0] == "C":
            value = getattr(self.gamma, sym[1])
            return ((value.denominator, {(mono, top): value.numerator})
                    if value else _EMPTY)
        key = (sym, mono, top)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n = mode_of(sym)
        if n > depth(mono):
            return _EMPTY
        sym = self._shared.setdefault(sym, sym)
        key = (sym, mono, top)
        reducible = self.vacuum and sym == ("L", -1)
        if not mono:
            if n == 0:
                out = self._top_apply(sym, top)
            elif reducible:
                out = _EMPTY
            else:
                out = (1, {((sym,), top): 1})
        elif n < 0 and not reducible and _key(sym) <= _key(mono[0]):
            out = (1, {((sym,) + mono, top): 1})
        else:
            head, rest = mono[0], mono[1:]
            den, acc = 1, {}
            rden, rnums = self.apply_sym(sym, rest, top)
            for (m2, t2), c2 in rnums.items():
                hden, hnums = self.apply_sym(head, m2, t2)
                den = add_over(acc, den, rden * hden, hnums, c2)
            for bsym, bc in f_bracket(self.fd, sym, head).items():
                bden, bnums = self.apply_sym(bsym, rest, top)
                den = add_over(acc, den, bc.denominator * bden, bnums,
                               bc.numerator)
            out = reduced(den, acc) if acc else _EMPTY
        self._cache[key] = out
        return out

    def act(self, sym, vec):
        """Apply one mode or central symbol to a vector."""
        return self._extend({sym: 1}, vec)

    def act_current(self, combo, n, vec):
        """Apply sum_i combo[i] x_i(n)."""
        return self._extend({("f", i, n): cf for i, cf in combo.items()}, vec)

    def _extend(self, combo, vec):
        """sum over sym of combo[sym] * sym on the Fraction vector ``vec``,
        summed over one denominator from apply_sym's int images."""
        cden, cnums = to_ints(combo)
        vden, vnums = to_ints(vec)
        den, out = combine((cs * cf, self.apply_sym(sym, mono, top))
                           for sym, cs in cnums.items()
                           for (mono, top), cf in vnums.items())
        return to_fractions(den * cden * vden, out)

    # -- bases ----------------------------------------------------------------

    def negative_symbols(self, max_depth):
        """Negative-mode generators of depth <= max_depth, PBW sorted."""
        syms = []
        for dd in range(1, max_depth + 1):
            if not (self.vacuum and dd == 1):
                syms.append(("L", -dd))
            for i in range(self.fd.dim):
                syms.append(("f", i, -dd))
        syms.sort(key=_key)
        return syms

    def monomials_at(self, depth):
        """All PBW monomials of the given total depth."""
        if depth == 0:
            return [()]
        syms = self.negative_symbols(depth)
        out = []

        def rec(start, left, acc):
            if left == 0:
                out.append(tuple(acc))
                return
            for pos in range(start, len(syms)):
                d = -mode_of(syms[pos])
                if d > left:
                    continue
                acc.append(syms[pos])
                rec(pos, left - d, acc)
                acc.pop()

        rec(0, depth, [])
        return out

    def basis_at(self, depth):
        return [(mono, top) for mono in self.monomials_at(depth) for top in self.tops]


def raising_symbols(fd: ReductiveF):
    """Degree-1 and degree-2 raising generators."""
    syms = [("L", 1), ("L", 2)]
    for i in range(fd.dim):
        syms.append(("f", i, 1))
        syms.append(("f", i, 2))
    return syms


def singular_vectors(module: FModule, depth: int):
    """Exact basis of the space of depth-homogeneous vectors annihilated by
    every degree-1 and degree-2 raising generator.  Empty for depth = 0."""
    if depth <= 0:
        return []
    basis = module.basis_at(depth)
    if not basis:
        return []
    index = {key: i for i, key in enumerate(basis)}
    targets = {}
    for d2 in (depth - 1, depth - 2):
        if d2 >= 0:
            targets[d2] = {key: i for i, key in enumerate(module.basis_at(d2))}
    rows = {}
    for col, (mono, top) in enumerate(basis):
        for rsym in raising_symbols(module.fd):
            den, nums = module.apply_sym(rsym, mono, top)
            d2 = depth - mode_of(rsym)
            tidx = targets.get(d2)
            if tidx is None:
                continue
            for key, num in nums.items():
                row_id = (rsym, tidx[key])
                rows.setdefault(row_id, {})[col] = (num if den == 1
                                                    else Q(num, den))
    null = nullspace(list(rows.values()), len(basis))
    out = []
    for vec in null:
        out.append({basis[i]: cf for i, cf in enumerate(vec) if cf != 0})
    return out


# ---------------------------------------------------------------------------
# corrected Virasoro field
# ---------------------------------------------------------------------------

def check_generic(fd: ReductiveF, gamma: CentralCharacter):
    if gamma.c_g == -fd.g.h_vee:
        raise CriticalLevelError(
            f"critical level: c_g = -h_vee = {gamma.c_g} for {fd.g.name}")
    if fd.N >= 2 and gamma.c_sl == -fd.N:
        raise CriticalLevelError(f"critical level: c_sl = -N = {gamma.c_sl}")
    if gamma.c_hei == 0:
        raise CriticalLevelError("critical level: c_hei = 0")


def sugawara_constants(fd: ReductiveF, gamma: CentralCharacter,
                       omega_v: Fraction, omega_w: Fraction,
                       h_hei: Fraction, h_vir: Fraction):
    """Central charge and top conformal weight of the corrected Virasoro
    field, after splitting off the current sectors."""
    check_generic(fd, gamma)
    N = fd.N
    c_prime = gamma.c_vir \
        - gamma.c_g * fd.g.dim / (gamma.c_g + fd.g.h_vee) \
        - 1 + 12 * gamma.c_vh ** 2 / gamma.c_hei
    h_prime = h_vir \
        - omega_v / (2 * (gamma.c_g + fd.g.h_vee)) \
        - (h_hei ** 2 - 2 * gamma.c_vh * h_hei) / (2 * gamma.c_hei)
    if N >= 2:
        c_prime -= gamma.c_sl * (N * N - 1) / (gamma.c_sl + N)
        h_prime -= omega_w / (2 * (gamma.c_sl + N))
    return c_prime, h_prime


def _casimir_tensor(fd: ReductiveF, gamma: CentralCharacter):
    """(T, D): T[(i, j)] / D is the coefficient of :x_i(z) x_j(z): in L'(z),
    minus each sector's dual-basis quadratic over twice its shifted level.
    D is the least common denominator, so the entries of T are ints."""
    sectors = (("g", gamma.c_g + fd.g.h_vee), ("sl", gamma.c_sl + fd.N),
               ("hei", gamma.c_hei))
    T = {}
    for which, level in sectors:
        for xc, yc, cf in fd.quadratic_pairs(which):
            scale = -cf / (2 * level)
            for i, xi in xc.items():
                for j, yj in yc.items():
                    merge(T, (i, j), scale * xi * yj)
    D, T = to_ints(T)
    return T, D


def _sugawara_basis(module: FModule, m, mono, top):
    """L'(m) on one PBW monomial, from the definition, as a reduced int
    form; returns a cached entry, do not mutate."""
    key = (m, mono, top)
    hit = module._sugawara_cache.get(key)
    if hit is not None:
        return hit
    apply_sym = module.apply_sym
    T, D = module._casimir
    d = depth(mono)
    # :x_i x_j:(m) = sum_{k<0} x_i(k) x_j(m-k) + sum_{k>=0} x_j(m-k) x_i(k);
    # a current mode above the depth d annihilates the monomial.  pending /
    # pden holds the coefficient of each second application per (symbol,
    # mono, top), and acc / aden is D times the image
    firsts = []
    for (i, j), tc in T.items():
        for k in range(m - d, d + 1):
            if k < 0:
                first, second = ("f", j, m - k), ("f", i, k)
            else:
                first, second = ("f", i, k), ("f", j, m - k)
            fden, fnums = apply_sym(first, mono, top)
            if fnums:
                firsts.append((second, tc, fden, fnums))
    pden = lcm(*(fden for _second, _tc, fden, _fnums in firsts))
    pending = {}
    for second, tc, fden, fnums in firsts:
        scale = tc * (pden // fden)
        for (m2, t2), c2 in fnums.items():
            merge(pending, (second, m2, t2), scale * c2)
    aden, lnums = apply_sym(("L", m), mono, top)
    acc = add_into({}, lnums, D)
    for (sym, m2, t2), cf in pending.items():
        sden, snums = apply_sym(sym, m2, t2)
        aden = add_over(acc, aden, pden * sden, snums, cf)
    # derivative correction: -(c_vh/c_hei) dI(z) contributes
    # (c_vh/c_hei) (m+1) I(m) at Virasoro mode m
    gamma = module.gamma
    cf = D * gamma.c_vh / gamma.c_hei * (m + 1)
    if cf:
        for i, ci in module.fd.identity_combo().items():
            ic = cf * ci
            iden, inums = apply_sym(("f", i, m), mono, top)
            aden = add_over(acc, aden, ic.denominator * iden, inums,
                            ic.numerator)
    hit = module._sugawara_cache[key] = (reduced(aden * D, acc) if acc
                                         else _EMPTY)
    return hit


def sugawara_mode(module: FModule, m: int, vec):
    """Mode m (Virasoro indexing) of the corrected Virasoro field: the
    linear extension of its memoized image of each basis monomial."""
    check_generic(module.fd, module.gamma)
    if module._casimir is None:
        module._casimir = _casimir_tensor(module.fd, module.gamma)
    vden, vnums = to_ints(vec)
    den, out = combine((cf, _sugawara_basis(module, m, mono, top))
                       for (mono, top), cf in vnums.items())
    return to_fractions(den * vden, out)


def sugawara_test_vectors(module: FModule, rng, per_depth):
    """The top, every depth-1 monomial on it, and ``per_depth`` seeded
    monomials of depth 2 and of depth 3 (all of them where fewer exist)."""
    top = module.tops[0]
    vecs = [{(mono, top): Q(1)} for depth in (0, 1)
            for mono in module.monomials_at(depth)]
    for depth in (2, 3):
        pool = module.monomials_at(depth)
        vecs += [{(mono, top): Q(1)}
                 for mono in rng.sample(pool, min(per_depth, len(pool)))]
    return vecs


def sugawara_sweep(module: FModule, c_prime, window, vecs, ncommute):
    """The corrected Virasoro field against central charge ``c_prime`` on
    ``vecs``, and its commutation with every current on the first
    ``ncommute`` of them, for all modes n, m in [-window, window].

    Returns (checked, failures) from ``tally`` for each of the two.
    """
    modes = range(-window, window + 1)

    def L(n, v):
        return sugawara_mode(module, n, v)

    def virasoro(n, m, v):
        want = vec_scale(L(n + m, v), n - m) if n != m else {}
        if n == -m:
            want = vec_add(want, v, Q(n ** 3 - n, 12) * c_prime)
        return ("virasoro", vec_add(L(n, L(m, v)), L(m, L(n, v)), Q(-1)),
                want, (n, m, v))

    def commutes(idx, n, m, v):
        f = ("f", idx, m)
        return ("commutes", L(n, module.act(f, v)), module.act(f, L(n, v)),
                (idx, n, m, v))

    return (tally(virasoro(n, m, v) for n in modes for m in modes
                  for v in vecs),
            tally(commutes(idx, n, m, v) for idx in range(module.fd.dim)
                  for n in modes for m in modes for v in vecs[:ncommute]))
