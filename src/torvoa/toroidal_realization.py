"""Action of the full toroidal Lie algebra on (lattice Fock) x (twisted
Virasoro-current) modules, with exact verification drivers.

A generator t_0^j t^r X acts as one z-mode of a composite field built from:
the exponential vertex operator attached to r along the isotropic half of
the lattice, oscillator fields u_p(z), v_p(z), and the current and
Virasoro fields of the second tensor factor.  The plans implement

    k_0-fields  = c Y(e^{ru}, z)                          at z^{-j}
    k_p-fields  = c :u_p(z) Y(e^{ru}, z):                 at z^{-j-1}
    g-fields    = g(z) Y(e^{ru}, z)                       at z^{-j-1}
    dt_p-fields = :v_p(z) Y(e^{ru}, z):
                  + sum_a r_a E_{ap}(z) Y(e^{ru}, z)      at z^{-j-1}
    dt_0-fields = sum_p :u_p(z) :v_p(z) Y(e^{ru}, z)::
                  + :omega_cur(z) Y(e^{ru}, z):
                  + sum_{a,b} r_a u_b(z) E_{ab}(z) Y(e^{ru}, z)
                  + mu c sum_p r_p (d/dz u_p)(z) Y(e^{ru}, z)
                                                          at z^{-j-2}

and the plain vector fields through the invertible shift to the dt basis.

Every check in the module yields (label, got, want, data) cases into
``linalg.tally`` and returns its (checked, failures).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor

from . import lattice_fock
from .algebra_core import (BasisSymbol, ConfigError, Params, ToroidalElement,
                           _plain_to_tilde, bracket_symbols, d_sym, dt_sym,
                           g_sym, k_sym, random_symbol)
from .finite_lie_data import (FiniteModule, GLModule, ReductiveF,
                              build_gl_module, build_module, casimir_eigenvalue)
# perfbench/tracer.py wraps _exp_term, heis_act_gen and hyp_virasoro_mode here
from .lattice_fock import (HypLattice, _canon, _canon_vec, _exp_term,
                           _insert_osc, coset_point, falling, fock_depth,
                           heis_act_gen, hyp_virasoro_mode, random_osc)
from .linalg import add_into, merge, tally, vec_add, vec_eq, vec_scale
from .virasoro_affine import (CentralCharacter, FModule, depth,
                              sugawara_constants)

Q = Fraction


def unit_r(N, a, value=1):
    """Multi-index with ``value`` in slot a (1-based) and zeros elsewhere."""
    return tuple(value if i == a - 1 else 0 for i in range(N))


class RealizationModule:
    """Bounded module for the toroidal algebra: Fock coset (x) induced module.

    Vectors are dicts {((osc, lat), (mono, top)): coefficient}.  By default
    the second factor is the triangular induced module; ``vacuum=True``
    additionally kills the translation mode on the top (only meaningful for
    the distinguished one-dimensional top).
    """

    def __init__(self, params: Params, alpha=None, V: FiniteModule = None,
                 W: GLModule = None, h=None, d=None, vacuum: bool = False):
        N = params.N
        self.params = params
        self.alpha = tuple(Q(a) for a in (alpha or (0,) * N))
        if len(self.alpha) != N:
            raise ConfigError(f"alpha must have length {N}")
        self.V = V or build_module(params.g_dot, "trivial")
        h_default = N * params.nu * params.c
        if W is None:
            self.h = Q(h) if h is not None else h_default
            self.W = build_gl_module(N, "trivial", id_scalar=self.h)
        else:
            self.h = Q(h) if h is not None else W.id_scalar
            if W.id_scalar == self.h:
                self.W = W
            else:
                self.W = GLModule(W.N, W.dim, W.sl_mats, self.h, W.weight)
        self.d = Q(d) if d is not None else (params.mu + params.nu) * params.c / 2
        self.h_hei = self.h - N * params.nu * params.c
        self.h_vir = -self.d + (params.mu + params.nu) * params.c / 2
        self.gamma0 = CentralCharacter.from_params(params)
        self.fd = ReductiveF(params.g_dot, N)
        self.lat = HypLattice(N)
        self.vacuum = vacuum
        self.fmod = FModule(self.fd, self.gamma0, self.V, self.W,
                            self.h_hei, self.h_vir, vacuum=vacuum)
        self._vacuum_companion = None
        self._term_cache = {}

    # -- construction helpers --------------------------------------------

    def is_standard_top(self):
        """True for the distinguished one-dimensional top at alpha = 0."""
        return (self.V.dim == 1 and self.W.dim == 1
                and all(a == 0 for a in self.alpha)
                and self.h_hei == 0 and self.h_vir == 0)

    def sugawara_constants(self):
        """(c', h'): central charge and top weight of the corrected
        Virasoro field on the second factor.  Raises CriticalLevelError at
        a critical level."""
        omega_v = casimir_eigenvalue(self.params.g_dot, self.V)
        sl_w = self.W.sl_module()       # None for N = 1
        omega_w = Q(0) if sl_w is None else casimir_eigenvalue(self.fd.sl, sl_w)
        return sugawara_constants(self.fd, self.gamma0, omega_v, omega_w,
                                  self.h_hei, self.h_vir)

    def vacuum_companion(self):
        """Same data with the translation-null reduction on the second factor."""
        if self.vacuum:
            return self
        if not self.is_standard_top():
            raise ConfigError("vacuum companion exists only for the standard top")
        if self._vacuum_companion is None:
            self._vacuum_companion = RealizationModule(
                self.params, self.alpha, self.V, self.W, self.h, self.d,
                vacuum=True)
            # lattice data do not depend on the vacuum flag: share the memo
            self._vacuum_companion.lat = self.lat
        return self._vacuum_companion

    def lattice_point(self, m=None):
        return coset_point(self.lat, self.alpha, m)

    def top_vector(self, m=None, iv=0, iw=0):
        return {(((), self.lattice_point(m)), ((), (iv, iw))): Q(1)}

    def q_vector(self, m=None, fvec=None):
        """Tensor of the coset point e^{(alpha+m)u} with an f-side vector."""
        return self.osc_vector((), m, fvec)

    def osc_vector(self, entries, m=None, fvec=None):
        osc = ()
        for g, mode in entries:
            osc = _insert_osc(osc, g, mode)
        fvec = fvec if fvec is not None else self.fmod.top_vector()
        fk = (osc, self.lattice_point(m))
        return {(fk, key): cf for key, cf in fvec.items()}

    def gl_current_state(self, a, b, m=None, mode=-1):
        """e^{(alpha+m)u} (x) E_ab(mode) applied to the top."""
        combo = {self.fd.e_index(a, b): Q(1)}
        fvec = self.fmod.act_current(combo, mode, self.fmod.top_vector())
        return self.q_vector(m, fvec)

    # -- generator plans ----------------------------------------------------

    def _exp_vec(self, r):
        N = self.params.N
        return _canon_vec(r) + (0,) * N

    def realize_plan(self, sym: BasisSymbol):
        """Composite operator description: list of (coeff, fock, ffac, y, e).

        ``fock`` is a chain of Fock factors ('osc', g, nderiv) as
        ``lattice_fock._term_apply`` takes it, ``ffac`` the one M_f factor
        ('cur', idx) or ('fvir',), or None, and y the exponential vector.
        """
        p = self.params
        N = p.N
        j, r = sym.j, sym.r
        y = self._exp_vec(r)
        c = p.c
        if sym.tag == "k":
            if sym.idx == 0:
                return [(c, (), None, y, -j)]
            return [(c, (("osc", sym.idx - 1, 0),), None, y, -j - 1)]
        if sym.tag == "g":
            return [(Q(1), (), ("cur", sym.idx), y, -j - 1)]
        if sym.tag == "dt":
            if sym.idx >= 1:
                pidx = sym.idx
                plan = [(Q(1), (("osc", N + pidx - 1, 0),), None, y, -j - 1)]
                for a in range(1, N + 1):
                    ra = r[a - 1]
                    if ra:
                        cur = ("cur", self.fd.e_index(a, pidx))
                        plan.append((Q(ra), (), cur, y, -j - 1))
                return plan
            # :(:u_p v_p:) Y(e^y): = :u_p :v_p Y(e^y):: + r_p :(d u_p) Y(e^y):
            # since (v_p|y) = r_p and (u_p|y) = 0; the second term joins the
            # derivative correction below
            plan = [(Q(1), (("osc", pp, 0), ("osc", N + pp, 0)), None, y,
                     -j - 2) for pp in range(N)]
            plan.append((Q(1), (), ("fvir",), y, -j - 2))
            for a in range(1, N + 1):
                ra = r[a - 1]
                if not ra:
                    continue
                for b in range(1, N + 1):
                    cur = ("cur", self.fd.e_index(a, b))
                    plan.append((Q(ra), (("osc", b - 1, 0),), cur, y, -j - 2))
            coef = p.mu * c
            if coef:
                for pp in range(1, N + 1):
                    rp = r[pp - 1]
                    if rp:
                        plan.append((coef * rp, (("osc", pp - 1, 1),), None, y,
                                     -j - 2))
            return plan
        if sym.tag == "d":
            plan = []
            for s2, c2 in _plain_to_tilde(p, sym).items():
                for coeff, *chain in self.realize_plan(s2):
                    plan.append((c2 * coeff, *chain))
            return plan
        raise ConfigError(f"cannot realize tag {sym.tag!r}")

    # -- normally ordered application ----------------------------------------

    def _term_ordered(self, fock, ffac, y, e, fk, fkey):
        """One basis monomial through a chain with an M_f factor at one
        exponent; memoized on the module so window sweeps share work.

        The Fock factors and the M_f factor act on different tensor factors
        and commute, so the z^e coefficient of the chain is the sum over e2
        of the lattice Fock product at z^(e - e2) tensored with the M_f
        field at z^e2.
        """
        key = (fock, ffac, y, e, fk, fkey)
        hit = self._term_cache.get(key)
        if hit is not None:
            return hit
        (osc, lat), (mono, top) = fk, fkey
        out = {}
        # an M_f field of weight w kills depth-d monomials below z^(-d-w);
        # the Fock product vanishes below its minimal exponent
        lo = -depth(mono) - (2 if ffac[0] == "fvir" else 1)
        hi = e - lattice_fock._term_min_exponent(self.lat, fock, y, osc, lat)
        for e2 in range(lo, floor(hi) + 1):
            den, fpart = lattice_fock._term_apply(self.lat, fock, y, osc, lat,
                                                  e - e2)
            if not fpart:
                continue
            sym = (("L", -e2 - 2) if ffac[0] == "fvir"
                   else ("f", ffac[1], -e2 - 1))
            for fkey2, c2 in self.fmod.apply_sym(sym, mono, top).items():
                num, d = c2.numerator, c2.denominator * den
                for fk2, c1 in fpart.items():
                    merge(out, (fk2, fkey2), Q(c1 * num, d))
        self._term_cache[key] = out
        return out

    def _apply_ordered(self, fock, ffac, y, e, vec):
        """One plan term, without its coefficient, on a vector (y None: no
        exponential).  A Fock-only chain is read from the lattice engine's
        memo and stored nowhere else."""
        out = {}
        e = _canon(e)
        for ((osc, lat), fkey), cf in vec.items():
            lat = _canon_vec(lat)
            if ffac is not None:
                add_into(out, self._term_ordered(fock, ffac, y, e, (osc, lat),
                                                 fkey), cf)
                continue
            den, nums = lattice_fock._term_apply(self.lat, fock, y, osc, lat,
                                                 e)
            num, d = cf.numerator, cf.denominator * den
            for fk2, c1 in nums.items():
                merge(out, (fk2, fkey), Q(c1 * num, d))
        return out

    # -- the action ------------------------------------------------------------

    def g_act_symbol(self, sym: BasisSymbol, vec):
        out = {}
        for coeff, *chain in self.realize_plan(sym):
            add_into(out, self._apply_ordered(*chain, vec), coeff)
        return out

    def g_act(self, x, vec):
        """Action of a basis symbol or element on a vector."""
        if isinstance(x, BasisSymbol):
            return self.g_act_symbol(x, vec)
        if isinstance(x, ToroidalElement):
            out = {}
            for sym, cf in x.terms.items():
                add_into(out, self.g_act_symbol(sym, vec), cf)
            return out
        raise ConfigError("g_act expects a basis symbol or an element")

    def _commutator_sides(self, a: BasisSymbol, b: BasisSymbol, vec):
        """([a, b] v, a (b v) - b (a v))."""
        lhs = self.g_act(bracket_symbols(self.params, a, b), vec)
        rhs = vec_add(self.g_act_symbol(a, self.g_act_symbol(b, vec)),
                      self.g_act_symbol(b, self.g_act_symbol(a, vec)), Q(-1))
        return lhs, rhs

    def commutator_sweep(self, rng: random.Random, count, jmax, rmax,
                         max_depth):
        """Draw ``count`` seeded (a, b, v): two generators of the full
        algebra and a basis vector of depth <= max_depth; check
        [a, b] v = a (b v) - b (a v) on each and return (checked, failures)
        from ``tally``."""
        tags = ("g", "k", "d", "dt")

        def cases():
            for _ in range(count):
                a = random_symbol(self.params, rng, jmax=jmax, rmax=rmax,
                                  tags=tags)
                b = random_symbol(self.params, rng, jmax=jmax, rmax=rmax,
                                  tags=tags)
                v = self.random_vector(rng, max_depth=max_depth)
                yield ("commutator", *self._commutator_sides(a, b, v),
                       (a, b, v))
        return tally(cases())

    def weight_of(self, vec):
        """Exact (d_0, d_1, .., d_N) eigenvalues; raises on non-eigenvectors."""
        if not vec:
            raise ConfigError("zero vector has no weight")
        zr = self.params.zero_r()
        out = []
        for p in range(self.params.N + 1):
            img = self.g_act_symbol(d_sym(self.params, 0, zr, p), vec)
            key, cf = next(iter(vec.items()))
            lam = img.get(key, Q(0)) / cf
            if not vec_eq(img, vec_scale(vec, lam)):
                raise ConfigError("not a weight vector")
            out.append(lam)
        return tuple(out)

    # -- vector samples -----------------------------------------------------

    def sample_vectors(self, max_depth=2):
        """A small deterministic family of homogeneous vectors."""
        N = self.params.N
        out = [self.top_vector()]
        if max_depth >= 1:
            out.append(self.osc_vector([(0, -1)]))
            out.append(self.osc_vector([(N, -1)]))
            out.append(self.q_vector(None, self.fmod.act(
                ("f", 0, -1), self.fmod.top_vector())))
        if max_depth >= 2:
            out.append(self.osc_vector([(0, -1), (N, -1)]))
            out.append(self.q_vector(None, self.fmod.act(
                ("L", -2), self.fmod.top_vector())))
        return [v for v in out if v]

    def random_vector(self, rng: random.Random, max_depth=2):
        """Seeded homogeneous basis vector of total depth <= max_depth, at
        a lattice point (alpha + m) u with m in {-1, 0, 1}^N."""
        osc = random_osc(rng, self.params.N, max_depth)
        monos = self.fmod.monomials_at(max_depth - fock_depth(osc))
        mono = rng.choice(monos) if monos else ()
        top = rng.choice(self.fmod.tops)
        m = tuple(rng.randint(-1, 1) for _ in range(self.params.N))
        fk = (osc, self.lattice_point(m))
        return {(fk, (mono, top)): Q(1)}


# ---------------------------------------------------------------------------
# displayed field-commutator identities
# ---------------------------------------------------------------------------

FIELD_WEIGHTS = {"k0": 0, "k": 1, "g": 1, "dt": 1, "dt0": 2}


def field_symbol(params, kind, l, rm):
    name = kind[0]
    if name == "k0":
        return k_sym(params, l, rm, 0)
    if name == "k":
        return k_sym(params, l, rm, kind[1])
    if name == "g":
        return g_sym(params, l, rm, kind[1])
    if name == "dt":
        return dt_sym(params, l, rm, kind[1])
    if name == "dt0":
        return dt_sym(params, l, rm, 0)
    raise ConfigError(f"unknown field kind {kind!r}")


def commutator_rhs(params, akind, r, bkind, m):
    """Right side of the displayed field commutator for the given pair, as
    (coeff, field-kind, delta-derivative order, field-derivative order)."""
    mu, nu, N = params.mu, params.nu, params.N
    a, b = akind[0], bkind[0]
    terms = []

    def central(coef, n, dv):
        # coef r_p k_p at (n, dv) and coef k_0 with one more delta derivative
        for p in range(1, N + 1):
            if r[p - 1]:
                terms.append((coef * r[p - 1], ("k", p), n, dv))
        terms.append((coef, ("k0",), n + 1, dv))

    center = ("k0", "k")
    if (a in center and b in center) or \
            (a == "g" and b in center) or (a in center and b == "g"):
        return terms
    if a == "g" and b == "g":
        g1, g2 = akind[1], bkind[1]
        for k, cf in params.g_dot.struct[g1][g2]:
            terms.append((Q(cf), ("g", k), 0, 0))
        pairing = params.g_dot.pair(g1, g2)
        if pairing:
            central(pairing, 0, 0)
        return terms
    if a == "dt" and b == "g":
        i = akind[1]
        if m[i - 1]:
            terms.append((Q(m[i - 1]), ("g", bkind[1]), 0, 0))
        return terms
    if a == "dt0" and b == "g":
        gi = bkind[1]
        terms.append((Q(1), ("g", gi), 0, 1))
        terms.append((Q(1), ("g", gi), 1, 0))
        return terms
    if a == "dt" and b == "dt":
        i, jd = akind[1], bkind[1]
        mi, rj = Q(m[i - 1]), Q(r[jd - 1])
        ri, mj = Q(r[i - 1]), Q(m[jd - 1])
        if mi:
            terms.append((mi, ("dt", jd), 0, 0))
        if rj:
            terms.append((-rj, ("dt", i), 0, 0))
        w = mu * mi * rj + nu * ri * mj
        if w:
            central(-w, 0, 0)
        return terms
    if a == "dt0" and b == "dt":
        jd = bkind[1]
        rj, mj = Q(r[jd - 1]), Q(m[jd - 1])
        terms.append((Q(1), ("dt", jd), 0, 1))
        terms.append((Q(1), ("dt", jd), 1, 0))
        if rj:
            terms.append((-rj, ("dt0",), 0, 0))
        if nu and mj:
            central(nu * mj, 1, 0)
        if mu and rj:
            central(-mu * rj, 0, 1)
            central(-mu * rj, 1, 0)
        return terms
    if a == "dt0" and b == "dt0":
        terms.append((Q(1), ("dt0",), 0, 1))
        terms.append((Q(2), ("dt0",), 1, 0))
        w = mu + nu
        if w:
            central(w, 1, 1)
            central(w, 2, 0)
        return terms
    raise ConfigError(f"no displayed identity for pair ({a}, {b})")


def rhs_mode_element(params, akind, r, bkind, m, i, jj) -> ToroidalElement:
    """The mode-(i, jj) content of the displayed commutator's right side."""
    wa, wb = FIELD_WEIGHTS[akind[0]], FIELD_WEIGHTS[bkind[0]]
    k = i + wa - 1
    rm = tuple(x + y for x, y in zip(r, m))
    acc = {}
    for coeff, fkind, n, dv in commutator_rhs(params, akind, r, bkind, m):
        dfac = falling(k, n)
        if dfac == 0:
            continue
        wf = FIELD_WEIGHTS[fkind[0]]
        ee = -jj - wb - k + n
        l = -ee - wf - dv
        extra = falling(-l - wf, dv)
        merge(acc, field_symbol(params, fkind, l, rm), coeff * dfac * extra)
    return ToroidalElement(params, acc)


def default_identity_pairs(params):
    """Representative (name, A-kind, B-kind) instances of the displayed
    commutator identities."""
    N = params.N
    gd = params.g_dot.dim
    pairs = []
    for a in range(N + 1):
        for b in range(a, N + 1):
            ka = ("k0",) if a == 0 else ("k", a)
            kb = ("k0",) if b == 0 else ("k", b)
            pairs.append(("k-k", ka, kb))
    for gi in (0, gd - 1):
        for a in range(N + 1):
            kb = ("k0",) if a == 0 else ("k", a)
            pairs.append(("g-k", ("g", gi), kb))
    for g1, g2 in ((0, 1), (0, gd - 1), (1, gd - 1), (0, 0)):
        pairs.append(("g-g", ("g", g1), ("g", g2)))
    for i in range(1, N + 1):
        pairs.append(("dt-g", ("dt", i), ("g", 0)))
    pairs.append(("dt0-g", ("dt0",), ("g", 0)))
    for i in range(1, N + 1):
        for jd in range(i, N + 1):
            pairs.append(("dt-dt", ("dt", i), ("dt", jd)))
    for jd in range(1, N + 1):
        pairs.append(("dt0-dt", ("dt0",), ("dt", jd)))
    pairs.append(("dt0-dt0", ("dt0",), ("dt0",)))
    return pairs


def _index_box(N, bound):
    out = [()]
    for _ in range(N):
        out = [t + (x,) for t in out for x in range(-bound, bound + 1)]
    return out


def field_commutator_window_check(module: RealizationModule, window=3,
                                  vectors=None, names=None, rm_samples=None):
    """Check the displayed field commutators mode by mode on sample vectors,
    by default for every pair of multi-indices r, m in {-1, 0, 1}^N.

    Returns (checked, failures) from ``tally``; a failure's data is the
    two mode symbols and the vector.
    """
    params = module.params
    vectors = vectors if vectors is not None else module.sample_vectors(1)
    pairs = default_identity_pairs(params)
    if names is not None:
        pairs = [p for p in pairs if p[0] in names]
    if rm_samples is None:
        box = _index_box(params.N, 1)
        rm_samples = [(r, m) for r in box for m in box]
    modes = range(-window, window + 1)

    def cases():
        for name, akind, bkind in pairs:
            for (r, m) in rm_samples:
                asyms = {i: field_symbol(params, akind, i, r) for i in modes}
                bsyms = {jj: field_symbol(params, bkind, jj, m) for jj in modes}
                for vec in vectors:
                    a_imgs = {i: module.g_act_symbol(asyms[i], vec) for i in modes}
                    b_imgs = {jj: module.g_act_symbol(bsyms[jj], vec) for jj in modes}
                    for i in modes:
                        for jj in modes:
                            lhs = vec_add(
                                module.g_act_symbol(asyms[i], b_imgs[jj]),
                                module.g_act_symbol(bsyms[jj], a_imgs[i]), Q(-1))
                            rhs = module.g_act(rhs_mode_element(
                                params, akind, r, bkind, m, i, jj), vec)
                            yield name, lhs, rhs, (asyms[i], bsyms[jj], vec)
    return tally(cases())


# ---------------------------------------------------------------------------
# top-action checks
# ---------------------------------------------------------------------------

def top_action_check(module: RealizationModule, window=2, m_window=1):
    """Degree-zero generators on the top: shift and tensor-action formulas.

    Returns (checked, failures) from ``tally``.
    """
    return tally(_top_action_cases(module, window, m_window))


def _top_action_cases(module, window, m_window):
    p = module.params
    N = p.N
    c = p.c
    box = _index_box(N, window)
    mbox = _index_box(N, m_window)
    tops = [(iv, iw) for iv in range(module.V.dim) for iw in range(module.W.dim)]
    for r in box:
        for m in mbox:
            mr = tuple(x + y for x, y in zip(m, r))
            for (iv, iw) in tops:
                vec = module.top_vector(m, iv, iw)
                shift = module.top_vector(mr, iv, iw)
                yield ("k0-shift", module.g_act_symbol(k_sym(p, 0, r, 0), vec),
                       vec_scale(shift, c), (r, m, iv, iw))
                for pp in range(1, N + 1):
                    yield ("k-annihilate",
                           module.g_act_symbol(k_sym(p, 0, r, pp), vec), {},
                           (pp, r, m, iv, iw))
                yield ("d0-scalar", module.g_act_symbol(d_sym(p, 0, r, 0), vec),
                       vec_scale(shift, module.d), (r, m, iv, iw))
                for gi in range(p.g_dot.dim):
                    got = module.g_act_symbol(g_sym(p, 0, r, gi), vec)
                    want = {}
                    mat = module.V.mats[gi]
                    for iv2 in range(module.V.dim):
                        if mat[iv2][iv]:
                            want = vec_add(want, module.top_vector(mr, iv2, iw),
                                           mat[iv2][iv])
                    yield "g-tensor", got, want, (gi, r, m, iv, iw)
                for jd in range(1, N + 1):
                    got = module.g_act_symbol(d_sym(p, 0, r, jd), vec)
                    want = vec_scale(module.top_vector(mr, iv, iw),
                                     Q(m[jd - 1]) + module.alpha[jd - 1])
                    for pp in range(1, N + 1):
                        if r[pp - 1]:
                            mat = module.W.gl_action(pp, jd)
                            for iw2 in range(module.W.dim):
                                if mat[iw2][iw]:
                                    want = vec_add(
                                        want, module.top_vector(mr, iv, iw2),
                                        Q(r[pp - 1]) * mat[iw2][iw])
                    yield "d-tensor", got, want, (jd, r, m, iv, iw)

    if module.is_standard_top():
        for r in box:
            for m in mbox:
                vec = module.top_vector(m)
                mr = tuple(x + y for x, y in zip(m, r))
                shift = module.top_vector(mr)
                yield ("top-dt0", module.g_act_symbol(dt_sym(p, 0, r, 0), vec),
                       {}, (r, m))
                for jd in range(1, N + 1):
                    yield ("top-dt", module.g_act_symbol(dt_sym(p, 0, r, jd), vec),
                           vec_scale(shift, Q(m[jd - 1])), (jd, r, m))


# ---------------------------------------------------------------------------
# relation checks on the standard-top realization
# ---------------------------------------------------------------------------

RELATION_IDS = ("current-pairing", "osc-pairing", "shifted-pairing",
                "glcurrent-commute", "glcurrent-ope", "vir-lowering",
                "vir-depth2")

# the pairing relations probe depth-one states X_a(-1, r) q^(m-r): the
# field X, and whether the state is independent of r
_PAIRING_STATES = {"current-pairing": (g_sym, True),
                   "osc-pairing": (k_sym, True),
                   "shifted-pairing": (dt_sym, False)}


def _small_r_samples(N):
    out = [(0,) * N, unit_r(N, 1), unit_r(N, 1, -1)]
    if N >= 2:
        out.append(tuple(1 for _ in range(N)))
    return out


def relation_check(module: RealizationModule, relation_id: str):
    """Exact operator identities satisfied by the standard-top realization,
    over multi-indices in {-1, 0, 1}^N.

    The two vanishing statements 'vir-lowering' (first part) and 'vir-depth2'
    hold after the translation-null reduction and are checked on the vacuum
    companion; everything else runs on the module as given.
    Returns (checked, failures) from ``tally``.
    """
    if relation_id not in RELATION_IDS:
        raise ConfigError(f"unknown relation id {relation_id!r}")
    if not module.is_standard_top():
        raise ConfigError("relation checks need the standard top")
    return tally(_relation_cases(module, relation_id))


def _pairing_probes(p, relation_id, a, r, m, s):
    """(label, Y(1, s), scalar) probes of the pairing relation's state
    X_a(-1, r) q^(m-r): Y(1, s) takes it to scalar * q^(m+s)."""
    c, mu, nu = p.c, p.mu, p.nu
    space = range(1, p.N + 1)
    if relation_id == "current-pairing":
        return ([("k0-kill", k_sym(p, 1, s, 0), 0),
                 ("dt0-kill", dt_sym(p, 1, s, 0), 0)]
                + [("k-kill", k_sym(p, 1, s, b), 0) for b in space]
                + [("dt-kill", dt_sym(p, 1, s, b), 0) for b in space]
                + [("current-pairing", g_sym(p, 1, s, g2), p.g_dot.pair(g2, 0) * c)
                   for g2 in range(p.g_dot.dim)])
    if relation_id == "osc-pairing":
        return ([("k0-kill", k_sym(p, 1, s, 0), 0),
                 ("g-kill", g_sym(p, 1, s, 0), 0),
                 ("dt0-kill", dt_sym(p, 1, s, 0), 0)]
                + [("osc-pairing", dt_sym(p, 1, s, b), c if a == b else 0)
                   for b in space])
    ra, ma, sa = r[a - 1], m[a - 1], s[a - 1]
    return ([("k0-raise", k_sym(p, 1, s, 0), -sa * c),
             ("g-raise", g_sym(p, 1, s, 0), 0),
             ("dt0-raise", dt_sym(p, 1, s, 0),
              (ma - ra) - 2 * (mu * sa - nu * ra) * c)]
            + [("k-raise", k_sym(p, 1, s, b), c if a == b else 0) for b in space]
            + [("dt-raise", dt_sym(p, 1, s, b),
                r[b - 1] * (ma - ra) - sa * (m[b - 1] - r[b - 1])
                - (mu * r[b - 1] * sa + nu * ra * s[b - 1]) * c)
               for b in space])


def _relation_cases(module, relation_id):
    p = module.params
    N = p.N
    c = p.c
    box = _index_box(N, 1)
    s_samples = _small_r_samples(N)
    zr = p.zero_r()

    if relation_id in _PAIRING_STATES:
        field, r_free = _PAIRING_STATES[relation_id]
        for r in box:
            for m in box:
                for a in (0,) if field is g_sym else range(1, N + 1):
                    x = field(p, -1, r, a)
                    state = module.g_act_symbol(x, module.top_vector(
                        tuple(u - v for u, v in zip(m, r))))
                    if r_free:
                        yield ("state-r-independence", state,
                               module.g_act_symbol(field(p, -1, zr, a),
                                                   module.top_vector(m)),
                               (x, m))
                    for s in s_samples:
                        shift = module.top_vector(
                            tuple(u + v for u, v in zip(m, s)))
                        for label, y, cf in _pairing_probes(p, relation_id,
                                                            a, r, m, s):
                            yield (label, module.g_act_symbol(y, state),
                                   vec_scale(shift, cf), (x, y, m))
        return

    if relation_id == "glcurrent-commute":
        # the lattice shift fields commute with the gl currents for every
        # multi-index; the elementary oscillator and g-current fields are the
        # index-zero ones
        vectors = module.sample_vectors(1)
        cases = [("q", k_sym(p, -n1, m, 0), n1)
                 for m in s_samples for n1 in range(-1, 2)]
        cases += [("g", g_sym(p, n1 - 1, zr, 0), n1) for n1 in range(-1, 2)]
        cases += [("k", k_sym(p, n1 - 1, zr, 1), n1) for n1 in range(-1, 2)]
        cases += [("dt", dt_sym(p, n1 - 1, zr, 1), n1) for n1 in range(-1, 2)]
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                ecombo = ("cur", module.fd.e_index(a, b))
                for other, sym, n1 in cases:
                    for n2 in range(-1, 2):
                        for vec in vectors:
                            ev = module._apply_ordered((), ecombo, None,
                                                       -n2 - 1, vec)
                            ov = module.g_act_symbol(sym, vec)
                            lhs = module.g_act_symbol(sym, ev)
                            rhs = module._apply_ordered((), ecombo, None,
                                                        -n2 - 1, ov)
                            yield ("field-commute", lhs, rhs,
                                   (a, b, other, n1, n2))
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                for m in box:
                    lhs = vec_add(
                        module.g_act_symbol(
                            dt_sym(p, -1, unit_r(N, a), b),
                            module.top_vector(tuple(
                                m[i] - (1 if i == a - 1 else 0) for i in range(N)))),
                        module.g_act_symbol(dt_sym(p, -1, zr, b),
                                            module.top_vector(m)), Q(-1))
                    if a == b:
                        lhs = vec_add(lhs, module.g_act_symbol(
                            k_sym(p, -1, zr, a), module.top_vector(m)),
                            Q(1) / c)
                    rhs = module.gl_current_state(a, b, m)
                    rhs = vec_add(rhs, module.g_act_symbol(
                        k_sym(p, -1, zr, a), module.top_vector(m)),
                        Q(m[b - 1]) / c)
                    yield "state-splitting", lhs, rhs, (a, b, m)
        return

    if relation_id == "glcurrent-ope":
        mu, nu = p.mu, p.nu
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                for s in range(1, N + 1):
                    for t in range(1, N + 1):
                        state = module.gl_current_state(s, t)
                        combo = ("cur", module.fd.e_index(a, b))
                        got0 = module._apply_ordered((), combo, None, -1,
                                                     state)
                        want0 = {}
                        if b == s:
                            want0 = vec_add(want0, module.gl_current_state(a, t))
                        if a == t:
                            want0 = vec_add(want0, module.gl_current_state(s, b),
                                            Q(-1))
                        yield "ope-0", got0, want0, (a, b, s, t)
                        got1 = module._apply_ordered((), combo, None, -2,
                                                     state)
                        cf = (1 - mu * c) * (Q(1) if (b == s and a == t) else Q(0)) \
                            - nu * c * (Q(1) if (a == b and s == t) else Q(0))
                        yield ("ope-1", got1, vec_scale(module.top_vector(), cf),
                               (a, b, s, t))
                        for n in (2, 3):
                            yield ("ope-high", module._apply_ordered(
                                (), combo, None, -n - 1, state), {},
                                (a, b, s, t, n))
        return

    if relation_id == "vir-lowering":
        modv = module.vacuum_companion()
        nu = p.nu
        for r in box:
            for m in box:
                got = modv.g_act_symbol(dt_sym(p, -1, r, 0), modv.top_vector(m))
                want = {}
                mr = tuple(x + y for x, y in zip(m, r))
                for pp in range(1, N + 1):
                    if m[pp - 1]:
                        want = vec_add(want, modv.g_act_symbol(
                            k_sym(p, -1, zr, pp), modv.top_vector(mr)),
                            Q(m[pp - 1]) / c)
                yield "lowering-a", got, want, (r, m)
        for r in s_samples:
            for m in s_samples:
                for a in range(1, N + 1):
                    for b in range(1, N + 1):
                        state = module.gl_current_state(a, b, m)
                        got = module.g_act_symbol(dt_sym(p, 1, r, 0), state)
                        mr = tuple(x + y for x, y in zip(m, r))
                        cf = (Q(-1) + 2 * nu * c) if a == b else Q(0)
                        yield ("lowering-b", got,
                               vec_scale(module.top_vector(mr), cf), (a, b, r, m))
        return

    # vir-depth2
    modv = module.vacuum_companion()
    mu = p.mu
    for m in box:
        lhs = modv.g_act_symbol(dt_sym(p, -2, m, 0), modv.top_vector())
        rhs = modv.g_act_symbol(dt_sym(p, -2, zr, 0), modv.top_vector(m))
        for pp in range(1, N + 1):
            if not m[pp - 1]:
                continue
            for jd in range(1, N + 1):
                st = modv.gl_current_state(pp, jd, m)
                rhs = vec_add(rhs, modv.g_act_symbol(
                    k_sym(p, -1, zr, jd), st), Q(m[pp - 1]) / c)
            rhs = vec_add(rhs, modv.g_act_symbol(
                k_sym(p, -2, zr, pp), modv.top_vector(m)),
                -(1 - mu * c) * Q(m[pp - 1]) / c)
        yield "depth2", lhs, rhs, m
