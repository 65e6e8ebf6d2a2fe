import copy
import pickle
import random
from collections import Counter
from fractions import Fraction as Q
from math import factorial, gcd, prod

import pytest

from torvoa import (HypLattice, RealizationModule, build_gl_module,
                    build_module, exp_vertex_mode, field_mode, heis_act,
                    hyp_virasoro_mode, state_mode, vacuum_vector,
                    voa_axiom_check)
from torvoa import cli, lattice_fock
from torvoa.algebra_core import random_symbol
from torvoa.lattice_fock import (_KeyFraction, _canon, _exp_term, _insert_osc,
                                 _term_apply, coset_point, heis_act_gen,
                                 random_triples, state_degree, translate,
                                 voa_sweep)
from torvoa.linalg import vec_add

from rational_vectors import mix


@pytest.fixture(scope="module")
def lat1():
    return HypLattice(1)


@pytest.fixture(scope="module")
def lat2():
    return HypLattice(2)


def osc_vec(lat, entries, alpha=None, m=None, beta=None):
    osc = ()
    for g, mode in entries:
        osc = _insert_osc(osc, g, mode)
    alpha = alpha or (0,) * lat.N
    return {(osc, coset_point(lat, alpha, m, beta)): Q(1)}


class TestLattice:
    def test_form(self, lat2):
        u1, v1 = lat2.gen(0), lat2.gen(2)
        u2, v2 = lat2.gen(1), lat2.gen(3)
        assert lat2.form(u1, v1) == 1
        assert lat2.form(u1, v2) == 0
        assert lat2.form(u1, u2) == 0 and lat2.form(v1, v2) == 0

    def test_cocycle_consistency(self, lat2):
        gens = [lat2.gen(i) for i in range(4)]
        for x in gens:
            for y in gens:
                lhs = lat2.epsilon(x, y) * lat2.epsilon(y, x)
                assert lhs == (-1) ** int(lat2.form(x, y))

    def test_cocycle_trivial_on_isotropic_half(self, lat1):
        y = (Q(3), Q(0))
        for m in (-2, 0, 5):
            lam = coset_point(lat1, (Q(2, 7),), (m,))
            assert lat1.epsilon(y, lam) == 1


class TestOscillators:
    def test_annihilates_lattice_vector(self, lat1):
        v = vacuum_vector(lat1, (Q(2, 5),))
        assert heis_act(lat1, 0, 3, v) == {}

    def test_zero_mode_reads_pairing(self, lat1):
        v = vacuum_vector(lat1, (Q(2, 5),))
        got = heis_act(lat1, 1, 0, v)
        assert got == {((), (Q(2, 5), Q(0))): Q(2, 5)}

    def test_contraction(self, lat1):
        v = vacuum_vector(lat1, (Q(2, 5),))
        w = heis_act(lat1, 1, -1, v)
        assert heis_act(lat1, 0, 1, w) == v

    def test_vector_argument(self, lat2):
        x = (Q(1), Q(2), Q(0), Q(0))  # u1 + 2 u2
        v = vacuum_vector(lat2, (0, 0), beta=(1, 1))
        got = heis_act(lat2, x, 0, v)
        (key, cf), = got.items()
        assert cf == 3  # (u1 + 2u2 | v1 + v2)


class TestExponentials:
    def test_shift(self, lat1):
        v = vacuum_vector(lat1, (Q(2, 5),))
        got = exp_vertex_mode(lat1, (1, 0), 0, v)
        assert got == {((), (Q(7, 5), Q(0))): Q(1)}

    def test_first_order_creation(self, lat1):
        v = vacuum_vector(lat1, (Q(2, 5),))
        got = exp_vertex_mode(lat1, (1, 0), 1, v)
        assert got == {(((0, -1),), (Q(7, 5), Q(0))): Q(1)}

    def test_no_negative_modes_on_lattice_vector(self, lat1):
        v = vacuum_vector(lat1, (Q(2, 5),))
        assert exp_vertex_mode(lat1, (1, 0), -1, v) == {}

    def test_incompatible_coset_is_empty(self, lat1):
        # rational pairing shifts the z-support off the integers
        v = {((), (Q(0), Q(2, 5))): Q(1)}
        assert exp_vertex_mode(lat1, (1, 0), 0, v) == {}
        got = exp_vertex_mode(lat1, (1, 0), Q(2, 5), v)
        assert got == {((), (Q(1), Q(2, 5))): Q(1)}

    def test_sign_twist_needs_integral_overlap(self, lat1):
        # v-exponentials are undefined against fractional u-coordinates
        v = vacuum_vector(lat1, (Q(2, 5),))
        with pytest.raises(ValueError):
            exp_vertex_mode(lat1, (0, 1), Q(2, 5), v)

    def test_sign_twist_on_integral_points(self, lat1):
        # Y(e^{v_1}, z) e^{u_1} = -z exp(sum v_1(-j) z^j / j) e^{u_1 + v_1}
        v = vacuum_vector(lat1, m=(1,))
        assert exp_vertex_mode(lat1, (0, 1), 0, v) == {}
        got = exp_vertex_mode(lat1, (0, 1), 1, v)
        assert got == {((), (Q(1), Q(1))): Q(-1)}
        got = exp_vertex_mode(lat1, (0, 1), 2, v)
        assert got == {(((1, -1),), (Q(1), Q(1))): Q(-1)}

    def test_derivative_identity(self, lat1):
        # d/dz Y(e^y, z) = :y(z) Y(e^y, z):  checked coefficient-wise
        y = (2, 0)
        rng = random.Random(8)
        for _ in range(12):
            vec = osc_vec(lat1, [(rng.randrange(2), -rng.randint(1, 2))],
                          alpha=(Q(1, 3),), m=(rng.randint(-1, 1),))
            for e in range(-2, 3):
                lhs = {k: (e + 1) * cf
                       for k, cf in exp_vertex_mode(lat1, y, e + 1, vec).items()
                       if (e + 1) * cf}
                rhs = {k: 2 * cf for k, cf in field_mode(
                    lat1, (("osc", 0, 0),), y, e, vec).items()}
                # :y(z)Y(e^y,z): with y = 2 u_1 is 2 * :u_1(z) Y:, and the
                # oscillator factor above tracks u_1; scale accordingly
                assert lhs == {k: v for k, v in rhs.items() if v}


def _exp_series(L, y, terms, series, cut):
    """exp(A) on a power series {z-power: Fock vector}, A the sum of
    c z^p y(n) over terms (p, n, c); powers above ``cut`` are dropped."""
    out, cur, n = dict(series), series, 0
    while cur:
        n += 1
        nxt = {}
        for p, v in cur.items():
            for q, mode, c in terms:
                w = heis_act(L, y, mode, v) if p + q <= cut else {}
                if w:
                    nxt[p + q] = vec_add(nxt.get(p + q, {}), w, c / n)
        cur = {p: v for p, v in nxt.items() if v}
        for p, v in cur.items():
            out[p] = vec_add(out.get(p, {}), v)
    return out


def _exp_oracle(L, y, e, vec):
    """z^e coefficient of Y(e^y, z) = eps(y, lat) e^y z^(y|lat)
    exp(sum_j y(-j) z^j / j) exp(-sum_j y(j) z^-j / j) on a one-monomial
    vector, both exponentials summed as power series of oscillator
    operators; eps(x, lat) = (-1)^(sum_p x_{v_p} lat_{u_p})."""
    ((osc, lat), _cf), = vec.items()
    N = L.N
    y = tuple(map(Q, y))
    xi = sum(y[p] * lat[N + p] + y[N + p] * lat[p] for p in range(N))
    t = Q(e) - xi
    if t.denominator != 1:
        return {}
    depth = -sum(mode for _g, mode in osc)
    ann = _exp_series(L, y, [(-j, j, Q(-1, j)) for j in range(1, depth + 1)],
                      {0: vec}, 0)
    out = {}
    for p, v in ann.items():
        need = int(t) - p
        if need >= 0:
            cre = _exp_series(L, y, [(j, -j, Q(1, j))
                                     for j in range(1, need + 1)],
                              {0: v}, need)
            out = vec_add(out, cre.get(need, {}))
    sign = -1 if sum(y[N + p] * lat[p] for p in range(N)) % 2 else 1
    return {(o, tuple(Q(a) + b for a, b in zip(l, y))): sign * c
            for (o, l), c in out.items()}


class TestExponentialOracle:
    """exp_vertex_mode against the exponentials expanded as power series."""

    @pytest.mark.parametrize("y, entries, alpha, m, beta", [
        # integral point, sign -1 from (v|u) = 1
        ((1, -1), [(0, -1), (1, -2)], 0, 1, 1),
        # alpha = 1/2 point
        ((2, 0), [(1, -1), (0, -2)], Q(1, 2), 1, 1),
        # half-integral y: half-integral z-exponents and pairings
        ((Q(1, 2), 0), [(1, -1), (1, -1)], 0, 1, 1),
        # paired v-oscillators raise the creation order above e - (y|lat)
        ((1, 0), [(1, -2), (1, -1)], 0, 1, 0),
    ])
    def test_matches_power_series(self, lat1, y, entries, alpha, m, beta):
        vec = osc_vec(lat1, entries, alpha=(alpha,), m=(m,), beta=(beta,))
        xi = lat1.form(y, next(iter(vec))[1])
        nonzero = []
        for k in range(-4, 4):
            got = exp_vertex_mode(lat1, y, xi + k, vec)
            assert got == _exp_oracle(lat1, y, xi + k, vec)
            if got:
                nonzero.append(k)
        assert nonzero
        if y == (1, 0):
            assert min(nonzero) < 0


def _key_form(x):
    """An integral rational as an int, any other as its interned
    _KeyFraction."""
    return type(x) is int or (type(x) is _KeyFraction and x.denominator != 1
                              and _canon(Q(x)) is x)


def _check_entry(entry):
    """A lattice memo entry: a positive int denominator over nonzero int
    numerators, at lattice points in key form."""
    den, nums = entry
    assert type(den) is int and den > 0, den
    for (_osc, lat), num in nums.items():
        assert all(map(_key_form, lat)), lat
        assert type(num) is int and num, num


class TestMemo:
    def test_each_exponential_stored_once(self, params_n1):
        # a fresh module, so its lattice memo tables start cold
        module = RealizationModule(params_n1)
        assert module.commutator_sweep(random.Random(7), 4, 2, 1, 2) == (4, [])
        L = module.lat
        assert L._exp_cache and L._field_cache
        # the empty chain is the exponential or the identity: never a
        # _field_cache entry
        assert all(factors for factors, *_rest in L._field_cache)
        sizes = len(L._exp_cache), len(L._field_cache)
        for (y, e, osc, lat), hit in L._exp_cache.items():
            _check_entry(hit)
            assert _exp_term(L, y, e, osc, lat) is hit
            assert _term_apply(L, (), y, osc, lat, e) is hit
            assert _term_apply(L, (), None, osc, lat, Q(0)) \
                == (1, {(osc, lat): 1})
        for key, hit in L._field_cache.items():
            _check_entry(hit)
            assert _term_apply(L, *key) is hit
        assert (len(L._exp_cache), len(L._field_cache)) == sizes


def _check_fock(vec):
    for (_osc, lat), cf in vec.items():
        assert all(map(_key_form, lat)), lat
        assert type(cf) is Q, cf


def _check_realization(vec):
    for (fk, _fkey), cf in vec.items():
        _check_fock({fk: cf})


def _fraction_keyed(vec):
    """The same Fock vector with every lattice coordinate a Fraction."""
    return {(osc, tuple(map(Q, lat))): cf for (osc, lat), cf in vec.items()}


class TestKeyForm:
    """In every memo key an integral lattice coordinate, exponential vector
    component or z-exponent is an int and any other the interned
    _KeyFraction; lattice and realization memo entries are int numerators
    over an int denominator, and public vectors have Fraction
    coefficients."""

    @staticmethod
    def _check_lattice_memo(L):
        assert L._exp_cache and L._field_cache
        for (y, e, _osc, lat), out in L._exp_cache.items():
            assert all(map(_key_form, y + lat + (e,))), (y, e, lat)
            _check_entry(out)
        for (_factors, expy, _osc, lat, e), out in L._field_cache.items():
            assert all(map(_key_form, (expy or ()) + lat + (e,))), \
                (expy, e, lat)
            _check_entry(out)

    @classmethod
    def _check_realization_memo(cls, module):
        cls._check_lattice_memo(module.lat)
        assert module._term_cache
        for (_fock, _ffac, y, e, (_osc, lat), _fkey), (den, nums) in \
                module._term_cache.items():
            ys = y or ()
            assert all(map(_key_form, ys + lat + (e,))), (ys, e, lat)
            # an int entry like the lattice memo's, over module keys
            _check_entry((den, {}))
            for (fk, _fkey2), num in nums.items():
                _check_entry((den, {fk: num}))

    def test_interned_coordinate(self):
        # one object per non-integral value, equal and hash-equal to the
        # plain Fraction; it copies, pickles and prints as that Fraction
        x = _canon(Q(1, 2))
        assert type(x) is _KeyFraction
        assert _canon(Q(2, 4)) is x and _canon(x) is x and _canon("1/2") is x
        assert x == Q(1, 2) and hash(x) == hash(Q(1, 2))
        assert {Q(1, 2): 1}[x] == 1 and {x: 1}[Q(1, 2)] == 1
        assert repr(x) == "Fraction(1, 2)" and str(x) == "1/2"
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
        assert type(x + x) is Q and x + x == 1
        assert type(_canon(Q(4, 2))) is int and _canon(Q(4, 2)) == 2

    def test_memo_keys_after_sweeps(self, params_n2, sl2):
        natural = RealizationModule(params_n2, alpha=(Q(1, 2), 0),
                                    V=build_module(sl2, "natural"),
                                    W=build_gl_module(2, "natural"), d=0)
        for seed, module in enumerate((RealizationModule(params_n2), natural)):
            rng = random.Random(seed)
            _check_realization(module.top_vector())
            _check_realization(module.random_vector(random.Random(seed)))
            assert module.commutator_sweep(rng, 4, 2, 1, 2) == (4, [])
            self._check_realization_memo(module)
        L = HypLattice(1)
        triple = random_triples(L, random.Random(11), 1, 2)[0]
        for state in triple:
            _check_fock(state)
        assert voa_axiom_check(L, *triple, window=2, borcherds_window=1) == []
        self._check_lattice_memo(L)

    @pytest.mark.parametrize("alpha", [Q(0), Q(1, 2), Q(1, 3)])
    def test_fraction_keyed_inputs(self, alpha, params_n2):
        # callers may key by Fractions, as the benchmark's voa workload
        # does; results equal the int-keyed ones, and results and memo
        # keys come out in key form
        lat_frac, lat_int = HypLattice(1), HypLattice(1)
        state = osc_vec(lat_int, [(0, -1), (1, -2)], m=(1,))
        vec = osc_vec(lat_int, [(0, -1), (1, -1)], alpha=(alpha,), m=(1,),
                      beta=(-1,))
        seen = 0
        for n in range(-3, 3):
            got = state_mode(lat_frac, _fraction_keyed(state), n,
                             _fraction_keyed(vec))
            assert got == state_mode(lat_int, state, n, vec)
            _check_fock(got)
            # at alpha = 1/2 a half-integral y lands on integral points
            for y in ((2, 0), (Q(1, 2), 0)):
                e = lat_int.form(y, next(iter(vec))[1]) + n
                got = exp_vertex_mode(lat_frac, tuple(map(Q, y)), Q(e),
                                      _fraction_keyed(vec))
                assert got == exp_vertex_mode(lat_int, y, e, vec)
                _check_fock(got)
                seen += bool(got)
        assert seen
        self._check_lattice_memo(lat_frac)

        frac, whole = (RealizationModule(params_n2, alpha=(alpha, 0))
                       for _ in range(2))
        rng = random.Random(8)
        for _ in range(4):
            sym = random_symbol(params_n2, rng, jmax=2, rmax=1,
                                tags=("g", "k", "d", "dt"))
            v = whole.random_vector(rng)
            v_frac = {((osc, tuple(map(Q, lat))), fkey): cf
                      for ((osc, lat), fkey), cf in v.items()}
            got = frac.g_act(sym, v_frac)
            assert got == whole.g_act(sym, v)
            _check_realization(got)
            seen += bool(got)
        assert seen > 1
        self._check_realization_memo(frac)


class TestFieldModes:
    def test_matches_oscillator(self, lat1):
        v = osc_vec(lat1, [(1, -1)], beta=(1,))
        for e in range(-3, 3):
            assert field_mode(lat1, (("osc", 0, 0),), None, e, v) \
                == heis_act(lat1, 0, -e - 1, v)

    @staticmethod
    def _virasoro_reference(L, m, vec):
        """sum_p :u_p v_p: at mode m, written out as the double sum over
        the split point of the normal ordering."""
        out = {}
        dmax = max((-sum(mode for _g, mode in osc) for osc, _lat in vec),
                   default=0)
        for p in range(L.N):
            up, vp = p, L.N + p
            for k in range(m - dmax, 0):
                w = heis_act_gen(L, vp, m - k, vec)
                if w:
                    out = vec_add(out, heis_act_gen(L, up, k, w))
            for k in range(0, dmax + 1):
                w = heis_act_gen(L, up, k, vec)
                if w:
                    out = vec_add(out, heis_act_gen(L, vp, m - k, w))
        return out

    def test_quadratic_factor_matches_virasoro(self, lat1, lat2):
        # the two-oscillator chains on the engine against the double sum
        vecs = [(lat1, osc_vec(lat1, [(0, -1), (1, -2)], alpha=(Q(1, 3),))),
                (lat1, osc_vec(lat1, [(1, -1)], m=(1,), beta=(2,))),
                (lat2, osc_vec(lat2, [(0, -1), (3, -1), (1, -2)],
                               alpha=(Q(1, 2), Q(-2, 3)), beta=(1, -1))),
                (lat2, vacuum_vector(lat2, (Q(1, 2), 0), beta=(0, 3)))]
        for lat, v in vecs:
            for m in range(-4, 5):
                assert hyp_virasoro_mode(lat, m, v) \
                    == self._virasoro_reference(lat, m, v)

    def test_virasoro_grading(self, lat2):
        v = vacuum_vector(lat2, (Q(1, 2), Q(0)))
        assert hyp_virasoro_mode(lat2, 0, v) == {}
        w = heis_act(lat2, 0, -1, v)
        assert hyp_virasoro_mode(lat2, 0, w) == w
        w2 = heis_act(lat2, 3, -2, w)
        got = hyp_virasoro_mode(lat2, 0, w2)
        assert got == {k: 3 * cf for k, cf in w2.items()}

    def test_virasoro_bracket_with_central_term(self, lat1):
        rng = random.Random(5)
        vecs = [vacuum_vector(lat1, (Q(1, 3),))]
        for _ in range(4):
            entries = []
            left = rng.randint(1, 2)
            while left:
                s = rng.randint(1, left)
                entries.append((rng.randrange(2), -s))
                left -= s
            vecs.append(osc_vec(lat1, entries, alpha=(Q(1, 3),),
                                m=(rng.randint(-1, 1),)))
        for n in range(-3, 4):
            for m in range(-3, 4):
                for v in vecs:
                    lhs = {}
                    for k, cf in hyp_virasoro_mode(
                            lat1, n, hyp_virasoro_mode(lat1, m, v)).items():
                        lhs[k] = lhs.get(k, Q(0)) + cf
                    for k, cf in hyp_virasoro_mode(
                            lat1, m, hyp_virasoro_mode(lat1, n, v)).items():
                        lhs[k] = lhs.get(k, Q(0)) - cf
                    want = {}
                    if n != m:
                        for k, cf in hyp_virasoro_mode(lat1, n + m, v).items():
                            want[k] = want.get(k, Q(0)) + (n - m) * cf
                    if n == -m and n != 0:
                        for k, cf in v.items():
                            want[k] = want.get(k, Q(0)) + Q(n ** 3 - n, 12) * 2 * cf
                    assert ({k: x for k, x in lhs.items() if x}
                            == {k: x for k, x in want.items() if x})

    def test_translation_against_derivative(self, lat1):
        # Y(D a, z) = d/dz Y(a, z) on sample states and vectors
        a = osc_vec(lat1, [(0, -1)], m=(1,))
        da = translate(lat1, a)
        target = osc_vec(lat1, [(1, -2)], m=(-1,))
        for n in range(-2, 3):
            lhs = state_mode(lat1, da, n, target)
            rhs = {k: -n * cf for k, cf in state_mode(lat1, a, n - 1, target).items()
                   if n * cf}
            assert lhs == rhs


class TestDegrees:
    def test_product_degree_bookkeeping(self, lat1):
        # deg(a_(n) b) = deg a + deg b - n - 1 whenever the product is nonzero
        rng = random.Random(12)
        for _ in range(10):
            a = osc_vec(lat1, [(rng.randrange(2), -rng.randint(1, 2))],
                        m=(rng.randint(-1, 1),))
            b = osc_vec(lat1, [(rng.randrange(2), -rng.randint(1, 2))],
                        m=(rng.randint(-1, 1),))
            da, db = state_degree(a), state_degree(b)
            for n in range(-3, int(da + db) + 1):
                prod = state_mode(lat1, a, n, b)
                if prod:
                    assert state_degree(prod) == da + db - n - 1

    def test_weight_vectors_on_module(self, lat1):
        # oscillators carry lattice weight zero, points carry their own shift
        v = osc_vec(lat1, [(0, -2), (1, -1)], alpha=(Q(1, 7),), m=(3,))
        (key, _cf), = v.items()
        _osc, lam = key
        assert lam[0] == Q(1, 7) + 3
        got = heis_act(lat1, 1, 0, v)
        assert got == {key: Q(1, 7) + 3}


class TestAxioms:
    def test_identity_state(self, lat1):
        ones = vacuum_vector(lat1)
        target = osc_vec(lat1, [(0, -1)])
        assert voa_axiom_check(lat1, ones, ones, target, window=3) == []

    def test_spec_triple(self, lat1):
        u1 = osc_vec(lat1, [(0, -1)])
        v1 = osc_vec(lat1, [(1, -1)])
        target = vacuum_vector(lat1, m=(1,))
        assert voa_axiom_check(lat1, u1, v1, target, window=3) == []

    def test_twisted_sector_states(self, lat1):
        # states off the isotropic half exercise the sign cocycle and the
        # rational z-shift bookkeeping; the axioms still hold exactly
        eu = vacuum_vector(lat1, m=(1,))
        ev = {((), (Q(0), Q(1))): Q(1)}
        euv = {((), (Q(1), Q(1))): Q(1)}
        emu = vacuum_vector(lat1, m=(-1,))
        ones = vacuum_vector(lat1)
        u1 = osc_vec(lat1, [(0, -1)])
        triples = [(eu, ev, ones), (ev, eu, u1), (ev, ev, eu), (euv, emu, ones)]
        assert voa_sweep(lat1, triples, 2, 2) == (4, [])

    def test_seeded_batch(self, lat1):
        triples = random_triples(lat1, random.Random(424), 6, 2)
        assert voa_sweep(lat1, triples, 2, 2) == (6, [])

    def test_negative_norm_states(self, lat1):
        # e^{u-v} and e^{2u-v} have negative norm, so conformal weight is no
        # cut-off for the identities' sums
        euv = vacuum_vector(lat1, m=(1,), beta=(-1,))
        e2uv = vacuum_vector(lat1, m=(2,), beta=(-1,))
        eu = vacuum_vector(lat1, m=(1,))
        ev = vacuum_vector(lat1, beta=(1,))
        ones = vacuum_vector(lat1)
        triples = [(euv, euv, ones), (e2uv, ev, eu)]
        assert voa_sweep(lat1, triples, 3, 2) == (2, [])

    def test_unsigned_lattice_fails_outside_borcherds_window(self):
        # without the sign cocycle Y(e^u, z) and Y(e^v, z) are not local;
        # the commutator formula fails at m = -3, which lies in the
        # commutator window but outside the Borcherds window
        class Unsigned(HypLattice):
            def epsilon(self, x, y):
                return 1

        lat = Unsigned(1)
        eu = vacuum_vector(lat, m=(1,))
        ev = vacuum_vector(lat, beta=(1,))
        failures = voa_axiom_check(lat, eu, ev, vacuum_vector(lat), window=3,
                                   borcherds_window=2)
        assert [data for label, data in failures
                if label == "commutator" and data[0] == -3]


def _rational_triple(L):
    """Two-term N = 1 states with coefficients S and T, through exponentials
    on both isotropic directions and the sign cocycle."""
    return (mix(vacuum_vector(L, beta=(1,)), osc_vec(L, [(0, -1)])),
            mix(vacuum_vector(L, m=(1,)), osc_vec(L, [(1, -2)], m=(-1,))),
            mix(osc_vec(L, [(1, -1)]), vacuum_vector(L, m=(1,), beta=(1,))))


class TestRationalCoefficients:
    """States and vectors with coefficients other than 1, which no random
    state has: the modes are linear over Q, the axioms hold, and the int
    core hands back reduced int vectors."""

    @pytest.mark.parametrize("N, alpha", [(1, 0), (2, 0), (2, Q(1, 2))])
    def test_modes_are_linear(self, N, alpha):
        L = HypLattice(N)
        at = (alpha,) + (0,) * (N - 1)
        one = (1,) + (0,) * (N - 1)
        v = osc_vec(L, [(0, -1), (N, -2)], alpha=at, m=one)
        w = osc_vec(L, [(N, -1)], alpha=at, beta=one)
        a = osc_vec(L, [(N, -1)], m=one)
        b = osc_vec(L, [(0, -2)], beta=one)
        seen = 0
        for n in range(-3, 3):
            got = state_mode(L, a, n, mix(v, w))
            assert got == mix(state_mode(L, a, n, v), state_mode(L, a, n, w))
            seen += bool(got)
            got = state_mode(L, mix(a, b), n, v)
            assert got == mix(state_mode(L, a, n, v), state_mode(L, b, n, v))
            seen += bool(got)
            # a half-integral y lands on integral points at alpha = 1/2
            for y in (tuple(2 * x for x in one), tuple(Q(x, 2) for x in one)):
                y += (0,) * N
                e = L.form(y, next(iter(v))[1]) + n
                factors = (("osc", N, 1),)
                got = field_mode(L, factors, y, e, mix(v, w))
                assert got == mix(field_mode(L, factors, y, e, v),
                                  field_mode(L, factors, y, e, w))
                seen += bool(got)
        # every mode above is nonzero, so no side is trivially empty
        assert seen == 24

    def test_axioms_on_rational_states(self, lat1):
        assert voa_axiom_check(lat1, *_rational_triple(lat1), window=2,
                               borcherds_window=2) == []

    def test_int_core_returns_reduced_vectors(self, monkeypatch,
                                              module_n2_natural):
        # the lattice core and the realized module's core
        seen, seen_module = [], []
        core = lattice_fock._chains_on
        module_core = RealizationModule._chains_ints

        def recorded(*args):
            seen.append(core(*args))
            return seen[-1]

        def recorded_module(*args):
            seen_module.append(module_core(*args))
            return seen_module[-1]

        monkeypatch.setattr(lattice_fock, "_chains_on", recorded)
        monkeypatch.setattr(RealizationModule, "_chains_ints",
                            recorded_module)
        L = HypLattice(1)
        assert voa_axiom_check(L, *_rational_triple(L), window=1,
                               borcherds_window=1) == []
        assert any(den > 1 for den, _nums in seen)
        for den, nums in seen:
            _check_entry((den, nums))
            assert gcd(den, *nums.values()) == 1, (den, nums)
        # alpha = 1/2 puts denominators on the realized module's vectors
        assert module_n2_natural.commutator_sweep(
            random.Random(3), 12, 1, 1, 1) == (12, [])
        assert any(den > 1 for den, _nums in seen_module)
        for den, nums in seen_module:
            assert type(den) is int and den > 0, den
            assert all(type(v) is int and v for v in nums.values()), nums
            assert gcd(den, *nums.values()) == 1, (den, nums)


def _dropped_count(terms):
    """The creation expansion without the 1/count of its recursion: each
    term gains the factorial of every repeated insertion's multiplicity."""
    def wrong(ycomps, ec):
        den, created = terms(ycomps, ec)
        return den, tuple(
            (num * prod(map(factorial, Counter(ins).values())), ins)
            for num, ins in created)
    return wrong


def _v_exponential_sign(exp_term):
    """Y(e^y, z) negated whenever y has a v-component."""
    def wrong(L, y, e, osc, lat):
        den, out = exp_term(L, y, e, osc, lat)
        if any(y[L.N:]):
            return den, {k: -num for k, num in out.items()}
        return den, out
    return wrong


class TestEngineChecksCanFail:
    """A deliberate error in each term the integer engine computes fails
    the commutator sweep of ``verify-realization`` at its default size (200
    seeded draws) on the natural top at alpha = (1/2, 0), and the fixed
    triples of ``verify-voa``.  Fresh modules keep the errors out of the
    shared fixtures' memo tables."""

    MUTATIONS = {
        "cocycle-sign": (HypLattice, "epsilon",
                         lambda eps: lambda self, x, y: -eps(self, x, y)),
        "trivial-cocycle": (HypLattice, "epsilon",
                            lambda eps: lambda self, x, y: 1),
        "v-exponential-sign": (lattice_fock, "_exp_term",
                               _v_exponential_sign),
        "creation-count": (lattice_fock, "_creation_terms", _dropped_count),
        "derivative-binomial": (lattice_fock, "binom",
                                lambda binom: lambda a, k: binom(a + 1, k)),
        "truncated-reading": (lattice_fock, "_reading",
                              lambda reading: lambda L, g, lat:
                              int(reading(L, g, lat))),
    }

    @pytest.mark.parametrize("mutation, failures", [
        ("cocycle-sign", 87),
        ("creation-count", 48),
        ("derivative-binomial", 6),
        ("truncated-reading", 13),
    ])
    def test_natural_top_sweep(self, mutation, failures, params_n2, sl2,
                               monkeypatch):
        owner, name, wrong = self.MUTATIONS[mutation]
        monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
        module = RealizationModule(params_n2, alpha=(Q(1, 2), 0),
                                   V=build_module(sl2, "natural"),
                                   W=build_gl_module(2, "natural"), d=0)
        checked, fails = module.commutator_sweep(random.Random(1), 200, 2, 1,
                                                 2)
        assert (checked, len(fails)) == (200, failures)

    @pytest.mark.parametrize("mutation", [
        None, "trivial-cocycle", "v-exponential-sign", "creation-count"])
    def test_voa_fixed_triples(self, mutation, params_n1, monkeypatch):
        # without its random draws, verify-voa still applies an exponential
        # with y != 0: its first fixed triple is (e^v, e^u, v(-1)1)
        if mutation is not None:
            owner, name, wrong = self.MUTATIONS[mutation]
            monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
        monkeypatch.setattr(cli, "random_triples", lambda *args: [])
        [check], _tables = cli.verify_voa(RealizationModule(params_n1),
                                          random.Random(1),
                                          cli.Task(depth=3, window=3,
                                                   certify=False))
        if mutation is None:
            assert (check["status"], check["details"]) == ("pass", "2/2")
        else:
            assert check["status"] == "fail"
            assert check["details"].startswith("1/2; first failure")
