import dataclasses
import random
from fractions import Fraction as Q
from math import gcd

import pytest

from torvoa import (CentralCharacter, CriticalLevelError, FModule, Params,
                    RealizationModule, ReductiveF, build_gl_module,
                    build_module, f_bracket, simple_algebra, singular_vectors,
                    sugawara_constants, sugawara_mode, virasoro_affine)
from torvoa.characters import colored_partition_count
from torvoa.linalg import add_into, vec_add, vec_eq, vec_scale
from torvoa.virasoro_affine import (depth, mode_of, sugawara_sweep,
                                    sugawara_test_vectors)

from rational_vectors import S, mix, nonzero


@pytest.fixture(scope="module")
def fd2(sl2):
    return ReductiveF(sl2, 2)


@pytest.fixture(scope="module")
def gamma2(params_n2):
    return CentralCharacter.from_params(params_n2)


@pytest.fixture(scope="module")
def mod2(fd2, gamma2, sl2):
    V = build_module(sl2, "trivial")
    W = build_gl_module(2, "trivial", id_scalar=Q(0))
    return FModule(fd2, gamma2, V, W, h_hei=Q(0), h_vir=Q(0))


def test_gamma_from_params(params_n2, gamma2):
    assert gamma2.as_dict() == {
        "c_g": Q(2), "c_sl": Q(1, 3), "c_hei": Q(-14, 15),
        "c_vh": Q(1, 5), "c_vir": Q(44, 5)}


class TestBrackets:
    def test_virasoro_sector(self, fd2):
        assert f_bracket(fd2, ("L", 1), ("L", -1)) == {("L", 0): Q(2)}
        assert f_bracket(fd2, ("L", 2), ("L", -2)) == {
            ("L", 0): Q(4), ("C", "c_vir"): Q(1, 2)}

    def test_mixed_sector(self, fd2):
        # [L(1), I(-1)] = I(0) - 2 C_vh
        tot = {}
        for a in (1, 2):
            for sym, cf in f_bracket(fd2, ("L", 1),
                                     ("f", fd2.e_index(a, a), -1)).items():
                tot[sym] = tot.get(sym, Q(0)) + cf
        assert tot == {("f", fd2.e_index(1, 1), 0): Q(1),
                       ("f", fd2.e_index(2, 2), 0): Q(1),
                       ("C", "c_vh"): Q(-2)}

    def test_current_sector(self, fd2):
        got = f_bracket(fd2, ("f", fd2.e_index(1, 2), 1),
                        ("f", fd2.e_index(2, 1), -1))
        assert got == {("f", fd2.e_index(1, 1), 0): Q(1),
                       ("f", fd2.e_index(2, 2), 0): Q(-1),
                       ("C", "c_sl"): Q(1)}

    def test_antisymmetry_and_jacobi_window(self, fd2):
        rng = random.Random(3)
        syms = [("L", n) for n in range(-3, 4)]
        syms += [("f", i, n) for i in range(fd2.dim) for n in range(-3, 4)]

        def addinto(tot, d, s=Q(1)):
            for k, v in d.items():
                tot[k] = tot.get(k, Q(0)) + s * v

        for _ in range(250):
            a, b, c = (rng.choice(syms) for _ in range(3))
            tot = {}
            addinto(tot, f_bracket(fd2, a, b))
            addinto(tot, f_bracket(fd2, b, a))
            assert not {k: v for k, v in tot.items() if v}
            tot = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for s, cf in f_bracket(fd2, y, z).items():
                    addinto(tot, f_bracket(fd2, x, s), cf)
            assert not {k: v for k, v in tot.items() if v}


class TestModuleAction:
    def test_lowering_then_raising(self, fd2, gamma2, sl2):
        V = build_module(sl2, "trivial")
        W = build_gl_module(2, "trivial", id_scalar=Q(0))
        mod = FModule(fd2, gamma2, V, W, h_hei=Q(3, 7), h_vir=Q(2, 9))
        top = mod.top_vector()
        got = mod.act(("L", 1), mod.act(("L", -1), top))
        assert got == {((), (0, 0)): 2 * Q(2, 9)}
        got = mod.act_current(fd2.identity_combo(), 1,
                              mod.act_current(fd2.identity_combo(), -1, top))
        assert got == {((), (0, 0)): gamma2.c_hei}
        assert mod.act(("L", 2), top) == {}

    def test_representation_property(self, mod2, fd2):
        rng = random.Random(11)
        syms = [("L", n) for n in range(-3, 4)]
        syms += [("f", i, n) for i in range(fd2.dim) for n in range(-2, 3)]
        vecs = [mod2.top_vector()]
        vecs += [{(mono, (0, 0)): Q(1)} for mono in mod2.monomials_at(1)]
        vecs += [{(mono, (0, 0)): Q(1)} for mono in mod2.monomials_at(3)[::40]]
        for _ in range(150):
            a, b = rng.choice(syms), rng.choice(syms)
            v = rng.choice(vecs)
            lhs = vec_add(mod2.act(a, mod2.act(b, v)),
                          mod2.act(b, mod2.act(a, v)), Q(-1))
            rhs = {}
            for s, cf in f_bracket(fd2, a, b).items():
                rhs = vec_add(rhs, mod2.act(s, v), cf)
            assert vec_eq(lhs, rhs)

    def test_depth_dimensions_are_colored_partitions(self, mod2, fd2):
        for n in range(5):
            assert len(mod2.monomials_at(n)) == colored_partition_count(n, fd2.dim + 1)

    def test_level_one_contractions_on_top(self, mod2, fd2, gamma2):
        # E_ab(1) E_cd(-1) top = (delta_ad delta_bc c_sl
        #                         + delta_ab delta_cd (c_hei/4 - c_sl/2)) top
        top = mod2.top_vector()
        for a in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    for d in (1, 2):
                        w = mod2.act(("f", fd2.e_index(c, d), -1), top)
                        got = mod2.act(("f", fd2.e_index(a, b), 1), w)
                        cf = (gamma2.c_sl if (a == d and b == c) else Q(0)) \
                            + ((gamma2.c_hei / 4 - gamma2.c_sl / 2)
                               if (a == b and c == d) else Q(0))
                        assert vec_eq(got, {((), (0, 0)): cf} if cf else {})
                        assert mod2.act(("f", fd2.e_index(a, b), 2), w) == {}

    def test_virasoro_modes_on_current_state(self, mod2, fd2, gamma2):
        # L(0) scales by depth; L(1) reads -2 psi(E_ab) c_vh on the top data
        top = mod2.top_vector()
        for a in (1, 2):
            for b in (1, 2):
                w = mod2.act(("f", fd2.e_index(a, b), -1), top)
                assert vec_eq(mod2.act(("L", 0), w), w)
                got = mod2.act(("L", 1), w)
                cf = -Q(2) * gamma2.c_vh / 2 if a == b else Q(0)
                assert vec_eq(got, {((), (0, 0)): cf} if cf else {})


@pytest.fixture(scope="module")
def cancelling(fd2, gamma2, sl2):
    """The natural gl_2 top with h_hei = 1, h_vir = 1/3 and c_sl = 0."""
    V = build_module(sl2, "trivial")
    W = build_gl_module(2, "natural")
    return FModule(fd2, dataclasses.replace(gamma2, c_sl=Q(0)), V, W,
                   h_hei=Q(1), h_vir=Q(1, 3))


class TestNoStoredZero:
    """A sparse vector stores no zero.  On the natural gl_2 top with
    h_hei = 1, E_11(0) = h_hei/2 + (E_11 - I/2) is zero on the second basis
    vector of W; with c_sl = 0 the central symbol c_sl acts by zero.  A
    fresh module's memo table holds the zero modes L(0) and x_i(0) on every
    top and nothing else."""

    def test_cancelled_top_action_is_empty(self, cancelling, fd2):
        fresh = FModule(fd2, cancelling.gamma, cancelling.V, cancelling.W,
                        h_hei=cancelling.h_hei, h_vir=cancelling.h_vir)
        assert len(fresh._cache) == (fd2.dim + 1) * len(fresh.tops)
        assert all(mono == () and all(nums.values())
                   for (_sym, mono, _top), (_den, nums)
                   in fresh._cache.items())
        e11 = fd2.e_index(1, 1)
        assert cancelling.apply_sym(("f", e11, 0), (), (0, 1)) == (1, {})
        assert cancelling.apply_sym(("C", "c_sl"), (), (0, 0)) == (1, {})

    def test_no_image_stores_zero(self, cancelling, fd2):
        syms = [("L", n) for n in range(-2, 3)]
        syms += [("f", i, n) for i in range(fd2.dim) for n in range(-2, 3)]
        for depth in range(3):
            for mono, top in cancelling.basis_at(depth):
                for sym in syms:
                    assert all(cancelling.apply_sym(sym, mono, top)[1]
                               .values())


class TestSingular:
    def test_depth_zero_empty(self, mod2):
        assert singular_vectors(mod2, 0) == []

    def test_translation_vector_is_singular_for_flat_top(self, mod2):
        found = singular_vectors(mod2, 1)
        assert len(found) == 1
        assert found[0] == {((("L", -1),), (0, 0)): Q(1)}

    @pytest.fixture(scope="class")
    def flat_n1(self, params_n1, sl2):
        """The full and the vacuum flavor of the N = 1 flat top at the
        reference parameters."""
        fd = ReductiveF(sl2, 1)
        gamma = CentralCharacter.from_params(params_n1)
        V = build_module(sl2, "trivial")
        W = build_gl_module(1, "trivial", id_scalar=Q(0))
        return (FModule(fd, gamma, V, W, h_hei=Q(0), h_vir=Q(0)),
                FModule(fd, gamma, V, W, h_hei=Q(0), h_vir=Q(0),
                        vacuum=True))

    def test_reference_depths_n1(self, flat_n1):
        # the distinguished top at the reference parameters: depth 1 carries
        # the translation vector, depth 2 is clean, depth 3 carries the
        # integer-level current null vectors (c = 2)
        mod, vac = flat_n1
        fd = mod.fd
        assert len(singular_vectors(mod, 1)) == 1
        assert len(singular_vectors(mod, 2)) == 0
        assert len(singular_vectors(mod, 3)) == 7

        assert singular_vectors(vac, 1) == []
        assert singular_vectors(vac, 2) == []
        found3 = singular_vectors(vac, 3)
        assert len(found3) == 7

        # oracle: e(-1)^3 vac is annihilated by every raising generator
        v = vac.top_vector()
        for _ in range(3):
            v = vac.act(("f", 0, -1), v)
        assert v == {((("f", 0, -1),) * 3, (0, 0)): Q(1)}
        raising = [("L", 1), ("L", 2)]
        raising += [("f", i, n) for i in range(fd.dim) for n in (1, 2)]
        for sym in raising:
            assert vac.act(sym, v) == {}

    def test_reference_depth5_n1(self, flat_n1):
        # the singular space is the tensor product of the factors' ones: the
        # Virasoro Verma module at c' = 13/2, h' = 0 has only L(-1) (h_{1,1};
        # h = 1 is no Kac value), the submodule of the level-2 sl_2 Weyl
        # module generated by e(-1)^3 at depth 3 is irreducible, and the
        # Heisenberg factor has none; nothing lies at depth 5 in either flavor
        for mod in flat_n1:
            assert singular_vectors(mod, 5) == []

    @pytest.mark.parametrize("which, depth, dim", [
        ("module_n1", 3, 7), ("vacuum_n1", 3, 7),
        ("module_n2_natural", 2, 12)])
    def test_search_matches_oracle_on_act(self, request, which, depth, dim):
        # the raising-mode matrix built from act on each basis vector, and
        # its canonical nullspace basis (one vector per free column, in
        # increasing order) from sympy's exact rref
        QQ = pytest.importorskip("sympy").QQ
        DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
        module = (request.getfixturevalue("module_n1").vacuum_companion()
                  if which == "vacuum_n1" else request.getfixturevalue(which))
        fmod = module.fmod
        basis = fmod.basis_at(depth)
        raising = [("L", 1), ("L", 2)]
        raising += [("f", i, n) for i in range(fmod.fd.dim) for n in (1, 2)]
        rows = {}
        for col, key in enumerate(basis):
            for sym in raising:
                for image, cf in fmod.act(sym, {key: Q(1)}).items():
                    rows.setdefault((sym, image), {})[col] = cf
        dense = [[QQ(x.numerator, x.denominator)
                  for x in (Q(row.get(c, 0)) for c in range(len(basis)))]
                 for row in rows.values()]
        ref, pivots = DomainMatrix(dense, (len(dense), len(basis)), QQ).rref()
        ref = ref.to_list()
        expected = []
        for free in range(len(basis)):
            if free in pivots:
                continue
            vec = {basis[free]: Q(1)}
            for i, p in enumerate(pivots):
                if ref[i][free]:
                    x = -ref[i][free]
                    vec[basis[p]] = Q(int(x.numerator), int(x.denominator))
            expected.append(vec)
        assert len(expected) == dim
        found = singular_vectors(fmod, depth)
        assert found == expected
        assert all(type(cf) is Q for vec in found for cf in vec.values())

    def test_generic_weights_clean_at_low_depth(self, fd2, gamma2, sl2):
        V = build_module(sl2, "trivial")
        W = build_gl_module(2, "trivial", id_scalar=Q(0))
        mod = FModule(fd2, gamma2, V, W, h_hei=Q(3, 7), h_vir=Q(2, 9))
        assert singular_vectors(mod, 1) == []
        assert singular_vectors(mod, 2) == []

    def test_generic_level_certifies_clean(self, sl2):
        # away from integer levels the translation-reduced flavor really is
        # irreducible through depth 3; the depth-3 degeneracy in the
        # reference configuration comes from c = 2 alone
        from torvoa import Params
        params = Params(N=1, mu=Q(1, 3), nu=Q(1, 5), c=Q(5, 2), g_dot=sl2)
        fd = ReductiveF(sl2, 1)
        gamma = CentralCharacter.from_params(params)
        V = build_module(sl2, "trivial")
        W = build_gl_module(1, "trivial", id_scalar=Q(0))
        vac = FModule(fd, gamma, V, W, h_hei=Q(0), h_vir=Q(0), vacuum=True)
        for depth in (1, 2, 3):
            assert singular_vectors(vac, depth) == []


class TestSugawara:
    def test_critical_level_rejected(self, fd2):
        gamma = CentralCharacter(c_g=Q(1), c_sl=Q(1), c_hei=Q(0),
                                 c_vh=Q(0), c_vir=Q(1))
        with pytest.raises(CriticalLevelError) as err:
            sugawara_constants(fd2, gamma, Q(0), Q(0), Q(0), Q(0))
        assert "c_hei" in str(err.value)
        gamma = CentralCharacter(c_g=Q(-2), c_sl=Q(1), c_hei=Q(1),
                                 c_vh=Q(0), c_vir=Q(1))
        with pytest.raises(CriticalLevelError):
            sugawara_constants(fd2, gamma, Q(0), Q(0), Q(0), Q(0))

    def test_reference_constants(self, fd2, gamma2):
        c_prime, h_prime = sugawara_constants(fd2, gamma2, Q(0), Q(0), Q(0), Q(0))
        assert c_prime == Q(75, 14)
        assert h_prime == Q(0)

    def test_standard_top_weight_vanishes(self, params_n2, fd2, gamma2):
        # h = N nu c and d = (mu+nu)c/2 shift to h_hei = h_vir = 0
        h_hei = params_n2.N * params_n2.nu * params_n2.c \
            - params_n2.N * params_n2.nu * params_n2.c
        assert h_hei == 0
        _c, h_prime = sugawara_constants(fd2, gamma2, Q(0), Q(0), h_hei, Q(0))
        assert h_prime == 0

    def test_zero_mode_matches_constants(self, fd2, gamma2, sl2):
        V = build_module(sl2, "natural")
        W = build_gl_module(2, "natural")
        from torvoa import casimir_eigenvalue
        omega_v = casimir_eigenvalue(sl2, V)
        omega_w = casimir_eigenvalue(fd2.sl, W.sl_module())
        h_hei, h_vir = Q(1, 5), Q(8, 15)
        mod = FModule(fd2, gamma2, V, W, h_hei=h_hei, h_vir=h_vir)
        _cp, hp = sugawara_constants(fd2, gamma2, omega_v, omega_w, h_hei, h_vir)
        for top in mod.tops:
            tv = mod.top_vector(*top)
            got = sugawara_mode(mod, 0, tv)
            want = {k: hp * v for k, v in tv.items()} if hp else {}
            assert vec_eq(got, want)

    def test_virasoro_relation_and_commutation(self, mod2, fd2, gamma2):
        c_prime, _ = sugawara_constants(fd2, gamma2, Q(0), Q(0), Q(0), Q(0))
        vecs = [mod2.top_vector()]
        vecs += [{(mono, (0, 0)): Q(1)} for mono in mod2.monomials_at(1)[:4]]
        vecs += [{(mono, (0, 0)): Q(1)} for mono in mod2.monomials_at(2)[:2]]
        for n, m in ((2, -2), (1, -1), (1, 1), (-2, 1)):
            for v in vecs:
                lhs = vec_add(sugawara_mode(mod2, n, sugawara_mode(mod2, m, v)),
                              sugawara_mode(mod2, m, sugawara_mode(mod2, n, v)),
                              Q(-1))
                want = {}
                if n != m:
                    want = vec_add(want, sugawara_mode(mod2, n + m, v), Q(n - m))
                if n == -m and n != 0:
                    want = vec_add(want, v, Q(n ** 3 - n, 12) * c_prime)
                assert vec_eq(lhs, want)
        e12 = fd2.e_index(1, 2)
        for v in vecs[:3]:
            lhs = sugawara_mode(mod2, 1, mod2.act(("f", e12, -1), v))
            rhs = mod2.act(("f", e12, -1), sugawara_mode(mod2, 1, v))
            assert vec_eq(lhs, rhs)


def _reference_sugawara(module, m, vec):
    """L'(m) on a whole vector from the definition: L(m), minus each
    sector's normally ordered quadratic with every current mode up to the
    vector's maximal depth, plus the dI correction."""
    fd = module.fd
    gamma = module.gamma
    dmax = max((sum(-s[-1] for s in mono) for mono, _top in vec), default=0)

    def pair_mode(xcombo, ycombo):
        out = {}
        for k in range(m - dmax, 0):
            w = module.act_current(ycombo, m - k, vec)
            add_into(out, module.act_current(xcombo, k, w))
        for k in range(0, dmax + 1):
            w = module.act_current(xcombo, k, vec)
            add_into(out, module.act_current(ycombo, m - k, w))
        return out

    out = module.act(("L", m), vec)
    sectors = [("g", 2 * (gamma.c_g + fd.g.h_vee))]
    if fd.N >= 2:
        sectors.append(("sl", 2 * (gamma.c_sl + fd.N)))
    sectors.append(("hei", 2 * gamma.c_hei))
    for which, denom in sectors:
        for xc, yc, cf in fd.quadratic_pairs(which):
            add_into(out, pair_mode(xc, yc), -cf / denom)
    add_into(out, module.act_current(fd.identity_combo(), m, vec),
             gamma.c_vh / gamma.c_hei * (m + 1))
    return out


class TestSugawaraMemo:
    """The memoized corrected Virasoro field against its definition on whole
    vectors, on five tops: every basis monomial up to the shape's depth and
    two mixed-depth vectors with several terms, for the shape's modes.  The
    A1 shapes at N <= 2 go to depth 2 and modes -3..3; natural tops of
    g = A2 at N = 1 and of A1 at N = 3, at mu = 2/7, nu = -1/4, c = 3/2, go
    to depth 1 and modes -2..2 (their sl_3 Gram inverses and gl_3 combos
    have cross terms)."""

    @pytest.fixture(scope="class", params=[
        "n1_standard", "n2_natural", "n1_vacuum", "a2_n1_natural",
        "a1_n3_natural"])
    def case(self, request, params_n1, params_n2, sl2):
        """(module, deepest basis depth, modes) of one shape."""
        shape = request.param
        if shape in ("a2_n1_natural", "a1_n3_natural"):
            alg = simple_algebra("A2" if shape == "a2_n1_natural" else "A1")
            params = Params(N=1 if shape == "a2_n1_natural" else 3,
                            mu=Q(2, 7), nu=Q(-1, 4), c=Q(3, 2), g_dot=alg)
            module = FModule(ReductiveF(alg, params.N),
                             CentralCharacter.from_params(params),
                             build_module(alg, "natural"),
                             build_gl_module(params.N, "natural"),
                             h_hei=Q(1, 5), h_vir=Q(8, 15))
            return module, 1, range(-2, 3)
        params = params_n2 if shape == "n2_natural" else params_n1
        fd = ReductiveF(sl2, params.N)
        gamma = CentralCharacter.from_params(params)
        if shape == "n2_natural":
            module = FModule(fd, gamma, build_module(sl2, "natural"),
                             build_gl_module(2, "natural"),
                             h_hei=Q(1, 5), h_vir=Q(8, 15))
        else:
            W = build_gl_module(1, "trivial", id_scalar=params.nu * params.c)
            module = FModule(fd, gamma, build_module(sl2, "trivial"), W,
                             h_hei=Q(0), h_vir=Q(0),
                             vacuum=shape == "n1_vacuum")
        return module, 2, range(-3, 4)

    @staticmethod
    def mixed_vectors(module, depth):
        tops = module.tops
        m1, deep = module.monomials_at(1), module.monomials_at(depth)
        return [
            {((), tops[0]): Q(3, 7), (m1[0], tops[-1]): Q(-2),
             (deep[-1], tops[0]): Q(5, 3)},
            {(m1[-1], tops[0]): Q(-1, 4), (deep[0], tops[-1]): Q(7),
             (deep[len(deep) // 2], tops[0]): Q(2, 9)},
        ]

    def test_matches_definition(self, case):
        module, depth, modes = case
        vecs = [{key: Q(1)} for d in range(depth + 1)
                for key in module.basis_at(d)]
        vecs += self.mixed_vectors(module, depth)
        for v in vecs:
            for m in modes:
                got = sugawara_mode(module, m, v)
                assert vec_eq(got, _reference_sugawara(module, m, v)), (m, v)
                assert all(type(cf) is Q for cf in got.values())
                assert all(got.values())

    def test_casimir_tensor_is_symmetric_and_invariant(self, case):
        # sum T[i, j] ([x_a, x_i] (x) x_j + x_i (x) [x_a, x_j]) = 0 for every
        # basis current x_a: the reason [L'(n), x(m)] = 0
        module, _depth, _modes = case
        fd = module.fd
        sugawara_mode(module, 0, module.top_vector())
        T, _D = module._casimir
        assert T and all(T.get((j, i)) == cf for (i, j), cf in T.items())
        for a in range(fd.dim):
            tot = {}
            for (i, j), cf in T.items():
                for k, bk in fd.bracket(a, i).items():
                    add_into(tot, {(k, j): bk}, cf)
                for k, bk in fd.bracket(a, j).items():
                    add_into(tot, {(i, k): bk}, cf)
            assert tot == {}, a

    def test_memo_entries_share_symbols_and_coefficients(self, case):
        # the one table holds the L'(m) images next to apply_sym's, all as
        # reduced int forms; every empty image is the one shared entry, and
        # the keys share one copy of each mode symbol
        module, deepest, modes = case
        for v in self.mixed_vectors(module, deepest):
            for m in modes:
                sugawara_mode(module, m, v)
                assert all((("L'", m), mono, top) in module._cache
                           for mono, top in v if m <= depth(mono))
        for entry in module._cache.values():
            den, nums = entry
            assert type(den) is int and den > 0, entry
            assert all(type(v) is int and v for v in nums.values()), entry
            assert gcd(den, *nums.values()) == 1, entry
            assert nums or entry is virasoro_affine._EMPTY
        syms = [sym for sym, _mono, _top in module._cache]
        assert len({id(s) for s in syms}) == len(set(syms))

    def test_returned_vectors_are_fresh(self, case):
        module, depth, modes = case
        for v in [module.top_vector()] + self.mixed_vectors(module, depth):
            for m in modes:
                got = sugawara_mode(module, m, v)
                want = dict(got)
                got.clear()
                got[((), module.tops[0])] = Q(99)
                assert sugawara_mode(module, m, v) == want


class TestSugawaraCriticalLevel:
    """sugawara_mode checks the level on every call, before the memo."""

    @pytest.mark.parametrize("critical", [
        dict(c_g=Q(1), c_sl=Q(1), c_hei=Q(0), c_vh=Q(0), c_vir=Q(1)),
        dict(c_g=Q(-2), c_sl=Q(1), c_hei=Q(1), c_vh=Q(0), c_vir=Q(1)),
    ], ids=["c_hei_zero", "c_g_minus_h_vee"])
    def test_raises_on_every_call(self, fd2, sl2, critical):
        V = build_module(sl2, "trivial")
        W = build_gl_module(2, "trivial", id_scalar=Q(0))
        mod = FModule(fd2, CentralCharacter(**critical), V, W,
                      h_hei=Q(0), h_vir=Q(0))
        for _ in range(2):
            with pytest.raises(CriticalLevelError):
                sugawara_mode(mod, 1, mod.top_vector())
        assert not any(sym[0] == "L'" for sym, _mono, _top in mod._cache)
        assert mod._casimir is None

    def test_warm_memo_does_not_skip_the_check(self, fd2, gamma2, sl2):
        V = build_module(sl2, "trivial")
        W = build_gl_module(2, "trivial", id_scalar=Q(0))
        mod = FModule(fd2, gamma2, V, W, h_hei=Q(0), h_vir=Q(0))
        sugawara_mode(mod, 1, mod.top_vector())
        mod.gamma = dataclasses.replace(mod.gamma, c_hei=Q(0))
        with pytest.raises(CriticalLevelError):
            sugawara_mode(mod, 1, mod.top_vector())


class TestHeldOnce:
    """The central character is the one object the module was given, and a
    mode above its monomial's depth is zero by grading, never stored."""

    def test_central_character_is_not_copied(self, params_n2, monkeypatch):
        module = RealizationModule(params_n2)
        assert module.fmod.gamma is module.gamma0
        _c, h_prime = module.sugawara_constants()

        def forbidden(**_kw):
            raise AssertionError("sugawara_mode built a CentralCharacter")

        monkeypatch.setattr(virasoro_affine, "CentralCharacter", forbidden)
        top = module.fmod.top_vector()
        assert vec_eq(sugawara_mode(module.fmod, 0, top),
                      vec_scale(top, h_prime))

    def test_no_mode_above_depth_is_stored(self, params_n2):
        module = RealizationModule(params_n2)
        fmod = module.fmod
        c_prime, _h = module.sugawara_constants()
        vecs = sugawara_test_vectors(fmod, random.Random(1), 3)
        assert sugawara_sweep(fmod, c_prime, 2, vecs, 4) == (
            (25 * len(vecs), []), (25 * fmod.fd.dim * 4, []))
        vac = module.vacuum_companion().fmod
        for d in range(1, 4):
            singular_vectors(vac, d)
        for mod in (fmod, vac):
            assert mod._cache
            assert all(mode_of(sym) <= depth(mono)
                       for sym, mono, _top in mod._cache)
        for mono in [()] + fmod.monomials_at(1) + fmod.monomials_at(2):
            for top in fmod.tops:
                for n in range(depth(mono) + 1, depth(mono) + 3):
                    syms = [("L", n), ("L'", n)] + [
                        ("f", i, n) for i in range(fmod.fd.dim)]
                    assert all(fmod.apply_sym(sym, mono, top) == (1, {})
                               for sym in syms)


class TestRationalCoefficients:
    """Vectors with coefficients other than 1, which no basis vector has.
    ``act``, ``act_current`` and ``sugawara_mode`` read the int images of
    ``apply_sym`` and ``L'(m)`` and build one Fraction per output entry:
    they are linear over Q, their outputs are nonzero Fractions, and central
    values, Virasoro norms and L'(m) come out exactly."""

    @pytest.fixture(scope="class", params=["n1_standard", "n2_cancelling",
                                           "n1_vacuum"])
    def fmod(self, request, module_n1):
        if request.param == "n2_cancelling":
            return request.getfixturevalue("cancelling")
        if request.param == "n1_standard":
            return module_n1.fmod
        return module_n1.vacuum_companion().fmod

    @staticmethod
    def pairs(fmod):
        """Pairs of basis vectors of depth <= 2, drawn with a fixed seed."""
        keys = [key for d in range(3) for key in fmod.basis_at(d)]
        rng = random.Random(23)
        return [tuple({key: Q(1)} for key in rng.sample(keys, 2))
                for _ in range(4)]

    def test_act_is_linear(self, fmod):
        syms = [("L", n) for n in range(-2, 3)] + [("C", "c_vir")]
        syms += [("f", i, n) for i in range(fmod.fd.dim) for n in (-1, 0, 2)]
        seen = 0
        for v, w in self.pairs(fmod):
            for sym in syms:
                got = nonzero(fmod.act(sym, mix(v, w)))
                assert got == mix(nonzero(fmod.act(sym, v)),
                                  nonzero(fmod.act(sym, w))), (sym, v, w)
                seen += bool(got)
        assert seen > len(syms)

    def test_act_current_is_linear(self, fmod):
        dim = fmod.fd.dim
        combos = [fmod.fd.identity_combo(), {0: Q(1, 2), dim - 1: Q(-3)}]
        for v, w in self.pairs(fmod):
            for combo in combos:
                for n in (-1, 0, 1):
                    got = nonzero(fmod.act_current(combo, n, mix(v, w)))
                    assert got == mix(
                        nonzero(fmod.act_current(combo, n, v)),
                        nonzero(fmod.act_current(combo, n, w))), (n, v, w)

    def test_sugawara_mode_is_linear_and_exact(self, fmod):
        for v, w in self.pairs(fmod)[:2]:
            for m in range(-2, 3):
                got = nonzero(sugawara_mode(fmod, m, mix(v, w)))
                assert got == mix(nonzero(sugawara_mode(fmod, m, v)),
                                  nonzero(sugawara_mode(fmod, m, w)))
                assert got == _reference_sugawara(fmod, m, mix(v, w)), m

    def test_virasoro_norm_is_exact(self, fmod):
        # L(n) L(-n) on the top is 2n h_vir + (n^3 - n)/12 c_vir; the 1/12
        # enters through the denominator of an f_bracket coefficient
        top = fmod.top_vector()
        for n in (1, 2, 3):
            got = fmod.act(("L", n), fmod.act(("L", -n), vec_scale(top, S)))
            want = S * (2 * n * fmod.h_vir
                        + Q(n ** 3 - n, 12) * fmod.gamma.c_vir)
            assert nonzero(got) == vec_scale(top, want), n

    def test_central_symbol_returns_its_value(self, module_n1, mod2):
        for fmod in (module_n1.fmod, mod2):
            assert fmod.gamma.c_sl == Q(1, 3)
            keys = fmod.basis_at(0) + fmod.basis_at(1)
            for mono, top in keys:
                assert fmod.apply_sym(("C", "c_sl"), mono, top) \
                    == (3, {(mono, top): 1})
            v = mix({keys[0]: Q(1)}, {keys[-1]: Q(1)})
            for name, value in fmod.gamma.as_dict().items():
                assert nonzero(fmod.act(("C", name), v)) \
                    == vec_scale(v, value), name
