import dataclasses
import random
from fractions import Fraction as Q
from math import floor

import pytest

from torvoa import (ConfigError, RealizationModule, exp_vertex_mode, heis_act,
                    hyp_virasoro_mode)
from torvoa.algebra_core import bracket_symbols, d_sym, dt_sym, g_sym, k_sym
from torvoa.toroidal_realization import (RELATION_IDS, _index_box,
                                         default_identity_pairs,
                                         field_commutator_window_check,
                                         field_symbol, relation_check,
                                         rhs_mode_element, top_action_check,
                                         unit_r)
from torvoa.linalg import tally, vec_add, vec_eq, vec_scale


def _osc_monomials(N, depth):
    """All oscillator monomials of the given depth over 2N generators."""
    from torvoa.lattice_fock import _insert_osc
    if depth == 0:
        return [()]
    out = set()

    def rec(osc, left, min_part, min_gen):
        if left == 0:
            out.add(osc)
            return
        for part in range(min_part, left + 1):
            for g in range(2 * N):
                if part == min_part and g < min_gen:
                    continue
                rec(_insert_osc(osc, g, -part), left - part, part, g)

    rec((), depth, 1, 0)
    return sorted(out)


class TestGeneratorAction:
    def test_lattice_shift_on_top(self, module_n1, params_n1):
        top = module_n1.top_vector()
        got = module_n1.g_act_symbol(k_sym(params_n1, 0, (1,), 0), top)
        assert vec_eq(got, vec_scale(module_n1.top_vector((1,)), params_n1.c))

    def test_positive_modes_annihilate_top(self, module_n1, params_n1):
        top = module_n1.top_vector()
        assert module_n1.g_act_symbol(k_sym(params_n1, 1, (1,), 1), top) == {}
        assert module_n1.g_act_symbol(g_sym(params_n1, 1, (0,), 0), top) == {}

    def test_top_scalar_of_time_field(self, module_n1, params_n1):
        top = module_n1.top_vector()
        got = module_n1.g_act_symbol(d_sym(params_n1, 0, (0,), 0), top)
        assert vec_eq(got, vec_scale(top, module_n1.d))

    def test_center_acts_by_character(self, module_n2, params_n2):
        rng = random.Random(5)
        for _ in range(5):
            v = module_n2.random_vector(rng, 2)
            got = module_n2.g_act_symbol(k_sym(params_n2, 0, (0, 0), 0), v)
            assert vec_eq(got, vec_scale(v, params_n2.c))
            for p in (1, 2):
                assert module_n2.g_act_symbol(
                    k_sym(params_n2, 0, (0, 0), p), v) == {}

    def test_translation_mode_on_vacuum_companion(self, module_n1, params_n1):
        # D(top) = 0 at alpha = 0 after the translation-null reduction, and
        # picks up alpha-dependent oscillator terms at alpha != 0
        vac = module_n1.vacuum_companion()
        got = vac.g_act_symbol(dt_sym(params_n1, -1, (0,), 0), vac.top_vector())
        assert got == {}
        shifted = RealizationModule(params_n1, alpha=(Q(2, 5),), vacuum=True)
        got = shifted.g_act_symbol(dt_sym(params_n1, -1, (0,), 0),
                                   shifted.top_vector())
        want = vec_scale(shifted.osc_vector([(0, -1)]), Q(2, 5))
        assert vec_eq(got, want)

    def test_translation_mode_keeps_induced_tail(self, module_n1, params_n1):
        # without the reduction the same mode carries the depth-one tail of
        # the induced factor
        got = module_n1.g_act_symbol(dt_sym(params_n1, -1, (0,), 0),
                                     module_n1.top_vector())
        fv = module_n1.fmod.act(("L", -1), module_n1.fmod.top_vector())
        assert vec_eq(got, module_n1.q_vector(None, fv))

    def test_canonical_center_consistency(self, module_n1, params_n1):
        # the field of an eliminated one-form symbol equals the field of its
        # canonical rewriting (derivative property of the shift operators)
        rng = random.Random(31)
        from torvoa import ToroidalElement
        for j in (-2, -1, 1, 2):
            sym = k_sym(params_n1, j, (1,), 0)
            elem = ToroidalElement.from_symbol(params_n1, sym)
            for _ in range(3):
                v = module_n1.random_vector(rng, 2)
                assert vec_eq(module_n1.g_act_symbol(sym, v),
                              module_n1.g_act(elem, v))


class TestWeights:
    def test_top_weights(self, module_n1):
        got = module_n1.weight_of(module_n1.top_vector((3,)))
        assert got == (module_n1.d, Q(3))

    def test_oscillator_lowers_time_weight(self, module_n1):
        got = module_n1.weight_of(module_n1.osc_vector([(0, -1)]))
        assert got == (module_n1.d - 1, Q(0))

    def test_deep_mode_lowers_by_mode(self, module_n1):
        fv = module_n1.fmod.act(("f", module_n1.fd.e_index(1, 1), -2),
                                module_n1.fmod.top_vector())
        got = module_n1.weight_of(module_n1.q_vector(None, fv))
        assert got == (module_n1.d - 2, Q(0))

    def test_alpha_enters_space_weights(self, module_n2_natural):
        got = module_n2_natural.weight_of(module_n2_natural.top_vector((0, 1)))
        assert got[1] == Q(1, 2) and got[2] == Q(1)

    def test_boundedness(self, module_n1):
        # eigenvalues of the time grading are bounded by d, with equality
        # exactly on the top component
        rng = random.Random(3)
        for _ in range(10):
            v = module_n1.random_vector(rng, 3)
            ((osc, _lat), (mono, _t)), = v.keys()
            depth = sum(-m for _g, m in osc) \
                + sum(-s[-1] for s in mono)
            w = module_n1.weight_of(v)
            assert w[0] == module_n1.d - depth
            assert (w[0] == module_n1.d) == (depth == 0)

    def test_basis_weight_audit(self, module_n1):
        # every depth <= 2 basis monomial is a weight vector whose labels
        # match the (depth, lattice weight) bookkeeping of the tables
        M = module_n1
        from torvoa.lattice_fock import _insert_osc
        from torvoa.characters import enumerate_weight_spaces
        for m in ((0,), (2,)):
            counted = {0: 0, 1: 0, 2: 0}
            for total in range(3):
                for df in range(total + 1):
                    oscs = _osc_monomials(1, df)
                    fmonos = M.fmod.monomials_at(total - df)
                    for osc in oscs:
                        for mono in fmonos:
                            vec = {((osc, M.lattice_point(m)),
                                    (mono, (0, 0))): Q(1)}
                            w = M.weight_of(vec)
                            assert w == (M.d - total, Q(m[0]))
                            counted[total] += 1
            table = enumerate_weight_spaces(M, 2)
            for n in range(3):
                assert counted[n] == table.dim(n, m)

    def test_non_weight_vector_rejected(self, module_n1):
        v = vec_add(module_n1.top_vector(), module_n1.osc_vector([(0, -1)]))
        with pytest.raises(ConfigError):
            module_n1.weight_of(v)


class TestCommutators:
    @staticmethod
    def _holds(module, a, b, v):
        sides = module._commutator_sides(a, b, v)
        assert any(sides)  # a check of 0 against 0 would show nothing
        assert tally([("commutator", *sides, (a, b, v))]) == (1, [])

    def test_trivial_pair(self, module_n2, params_n2):
        # r = 0 on both sides: [d_0(1), d_1(-1)] = -d_1(0), which reads the
        # u_1 coordinate of the shifted top
        self._holds(module_n2, d_sym(params_n2, 1, (0, 0), 0),
                    d_sym(params_n2, -1, (0, 0), 1),
                    module_n2.top_vector(m=(1, 0)))

    def test_cocycle_pair_on_top(self, module_n1, params_n1):
        self._holds(module_n1, d_sym(params_n1, 1, (1,), 1),
                    d_sym(params_n1, -1, (-1,), 1), module_n1.top_vector())

    @pytest.mark.parametrize("fixture", ["module_n1", "module_n2_natural"])
    def test_seeded_sweep(self, fixture, request):
        module = request.getfixturevalue(fixture)
        rng = random.Random(20240608)
        assert module.commutator_sweep(rng, 40, 2, 1, 2) == (40, [])

    def test_higher_rank_coefficients(self):
        # rank-two coefficient algebra with a natural top and negative nu
        from torvoa import Params, RealizationModule, build_module, simple_algebra
        sl3 = simple_algebra("A2")
        params = Params(N=1, mu=Q(2, 7), nu=Q(-1, 4), c=Q(3, 2), g_dot=sl3)
        module = RealizationModule(params, V=build_module(sl3, "natural"),
                                   h=Q(1, 2), d=Q(0))
        rng = random.Random(5150)
        assert module.commutator_sweep(rng, 25, 2, 1, 2) == (25, [])

    @pytest.mark.parametrize("N, g_dot, V, W, alpha", [
        (3, "A1", "trivial", "trivial", None),
        (1, "A1", "adjoint", "trivial", None),
        (2, "A2", "natural", "natural", (Q(1, 3), 0)),
        (1, "A3", "natural", "trivial", None),
    ])
    def test_parameter_family(self, N, g_dot, V, W, alpha):
        # other ranks, coefficient algebras, tops and a coset that is not
        # half-integral, at mu = 2/7, nu = -1/4, c = 3/2
        from torvoa import (Params, build_gl_module, build_module,
                            simple_algebra)
        alg = simple_algebra(g_dot)
        params = Params(N=N, mu=Q(2, 7), nu=Q(-1, 4), c=Q(3, 2), g_dot=alg)
        module = RealizationModule(params, alpha=alpha,
                                   V=build_module(alg, V),
                                   W=build_gl_module(N, W))
        assert module.commutator_sweep(random.Random(1), 10, 2, 1, 2) == (10, [])


class TestDisplayedIdentities:
    @pytest.mark.parametrize("fixture", ["params_n1", "params_n2"])
    def test_delta_expansions_match_brackets(self, fixture, request):
        params = request.getfixturevalue(fixture)
        box = _index_box(params.N, 1)
        rng = random.Random(6)
        samples = [(box[rng.randrange(len(box))], box[rng.randrange(len(box))])
                   for _ in range(10)]
        for name, akind, bkind in default_identity_pairs(params):
            for r, m in samples:
                for i in range(-3, 4):
                    for jj in range(-3, 4):
                        lhs = bracket_symbols(
                            params, field_symbol(params, akind, i, r),
                            field_symbol(params, bkind, jj, m))
                        assert lhs == rhs_mode_element(
                            params, akind, r, bkind, m, i, jj), (name, r, m, i, jj)

    def test_on_module_window(self, module_n1):
        checked, failures = field_commutator_window_check(
            module_n1, window=2, vectors=module_n1.sample_vectors(1)[:2])
        assert checked > 0 and failures == []

    def test_center_identities_include_eliminated_modes(self, module_n1, params_n1):
        checked, failures = field_commutator_window_check(
            module_n1, window=2, names=["k-k", "g-k"],
            vectors=[module_n1.top_vector()])
        assert failures == []


class TestTopAction:
    def test_standard_top(self, module_n1):
        checked, failures = top_action_check(module_n1, window=2)
        assert failures == []

    def test_tensor_top(self, module_n2_natural):
        checked, failures = top_action_check(module_n2_natural, window=1)
        assert failures == []

    def test_matrix_unit_shift_explicit(self, module_n2_natural, params_n2):
        # (t^{e1} d_2) on q^0 (x) v (x) w picks up alpha_2 shift and E_12 w
        M = module_n2_natural
        got = M.g_act_symbol(d_sym(params_n2, 0, (1, 0), 2), M.top_vector())
        want = vec_scale(M.top_vector((1, 0), 0, 0), M.alpha[1])
        mat = M.W.gl_action(1, 2)
        for iw2 in range(M.W.dim):
            if mat[iw2][0]:
                want = vec_add(want, M.top_vector((1, 0), 0, iw2), mat[iw2][0])
        assert vec_eq(got, want)


class TestRelations:
    @pytest.mark.parametrize("rid", RELATION_IDS)
    def test_relations_n1(self, module_n1, rid):
        checked, failures = relation_check(module_n1, rid)
        assert checked > 0 and failures == []

    @pytest.mark.parametrize("rid", ["glcurrent-ope", "vir-lowering", "vir-depth2"])
    def test_relations_n2(self, module_n2, rid):
        checked, failures = relation_check(module_n2, rid)
        assert checked > 0 and failures == []

    def test_ope_coefficients_reference(self, module_n2, params_n2):
        # level-one products: (1 - mu c) = 1/3 and nu c = 2/5 at the
        # reference parameters
        M = module_n2
        c = params_n2.c
        assert (1 - params_n2.mu * c) == Q(1, 3)
        assert params_n2.nu * c == Q(2, 5)
        state = M.gl_current_state(2, 1)
        combo = ("cur", M.fd.e_index(1, 2))
        got = M._apply_ordered((), combo, None, -2, state)
        assert vec_eq(got, vec_scale(M.top_vector(), Q(1, 3)))
        state = M.gl_current_state(2, 2)
        combo = ("cur", M.fd.e_index(1, 1))
        got = M._apply_ordered((), combo, None, -2, state)
        assert vec_eq(got, vec_scale(M.top_vector(), Q(-2, 5)))

    def test_unknown_relation_id(self, module_n1):
        with pytest.raises(ConfigError):
            relation_check(module_n1, "nonsense")

    def test_requires_standard_top(self, module_n2_natural):
        with pytest.raises(ConfigError):
            relation_check(module_n2_natural, "vir-depth2")


class TestChecksCanFail:
    """Every check reports a deliberate error in the action.  The error is
    patched into ``RealizationModule.realize_plan`` on the class, so the
    vacuum companion that 'vir-lowering' and 'vir-depth2' build carries it
    too; fresh modules keep it out of the shared fixtures' memo tables."""

    ERRORS = {"g": lambda sym: sym.tag == "g",
              "k_p": lambda sym: sym.tag == "k" and sym.idx >= 1,
              "k_0": lambda sym: sym.tag == "k" and sym.idx == 0}

    @staticmethod
    def _failures(check, M):
        if check == "top-action":
            return len(top_action_check(M, window=1)[1])
        if check == "fields":
            return len(field_commutator_window_check(
                M, window=1, vectors=[M.top_vector()], names=["g-g"])[1])
        if check == "commutator-sweep":
            return len(M.commutator_sweep(random.Random(1), 30, 2, 1, 2)[1])
        return len(relation_check(M, check)[1])

    @pytest.mark.parametrize("error, check, failures", [
        ("g", "current-pairing", 27),
        ("g", "fields", 99),
        ("k_p", "osc-pairing", 27),
        ("k_p", "shifted-pairing", 27),
        ("k_p", "glcurrent-commute", 2),
        ("k_p", "vir-lowering", 6),
        ("k_p", "vir-depth2", 2),
        ("k_0", "top-action", 24),
        ("k_0", "commutator-sweep", 7),
    ])
    def test_doubled_generator(self, params_n1, monkeypatch, error, check,
                               failures):
        # double the coefficients of one family of generators
        doubled, plan = self.ERRORS[error], RealizationModule.realize_plan
        monkeypatch.setattr(
            RealizationModule, "realize_plan",
            lambda self, sym: [(2 * cf if doubled(sym) else cf, *chain)
                               for cf, *chain in plan(self, sym)])
        assert self._failures(check, RealizationModule(params_n1)) == failures

    def test_shifted_sl_level(self, params_n2):
        M = RealizationModule(params_n2)
        M.fmod.gamma = dataclasses.replace(M.fmod.gamma,
                                           c_sl=M.fmod.gamma.c_sl + 1)
        checked, failures = relation_check(M, "glcurrent-ope")
        assert (checked, len(failures)) == (64, 6)
        assert {label for label, _data in failures} == {"ope-1"}


class TestVirasoroStructure:
    @pytest.mark.parametrize("fixture", ["module_n1", "module_n2_natural"])
    def test_fock_part_is_normal_ordered_omega(self, fixture, request):
        """The Fock part of the dt_0 plan at r != 0 against
        :omega Y(e^y): + (mu c - 1) sum_p r_p :(d u_p) Y(e^y):, both products
        written out from the public lattice modes:
        :omega Y:[e] = sum_{m<=-2} L(m) Y[e+m+2] + sum_{m>=-1} Y[e+m+2] L(m),
        and likewise for d u_p(z) = sum_j (-j-1) u_p(j) z^(-j-2)."""
        M = request.getfixturevalue(fixture)
        p, lat, N = M.params, M.lat, M.params.N
        coef = p.mu * p.c - 1

        def oracle(y, r, e, w):
            # (y|lat) = 0 on the module's coset points, so Y[k] w = 0 for
            # k < -depth(w); w has no oscillator mode above its depth
            depth = max(-sum(mode for _g, mode in osc) for osc, _lat in w)
            lo = -depth - e - 3
            out = {}
            for m in range(lo, depth + 1):
                if m <= -2:
                    term = hyp_virasoro_mode(
                        lat, m, exp_vertex_mode(lat, y, e + m + 2, w))
                else:
                    term = exp_vertex_mode(
                        lat, y, e + m + 2, hyp_virasoro_mode(lat, m, w))
                out = vec_add(out, term)
            for q in range(N):
                for j in range(lo, depth + 1):
                    if j < 0:
                        term = heis_act(lat, q, j,
                                        exp_vertex_mode(lat, y, e + j + 2, w))
                    else:
                        term = exp_vertex_mode(lat, y, e + j + 2,
                                               heis_act(lat, q, j, w))
                    out = vec_add(out, term, coef * r[q] * (-j - 1))
            return out

        rs = [(1,), (-2,)] if N == 1 else [(1, 0), (-1, 2)]
        for r in rs:
            y = M._exp_vec(r)
            for j in range(-2, 3):
                fock_plan = [(cf, fock, ffac, ey, e) for cf, fock, ffac, ey, e
                             in M.realize_plan(dt_sym(p, j, r, 0))
                             if ffac is None]
                for v in M.sample_vectors(2):
                    got = {}
                    for cf, *chain in fock_plan:
                        got = vec_add(got, M._apply_ordered(*chain, v), cf)
                    want = {}
                    for (fk, fkey), cf in v.items():
                        for fk2, c2 in oracle(y, r, -j - 2, {fk: Q(1)}).items():
                            want = vec_add(want, {(fk2, fkey): c2 * cf})
                    assert vec_eq(got, want), (r, j, v)


class TestTensorSplit:
    """The composite action is the lattice Fock product tensored with one
    M_f mode: compare the engine with that sum built from public calls."""

    @staticmethod
    def _chains(M):
        e11 = M.fd.e_index(1, 1)
        # (Fock factors, M_f factor, M_f field at z^e2 on an M_f vector,
        # its weight)
        return [
            ((("osc", 0, 0),), ("cur", e11),
             lambda e2, fv: M.fmod.act_current({e11: Q(1)}, -e2 - 1, fv), 1),
            ((), ("cur", 0),
             lambda e2, fv: M.fmod.act(("f", 0, -e2 - 1), fv), 1),
            ((), ("fvir",),
             lambda e2, fv: M.fmod.act(("L", -e2 - 2), fv), 2),
        ]

    @pytest.mark.parametrize("fixture", ["module_n1", "module_n2_natural"])
    def test_matches_fock_product_times_f_mode(self, fixture, request):
        from torvoa.lattice_fock import field_mode
        M = request.getfixturevalue(fixture)
        y = M._exp_vec(unit_r(M.params.N, 1))
        for fock, ffac, f_field, weight in self._chains(M):
            fock_weight = sum(1 + f[2] for f in fock)
            for v in M.sample_vectors(2):
                for e in range(-3, 3):
                    want = {}
                    for ((osc, lat), (mono, top)), cf in v.items():
                        # the engine's e2 range, widened by two on each side
                        f_depth = sum(-s[-1] for s in mono)
                        fock_min = M.lat.form(y, lat) \
                            - sum(-m for _g, m in osc) - fock_weight
                        lo = -f_depth - weight - 2
                        hi = floor(e - fock_min) + 2
                        for e2 in range(lo, hi + 1):
                            fpart = field_mode(M.lat, fock, y, e - e2,
                                               {(osc, lat): Q(1)})
                            mpart = f_field(e2, {(mono, top): Q(1)})
                            for fk, c1 in fpart.items():
                                for fkey, c2 in mpart.items():
                                    want = vec_add(want, {(fk, fkey): c1 * c2},
                                                   cf)
                    got = M._apply_ordered(fock, ffac, y, e, v)
                    assert vec_eq(got, want), (fock, ffac, e, v)

    @pytest.mark.parametrize("fixture", ["module_n2", "module_n2_natural"])
    def test_memo_holds_only_f_chains(self, fixture, request):
        # Fock-only chains are memoized once, by the lattice engine; the
        # realization's own table keeps only chains with an M_f factor
        M = request.getfixturevalue(fixture)
        assert M.commutator_sweep(random.Random(3), 8, 2, 1, 2) == (8, [])
        assert M._term_cache
        for fock, ffac, _y, _e, _fk, _fkey in M._term_cache:
            assert ffac == ("fvir",) or ffac[0] == "cur", (fock, ffac)
        if M.is_standard_top():
            assert M.vacuum_companion().lat is M.lat
