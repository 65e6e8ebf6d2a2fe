"""Acceptance sweep: the binding exact checks, one test per criterion.

Every comparison is exact rational arithmetic (tolerance zero).  Reference
configuration throughout: the rank-one simple algebra, mu = 1/3, nu = 1/5,
c = 2, fixed seeds.  Each test prints one PASS/FAIL line.

AC-8-certification checks the certification clause of the product-formula
character at these parameters.  Certification asks whether the induced
module M_f has no singular vectors through a depth, i.e. whether the
product-formula character is already the character of its irreducible
quotient L_f.  At the reference parameters it is not, and the test asserts
the exact singular dimensions {1: 1, 2: 0, 3: 7} (translation-reduced
flavor {1: 0, 2: 0, 3: 7}) together with explicit witnesses that span them;
the derivation is in the test's docstring.  As a contrast, certification
must succeed at the non-integer level c = 5/2, where the same derivation
predicts an empty search.
"""

import random
import time
from fractions import Fraction as Q

from torvoa import Params, RealizationModule, singular_vectors
from torvoa.algebra_core import dt_sym, jacobi_sweep
from torvoa.characters import (colored_partition_count, compare,
                               enumerate_weight_spaces, product_formula_char)
from torvoa.lattice_fock import HypLattice, random_triples, voa_sweep
from torvoa.linalg import echelon, vec_add, vec_eq, vec_scale
from torvoa.virasoro_affine import sugawara_sweep, sugawara_test_vectors
from torvoa.toroidal_realization import (_index_box,
                                         field_commutator_window_check,
                                         relation_check, top_action_check,
                                         unit_r)

SEED = 20240608


def _report(cid, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{cid} {mark}{suffix}", flush=True)
    return ok


def test_ac1_jacobi(params_n1, params_n2):
    t0 = time.time()
    rng = random.Random(SEED)
    sweeps = [jacobi_sweep(params, rng, 250, 3, 2)
              for params in (params_n1, params_n2)]
    ok = sweeps == [((250, []), (250, []))] * 2
    assert _report("AC-1", ok, f"2 x 250 triples, {time.time()-t0:.1f}s")


def test_ac2_field_relations(module_n1, module_n2):
    t0 = time.time()
    checked1, failures1 = field_commutator_window_check(
        module_n1, window=3, vectors=module_n1.sample_vectors(1)[:2])
    # the cross terms distinguishing the two cocycle weights need two space
    # directions; cover them on a seeded index sample
    rng = random.Random(SEED)
    box = _index_box(2, 1)
    rm = [(tuple(rng.choice(box)), tuple(rng.choice(box))) for _ in range(4)]
    checked2, failures2 = field_commutator_window_check(
        module_n2, window=3, names=["dt-dt", "dt0-dt", "dt0-dt0"],
        vectors=[module_n2.top_vector()], rm_samples=rm)
    ok = not failures1 and not failures2
    assert _report("AC-2", ok,
                   f"{checked1}+{checked2} mode checks, {time.time()-t0:.1f}s")


def test_ac3_voa_axioms():
    t0 = time.time()
    lat = HypLattice(1)
    rng = random.Random(SEED)
    ok = voa_sweep(lat, random_triples(lat, rng, 50, 3), 3, 2) == (50, [])
    assert _report("AC-3", ok, f"50 triples, {time.time()-t0:.1f}s")


def test_ac4_sugawara(module_n2):
    t0 = time.time()
    fmod = module_n2.fmod
    c_prime, _h = module_n2.sugawara_constants()
    assert c_prime == Q(75, 14)
    rng = random.Random(SEED)
    vecs = sugawara_test_vectors(fmod, rng, 4)
    ok = sugawara_sweep(fmod, c_prime, 2, vecs, 6) == (
        (25 * len(vecs), []), (25 * fmod.fd.dim * 6, []))
    assert _report("AC-4", ok,
                   f"{len(vecs)} vectors, window 2, {time.time()-t0:.1f}s")


def test_ac5_representation_property(module_n2, module_n2_natural):
    t0 = time.time()
    ok = all(module.commutator_sweep(random.Random(SEED), 200, 2, 1, 2)
             == (200, []) for module in (module_n2, module_n2_natural))
    assert _report("AC-5", ok, f"2 x 200 pairs, {time.time()-t0:.1f}s")


def test_ac6_top_action(module_n1, module_n2, module_n2_natural):
    t0 = time.time()
    sweeps = [top_action_check(module, window=2)
              for module in (module_n1, module_n2, module_n2_natural)]
    ok = all(checked and not failures for checked, failures in sweeps)
    total = sum(checked for checked, _failures in sweeps)
    assert _report("AC-6", ok, f"{total} checks, {time.time()-t0:.1f}s")


def test_ac7_gl_current_products(module_n2, params_n2):
    t0 = time.time()
    assert 1 - params_n2.mu * params_n2.c == Q(1, 3)
    assert params_n2.nu * params_n2.c == Q(2, 5)
    checked, failures = relation_check(module_n2, "glcurrent-ope")
    ok = checked == 64 and not failures
    assert _report("AC-7", ok,
                   f"16 index tuples x 4 modes, {time.time()-t0:.1f}s")


def test_ac8_character_identity(module_n1, module_n2):
    t0 = time.time()
    table = enumerate_weight_spaces(module_n1, 3)
    prod, _cert, _dims = product_formula_char(module_n1, 3, certify=False)
    ok = table.per_depth() == [1, 7, 35, 140]
    ok = ok and compare(table, prod) == []
    ok = ok and prod.per_depth() == [1, 7, 35, 140]
    ok = ok and [colored_partition_count(n, 7) for n in range(4)] \
        == [1, 7, 35, 140]
    table2 = enumerate_weight_spaces(module_n2, 1)
    ok = ok and table2.per_depth() == [1, 12]
    assert _report("AC-8-char", ok,
                   f"depths 0..3 = 1,7,35,140; N=2 depth 1 = 12, "
                   f"{time.time()-t0:.1f}s")


def _rank(vectors):
    keys = sorted({k for v in vectors for k in v}, key=repr)
    return len(echelon([[v.get(k, Q(0)) for k in keys] for v in vectors]))


def test_ac8_singular_certification(module_n1):
    """Certification at the reference parameters reports exactly the null
    vectors of the induced module M_f, and succeeds where there are none.

    sugawara_constants gives c' = 13/2, h' = 0 for the flat top.  Off the
    critical levels M_f splits as the Virasoro Verma module M(13/2, 0)
    (x) the sl_2 Weyl module at level c = 2 (x) a Heisenberg Fock space at
    c_hei = -1/15 != 0, and its singular space is the tensor product of the
    factors' singular spaces:

    - Virasoro: 1 < c' < 25, so t + 1/t = 13/12 with |t| = 1, t not real,
      and h_{r,s} = 0 forces r = s = 1.  The only singular vector is
      L(-1) applied to the top, at depth 1; the translation-reduced flavor
      removes it.
    - sl_2 at level 2: the maximal submodule is generated by e(-1)^3
      applied to the top; its depth-3 part is the spin-3 g(0)-module
      spanned by f(0)^k e(-1)^3 applied to the top, k = 0..6.
    - Heisenberg at a nonzero level: only the top.

    Hence {1: 1, 2: 0, 3: 7}, and {1: 0, 2: 0, 3: 7} translation-reduced.
    The witnesses are checked against raising modes of degree 1, 2 and 3;
    the search itself uses degrees 1 and 2 only.  At the non-integer level
    c = 5/2 with d = 1/2 (h_Vir = 1/6) no Virasoro Kac determinant factor
    vanishes through depth 3, and the Kac-Kazhdan condition for the sl_2
    sector, n (c + 2) -+ 1 = m, first holds at depth m n = 16, so the same
    call must certify."""
    problems = []
    fmod = module_n1.fmod
    fd = fmod.fd
    sl2 = module_n1.params.g_dot

    c_prime, h_prime = module_n1.sugawara_constants()
    if (c_prime, h_prime) != (Q(13, 2), Q(0)):
        problems.append(f"(c', h') = ({c_prime}, {h_prime})")

    _t, certified, dims = product_formula_char(module_n1, 3, certify=True)
    vac = module_n1.vacuum_companion()
    _t, vac_certified, vac_dims = product_formula_char(vac, 3, certify=True)
    if certified is not False or dims != {1: 1, 2: 0, 3: 7}:
        problems.append(f"induced factor {certified} {dims}")
    if vac_certified is not False or vac_dims != {1: 0, 2: 0, 3: 7}:
        problems.append(f"translation-reduced {vac_certified} {vac_dims}")

    top = fmod.top_vector()
    translation = fmod.act(("L", -1), top)
    depth1 = singular_vectors(fmod, 1)
    if len(depth1) != 1 or _rank(depth1 + [translation]) != 1:
        problems.append("depth 1 is not spanned by L(-1) top")

    e, f, h = (fd.g_index(sl2.index(x)) for x in ("e", "f", "h"))
    w = top
    for _ in range(3):
        w = fmod.act(("f", e, -1), w)
    witnesses = [w]
    for _ in range(6):
        witnesses.append(fmod.act(("f", f, 0), witnesses[-1]))
    # nonzero with distinct h(0) weights 6 - 2k, hence independent
    for k, w in enumerate(witnesses):
        if not w or not vec_eq(fmod.act(("f", h, 0), w),
                                 vec_scale(w, 6 - 2 * k)):
            problems.append(f"f(0)^{k} e(-1)^3 top is not a nonzero vector "
                            f"of h(0) weight {6 - 2 * k}")
    raising = [("L", n) for n in (1, 2, 3)]
    raising += [("f", i, n) for i in range(fd.dim) for n in (1, 2, 3)]
    for mod in (fmod, vac.fmod):
        for k, w in enumerate(witnesses):
            alive = [sym for sym in raising if mod.act(sym, w)]
            if alive:
                problems.append(f"{alive} do not kill f(0)^{k} e(-1)^3 top")
        found = singular_vectors(mod, 3)
        if len(found) != 7 or _rank(found + witnesses) != 7:
            problems.append("witnesses do not span the depth-3 search")

    generic = RealizationModule(
        Params(N=1, mu=Q(1, 3), nu=Q(1, 5), c=Q(5, 2), g_dot=sl2), d=Q(1, 2))
    gc, gh = generic.sugawara_constants()
    # Kac determinant factors through level 3: h, (h - h_12)(h - h_21),
    # (h - h_13)(h - h_31), each up to a nonzero constant
    kac = [gh, 16 * gh ** 2 + 2 * (gc - 5) * gh + gc,
           3 * gh ** 2 + (gc - 7) * gh + 2 + gc]
    _t, g_certified, g_dims = product_formula_char(generic, 3, certify=True)
    if generic.h_vir == 0 or 0 in kac \
            or g_certified is not True or g_dims != {1: 0, 2: 0, 3: 0}:
        problems.append(f"c = 5/2: h_Vir = {generic.h_vir}, Kac factors "
                        f"{kac}, certified {g_certified} {g_dims}")

    ok = not problems
    _report("AC-8-certification", ok,
            f"induced factor {dims}, translation-reduced {vac_dims}, "
            f"c = 5/2 certified {g_dims}")
    assert ok, "; ".join(problems)


def test_ac9_virasoro_rank(module_n1, module_n2):
    t0 = time.time()
    ok = True
    for module in (module_n1, module_n2):
        p = module.params
        zr = p.zero_r()
        rank = 12 * (p.mu + p.nu) * p.c
        for m in (zr, unit_r(p.N, 1)):
            v = module.top_vector(m)
            lhs = vec_add(
                module.g_act_symbol(dt_sym(p, 2, zr, 0),
                                    module.g_act_symbol(dt_sym(p, -2, zr, 0), v)),
                module.g_act_symbol(dt_sym(p, -2, zr, 0),
                                    module.g_act_symbol(dt_sym(p, 2, zr, 0), v)),
                Q(-1))
            lhs = vec_add(lhs, module.g_act_symbol(dt_sym(p, 0, zr, 0), v), Q(-4))
            if not vec_eq(lhs, vec_scale(v, rank / 2)):
                ok = False
        rng = random.Random(SEED)
        ex = ("exp", module._exp_vec(zr))
        for _ in range(5):
            v = module.random_vector(rng, 2)
            for j in range(-2, 3):
                got = module.g_act_symbol(dt_sym(p, j, zr, 0), v)
                hyp = {}
                for q in range(p.N):
                    hyp = vec_add(hyp, module._apply_ordered(
                        (("osc", q, 0), ("osc", p.N + q, 0), ex), -j - 2, v))
                fv = module._apply_ordered((("fvir",), ex), -j - 2, v)
                if not vec_eq(got, vec_add(hyp, fv)):
                    ok = False
    assert _report("AC-9", ok, f"rank 64/5 exact, {time.time()-t0:.1f}s")


def test_ac10_weight_independence(module_n1, module_n2, module_n2_natural):
    t0 = time.time()
    ok = True
    for module, depth in ((module_n1, 3), (module_n2, 2),
                          (module_n2_natural, 2)):
        table = enumerate_weight_spaces(module, depth)
        for n in range(depth + 1):
            dims = {v for (nn, _m), v in table.entries.items() if nn == n}
            if len(dims) != 1:
                ok = False
        # tie the tables to measured weights on basis vectors
        for m in _index_box(module.params.N, 2)[:5]:
            w = module.weight_of(module.top_vector(tuple(m)))
            if w[0] != module.d:
                ok = False
            for pidx in range(module.params.N):
                if w[1 + pidx] != module.alpha[pidx] + m[pidx]:
                    ok = False
    assert _report("AC-10", ok, f"weights |m| <= 2, {time.time()-t0:.1f}s")
