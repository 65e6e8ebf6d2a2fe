"""The four workloads: their run files, seeded inputs, sweeps and checks.

A workload is driven in three steps.  ``inputs(seed)`` returns plain data.
``prepare(tv, modules, inputs)`` turns it into torvoa objects once the
package ``tv`` is imported and the modules are built; it runs outside the
timed sweeps.  ``sweep(tv, modules, prepared, out)`` calls the public API
through ``out.attempt``, which records one ``(label, result)`` per
operation; a result is ``FAILED`` when the operation raised.
``check(results)`` compares the results with values derived in ``oracles``
and returns a list of problems.

Cost per generator pair, triple or monomial is heavy-tailed: among 300
random commutator checks the costliest 3% took 43% of the time.  A seed
that drew its own pairs would move ``cold_s`` by tens of percent, so the
expensive items come from a fixed pool (drawn once from ``POOL_SEED``) and
the run seed orders them and draws the cheap closed-form samples.  With
memo tables the work of a sweep does not depend on its order.
"""

from __future__ import annotations

import random
import sys
import traceback
from fractions import Fraction

import oracles

Q = Fraction
POOL_SEED = 20240608
FAILED = "failed"


def run_file(N, command, seed, module_lines=(), **task):
    """Text of a run file at the reference parameters."""
    lines = ["[algebra]", f"N = {N}", 'g = "A1"', f"mu = {oracles.MU}",
             f"nu = {oracles.NU}", f"c = {oracles.C}", "", "[module]"]
    lines += list(module_lines)
    lines += ["", "[task]", f'command = "{command}"', f"seed = {seed}"]
    lines += [f"{key} = {str(val).lower()}" for key, val in task.items()]
    return "\n".join(lines) + "\n"


def vsub(a, b):
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, 0) - val
    return {k: v for k, v in out.items() if v}


def vcomb(*terms):
    """sum of scale * vector over (scale, vector) terms."""
    out = {}
    for scale, vec in terms:
        for key, val in vec.items():
            out[key] = out.get(key, 0) + scale * val
    return {k: v for k, v in out.items() if v}


class Ops:
    """The ``(label, result)`` of each operation of a sweep, in order."""

    def __init__(self):
        self.results = []

    def attempt(self, label, op):
        """Run one operation; an exception marks it failed and is reported
        on standard error."""
        try:
            res = op()
        except Exception:  # one failing identity must not stop the sweep
            traceback.print_exc(file=sys.stderr)
            res = FAILED
        self.results.append((label, res))


def _shuffled(seed, items):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# realization: [a, b] v = a (b v) - b (a v) on two tops, plus the top actions
# ---------------------------------------------------------------------------

class Realization:
    name = "realization"
    TOPS = (("alpha = [0, 0]",),
            ("alpha = [1/2, 0]", 'V = "natural"', 'W = "natural"', "d = 0"))
    PAIRS_PER_TOP = 32
    CLOSED_FORMS = 16
    WARM_REPEATS = 3

    def run_files(self, seed):
        return [run_file(2, "verify-realization", seed, top)
                for top in self.TOPS]

    def inputs(self, seed):
        rng = random.Random(seed)
        box = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        closed = [(rng.choice(box), rng.choice(box), rng.randint(0, 2))
                  for _ in range(self.CLOSED_FORMS)]
        return {"orders": [_shuffled(seed + t, range(self.PAIRS_PER_TOP))
                           for t in range(len(self.TOPS))],
                "closed": closed}

    def prepare(self, tv, modules, inputs):
        pools = []
        for t, module in enumerate(modules):
            rng = random.Random(POOL_SEED + t)
            pool = []
            for _ in range(self.PAIRS_PER_TOP):
                a = tv.random_symbol(module.params, rng, jmax=2, rmax=1,
                                     tags=("g", "k", "d", "dt"))
                b = tv.random_symbol(module.params, rng, jmax=2, rmax=1,
                                     tags=("g", "k", "d", "dt"))
                pool.append((a, b, module.random_vector(rng, max_depth=2)))
            pools.append([pool[i] for i in inputs["orders"][t]])
        return {"pools": pools, "closed": inputs["closed"]}

    def sweep(self, tv, modules, prepared, out):
        ac, tr = tv.algebra_core, tv.toroidal_realization
        for t, module in enumerate(modules):
            p = module.params
            for k, (a, b, v) in enumerate(prepared["pools"][t]):
                def op():
                    br = module.g_act(ac.bracket_symbols(p, a, b), v)
                    ab = module.g_act(a, module.g_act(b, v))
                    ba = module.g_act(b, module.g_act(a, v))
                    return br, ab, ba
                out.attempt(("pair", t, k), op)
            out.attempt(("top-action", t), lambda: tr.top_action_check(
                module, window=1, m_window=0))
        module = modules[0]
        p = module.params
        for r, m, which in prepared["closed"]:
            sym = (ac.k_sym(p, 0, r, 0) if which == 0
                   else ac.d_sym(p, 0, r, which))
            out.attempt(("closed", r, m, which), lambda: (
                module.g_act(sym, module.top_vector(m)),
                module.top_vector(tuple(x + y for x, y in zip(m, r)))))

    def check(self, results):
        problems = []
        for label, res in results:
            if res == FAILED:
                continue
            if label[0] == "pair":
                br, ab, ba = res
                if vsub(br, vsub(ab, ba)):
                    problems.append(f"{label}: [a, b] v != a(bv) - b(av)")
            elif label[0] == "top-action":
                checked, failures = res
                if failures or not checked:
                    problems.append(f"{label}: {len(failures)} of {checked}")
            else:
                _, r, m, which = label
                got, shifted = res
                # t^r k_0 q^m = c q^{m+r}
                # t^r d_p q^m = (m_p + nu c r_p) q^{m+r}
                cf = oracles.C if which == 0 else \
                    m[which - 1] + oracles.NU * oracles.C * r[which - 1]
                if vsub(got, vcomb((cf, shifted))):
                    problems.append(f"{label}: shift rule")
        return problems


# ---------------------------------------------------------------------------
# sugawara: Virasoro relations of the corrected field, commutation with
# every current, top weight, central charge
# ---------------------------------------------------------------------------

class Sugawara:
    name = "sugawara"
    WINDOW = 2
    DEPTH2, DEPTH3 = 1, 1
    COMMUTE_VECTORS = 4
    WARM_REPEATS = 1

    def run_files(self, seed):
        return [run_file(2, "verify-sugawara", seed, ("alpha = [0, 0]",),
                         window=self.WINDOW)]

    def inputs(self, seed):
        return {"seed": seed}

    def prepare(self, tv, modules, inputs):
        fmod = modules[0].fmod
        rng = random.Random(POOL_SEED)
        top = fmod.tops[0]
        vecs = [fmod.top_vector()]
        vecs += [{(mono, top): Q(1)} for mono in fmod.monomials_at(1)]
        for depth, count in ((2, self.DEPTH2), (3, self.DEPTH3)):
            vecs += [{(mono, top): Q(1)}
                     for mono in rng.sample(fmod.monomials_at(depth), count)]
        # the commutation checks keep the top and the first depth-1 vectors
        return {"relations": _shuffled(inputs["seed"], vecs),
                "commute": vecs[:self.COMMUTE_VECTORS]}

    def sweep(self, tv, modules, vecs, out):
        va, fl = tv.virasoro_affine, tv.finite_lie_data
        module = modules[0]
        fmod = module.fmod
        w = range(-self.WINDOW, self.WINDOW + 1)

        def L(n, v):
            return va.sugawara_mode(fmod, n, v)

        def constants():
            omega_v = fl.casimir_eigenvalue(module.params.g_dot, module.V)
            omega_w = fl.casimir_eigenvalue(module.fd.sl, module.W.sl_module())
            return va.sugawara_constants(module.fd, module.gamma0, omega_v,
                                         omega_w, module.h_hei, module.h_vir)
        out.attempt(("constants",), constants)
        for n in w:
            for m in w:
                for k, v in enumerate(vecs["relations"]):
                    out.attempt(("virasoro", n, m, k), lambda: (
                        vsub(L(n, L(m, v)), L(m, L(n, v))),
                        L(n + m, v) if n != m else {}, v))
        for idx in range(module.fd.dim):
            for n in w:
                for m in w:
                    for k, v in enumerate(vecs["commute"]):
                        out.attempt(("commute", idx, n, m, k), lambda: (
                            L(n, fmod.act(("f", idx, m), v)),
                            fmod.act(("f", idx, m), L(n, v))))
        top = vecs["commute"][0]
        out.attempt(("weight",), lambda: (L(0, top), top))

    def check(self, results, c_prime=None):
        c_prime = oracles.sugawara_c_prime(2) if c_prime is None else c_prime
        h_prime = oracles.H_PRIME_STANDARD_TOP
        problems = []
        for label, res in results:
            if res == FAILED:
                continue
            if label[0] == "constants":
                if res != (c_prime, h_prime):
                    problems.append(f"(c', h') = {res}, want "
                                    f"({c_prime}, {h_prime})")
            elif label[0] == "virasoro":
                _, n, m, _k = label
                comm, lnm, v = res
                want = vcomb((n - m, lnm), (Q(n ** 3 - n, 12) * c_prime
                                            if n == -m else 0, v))
                if vsub(comm, want):
                    problems.append(f"{label}: Virasoro relation")
            elif label[0] == "commute":
                if vsub(*res):
                    problems.append(f"{label}: [L(n), x(m)] != 0")
            else:
                got, top = res
                if vsub(got, vcomb((h_prime, top))):
                    problems.append("L'(0) top != h' top")
        return problems


# ---------------------------------------------------------------------------
# singular: certified character at N = 1 and the translation-reduced search
# ---------------------------------------------------------------------------

class Singular:
    name = "singular"
    DEPTH = 4
    WARM_REPEATS = 1

    def run_files(self, seed):
        return [run_file(1, "char", seed, ("alpha = [0]",), depth=self.DEPTH,
                         certify=True)]

    def inputs(self, seed):
        return {"order": _shuffled(seed, range(1, self.DEPTH + 1))}

    def prepare(self, tv, modules, inputs):
        return inputs["order"]

    def sweep(self, tv, modules, order, out):
        ch, va = tv.characters, tv.virasoro_affine
        module = modules[0]
        out.attempt(("enumerated",), lambda: ch.enumerate_weight_spaces(
            module, self.DEPTH).per_depth())

        def certified():
            table, cert, dims = ch.product_formula_char(module, self.DEPTH,
                                                        certify=True)
            return table.per_depth(), cert, dims
        out.attempt(("product",), certified)
        reduced = module.vacuum_companion()
        for depth in order:
            out.attempt(("reduced", depth),
                        lambda: va.singular_vectors(reduced.fmod, depth))

    def check(self, results):
        chars = [oracles.colored_partitions(n, oracles.character_colors(1))
                 for n in range(self.DEPTH + 1)]
        full = oracles.singular_dims_n1(self.DEPTH)
        reduced = oracles.singular_dims_n1(self.DEPTH, reduced=True)
        problems = []
        got_reduced = {}
        for label, res in results:
            if res == FAILED:
                continue
            if label[0] == "enumerated" and res != chars:
                problems.append(f"enumerated character {res} != {chars}")
            elif label[0] == "product":
                table, cert, dims = res
                if table != chars:
                    problems.append(f"product character {table} != {chars}")
                if cert is not False or dims != full:
                    problems.append(f"certified {cert} {dims}, want False "
                                    f"{full}")
            elif label[0] == "reduced":
                got_reduced[label[1]] = len(res)
        if got_reduced and got_reduced != {d: reduced[d] for d in got_reduced}:
            problems.append(f"reduced dimensions {got_reduced} != {reduced}")
        return problems


# ---------------------------------------------------------------------------
# voa: vertex-algebra axioms on lattice states, closed-form products
# ---------------------------------------------------------------------------

class Voa:
    name = "voa"
    TRIPLES = 12
    WINDOW = 2
    PRODUCTS = 12
    WARM_REPEATS = 3

    def run_files(self, seed):
        return [run_file(1, "verify-voa", seed, ("alpha = [0]",),
                         window=self.WINDOW)]

    def inputs(self, seed):
        rng = random.Random(seed)
        box = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        return {"order": _shuffled(seed, range(self.TRIPLES)),
                "products": [(rng.choice(box), rng.choice(box))
                             for _ in range(self.PRODUCTS)]}

    def prepare(self, tv, modules, inputs):
        lf = tv.lattice_fock
        rng = random.Random(POOL_SEED)
        zero = (Q(0), Q(0))

        def state():
            # a random N = 1 state of degree <= 3 at a point of Z u, as in
            # the acceptance sweep
            left = rng.randint(0, 3)
            osc = ()
            while left:
                s = rng.randint(1, left)
                osc = lf._insert_osc(osc, rng.randrange(2), -s)
                left -= s
            return {(osc, (Q(rng.randint(-1, 1)), Q(0))): Q(1)}
        triples = [(state(), state(), state()) for _ in range(self.TRIPLES)]
        return {"triples": [triples[i] for i in inputs["order"]],
                "products": inputs["products"],
                "u1": {(((0, -1),), zero): Q(1)},
                "v1": {(((1, -1),), zero): Q(1)}}

    def sweep(self, tv, modules, prepared, out):
        lf = tv.lattice_fock
        lat = modules[0].lat
        for k, (a, b, c) in enumerate(prepared["triples"]):
            out.attempt(("axioms", k), lambda: lf.voa_axiom_check(
                lat, a, b, c, window=self.WINDOW,
                borcherds_window=self.WINDOW))
        for x, y in prepared["products"]:
            ex = lf.vacuum_vector(lat, m=x[:1], beta=x[1:])
            ey = lf.vacuum_vector(lat, m=y[:1], beta=y[1:])
            exy = lf.vacuum_vector(lat, m=(x[0] + y[0],), beta=(x[1] + y[1],))
            top = -oracles.form(1, x, y) - 1
            out.attempt(("product", x, y), lambda: (
                [lf.state_mode(lat, ex, n, ey)
                 for n in (top, top + 1, top + 2)],
                exy))
        u, v = lat.gen(0), lat.gen(1)
        out.attempt(("epsilon",),
                    lambda: (lat.epsilon(u, v), lat.epsilon(v, u)))
        out.attempt(("pairing",), lambda: (
            lf.state_mode(lat, prepared["u1"], 1, prepared["v1"]),
            lf.vacuum_vector(lat)))

    def check(self, results):
        problems = []
        for label, res in results:
            if res == FAILED:
                continue
            if label[0] == "axioms":
                if res:
                    problems.append(f"{label}: {res[:3]}")
            elif label[0] == "product":
                _, x, y = label
                (first, *zeros), exy = res
                # e^x_(-(x|y)-1) e^y = eps(x, y) e^{x+y}, higher modes vanish
                eps = oracles.epsilon(1, x, y)
                if vsub(first, vcomb((eps, exy))) or any(zeros):
                    problems.append(f"{label}: e^x_(n) e^y")
            elif label[0] == "epsilon":
                want = (oracles.epsilon(1, (1, 0), (0, 1)),
                        oracles.epsilon(1, (0, 1), (1, 0)))
                if res != want or want != (1, -1):
                    problems.append(f"epsilon(u, v), epsilon(v, u) = {res}")
            else:
                got, vac = res
                if vsub(got, vcomb((oracles.form(1, (1, 0), (0, 1)), vac))):
                    problems.append("u_(1) v(-1) 1 != (u|v) 1")
        return problems


WORKLOADS = {w.name: w for w in (Realization(), Sugawara(), Singular(), Voa())}
