"""Tour of the realization: generators acting on the tensor of the lattice
coset module and the induced twisted Virasoro-current module.

Run:  python demos/03_realization_walkthrough.py
"""

import random
from fractions import Fraction as Q

from torvoa import Params, RealizationModule, simple_algebra
from torvoa.algebra_core import d_sym, dt_sym, k_sym
from torvoa.linalg import vec_add
from torvoa.toroidal_realization import relation_check, top_action_check


def show(label, value):
    print(f"  {label:<44} {value}")


def main():
    sl2 = simple_algebra("A1")
    params = Params(N=1, mu=Q(1, 3), nu=Q(1, 5), c=Q(2), g_dot=sl2)
    module = RealizationModule(params)
    print("Realization with the distinguished one-dimensional top:")
    show("identity scalar h", module.h)
    show("top eigenvalue d", module.d)
    show("central character", module.gamma0.as_dict())

    top = module.top_vector()
    print("\nDegree-zero top action:")
    show("(t^1 k_0) shifts and scales by c", module.g_act_symbol(
        k_sym(params, 0, (1,), 0), top))
    show("(d_0) reads d", module.g_act_symbol(d_sym(params, 0, (0,), 0), top))
    show("weights of the top", module.weight_of(top))
    show("weights after u_1(-1)", module.weight_of(module.osc_vector([(0, -1)])))

    print("\nThe time Virasoro field splits into the two tensor factors;")
    print("its bracket carries the rank 12 (mu + nu) c = 64/5:")
    zr = params.zero_r()
    v = module.top_vector()
    L2 = dt_sym(params, 2, zr, 0)
    Lm2 = dt_sym(params, -2, zr, 0)
    lhs = vec_add(module.g_act_symbol(L2, module.g_act_symbol(Lm2, v)),
                  module.g_act_symbol(Lm2, module.g_act_symbol(L2, v)), -1)
    show("[L(2), L(-2)] on the top", lhs)

    print("\nSeeded commutator sweep (the representation property):")
    checked, failures = module.commutator_sweep(random.Random(11), 60, 2, 1, 2)
    print(f"  [a, b] v = a(b v) - b(a v): {checked - len(failures)}/{checked}")

    print("\nStructured sweeps:")
    checked, failures = top_action_check(module, window=2)
    print(f"  top-action formulas: {checked - len(failures)}/{checked}")
    for rid in ("current-pairing", "osc-pairing", "glcurrent-ope",
                "vir-lowering", "vir-depth2"):
        checked, failures = relation_check(module, rid)
        print(f"  {rid}: {checked - len(failures)}/{checked}")


if __name__ == "__main__":
    main()
