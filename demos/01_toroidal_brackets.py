"""Tour of the toroidal algebra layer: basis symbols, the one-form quotient,
exact brackets with the two-cocycle twist, and the shifted basis.

Run:  python demos/01_toroidal_brackets.py
"""

import random
from fractions import Fraction as Q

from torvoa import (Params, ToroidalElement, bracket, canonicalize_center,
                    from_tilde, random_symbol, simple_algebra, to_tilde)
from torvoa.algebra_core import d_sym, dt_sym, g_sym, jacobi_sweep, k_sym


def show(label, value):
    print(f"  {label:<38} {value}")


def main():
    sl2 = simple_algebra("A1")
    params = Params(N=1, mu=Q(1, 3), nu=Q(1, 5), c=Q(2), g_dot=sl2)
    print("Toroidal algebra over t_0, t_1 with mu = 1/3, nu = 1/5, c = 2")

    print("\nOne-forms modulo exact forms (canonical center):")
    show("k_1 at degree zero", canonicalize_center(params, k_sym(params, 0, (0,), 1)))
    show("t_0 t_1 k_0", canonicalize_center(params, k_sym(params, 1, (1,), 0)))
    show("t_0 k_0 (an exact form)", canonicalize_center(params, k_sym(params, 1, (0,), 0)))

    print("\nBrackets.  The vector-field pairing picks up the cocycle weight")
    print("mu + nu = 8/15 on the surviving one-form direction:")
    a = ToroidalElement.from_symbol(params, d_sym(params, 0, (1,), 1))
    b = ToroidalElement.from_symbol(params, d_sym(params, 0, (-1,), 1))
    show("[t_1 d_1, t_1^-1 d_1]", bracket(a, b))

    a = ToroidalElement.from_symbol(params, g_sym(params, 1, (0,), sl2.index("e")))
    b = ToroidalElement.from_symbol(params, g_sym(params, -1, (0,), sl2.index("f")))
    show("[t_0 e, t_0^-1 f]", bracket(a, b))

    print("\nThe shifted vector fields absorb the cocycle into clean field")
    print("commutators; the change of basis is invertible:")
    el = ToroidalElement.from_symbol(params, dt_sym(params, 0, (0,), 0))
    show("shifted time field, expanded", from_tilde(el))
    rng = random.Random(1)
    sym = random_symbol(params, rng, tags=("d",))
    el = ToroidalElement.from_symbol(params, sym)
    show("round trip is the identity", from_tilde(to_tilde(el)) == el)

    print("\nBoth routes give the same bracket:")
    a = ToroidalElement.from_symbol(params, d_sym(params, 1, (1,), 1))
    b = ToroidalElement.from_symbol(params, d_sym(params, -2, (1,), 0))
    show("plain route", bracket(a, b))
    show("through the shifted basis", from_tilde(bracket(to_tilde(a), to_tilde(b))))

    (count, failures), _anti = jacobi_sweep(params, random.Random(7), 200, 3, 2)
    print(f"\nJacobi identity on {count} seeded random triples: "
          f"{count - len(failures)}/{count}")


if __name__ == "__main__":
    main()
