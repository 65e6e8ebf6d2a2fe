"""Tour of the lattice Fock layer: oscillators, exponential vertex operators,
the lattice Virasoro field, and the exact axiom checks.

Run:  python demos/02_fock_fields.py
"""

import random
from fractions import Fraction as Q

from torvoa import (HypLattice, exp_vertex_mode, heis_act, hyp_virasoro_mode,
                    vacuum_vector)
from torvoa.lattice_fock import random_triples, voa_sweep


def show(label, value):
    print(f"  {label:<42} {value}")


def main():
    lat = HypLattice(1)
    alpha = (Q(2, 5),)
    point = vacuum_vector(lat, alpha)
    print("Rank-2 hyperbolic lattice, coset point e^{(2/5) u}")

    print("\nOscillators:")
    show("u_1(3) annihilates the point", heis_act(lat, 0, 3, point))
    show("v_1(0) reads the pairing 2/5", heis_act(lat, 1, 0, point))
    lowered = heis_act(lat, 1, -1, point)
    show("u_1(1) contracts v_1(-1)", heis_act(lat, 0, 1, lowered))

    print("\nExponential vertex operator along u_1:")
    for e in (0, 1, 2, -1):
        show(f"coefficient of z^{e}", exp_vertex_mode(lat, (1, 0), e, point))

    print("\nThe lattice Virasoro field grades by oscillator depth:")
    show("zero mode on the point", hyp_virasoro_mode(lat, 0, point))
    show("zero mode on u_1(-1) point", hyp_virasoro_mode(lat, 0, lowered and heis_act(lat, 0, -1, point)))

    print("\nExact axiom sweep (commutator formula, iterated products,")
    print("skew-symmetry) on seeded degree <= 2 triples:")
    checked, failures = voa_sweep(
        lat, random_triples(lat, random.Random(4), 8, 2), 2, 2)
    print(f"  failures: {len(failures)}/{checked}")


if __name__ == "__main__":
    main()
