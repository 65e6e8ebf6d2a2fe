"""Expected values for the benchmark checks, derived here from closed forms.

Nothing in this file imports torvoa: every value is computed from the
paper's formulas or from textbook representation theory, so a fault in the
program cannot leak into the value it is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Q = Fraction

# the reference parameters of every workload
MU, NU, C = Q(1, 3), Q(1, 5), Q(2)
# sl_2: dimension and dual Coxeter number
DIM_G, H_VEE = 3, 2


def central_character(N, mu=MU, nu=NU, c=C):
    """Central character of the standard bounded realization."""
    return {
        "c_g": c,
        "c_sl": 1 - mu * c,
        "c_hei": N * (1 - mu * c) - N * N * nu * c,
        "c_vh": N * (Q(1, 2) - nu * c),
        "c_vir": 12 * c * (mu + nu) - 2 * N,
    }


def sugawara_c_prime(N, mu=MU, nu=NU, c=C):
    """Central charge of the corrected Virasoro field:
    c_vir - c_g dim g / (c_g + h_vee) - 1 + 12 c_vh^2 / c_hei
    - c_sl (N^2 - 1) / (c_sl + N)."""
    g = central_character(N, mu, nu, c)
    out = (g["c_vir"] - g["c_g"] * DIM_G / (g["c_g"] + H_VEE) - 1
           + 12 * g["c_vh"] ** 2 / g["c_hei"])
    if N >= 2:
        out -= g["c_sl"] * (N * N - 1) / (g["c_sl"] + N)
    return out


# top weight h' of the corrected field on the standard top: the top has
# h_hei = h_vir = 0 and trivial V, W, so every term of h' vanishes
H_PRIME_STANDARD_TOP = Q(0)


def colored_partitions(n, colors):
    """Partitions of n into parts that each carry one of ``colors`` colors,
    counted as coin change over the (size, color) part types."""
    ways = [1] + [0] * n
    for size in range(1, n + 1):
        for _color in range(colors):
            for s in range(size, n + 1):
                ways[s] += ways[s - size]
    return ways[n]


def character_colors(N):
    """Free generators of M_Hyp (x) M_f per depth: 2N lattice oscillators,
    one Virasoro mode, and dim g + N^2 currents of g + gl_N."""
    return 2 * N + 1 + DIM_G + N * N


def _rational_sqrt(x):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Q(rn, rd)
    return None


def kac_vanishing_levels(c, h, max_level):
    """Levels rs <= max_level at which the Kac determinant of the Virasoro
    Verma module M(c, h) vanishes, from 48 h_{r,s}(c) =
    (13 - c)(r^2 + s^2) + sqrt((c - 1)(c - 25))(r^2 - s^2) - 24 rs - 2 + 2c.

    Only the case where (c - 1)(c - 25) is not a rational square is handled:
    then h_{r,s} is rational only for r = s, every vanishing factor is
    simple, and each gives one singular vector.
    """
    if _rational_sqrt((c - 1) * (c - 25)) is not None:
        raise NotImplementedError("degenerate central charge")
    levels = []
    r = 1
    while r * r <= max_level:
        if ((13 - c) * 2 * r * r - 24 * r * r - 2 + 2 * c) / 48 == h:
            levels.append(r * r)
        r += 1
    return levels


def virasoro_singular(c, h, max_level, reduced=False):
    """Singular-vector dimensions per level of M(c, h); ``reduced`` is the
    quotient by the level-1 singular vector at h = 0 (the vacuum module),
    which is irreducible when the Kac determinant has no further zero."""
    out = {0: 1}
    for level in kac_vanishing_levels(c, h, max_level):
        if reduced and level == 1 and h == 0:
            continue
        out[level] = out.get(level, 0) + 1
    if reduced and len(out) > 1:
        raise NotImplementedError("vacuum quotient with further zeros")
    return out


def affine_sl2_vacuum_singular(k, max_level):
    """Singular-vector dimensions per level of the sl_2 vacuum Weyl module at
    level k.  For k a nonnegative integer the maximal submodule is generated
    by e(-1)^{k+1} on the top: a spin-(k+1) multiplet of dimension 2k + 3 at
    level k + 1.  The next affine Weyl reflection sits at level 3k + 5."""
    if Q(k).denominator != 1 or k < 0:
        return {0: 1}
    k = int(k)
    if max_level >= 3 * k + 5:
        raise NotImplementedError("depth reaches the next reflection")
    out = {0: 1}
    if k + 1 <= max_level:
        out[k + 1] = 2 * k + 3
    return out


def convolve(*factors):
    """Singular dimensions of a tensor product of modules of commuting
    algebras: the singular space is the product of the factors' ones."""
    out = {0: 1}
    for fac in factors:
        nxt = {}
        for a, da in out.items():
            for b, db in fac.items():
                nxt[a + b] = nxt.get(a + b, 0) + da * db
        out = nxt
    return out


def singular_dims_n1(max_depth, reduced=False):
    """Singular dimensions of M_f at N = 1 on the standard top, depths
    1..max_depth.  Off the critical levels M_f is M(c', 0) (x) the sl_2 Weyl
    module at level c (x) a Heisenberg Fock space (irreducible, nonzero
    level)."""
    vir = virasoro_singular(sugawara_c_prime(1), Q(0), max_depth, reduced)
    sl2 = affine_sl2_vacuum_singular(C, max_depth)
    full = convolve(vir, sl2)
    return {d: full.get(d, 0) for d in range(1, max_depth + 1)}


def epsilon(N, x, y):
    """Sign cocycle: epsilon(v_i, u_j) = (-1)^delta_ij, bimultiplicative, so
    epsilon(x, y) = (-1)^(sum_p x_{v_p} y_{u_p})."""
    return -1 if sum(x[N + p] * y[p] for p in range(N)) % 2 else 1


def form(N, x, y):
    """(u_i|v_j) = delta_ij, (u|u) = (v|v) = 0."""
    return sum(x[p] * y[N + p] + x[N + p] * y[p] for p in range(N))
