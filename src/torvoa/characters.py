"""Graded dimension tables of realization modules and the product-formula
character, both exact, with entry-wise comparison.

Depth 0 is anchored at the top (where d_0 takes its maximal eigenvalue) and
a table entry (n, m) is the dimension of the component of depth n and
lattice weight m.  For tops that are free of rank one over the Laurent ring
these dimensions do not depend on m.

The product formula is one series: the depth-n coefficient is the integer
``colored_partition_count(n, colors)`` times the top dimension.
``enumerate_weight_spaces`` is the independent second route, counting
oscillator monomials by explicit generation and induced-module monomials
from the PBW basis.
"""

from __future__ import annotations

from math import comb

from .toroidal_realization import RealizationModule, _index_box
from .virasoro_affine import check_generic, singular_vectors


class ResourceLimitError(RuntimeError):
    pass


MAX_ENUMERATION_DEPTH = 8


def colored_partition_count(n: int, colors: int) -> int:
    """Number of multisets of colored positive parts summing to n: the
    coefficient of t^n in prod_{j >= 1} (1 - t^j)^(-colors)."""
    # table[k][s] = count using parts of size <= k
    table = [1] + [0] * n
    for part in range(1, n + 1):
        new = list(table)
        for s in range(part, n + 1):
            # multisets of colored copies of `part`: stars and bars on colors
            total = 0
            copies = 1
            while part * copies <= s:
                total += comb(colors - 1 + copies, copies) * table[s - part * copies]
                copies += 1
            new[s] += total
        table = new
    return table[n]


class CharTable:
    """Map (depth, lattice weight) -> dimension, up to a fixed depth."""

    def __init__(self, entries, max_depth):
        self.entries = dict(entries)
        self.max_depth = max_depth

    def dim(self, n, m):
        return self.entries[(n, tuple(m))]

    def per_depth(self):
        """Collapse to a depth-indexed list when entries are m-independent."""
        out = []
        for n in range(self.max_depth + 1):
            vals = {v for (nn, _m), v in self.entries.items() if nn == n}
            if len(vals) != 1:
                raise ValueError(f"dimensions at depth {n} depend on the weight")
            out.append(vals.pop())
        return out

    def m_independent(self):
        try:
            self.per_depth()
            return True
        except ValueError:
            return False


def enumerate_weight_spaces(module: RealizationModule,
                            max_depth: int) -> CharTable:
    """Exact dimensions by direct enumeration of oscillator monomials times
    the induced-module monomials times the top dimension, at every lattice
    weight m in {-2, .., 2}^N."""
    if max_depth > MAX_ENUMERATION_DEPTH:
        raise ResourceLimitError(
            f"depth {max_depth} exceeds the enumeration bound {MAX_ENUMERATION_DEPTH}")
    N = module.params.N
    osc_counts = [_count_osc_monomials(N, k) for k in range(max_depth + 1)]
    f_counts = [len(module.fmod.monomials_at(k)) for k in range(max_depth + 1)]
    top = module.fmod.top_dim
    entries = {}
    for n in range(max_depth + 1):
        total = sum(osc_counts[k] * f_counts[n - k] for k in range(n + 1)) * top
        for m in _index_box(N, 2):
            entries[(n, tuple(m))] = total
    return CharTable(entries, max_depth)


def _count_osc_monomials(N, depth):
    """Oscillator monomials of the given depth over 2N generators, counted by
    explicit generation."""
    gens = list(range(2 * N))

    def rec(left, min_part, min_gen):
        if left == 0:
            return 1
        total = 0
        for part in range(min_part, left + 1):
            for g in gens:
                if part == min_part and g < min_gen:
                    continue
                total += rec(left - part, part, g)
        return total

    return rec(depth, 1, 0)


def product_formula_char(module: RealizationModule, max_depth: int,
                         certify: bool = False):
    """Character from the factored form: Laurent-ring top, (2N+1) boson-type
    factors, current-sector factors with their top dimensions, one Virasoro
    factor; every factor at its induced-module character.

    Returns (CharTable, certified, singular_dims); certified is None when
    certification was not requested, else a bool, with singular_dims the
    per-depth dimensions of the singular subspaces found.
    """
    p = module.params
    N = p.N
    gamma = module.gamma0
    check_generic(module.fd, gamma)

    colors = (2 * N + 1) + p.g_dot.dim + (N * N - 1) + 1
    scale = module.V.dim * module.W.dim
    entries = {}
    for n in range(max_depth + 1):
        cf = colored_partition_count(n, colors) * scale
        for m in _index_box(N, 2):
            entries[(n, tuple(m))] = cf
    table = CharTable(entries, max_depth)

    certified = None
    singular_dims = {}
    if certify:
        certified = True
        for depth in range(1, max_depth + 1):
            found = singular_vectors(module.fmod, depth)
            singular_dims[depth] = len(found)
            if found:
                certified = False
    return table, certified, singular_dims


def compare(a: CharTable, b: CharTable):
    """Entry-wise comparison on the shared keys; both tables must reach the
    same depth.  Returns the list of mismatches (key, dim_a, dim_b)."""
    if a.max_depth != b.max_depth:
        raise ValueError("tables truncated at different depths")
    mismatches = []
    for key in sorted(set(a.entries) & set(b.entries)):
        if a.entries[key] != b.entries[key]:
            mismatches.append((key, a.entries[key], b.entries[key]))
    return mismatches
