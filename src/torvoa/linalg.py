"""Exact linear algebra over rationals: sparse vectors {key: Fraction}
without zero entries, and row echelon, nullspace and inverse of dense
matrices, which are lists of lists of Fraction.  The matrix routines are
deliberately simple; matrices at desk scale stay in the hundreds of rows.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def merge(out, key, cf):
    """Add ``cf`` at ``key`` of the sparse vector ``out`` in place; entries
    that cancel are removed."""
    if cf:
        v = out.get(key, Q(0)) + cf
        if v:
            out[key] = v
        else:
            del out[key]


def vec_add(a, b, scale=Q(1)):
    """The sparse vector a + scale * b."""
    out = dict(a)
    for k, v in b.items():
        merge(out, k, scale * v)
    return out


def vec_scale(a, s):
    s = Q(s)
    return {k: s * v for k, v in a.items()} if s else {}


def vec_eq(a, b):
    return vec_add(a, b, Q(-1)) == {}


def rref(rows):
    """Reduce ``rows`` in place to reduced row echelon form.

    Returns the list of pivot column indices.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Q(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix given by ``rows``.

    Rows may be sparse dicts {col: value} or dense lists.  Returns a list of
    dense Fraction vectors of length ``ncols``.
    """
    dense = []
    for r in rows:
        if isinstance(r, dict):
            v = [Q(0)] * ncols
            for c, x in r.items():
                v[c] = Q(x)
            dense.append(v)
        else:
            dense.append([Q(x) for x in r])
    pivots = rref(dense)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        vec = [Q(0)] * ncols
        vec[fcol] = Q(1)
        for i, pcol in enumerate(pivots):
            vec[pcol] = -dense[i][fcol]
        basis.append(vec)
    return basis


def invert(mat):
    """Exact inverse of a square Fraction matrix."""
    n = len(mat)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(mat)]
    pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]


def det(mat):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(mat)
    m = [[Q(x) for x in row] for row in mat]
    result = Q(1)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Q(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        result *= m[col][col]
        inv = Q(1) / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return result
