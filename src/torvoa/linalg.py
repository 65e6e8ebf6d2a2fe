"""Exact linear algebra over rationals: sparse vectors {key: Fraction},
their int form (den, {key: numerator}), one sparse reduced row echelon
kernel (``echelon``) on which the rank, ``nullspace`` and ``invert`` are
built, and the one check counter (``tally``).

A sparse vector stores no zero.  ``merge`` and ``add_into`` are the only
code that adds into one, so every layer's sums keep that rule: an entry
that cancels is deleted.  The int form's arithmetic lives here alone:
``combine`` sums int forms over the lcm of their denominators, ``reduced``
divides one by its gcd, and ``add_over`` is ``combine``'s in-place step;
``to_ints`` and ``to_fractions`` convert, and ``cross`` puts two int forms
over each other's denominators for ``tally``.

The kernel eliminates fraction-free: each incoming row is converted once
to ints, and every pivot row is kept primitive (its entries have gcd 1)
with a positive entry at its pivot column.  ``Fraction``s are built only
where ``echelon`` returns the reduced rows.  The matrices of the
singular-vector search are a few percent dense, so the kernel keeps its
rows as sparse dicts and never touches a zero entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = Fraction


def merge(out, key, cf):
    """Add ``cf`` at ``key`` of the sparse vector ``out`` in place; a zero
    ``cf`` is skipped and an entry that cancels is removed."""
    if cf:
        v = out.get(key)
        if v is None:
            out[key] = cf
        else:
            v += cf
            if v:
                out[key] = v
            else:
                del out[key]


def add_into(out, vec, scale=1):
    """out += scale * vec in place; returns ``out``.  ``vec`` must not be
    ``out``.  Each entry is added as ``merge`` adds it, written out in the
    loop rather than called."""
    get = out.get
    if scale == 1:
        for k, v in vec.items():
            w = get(k)
            if w is None:
                if v:
                    out[k] = v
            else:
                w += v
                if w:
                    out[k] = w
                else:
                    del out[k]
    elif scale:
        for k, v in vec.items():
            v *= scale
            w = get(k)
            if w is None:
                if v:
                    out[k] = v
            else:
                w += v
                if w:
                    out[k] = w
                else:
                    del out[k]
    return out


def add_over(out, den, pden, piece, scale=1):
    """out / den += scale * piece / pden for int numerator vectors, in place
    over lcm(den, pden); returns that denominator."""
    if not piece:
        return den
    if den % pden:
        grown = lcm(den, pden)
        up = grown // den
        for k in out:
            out[k] *= up
        den = grown
    add_into(out, piece, scale * (den // pden))
    return den


def combine(pieces):
    """The sum of num * pnums / pden over the (num, (pden, pnums)) of
    ``pieces``, as a fresh int form (den, nums) over the lcm of the
    denominators; no piece is written into."""
    den, out = 1, {}
    for num, (pden, pnums) in pieces:
        if out:
            den = add_over(out, den, pden, pnums, num)
        elif num and pnums:
            # the first nonzero piece is copied whole, not entry by entry
            den, out = pden, (dict(pnums) if num == 1 else
                              {k: num * v for k, v in pnums.items()})
    return den, out


def reduced(den, nums):
    """The int form nums / den divided through by gcd(den, numerators), so
    that gcd is 1; returns ``nums`` itself when it already is."""
    g = gcd(den, *nums.values())
    return (den // g, {k: v // g for k, v in nums.items()}) if g > 1 \
        else (den, nums)


def to_ints(vec):
    """A sparse vector with rational values as (den, {key: numerator}) over
    the lcm of its denominators."""
    den = lcm(*(cf.denominator for cf in vec.values()))
    return den, {k: cf.numerator * (den // cf.denominator)
                 for k, cf in vec.items()}


def to_fractions(den, nums):
    """The sparse vector nums / den with Fraction values."""
    return {k: Q(v, den) for k, v in nums.items()}


def cross(a, b):
    """Two int vectors (den, nums) cross-multiplied over each other's
    denominators: a pair of numerator vectors, equal exactly when a = b."""
    (aden, anums), (bden, bnums) = a, b
    return add_into({}, anums, bden), add_into({}, bnums, aden)


def vec_add(a, b, scale=1):
    """The sparse vector a + scale * b."""
    return add_into(dict(a), b, scale)


def vec_scale(a, s):
    s = Q(s)
    return {k: s * v for k, v in a.items()} if s else {}


def vec_eq(a, b):
    return vec_add(a, b, -1) == {}


def tally(cases):
    """Count (label, got, want, data) cases; return (checked, failures),
    each failure the (label, data) of a case with got != want.  The one
    code that compares the two sides of a check and records a failure."""
    checked, failures = 0, []
    for label, got, want, data in cases:
        checked += 1
        if not vec_eq(got, want):
            failures.append((label, data))
    return checked, failures


def echelon(rows):
    """Reduced row echelon form of the matrix given by ``rows``.

    Rows may be sparse dicts {col: value} or dense lists, with int or
    Fraction values; each is converted once to ints over the lcm of its
    denominators and never written into.  Rows are added one at a time:
    each is reduced against the pivot rows found so far, and if anything is
    left its leading column becomes a new pivot, which is then eliminated
    from the older pivot rows.  The pivot rows therefore stay fully
    reduced, and at the end they are the nonzero rows of the (unique)
    reduced row echelon form, each scaled to a primitive int row with a
    positive entry at its pivot column.

    Returns {pivot column: sparse Fraction row} with a 1 at the pivot column
    and no entry at any other pivot column, in the order the pivots were
    found; the rank is its length.
    """
    pivots = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        r = to_ints({c: x for c, x in items if x})[1]
        for p in [c for c in r if c in pivots]:
            _eliminate(r, pivots[p], p)
        if not r:
            continue
        p = min(r)
        g = gcd(*r.values())
        _divide(r, g if r[p] > 0 else -g)
        for s in pivots.values():
            if p in s:
                _eliminate(s, r, p)
        pivots[p] = r
    return {p: {c: Q(v, r[p]) for c, v in r.items()}
            for p, r in pivots.items()}


def _eliminate(r, prow, p):
    """Clear column ``p`` of the primitive int row ``r`` in place with the
    pivot row ``prow``: scale ``r`` by lead / g, add ``prow`` -r[p] / g
    times, where lead = prow[p] > 0 and g = gcd(lead, r[p]), and divide
    ``r`` by its content, so it stays primitive and keeps its sign."""
    lead, a = prow[p], r[p]
    g = gcd(lead, a)
    if lead != g:
        m = lead // g
        for c in r:
            r[c] *= m
    add_into(r, prow, -(a // g))
    if r:
        _divide(r, gcd(*r.values()))


def _divide(r, g):
    """Divide the int row ``r`` in place by ``g``, which divides it."""
    if g != 1:
        for c in r:
            r[c] //= g


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix given by ``rows``.

    Rows may be sparse dicts {col: value} or dense lists.  Returns one dense
    Fraction vector of length ``ncols`` per free column, in increasing
    column order, with a 1 at that free column and 0 at every other one.
    """
    pivots = echelon(rows)
    basis = []
    for fcol in range(ncols):
        if fcol in pivots:
            continue
        vec = [Q(0)] * ncols
        vec[fcol] = Q(1)
        for pcol, prow in pivots.items():
            vec[pcol] = -prow.get(fcol, Q(0))
        basis.append(vec)
    return basis


def invert(mat):
    """Exact inverse of a square Fraction matrix."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    pivots = echelon(aug)
    if sorted(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return [[pivots[i].get(n + j, Q(0)) for j in range(n)] for i in range(n)]
