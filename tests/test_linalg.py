"""The sparse-vector primitives against a dense sum, their int form
(den, {key: numerator}) against the same sums on Fraction dicts, and the
sparse echelon kernel against sympy's exact DomainMatrix over QQ.

sympy is a test-only oracle; the package itself needs only the standard
library.  Matrices are seeded random sparse rationals, tall, wide and
square, with zero rows, repeated and dependent rows, negative entries and
large denominators, handed to the kernel both as dict rows and as dense
list rows.
"""

import random
from fractions import Fraction as Q
from math import gcd

import pytest

from torvoa.linalg import (add_into, add_over, combine, cross, echelon,
                           invert, merge, nullspace, reduced, to_fractions,
                           to_ints, vec_add, vec_eq)
from torvoa.virasoro_affine import _EMPTY

QQ = pytest.importorskip("sympy").QQ
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

DENOMINATORS = (1, 1, 2, 3, 7, 10**9 + 7, 2**61 - 1, 10**30)
SHAPES = [(12, 7), (7, 12), (10, 10), (18, 26), (26, 18), (1, 5), (5, 1)]
SEEDS = range(6)


def _entry(rng):
    num = rng.randint(-10**6, 10**6) or 1
    return Q(num, rng.choice(DENOMINATORS))


def _random_rows(rng, nrows, ncols):
    """Sparse dict rows; about a third are zero, repeated or dependent."""
    density = rng.choice((0.15, 0.3, 0.6))
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif rows and kind < 0.2:
            rows.append(dict(rng.choice(rows)))
        elif len(rows) >= 2 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = _entry(rng), _entry(rng)
            row = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in {*a, *b}}
            rows.append({c: v for c, v in row.items() if v})
        else:
            rows.append({c: _entry(rng) for c in range(ncols)
                         if rng.random() < density})
    return rows


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def _given(rows, ncols, form):
    """The rows as the kernel receives them, integral entries as ints."""
    plain = [{c: int(v) if v.denominator == 1 else v for c, v in row.items()}
             for row in rows]
    return plain if form == "dict" else _dense(plain, ncols)


def _domain(rows, ncols):
    dense = [[QQ(x.numerator, x.denominator) for x in map(Q, row)]
             for row in _dense(rows, ncols)]
    return DomainMatrix(dense, (len(rows), ncols), QQ)


def _fractions(dm):
    return [[Q(int(x.numerator), int(x.denominator)) for x in row]
            for row in dm.to_list()]


def _matvec(rows, vec):
    return [sum((v * vec[c] for c, v in row.items()), Q(0)) for row in rows]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("nrows,ncols", SHAPES)
@pytest.mark.parametrize("form", ["dict", "list"])
def test_echelon_and_nullspace_match_oracle(nrows, ncols, seed, form):
    rng = random.Random(1000 * seed + 10 * nrows + ncols)
    rows = _random_rows(rng, nrows, ncols)
    given = _given(rows, ncols, form)

    oracle = _domain(rows, ncols)
    ref, ref_pivots = oracle.rref()
    ref = _fractions(ref)

    pivots = echelon(given)
    assert len(pivots) == len(ref_pivots)
    assert sorted(pivots) == list(ref_pivots)
    for i, p in enumerate(ref_pivots):
        assert _dense([pivots[p]], ncols)[0] == ref[i]

    # the canonical basis: one vector per free column, in increasing free
    # column order, with a 1 there and a 0 at every other free column
    free = [c for c in range(ncols) if c not in ref_pivots]
    expected = []
    for f in free:
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for i, p in enumerate(ref_pivots):
            vec[p] = -ref[i][f]
        expected.append(vec)
    basis = nullspace(given, ncols)
    assert basis == expected
    assert all(type(x) is Q for vec in basis for x in vec)
    for vec in basis:
        assert _matvec(rows, vec) == [0] * nrows
    # sympy's own nullspace basis spans the same space: each of its vectors
    # is the combination of ours given by its free-column entries
    theirs = _fractions(oracle.nullspace())
    assert len(theirs) == len(basis)
    for w in theirs:
        assert w == [sum((w[f] * vec[c] for f, vec in zip(free, basis)), Q(0))
                     for c in range(ncols)]


def _invertible(rng, n):
    while True:
        rows = [{c: _entry(rng) for c in range(n) if rng.random() < 0.4}
                for _ in range(n)]
        if _domain(rows, n).rank() == n:
            return rows


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("seed", SEEDS)
def test_invert_matches_oracle(n, seed):
    rng = random.Random(seed * 31 + n)
    rows = _invertible(rng, n)
    mat = _dense(rows, n)
    inv = invert(mat)
    assert all(type(x) is Q for row in inv for x in row)
    assert inv == _fractions(_domain(rows, n).inv())
    identity = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    product = [[sum((inv[i][k] * mat[k][j] for k in range(n)), Q(0))
                 for j in range(n)] for i in range(n)]
    assert product == identity


@pytest.mark.parametrize("seed", SEEDS)
def test_invert_rejects_singular(seed):
    rng = random.Random(seed)
    n = 6
    rows = _invertible(rng, n)
    a, b = rng.sample(range(n - 1), 2)
    s, t = _entry(rng), _entry(rng)
    dependent = rows[:-1] + [{c: s * rows[a].get(c, 0) + t * rows[b].get(c, 0)
                              for c in range(n)}]
    for singular in (dependent, rows[:-1] + [{}], [{}] * n):
        assert _domain(singular, n).rank() < n
        with pytest.raises(ValueError):
            invert(_dense(singular, n))


def test_merge_in_place_drops_zero_and_cancelled_entries():
    out = {"a": Q(1, 2)}
    merge(out, "a", Q(1, 3))
    merge(out, "b", Q(-2))
    assert out == {"a": Q(5, 6), "b": Q(-2)}
    merge(out, "c", Q(0))
    merge(out, "a", Q(-5, 6))
    assert out == {"b": Q(-2)}
    merge(out, "b", 2)
    assert out == {}


@pytest.mark.parametrize("scale", [1, Q(1), -1, Q(-3, 7), Q(10**9 + 7, 2), 0])
@pytest.mark.parametrize("seed", range(4))
def test_add_into_matches_dense_sum(scale, seed):
    rng = random.Random(seed)
    keys = range(16)
    a = {k: _entry(rng) for k in keys if rng.random() < 0.5}
    b = {k: _entry(rng) for k in keys if rng.random() < 0.5}
    if scale:
        # entries of scale * b that cancel entries of a exactly
        for k in rng.sample(sorted(a), min(3, len(a))):
            b[k] = -a[k] / scale
    want = {k: a.get(k, 0) + scale * b.get(k, 0) for k in keys}
    want = {k: v for k, v in want.items() if v}
    a0, b0 = dict(a), dict(b)

    out = dict(a)
    assert add_into(out, b, scale) is out
    assert out == want
    assert all(out.values()) and all(type(v) is Q for v in out.values())
    assert vec_add(a, b, scale) == want
    assert a == a0 and b == b0
    assert vec_eq(vec_add(a, b, scale), want)
    assert vec_eq(a, b) == (a == b)


def _int_form(rng, keys, density=0.5):
    """A seeded sparse int form with mixed denominators, put over a
    multiple of its least denominator so that it is not reduced, and its
    Fraction dict."""
    vec = {k: _entry(rng) for k in keys if rng.random() < density}
    den, nums = to_ints(vec)
    t = rng.choice((1, 2, 6, 35))
    return (den * t, {k: v * t for k, v in nums.items()}), vec


def _pieces(seed, count=5):
    """(scale, (den, nums)) pieces and their sum as a Fraction dict, built
    with ``add_into``.  The first scale is 1 and the second 0, and the last
    piece cancels part of the sum before it."""
    rng = random.Random(seed)
    keys = range(12)
    pieces, want = [], {}
    for i in range(count):
        form, vec = _int_form(rng, keys)
        scale = (1, 0)[i] if i < 2 else rng.choice((1, -1, 3, -7, 10**9 + 7))
        pieces.append((scale, form))
        add_into(want, vec, scale)
    if want:
        cancel = {k: -v for k, v in rng.sample(sorted(want.items()),
                                               min(4, len(want)))}
        den, nums = to_ints(cancel)
        pieces.append((1, (den * 3, {k: 3 * v for k, v in nums.items()})))
        add_into(want, cancel)
    return pieces, want


def _check_int_form(den, nums):
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in nums.values())


@pytest.mark.parametrize("seed", range(6))
def test_int_form_conversions_round_trip(seed):
    rng = random.Random(seed)
    (den, nums), vec = _int_form(rng, range(12))
    _check_int_form(den, nums)
    assert to_fractions(den, nums) == vec
    assert to_fractions(*to_ints(vec)) == vec
    assert to_ints({}) == (1, {}) and to_fractions(7, {}) == {}


@pytest.mark.parametrize("seed", range(6))
def test_add_over_matches_add_into(seed):
    pieces, want = _pieces(seed)
    den, out = 1, {}
    for scale, (pden, pnums) in pieces:
        before = dict(pnums)
        den = add_over(out, den, pden, pnums, scale)
        assert pnums == before
        _check_int_form(den, out)
        assert den % pden == 0 or not pnums
    assert to_fractions(den, out) == want


@pytest.mark.parametrize("seed", range(6))
def test_combine_matches_add_into(seed):
    pieces, want = _pieces(seed)
    copies = [(scale, (pden, dict(pnums))) for scale, (pden, pnums) in pieces]
    den, out = combine(iter(pieces))
    _check_int_form(den, out)
    assert to_fractions(den, out) == want
    # no piece is written into, and the result is none of them
    assert pieces == copies
    assert all(out is not pnums for _scale, (_pden, pnums) in pieces)
    # a sum that cancels to zero and then grows again
    (_s, a), (_t, b) = pieces[0], pieces[-1]
    den, out = combine(iter([(1, a), (-1, a), (2, b)]))
    _check_int_form(den, out)
    assert to_fractions(den, out) == to_fractions(b[0], add_into({}, b[1], 2))
    assert combine(iter(())) == (1, {})
    assert combine(iter(())) is not _EMPTY
    assert combine(iter(()))[1] is not _EMPTY[1]


@pytest.mark.parametrize("seed", range(6))
def test_reduced_divides_out_the_gcd(seed):
    pieces, _want = _pieces(seed)
    for _scale, (den, nums) in pieces:
        before = dict(nums)
        rden, rnums = reduced(den, nums)
        _check_int_form(rden, rnums)
        assert gcd(rden, *rnums.values()) == 1
        assert to_fractions(rden, rnums) == to_fractions(den, nums)
        assert nums == before
    assert reduced(6, {}) == (1, {})
    nums = {"a": 2, "b": -3}
    assert reduced(5, nums)[1] is nums


@pytest.mark.parametrize("seed", range(6))
def test_cross_is_equal_exactly_on_equal_vectors(seed):
    rng = random.Random(seed)
    (den, nums), _vec = _int_form(rng, range(12), density=0.8)
    same = (den * 4, {k: 4 * v for k, v in nums.items()})
    got, want = cross((den, nums), same)
    assert got == want
    for k in nums:
        other = dict(same[1])
        other[k] += 1
        got, want = cross((den, nums), (same[0], other))
        assert got != want
    assert cross((1, {}), (5, {})) == ({}, {})
