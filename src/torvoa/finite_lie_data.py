"""Finite-dimensional ingredients: sl_n with its trace form, finite modules,
Casimir data, and the reductive sum g + gl_N with its invariant pairings.

The bilinear form on sl_n is (x|y) = tr(xy) in the defining representation,
which gives (alpha|alpha) = 2 on long roots.  The three invariant pairings on
g + gl_N are the g-form, the sl_N trace form, and the scalar-matrix form
normalized by (I|I) = 1; their dual generators are tracked by the string
names 'c_g', 'c_sl', 'c_hei' (and 'c_vh' for the projection onto the center
of gl_N).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import echelon, invert, merge

Q = Fraction


class ValidationError(ValueError):
    """Raised when user-supplied module data violates a structural invariant."""


# ---------------------------------------------------------------------------
# small exact matrix helpers (lists of lists of Fraction)
# ---------------------------------------------------------------------------

def mat_zero(n, m=None):
    m = n if m is None else m
    return [[Q(0)] * m for _ in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = mat_zero(n, m)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def mat_comm(a, b):
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_eq(a, b):
    return all(x == y for r1, r2 in zip(a, b) for x, y in zip(r1, r2))


def _freeze(mat):
    return tuple(tuple(Q(x) for x in row) for row in mat)


# ---------------------------------------------------------------------------
# simple algebras sl_n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleAlgebra:
    """sl_n with a fixed ordered basis, structure constants and trace form."""

    name: str
    n: int
    dim: int
    labels: tuple
    matrices: tuple          # defining n x n matrices, frozen
    struct: tuple            # struct[i][j] = tuple of (k, coeff) with [x_i,x_j] = sum coeff x_k
    form: tuple              # Gram matrix (x_i|x_j) = tr(x_i x_j)
    h_vee: Fraction

    def index(self, label):
        return self.labels.index(label)

    def bracket(self, i, j):
        """[x_i, x_j] as a dict basis-index -> coefficient."""
        return dict(self.struct[i][j])

    def pair(self, i, j):
        return self.form[i][j]

    def gram_inverse(self):
        return invert([list(r) for r in self.form])


def _sl_coords(n, mat):
    """Coordinates of a traceless n x n matrix in the E_ij / H_k basis order
    produced by build_sl(n).  Returns dict basis-position -> coefficient."""
    coords = {}
    pos = 0
    order = []
    for i in range(n):
        for j in range(n):
            if i != j:
                order.append((i, j))
    for (i, j) in order:
        if mat[i][j]:
            coords[pos] = mat[i][j]
        pos += 1
    # diagonal part over H_k = E_kk - E_{k+1,k+1}: c_k = d_1 + ... + d_k
    acc = Q(0)
    for k in range(n - 1):
        acc += mat[k][k]
        if acc:
            coords[pos] = acc
        pos += 1
    return coords


def build_sl(n: int) -> SimpleAlgebra:
    """sl_n with basis: all E_ij (i != j, row-major), then H_1..H_{n-1}."""
    if n < 2 or n > 4:
        raise ValidationError("only sl_n with 2 <= n <= 4 is built in")
    mats = []
    labels = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = mat_zero(n)
            m[i][j] = Q(1)
            mats.append(m)
            labels.append(f"E{i + 1}{j + 1}")
    for k in range(n - 1):
        m = mat_zero(n)
        m[k][k] = Q(1)
        m[k + 1][k + 1] = Q(-1)
        mats.append(m)
        labels.append(f"H{k + 1}")
    if n == 2:
        labels = ["e", "f", "h"]
    dim = len(mats)
    struct = []
    for i in range(dim):
        row = []
        for j in range(dim):
            comm = mat_comm(mats[i], mats[j])
            row.append(tuple(sorted(_sl_coords(n, comm).items())))
        struct.append(tuple(row))
    form = tuple(tuple(mat_trace(mat_mul(mats[i], mats[j])) for j in range(dim))
                 for i in range(dim))
    return SimpleAlgebra(
        name=f"A{n - 1}",
        n=n,
        dim=dim,
        labels=tuple(labels),
        matrices=tuple(_freeze(m) for m in mats),
        struct=tuple(struct),
        form=form,
        h_vee=Q(n),
    )


_ALIASES = {"A1": 2, "A2": 3, "A3": 4, "sl2": 2, "sl3": 3, "sl4": 4}


def simple_algebra(name: str) -> SimpleAlgebra:
    if name not in _ALIASES:
        raise ValidationError(f"unknown simple algebra {name!r}; use one of {sorted(_ALIASES)}")
    return build_sl(_ALIASES[name])


# ---------------------------------------------------------------------------
# finite modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteModule:
    """A finite-dimensional module given by one matrix per algebra basis element."""

    dim: int
    mats: tuple                      # matrices in the algebra's basis order
    weight: Optional[tuple] = None   # highest weight in epsilon coordinates


def _check_respects_brackets(alg: SimpleAlgebra, mats):
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = mat_zero(len(mats[0]))
            for k, cf in alg.struct[i][j]:
                lhs = mat_add(lhs, mat_scale(mats[k], cf))
            rhs = mat_comm(mats[i], mats[j])
            if not mat_eq(lhs, rhs):
                raise ValidationError(
                    f"matrices do not respect brackets at basis pair "
                    f"({alg.labels[i]}, {alg.labels[j]})")


def build_module(alg: SimpleAlgebra, kind: str, mats=None) -> FiniteModule:
    """Built-in kinds: trivial, natural, adjoint; or kind='explicit' with mats."""
    n = alg.n
    if kind == "trivial":
        return FiniteModule(1, tuple(_freeze(mat_zero(1)) for _ in range(alg.dim)),
                            weight=tuple(Q(0) for _ in range(n)))
    if kind == "natural":
        lam = tuple(Q(1) if i == 0 else Q(0) for i in range(n))
        return FiniteModule(n, alg.matrices, weight=lam)
    if kind == "adjoint":
        ad = []
        for i in range(alg.dim):
            m = mat_zero(alg.dim)
            for j in range(alg.dim):
                for k, cf in alg.struct[i][j]:
                    m[k][j] = cf
            ad.append(_freeze(m))
        lam = tuple(Q(1) if i == 0 else (Q(-1) if i == n - 1 else Q(0)) for i in range(n))
        return FiniteModule(alg.dim, tuple(ad), weight=lam)
    if kind == "explicit":
        if mats is None:
            raise ValidationError("explicit module needs matrices")
        frozen = tuple(_freeze(m) for m in mats)
        if len(frozen) != alg.dim:
            raise ValidationError(f"need {alg.dim} matrices, got {len(frozen)}")
        _check_respects_brackets(alg, frozen)
        return FiniteModule(len(frozen[0]), frozen, weight=None)
    raise ValidationError(f"unknown module kind {kind!r}")


def _weight_form(n, a, b):
    # epsilon-coordinate form induced by the trace form on sl_n
    s = sum(x * y for x, y in zip(a, b))
    return s - Q(sum(a) * sum(b), n)


def casimir_eigenvalue(alg: SimpleAlgebra, module: FiniteModule) -> Fraction:
    """Casimir eigenvalue, via (lambda | lambda + 2 rho) when the highest
    weight is known, else via the explicit sum of dual-basis products."""
    if module.weight is not None:
        n = alg.n
        lam = module.weight
        rho2 = [Q(n - 2 * i - 1) for i in range(n)]
        target = [l + r for l, r in zip(lam, rho2)]
        return _weight_form(n, lam, target)
    return casimir_matrix_eigenvalue(alg, module)


def casimir_matrix_eigenvalue(alg: SimpleAlgebra, module: FiniteModule) -> Fraction:
    """Casimir via sum_i rho(x_i) rho(x^i) with exact dual basis; errors if
    the result is not scalar (module not irreducible)."""
    ginv = alg.gram_inverse()
    d = module.dim
    total = mat_zero(d)
    for i in range(alg.dim):
        for j in range(alg.dim):
            cf = ginv[i][j]
            if cf:
                total = mat_add(total, mat_scale(mat_mul(module.mats[i],
                                                         module.mats[j]), cf))
    scalar = total[0][0]
    expected = [[scalar if i == j else Q(0) for j in range(d)] for i in range(d)]
    if not mat_eq(total, expected):
        raise ValidationError("Casimir operator is not scalar; module is not irreducible")
    return scalar


# ---------------------------------------------------------------------------
# gl_N modules: an sl_N module together with a scalar for the identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GLModule:
    """gl_N module = sl_N action plus the scalar by which the identity acts.

    For N = 1 there is no sl part and the module is one-dimensional.
    """

    N: int
    dim: int
    sl_mats: tuple              # one matrix per build_sl(N) basis element; () for N = 1
    id_scalar: Fraction
    weight: Optional[tuple] = None

    def sl_module(self):
        if self.N == 1:
            return None
        return FiniteModule(self.dim, self.sl_mats, weight=self.weight)

    def traceless_part_action(self, a, b):
        """Matrix of E_ab - delta_ab I/N acting through the sl_N structure.

        Indices a, b are 1-based.  Zero matrix for N = 1.
        """
        m = mat_zero(self.N)
        m[a - 1][b - 1] = Q(1)
        if a == b:
            for i in range(self.N):
                m[i][i] -= Q(1, self.N)
        coords = _sl_coords(self.N, m)
        out = mat_zero(self.dim)
        for pos, cf in coords.items():
            out = mat_add(out, mat_scale(self.sl_mats[pos], cf))
        return _freeze(out)

    def gl_action(self, a, b):
        """Matrix of E_ab with the identity acting by id_scalar (1-based a, b)."""
        out = self.traceless_part_action(a, b)
        if a != b:
            return out
        s = self.id_scalar / self.N
        scalar = [[s if i == j else 0 for j in range(self.dim)]
                  for i in range(self.dim)]
        return _freeze(mat_add(out, scalar))


def build_gl_module(N: int, kind: str, id_scalar=None, sl_mats=None) -> GLModule:
    if N < 1:
        raise ValidationError("N must be >= 1")
    defaults = {"trivial": Q(0), "natural": Q(1), "explicit": None}
    if kind not in defaults:
        raise ValidationError(f"unknown gl module kind {kind!r}")
    scalar = Q(defaults[kind] if id_scalar is None else id_scalar)
    if N == 1:
        return GLModule(1, 1, (), scalar)
    sl = build_sl(N)
    if kind == "trivial":
        zero = tuple(_freeze(mat_zero(1)) for _ in range(sl.dim))
        return GLModule(N, 1, zero, scalar, weight=tuple(Q(0) for _ in range(N)))
    if kind == "natural":
        lam = tuple(Q(1) if i == 0 else Q(0) for i in range(N))
        return GLModule(N, N, sl.matrices, scalar, weight=lam)
    mod = build_module(sl, "explicit", mats=sl_mats)
    return GLModule(N, mod.dim, mod.mats, scalar, weight=None)


# ---------------------------------------------------------------------------
# the reductive sum g + gl_N with its invariant pairings
# ---------------------------------------------------------------------------

class ReductiveF:
    """g + gl_N: ordered basis, brackets, and the projections onto the
    invariant pairing generators ('c_g', 'c_sl', 'c_hei') and the gl-center
    direction ('c_vh').

    Basis order: the g basis first, then E_ab for a, b = 1..N row-major.
    """

    def __init__(self, g_dot: SimpleAlgebra, N: int):
        self.g = g_dot
        self.N = N
        self.basis = [("g", i) for i in range(g_dot.dim)]
        self.basis += [("E", a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
        self.dim = len(self.basis)
        self._index = {sym: i for i, sym in enumerate(self.basis)}
        self.sl = build_sl(N) if N >= 2 else None

    def index(self, sym):
        return self._index[sym]

    def g_index(self, i):
        return i

    def e_index(self, a, b):
        return self._index[("E", a, b)]

    def identity_combo(self):
        """The identity matrix I = sum_a E_aa as a combo over basis indices."""
        return {self.e_index(a, a): Q(1) for a in range(1, self.N + 1)}

    def bracket(self, i, j):
        """[x_i, x_j] as dict basis-index -> coefficient."""
        si, sj = self.basis[i], self.basis[j]
        if si[0] == "g" and sj[0] == "g":
            return {k: cf for k, cf in self.g.struct[si[1]][sj[1]]}
        if si[0] == "E" and sj[0] == "E":
            _, a, b = si
            _, c, d = sj
            out = {}
            if b == c:
                merge(out, self.e_index(a, d), Q(1))
            if d == a:
                merge(out, self.e_index(c, b), Q(-1))
            return out
        return {}

    def phi(self, i, j) -> dict:
        """Projection of x_i (x) x_j onto the invariant pairings, as a dict
        over {'c_g', 'c_sl', 'c_hei'}."""
        si, sj = self.basis[i], self.basis[j]
        out = {}
        if si[0] == "g" and sj[0] == "g":
            v = self.g.pair(si[1], sj[1])
            if v:
                out["c_g"] = v
        elif si[0] == "E" and sj[0] == "E":
            _, a, b = si
            _, c, d = sj
            N = self.N
            if N >= 2:
                v = (Q(1) if (a == d and b == c) else Q(0)) - (
                    Q(1, N) if (a == b and c == d) else Q(0))
                if v:
                    out["c_sl"] = v
            if a == b and c == d:
                out["c_hei"] = Q(1, N * N)
        return out

    def psi(self, i) -> Fraction:
        """Coefficient of the gl-center generator ('c_vh') in the projection
        of x_i onto the center of g + gl_N."""
        sym = self.basis[i]
        if sym[0] == "E" and sym[1] == sym[2]:
            return Q(1, self.N)
        return Q(0)

    def quadratic_pairs(self, which):
        """Pairs (combo_i, combo_j, coeff) so that sum coeff * x_i x_j is the
        dual-basis quadratic element of the requested subalgebra.

        which in {'g', 'sl', 'hei'}; combos are dicts over basis indices.
        """
        pairs = []
        if which == "g":
            ginv = self.g.gram_inverse()
            for i in range(self.g.dim):
                for j in range(self.g.dim):
                    if ginv[i][j]:
                        pairs.append(({self.g_index(i): Q(1)},
                                      {self.g_index(j): Q(1)}, ginv[i][j]))
            return pairs
        if which == "sl":
            if self.N < 2:
                return []
            # each sl_N basis matrix as a combo over the E_ab inside gl_N
            combos = [{self.e_index(a + 1, b + 1): x
                       for a, row in enumerate(mat)
                       for b, x in enumerate(row) if x}
                      for mat in self.sl.matrices]
            ginv = self.sl.gram_inverse()
            for i in range(self.sl.dim):
                for j in range(self.sl.dim):
                    if ginv[i][j]:
                        pairs.append((combos[i], combos[j], ginv[i][j]))
            return pairs
        if which == "hei":
            ident = self.identity_combo()
            return [(ident, ident, Q(1))]
        raise ValueError(f"unknown quadratic family {which!r}")


def form_is_invariant(alg: SimpleAlgebra) -> bool:
    """([x,y]|z) + (y|[x,z]) = 0 for all basis triples."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                s = Q(0)
                for t, cf in alg.struct[i][j]:
                    s += cf * alg.pair(t, k)
                for t, cf in alg.struct[i][k]:
                    s += cf * alg.pair(j, t)
                if s != 0:
                    return False
    return True


def form_is_nondegenerate(alg: SimpleAlgebra) -> bool:
    return len(echelon(alg.form)) == len(alg.form)
