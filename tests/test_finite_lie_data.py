from fractions import Fraction as Q

import pytest

from torvoa import (ReductiveF, ValidationError, build_gl_module, build_module,
                    build_sl, casimir_eigenvalue, simple_algebra)
from torvoa.finite_lie_data import (casimir_matrix_eigenvalue,
                                    form_is_invariant, form_is_nondegenerate)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_form_properties(n):
    alg = build_sl(n)
    assert form_is_invariant(alg)
    assert form_is_nondegenerate(alg)
    assert alg.h_vee == n


def test_sl2_structure(sl2):
    e, f, h = sl2.index("e"), sl2.index("f"), sl2.index("h")
    assert sl2.bracket(e, f) == {h: Q(1)}
    assert sl2.bracket(h, e) == {e: Q(2)}
    assert sl2.bracket(h, f) == {f: Q(-2)}
    assert sl2.pair(e, f) == 1
    assert sl2.pair(h, h) == 2
    assert sl2.pair(e, e) == 0


@pytest.mark.parametrize("kind,value", [
    ("trivial", Q(0)),
    ("natural", Q(3, 2)),
    ("adjoint", Q(4)),
])
def test_sl2_casimir(sl2, kind, value):
    mod = build_module(sl2, kind)
    assert casimir_eigenvalue(sl2, mod) == value
    assert casimir_matrix_eigenvalue(sl2, mod) == value


def test_sl3_casimir():
    sl3 = simple_algebra("A2")
    assert casimir_eigenvalue(sl3, build_module(sl3, "natural")) == Q(8, 3)
    assert casimir_eigenvalue(sl3, build_module(sl3, "adjoint")) == Q(6)
    for kind in ("natural", "adjoint"):
        mod = build_module(sl3, kind)
        assert casimir_matrix_eigenvalue(sl3, mod) == casimir_eigenvalue(sl3, mod)


def test_sl4_casimir():
    sl4 = simple_algebra("A3")
    natural = build_module(sl4, "natural")
    assert casimir_eigenvalue(sl4, natural) == Q(15, 4)
    assert casimir_matrix_eigenvalue(sl4, natural) == Q(15, 4)
    assert casimir_eigenvalue(sl4, build_module(sl4, "adjoint")) == Q(8)


def test_explicit_module_validation(sl2):
    good = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
    mod = build_module(sl2, "explicit", mats=good)
    assert mod.dim == 2
    bad = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]]
    with pytest.raises(ValidationError) as err:
        build_module(sl2, "explicit", mats=bad)
    assert "does not respect" in str(err.value) or "respect" in str(err.value)


def test_casimir_rejects_reducible(sl2):
    # trivial (+) natural: the Casimir is diag(0, 3/2, 3/2), not scalar
    def block(m):
        out = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        for i in range(2):
            for j in range(2):
                out[1 + i][1 + j] = m[i][j]
        return out

    mats = [block([[0, 1], [0, 0]]), block([[0, 0], [1, 0]]),
            block([[1, 0], [0, -1]])]
    mod = build_module(sl2, "explicit", mats=mats)
    with pytest.raises(ValidationError):
        casimir_matrix_eigenvalue(sl2, mod)


class TestReductive:
    def test_phi_on_simple_part(self, sl2):
        fd = ReductiveF(sl2, 2)
        assert fd.phi(sl2.index("e"), sl2.index("f")) == {"c_g": Q(1)}
        assert fd.phi(sl2.index("e"), sl2.index("e")) == {}

    def test_phi_on_matrix_part(self, sl2):
        fd = ReductiveF(sl2, 2)
        got = fd.phi(fd.e_index(1, 1), fd.e_index(2, 2))
        assert got == {"c_sl": Q(-1, 2), "c_hei": Q(1, 4)}

    def test_phi_cross_terms_vanish(self, sl2):
        fd = ReductiveF(sl2, 2)
        assert fd.phi(sl2.index("e"), fd.e_index(1, 2)) == {}

    def test_psi(self, sl2):
        fd = ReductiveF(sl2, 2)
        assert fd.psi(fd.e_index(1, 2)) == 0
        assert fd.psi(fd.e_index(1, 1)) == Q(1, 2)
        total = sum(fd.psi(fd.e_index(a, a)) for a in (1, 2))
        assert total == 1  # psi(identity) is the center generator itself

    def test_level_one_contraction_coefficients(self, sl2):
        # phi on E_ab (x) E_cd specialized by a character gives
        # delta_ad delta_bc c_sl + delta_ab delta_cd (c_hei/N^2 - c_sl/N)
        fd = ReductiveF(sl2, 2)
        c_sl, c_hei = Q(5, 7), Q(-3, 11)
        for a in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    for d in (1, 2):
                        got = fd.phi(fd.e_index(a, b), fd.e_index(c, d))
                        value = got.get("c_sl", Q(0)) * c_sl \
                            + got.get("c_hei", Q(0)) * c_hei
                        want = (c_sl if (a == d and b == c) else Q(0)) \
                            + ((c_hei / 4 - c_sl / 2)
                               if (a == b and c == d) else Q(0))
                        assert value == want

    def test_n1_has_no_matrix_traceless_part(self, sl2):
        fd = ReductiveF(sl2, 1)
        assert fd.phi(fd.e_index(1, 1), fd.e_index(1, 1)) == {"c_hei": Q(1)}
        assert fd.psi(fd.e_index(1, 1)) == Q(1)


class TestGLModules:
    def test_natural(self):
        W = build_gl_module(2, "natural")
        assert W.dim == 2 and W.id_scalar == 1
        assert W.gl_action(1, 2) == ((Q(0), Q(1)), (Q(0), Q(0)))
        assert W.gl_action(1, 1) == ((Q(1), Q(0)), (Q(0), Q(0)))

    def test_trivial_with_scalar(self):
        W = build_gl_module(2, "trivial", id_scalar=Q(2, 5))
        assert W.dim == 1
        assert W.gl_action(1, 1) == ((Q(1, 5),),)
        assert W.gl_action(1, 2) == ((Q(0),),)

    def test_n1_collapses_to_scalar(self):
        W = build_gl_module(1, "natural")
        assert W.dim == 1 and W.sl_mats == ()
        assert W.gl_action(1, 1) == ((Q(1),),)
        with pytest.raises(ValidationError):
            build_gl_module(1, "adjoint")
