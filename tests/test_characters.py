from fractions import Fraction as Q

import pytest

from torvoa import (CharTable, RealizationModule, colored_partition_count,
                    compare, enumerate_weight_spaces, product_formula_char)
from torvoa.algebra_core import Params
from torvoa.characters import ResourceLimitError, _count_osc_monomials
from torvoa.virasoro_affine import CriticalLevelError


class TestQSeries:
    def test_oscillator_count_matches_eta(self):
        # explicit generation against the eta-power coefficients
        for N in (1, 2):
            for n in range(6):
                assert _count_osc_monomials(N, n) == colored_partition_count(n, 2 * N)


class TestEnumeration:
    def test_reference_table(self, module_n1):
        table = enumerate_weight_spaces(module_n1, 3)
        assert table.per_depth() == [1, 7, 35, 140]
        assert table.m_independent()

    def test_depth_zero_is_top(self, module_n2):
        table = enumerate_weight_spaces(module_n2, 0)
        assert table.per_depth() == [1]

    def test_n2_depth_one(self, module_n2):
        table = enumerate_weight_spaces(module_n2, 1)
        assert table.per_depth() == [1, 12]

    def test_top_dimension_scales(self, module_n2_natural):
        table = enumerate_weight_spaces(module_n2_natural, 1)
        # dim V * dim W = 4 at depth 0; 12 colors each over the 4-dim top
        assert table.per_depth() == [4, 48]

    def test_counts_are_colored_partitions(self, module_n1):
        table = enumerate_weight_spaces(module_n1, 4)
        K = 2 * 1 + 3 + 1 + 1
        assert table.per_depth() == [colored_partition_count(n, K)
                                     for n in range(5)]

    def test_resource_bound(self, module_n1):
        with pytest.raises(ResourceLimitError):
            enumerate_weight_spaces(module_n1, 40)


class TestProductFormula:
    def test_matches_enumeration_n1(self, module_n1):
        table = enumerate_weight_spaces(module_n1, 3)
        prod, certified, dims = product_formula_char(module_n1, 3, certify=False)
        assert compare(table, prod) == []
        assert certified is None and dims == {}

    def test_matches_enumeration_natural_top(self, module_n2_natural):
        table = enumerate_weight_spaces(module_n2_natural, 2)
        prod, _c, _d = product_formula_char(module_n2_natural, 2)
        assert compare(table, prod) == []

    def test_certification_is_honest_at_reference(self, module_n1):
        # c = 2 is an integer level: the induced factor has singular vectors
        # at depth 1 (translation vector over the flat top) and depth 3
        # (current null vectors), so the table is reported uncertified
        prod, certified, dims = product_formula_char(module_n1, 3, certify=True)
        assert prod.per_depth() == [1, 7, 35, 140]
        assert certified is False
        assert dims == {1: 1, 2: 0, 3: 7}

    def test_critical_level_rejected(self, sl2):
        params = Params(N=1, mu=Q(1, 2), nu=Q(1, 2), c=Q(1), g_dot=sl2)
        module = RealizationModule(params)
        with pytest.raises(CriticalLevelError) as err:
            product_formula_char(module, 2)
        assert "c_hei" in str(err.value)


class TestCompare:
    def test_identical(self, module_n1):
        a = enumerate_weight_spaces(module_n1, 2)
        b = enumerate_weight_spaces(module_n1, 2)
        assert compare(a, b) == []

    def test_perturbed_entry_detected(self, module_n1):
        a = enumerate_weight_spaces(module_n1, 2)
        entries = dict(a.entries)
        key = (2, (1,))
        entries[key] += 1
        b = CharTable(entries, 2)
        assert compare(a, b) == [(key, a.entries[key], a.entries[key] + 1)]

    def test_depth_mismatch_rejected(self, module_n1):
        a = enumerate_weight_spaces(module_n1, 1)
        b = enumerate_weight_spaces(module_n1, 2)
        with pytest.raises(ValueError):
            compare(a, b)
