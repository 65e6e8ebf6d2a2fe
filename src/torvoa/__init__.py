"""Exact toolkit for toroidal current algebras, their lattice-Fock times
twisted Virasoro-current realizations, and graded character tables.

All arithmetic is over arbitrary-precision rationals; nothing here is
numerical.
"""

from .algebra_core import (BasisSymbol, ConfigError, Params, ToroidalElement,
                           bracket, bracket_symbols, canonicalize_center,
                           d_sym, dt_sym, from_tilde, g_sym, jacobi_check,
                           k_sym, random_symbol, to_tilde)
from .characters import (CharTable, colored_partition_count, compare,
                         enumerate_weight_spaces, product_formula_char)
from .finite_lie_data import (FiniteModule, GLModule, ReductiveF,
                              SimpleAlgebra, ValidationError, build_gl_module,
                              build_module, build_sl, casimir_eigenvalue,
                              simple_algebra)
from .lattice_fock import (HypLattice, exp_vertex_mode, field_mode, heis_act,
                           hyp_virasoro_mode, state_mode, vacuum_vector,
                           voa_axiom_check)
from .toroidal_realization import (RealizationModule, field_commutator_window_check,
                                   relation_check, top_action_check)
from .virasoro_affine import (CentralCharacter, CriticalLevelError, FModule,
                              f_bracket, singular_vectors, sugawara_constants,
                              sugawara_mode)
from .cli import SpecFile, SpecFileError, main, parse_spec, run

__all__ = [name for name in dir() if not name.startswith("_")]
