"""perfbench/tracer.py wraps torvoa's layer entry points by module and
attribute name.  A rename or a direct import that breaks the traced
benchmark run (``perfbench/run.py --trace 1``) fails here."""

import importlib.util
from pathlib import Path

import torvoa
from torvoa.algebra_core import g_sym, k_sym

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _owner(modname, owner_name):
    module = getattr(torvoa, modname)
    return getattr(module, owner_name) if owner_name else module


def test_install_traces_the_engine_and_uninstall_restores(params_n1):
    tracer_mod = _load_tracer()
    originals = [(_owner(m, o), attr, _owner(m, o).__dict__[attr])
                 for m, o, attr, _name in tracer_mod.ENTRY_POINTS]
    tracer = tracer_mod.Tracer()
    tracer.install(torvoa)
    try:
        module = torvoa.RealizationModule(params_n1)
        for idx in (0, 1):
            module.g_act_symbol(k_sym(params_n1, -1, (1,), idx),
                                module.top_vector())
        # Fock-only chains are memoized by the lattice alone, so the k
        # actions leave _term_cache empty; a current fills it
        assert not module._term_cache
        module.g_act_symbol(g_sym(params_n1, -1, (1,), 0),
                            module.top_vector())
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    memo = tracer_mod.memo_entries([module])
    # every memo entry comes from a traced lookup, so the hit ratios the
    # benchmark reports (1 - entries / lookups) stay in [0, 1]; a direct
    # import of the lattice engine would bypass its wrapper
    assert 0 < memo["toroidal_realization"] \
        <= calls["toroidal_realization.term_ordered"]
    assert 0 < memo["lattice_fock"] <= calls["lattice_fock.term_apply"] \
        + calls["lattice_fock.exp_term"]
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
