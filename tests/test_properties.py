"""Property tests: run files with a wrongly typed value, the run-file round
trip, and the toroidal bracket at random rational parameters.  Unreadable
files and negative overrides are covered in test_cli.py."""

import io
import string
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from torvoa import Params, SpecFile, parse_spec, simple_algebra
from torvoa.algebra_core import BasisSymbol, bracket_symbols, jacobi_check
from torvoa.cli import main

REFERENCE = """\
[algebra]
N = 1
g = "A1"
mu = 1/3
nu = 1/5
c = 2

[module]
alpha = [0]
h = 2/5
d = 8/15

[task]
command = "char"
depth = 2
seed = 7
"""

# the kind of every run-file key, as the file format documents it
KEYS = {
    "algebra": {"N": "count", "g": "identifier", "mu": "rational",
                "nu": "rational", "c": "rational"},
    "module": {"alpha": "rationals", "V": "identifier", "W": "identifier",
               "h": "rational", "d": "rational", "V_matrices": "matrices",
               "W_matrices": "matrices"},
    "task": {"command": "identifier", "depth": "count", "window": "count",
             "seed": "count", "certify": "bool"},
}

rationals = st.fractions(max_denominator=10 ** 12).map(Q)
identifiers = st.text(alphabet=string.ascii_letters + string.digits + "-_. ",
                      max_size=12)
scalars = st.one_of(rationals, identifiers, st.booleans())
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3),
                      max_leaves=8)
non_rationals = st.one_of(identifiers, st.booleans(),
                          st.lists(values, max_size=3))


def _is_square_matrix_list(v):
    return isinstance(v, list) and bool(v) and all(
        isinstance(m, list) and m and len(m) == len(v[0]) and all(
            isinstance(row, list) and len(row) == len(m)
            and all(isinstance(x, Q) for x in row) for row in m)
        for m in v)


# values that are not of the kind, for each kind
WRONG = {
    "rational": non_rationals,
    "identifier": st.one_of(rationals, st.booleans(), st.lists(values)),
    "count": st.one_of(non_rationals, st.integers(max_value=-1).map(Q),
                       rationals.filter(lambda x: x.denominator != 1)),
    "bool": st.one_of(rationals, identifiers, st.lists(values)),
    "rationals": st.one_of(rationals, identifiers, st.booleans(),
                           st.lists(values, min_size=1).filter(
                               lambda v: not all(isinstance(x, Q)
                                                 for x in v))),
    "matrices": st.one_of(rationals, identifiers, st.booleans(),
                          st.lists(values, min_size=1).filter(
                              lambda v: not _is_square_matrix_list(v))),
}


def fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, list):
        return "[" + ", ".join(fmt(x) for x in v) + "]"
    return str(v)


def with_value(text, section, key, value):
    """The run file with ``key`` in ``section`` set to the value text."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.split("=")[0].strip() == key:
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


@st.composite
def wrongly_typed(draw):
    section = draw(st.sampled_from(sorted(KEYS)))
    key = draw(st.sampled_from(sorted(KEYS[section])))
    value = draw(WRONG[KEYS[section][key]])
    return key, with_value(REFERENCE, section, key, fmt(value))


@settings(max_examples=60, deadline=None)
@given(case=wrongly_typed())
def test_wrongly_typed_run_file_exits_2(tmp_path_factory, case):
    # cli.main in-process: exit status 2 and one error line, no traceback
    key, text = case
    path = tmp_path_factory.mktemp("fuzz") / "run.torvoa"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main([str(path)])
    assert (status, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ") and key in err.getvalue()


@st.composite
def specs(draw):
    N = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(rationals, min_size=size, max_size=size),
                      min_size=size, max_size=size)
    optional = {
        "module": {"alpha": st.lists(rationals, min_size=N, max_size=N),
                   "V": identifiers, "W": identifiers, "h": rationals,
                   "d": rationals, "V_matrices": st.lists(matrix, max_size=3),
                   "W_matrices": st.lists(matrix, max_size=3)},
        "task": {"depth": st.integers(0, 10 ** 6).map(Q),
                 "window": st.integers(0, 10 ** 6).map(Q),
                 "seed": st.integers(0, 10 ** 30).map(Q),
                 "certify": st.booleans()},
    }
    spec = SpecFile(
        algebra={"N": Q(N), "g": draw(identifiers), "mu": draw(rationals),
                 "nu": draw(rationals),
                 "c": draw(rationals.filter(lambda x: x != 0))},
        task={"command": draw(st.sampled_from(
            ["verify-jacobi", "verify-fields", "verify-voa", "verify-sugawara",
             "verify-realization", "singular", "char"]))})
    for section, keys in optional.items():
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True)):
            getattr(spec, section)[key] = draw(keys[key])
    return spec


@settings(max_examples=60, deadline=None)
@given(spec=specs())
def test_run_file_round_trip(spec):
    assert parse_spec(spec.to_text()) == spec


SL2 = simple_algebra("A1")
signed = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 9)


@st.composite
def bracket_cases(draw):
    N = draw(st.integers(1, 2))
    params = Params(N=N, mu=draw(signed), nu=draw(signed),
                    c=draw(signed.filter(lambda x: x != 0)), g_dot=SL2)

    def symbol():
        tag = draw(st.sampled_from(["g", "k", "d", "dt"]))
        idx = draw(st.integers(0, (SL2.dim if tag == "g" else N + 1) - 1))
        r = tuple(draw(st.integers(-3, 3)) for _ in range(N))
        return BasisSymbol(tag, draw(st.integers(-3, 3)), r, idx)

    return params, symbol(), symbol(), symbol()


@settings(max_examples=60, deadline=None)
@given(case=bracket_cases())
def test_bracket_antisymmetry_and_jacobi(case):
    params, a, b, c = case
    assert (bracket_symbols(params, a, b)
            + bracket_symbols(params, b, a)).is_zero()
    assert jacobi_check(params, a, b, c)
