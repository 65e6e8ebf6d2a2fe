import json
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from torvoa import RealizationModule, SpecFileError, parse_spec, run
from torvoa.cli import (COMMANDS, _WITNESS_CHARS, _count_check, build_context,
                        main, render_report, report_passed)

MINIMAL = """\
# reference data, distinguished top
[algebra]
N = 1
g = "A1"
mu = 1/3
nu = 1/5
c = 2

[module]
alpha = [0]
V = "trivial"
W = "trivial"
h = 2/5
d = 8/15

[task]
command = "char"
depth = 2
seed = 7
certify = false
"""


class TestParser:
    def test_minimal_file(self):
        spec = parse_spec(MINIMAL)
        assert spec.algebra["N"] == 1
        assert spec.algebra["mu"] == Q(1, 3)
        assert spec.module["h"] == Q(2, 5)
        assert spec.task["command"] == "char"

    def test_derived_character(self):
        spec = parse_spec(MINIMAL)
        _params, module = build_context(spec)
        assert module.gamma0.as_dict() == {
            "c_g": Q(2), "c_sl": Q(1, 3), "c_hei": Q(-1, 15),
            "c_vh": Q(1, 10), "c_vir": Q(54, 5)}
        assert module.h_hei == 0 and module.h_vir == 0

    def test_crlf_and_comments(self):
        text = MINIMAL.replace("\n", "\r\n")
        assert parse_spec(text) == parse_spec(MINIMAL)

    def test_zero_charge_rejected_with_constraint(self):
        text = MINIMAL.replace("c = 2", "c = 0")
        with pytest.raises(SpecFileError) as err:
            parse_spec(text)
        assert "c != 0" in str(err.value)

    def test_unknown_key_is_error(self):
        text = MINIMAL.replace("mu = 1/3", "mu = 1/3\nbogus = 1")
        with pytest.raises(SpecFileError) as err:
            parse_spec(text)
        assert "bogus" in str(err.value) and "line" in str(err.value)

    def test_bad_rational(self):
        text = MINIMAL.replace("mu = 1/3", "mu = 1/")
        with pytest.raises(SpecFileError):
            parse_spec(text)
        text = MINIMAL.replace("mu = 1/3", "mu = 1/0")
        with pytest.raises(SpecFileError):
            parse_spec(text)

    def test_alpha_length_checked(self):
        text = MINIMAL.replace("alpha = [0]", "alpha = [0, 1/2]")
        with pytest.raises(SpecFileError) as err:
            parse_spec(text)
        assert "alpha" in str(err.value)

    def test_vector_values(self):
        text = MINIMAL.replace("alpha = [0]", "alpha = [1/2]")
        spec = parse_spec(text)
        assert spec.module["alpha"] == [Q(1, 2)]

    def test_round_trip(self):
        spec = parse_spec(MINIMAL)
        assert parse_spec(spec.to_text()) == spec

    def test_explicit_matrices(self):
        text = MINIMAL.replace(
            'V = "trivial"',
            'V = "explicit"\n'
            'V_matrices = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]')
        spec = parse_spec(text)
        _params, module = build_context(spec)
        assert module.V.dim == 2

    def test_explicit_matrices_validated(self):
        text = MINIMAL.replace(
            'V = "trivial"',
            'V = "explicit"\n'
            'V_matrices = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]]')
        spec = parse_spec(text)
        from torvoa import ValidationError
        with pytest.raises(ValidationError):
            build_context(spec)

    def test_explicit_gl_matrices(self):
        text = MINIMAL.replace("N = 1", "N = 2") \
                      .replace("alpha = [0]", "alpha = [0, 1/2]")
        text = text.replace(
            'W = "trivial"',
            'W = "explicit"\n'
            'W_matrices = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]')
        spec = parse_spec(text)
        _params, module = build_context(spec)
        assert module.W.dim == 2
        assert module.W.id_scalar == Q(2, 5)

    def test_unknown_command(self):
        text = MINIMAL.replace('command = "char"', 'command = "dance"')
        with pytest.raises(SpecFileError):
            parse_spec(text)


class TestRun:
    def test_char_report(self):
        report = run(parse_spec(MINIMAL))
        assert report["command"] == "char"
        assert report["tables"]["enumerated"] == {"0": "1", "1": "7", "2": "35"}
        assert report["tables"]["product_formula"] == report["tables"]["enumerated"]
        by_id = {c["id"]: c["status"] for c in report["checks"]}
        assert by_id["char:match"] == "pass"
        assert report_passed(report)

    def test_char_certify_flags_reference(self):
        text = MINIMAL.replace("certify = false", "certify = true")
        report = run(parse_spec(text))
        by_id = {c["id"]: c["status"] for c in report["checks"]}
        assert by_id["char:certified"] == "fail"
        assert report["tables"]["singular_dimensions"] == {"1": "1", "2": "0"}
        assert not report_passed(report)

    def test_singular_report(self):
        text = MINIMAL.replace('command = "char"', 'command = "singular"') \
                      .replace("depth = 2", "depth = 3")
        report = run(parse_spec(text))
        assert report["tables"]["singular_dimensions"] == {
            "1": "1", "2": "0", "3": "7"}

    def test_derived_block(self):
        report = run(parse_spec(MINIMAL))
        assert report["derived"]["gamma0"]["c_hei"] == "-1/15"
        assert report["derived"]["h_vir"] == "0"
        assert report["derived"]["c_vir_prime"] == "13/2"

    def test_reports_byte_stable(self):
        r1 = render_report(run(parse_spec(MINIMAL)))
        r2 = render_report(run(parse_spec(MINIMAL)))
        assert r1 == r2

    def test_module_error_becomes_failing_check(self):
        # a critical-level configuration still yields a report
        text = MINIMAL.replace("mu = 1/3", "mu = 1/2") \
                      .replace("nu = 1/5", "nu = 1/2") \
                      .replace("c = 2", "c = 1") \
                      .replace("h = 2/5", "h = 1/2") \
                      .replace("d = 8/15", "d = 1/2")
        report = run(parse_spec(text))
        by_id = {c["id"]: c for c in report["checks"]}
        assert by_id["char:error"]["status"] == "fail"
        assert "c_hei" in by_id["char:error"]["details"]
        assert not report_passed(report)

    def test_out_of_memory_becomes_failing_check(self, tmp_path, capsys,
                                                 monkeypatch):
        def exhausted(module, rng, task):
            raise MemoryError

        monkeypatch.setitem(COMMANDS, "char", exhausted)
        path = tmp_path / "run.torvoa"
        path.write_text(MINIMAL, encoding="utf-8")
        assert main([str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["checks"] == [
            {"id": "char:error", "status": "fail",
             "details": "ran out of memory"}]

    def test_jacobi_command(self):
        text = MINIMAL.replace('command = "char"', 'command = "verify-jacobi"')
        report = run(parse_spec(text))
        by_id = {c["id"]: c["details"] for c in report["checks"]}
        assert by_id["jacobi"] == "500/500"
        assert by_id["antisymmetry"] == "500/500"

    def test_failing_check_names_its_witness(self, monkeypatch):
        # double the action of every k_0 generator: the first top-action
        # case, t^r k_0 on q^m at r = -2, m = -1, gives 2c instead of c
        plan = RealizationModule.realize_plan
        monkeypatch.setattr(
            RealizationModule, "realize_plan",
            lambda self, sym: [(2 * cf if sym.tag == "k" and sym.idx == 0
                                else cf, *chain)
                               for cf, *chain in plan(self, sym)])
        text = MINIMAL.replace('command = "char"',
                               'command = "verify-realization"')
        by_id = {c["id"]: c["details"] for c in run(parse_spec(text))["checks"]
                 if c["status"] == "fail"}
        assert by_id["realization:top-action"] == (
            "93/135; first failure k0-shift: ((-2,), (-1,), 0, 0)")

    def test_witness_is_cut(self):
        details = _count_check("x", 3, [("long", "y" * 1000)])["details"]
        assert details.startswith("2/3; first failure long: 'yyy")
        assert len(details) == len("2/3") + _WITNESS_CHARS

    def test_fields_command_small_window(self):
        text = MINIMAL.replace('command = "char"', 'command = "verify-fields"')
        spec = parse_spec(text)
        spec.task["window"] = Q(1)
        report = run(spec)
        assert report["checks"]
        assert all(c["status"] == "pass" for c in report["checks"])
        names = {c["id"] for c in report["checks"]}
        assert "fields:dt0-dt0" in names and "fields:g-g" in names


class TestProcess:
    def test_cli_process(self, tmp_path):
        path = tmp_path / "run.torvoa"
        path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "torvoa", str(path), "--json", str(out)],
            capture_output=True, text=True,
            input=None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = json.loads(out.read_text())
        assert report["command"] == "char"
        assert report["params"]["depth"] == "2"

    def test_cli_flag_overrides(self, tmp_path):
        path = tmp_path / "run.torvoa"
        path.write_text(MINIMAL, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "torvoa", str(path), "--depth", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["params"]["depth"] == "1"
        assert set(report["tables"]["enumerated"]) == {"0", "1"}

    def test_cli_error_exit(self, tmp_path):
        path = tmp_path / "bad.torvoa"
        path.write_text(MINIMAL.replace("c = 2", "c = 0"), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "torvoa", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "c != 0" in proc.stderr

    def test_cli_failed_check_exit(self, tmp_path):
        path = tmp_path / "certify.torvoa"
        path.write_text(MINIMAL.replace("certify = false", "certify = true"),
                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "torvoa", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        statuses = {c["id"]: c["status"] for c in report["checks"]}
        assert statuses["char:certified"] == "fail"


class TestBadInput:
    """Bad run files and overrides end in exit status 2 and one
    ``error:`` line, never a traceback."""

    @staticmethod
    def _main(capsys, argv):
        status = main(argv)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return status, err

    @pytest.mark.parametrize("old, new, key", [
        ("mu = 1/3", 'mu = "x"', "mu"),
        ("c = 2", 'c = "two"', "c"),
        ("alpha = [0]", 'alpha = ["x"]', "alpha"),
        ("h = 2/5", 'h = "x"', "h"),
        ("alpha = [0]", "alpha = [[1]]", "alpha"),
        ("d = 8/15", "d = [1]", "d"),
        ('V = "trivial"', 'V = "explicit"\nV_matrices = [1]', "V_matrices"),
        ("depth = 2", "depth = true", "depth"),
        ("certify = false", "certify = 1", "certify"),
        ('g = "A1"', "g = 1", "g"),
        ("N = 1", "N = 1/2", "N"),
    ])
    def test_wrongly_typed_value(self, tmp_path, capsys, old, new, key):
        path = tmp_path / "run.torvoa"
        path.write_text(MINIMAL.replace(old, new), encoding="utf-8")
        status, err = self._main(capsys, [str(path)])
        assert status == 2
        assert f"{key} must be" in err

    @pytest.mark.parametrize("matrices", [
        "[[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0]]]",
        "[[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1]]]",
        "[[]]",
    ])
    def test_matrices_of_one_square_size(self, tmp_path, capsys, matrices):
        path = tmp_path / "run.torvoa"
        path.write_text(MINIMAL.replace(
            'V = "trivial"', f'V = "explicit"\nV_matrices = {matrices}'),
            encoding="utf-8")
        status, err = self._main(capsys, [str(path)])
        assert status == 2 and "V_matrices must be" in err

    def test_missing_file(self, tmp_path, capsys):
        status, err = self._main(capsys, [str(tmp_path / "absent.torvoa")])
        assert status == 2 and "absent.torvoa" in err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.torvoa"
        path.write_bytes(MINIMAL.replace("# reference", "# r\xe9f\xe9rence")
                         .encode("latin-1"))
        status, _err = self._main(capsys, [str(path)])
        assert status == 2

    @pytest.mark.parametrize("flag", ["--depth", "--window", "--seed"])
    def test_negative_override(self, tmp_path, capsys, flag):
        path = tmp_path / "run.torvoa"
        path.write_text(MINIMAL, encoding="utf-8")
        status, err = self._main(capsys, [str(path), flag, "-1"])
        assert status == 2 and "nonnegative integer" in err

    def test_unwritable_json_path(self, tmp_path, capsys):
        path = tmp_path / "run.torvoa"
        path.write_text(MINIMAL.replace("depth = 2", "depth = 1"),
                        encoding="utf-8")
        target = tmp_path / "absent" / "x.json"
        status = main([str(path), "--json", str(target)])
        out, err = capsys.readouterr()
        assert status == 2
        assert json.loads(out)["command"] == "char"
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
