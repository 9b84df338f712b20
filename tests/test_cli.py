import ast
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mapvir import cli, errors
from mapvir.cli import main
from mapvir.scalars import format_scalar, parse_scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def dual_algebra(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(
        {"kind": "product_local", "factors": [{"point": "0", "order": 2}]}))
    return str(path)


@pytest.fixture
def dual_phi(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(
        {"d0": {"1": "3", "t": "0"}, "c": {"1": "1/2", "t": "0"}}))
    return str(path)


def test_bracket_example(capsys):
    code, out, _ = run_cli(capsys, "bracket", "d[2]*1", "d[-2]*1")
    assert code == 0
    assert out.strip() == "-4*d[0] + 1/2*c"


def test_bracket_with_coefficients(capsys, dual_algebra):
    code, out, _ = run_cli(capsys, "bracket", "-A", dual_algebra,
                           "d[1]*(t)", "d[-1]*(1)")
    assert code == 0
    assert out.strip() == "-2*(d[0]*(t))".replace("-2*(d[0]*(t))", "d[0]*(-2*t)")


def test_verma_dims_example(capsys):
    code, out, _ = run_cli(capsys, "verma", "--dims", "-n", "5")
    assert code == 0
    assert out.strip() == "1 1 2 3 5 7"


def _readme_cli_examples():
    """(argv, output) for each `mapvir ...` line of the README's CLI block that
    names no spec file and is followed by a literal `# ...` output line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    return [(shlex.split(cmd)[1:], shown[2:]) for cmd, shown in zip(lines, lines[1:])
            if cmd.startswith("mapvir ") and ".json" not in cmd and shown.startswith("# ")]


README_EXAMPLES = _readme_cli_examples()


def test_readme_cli_block_shows_literal_outputs():
    assert len(README_EXAMPLES) >= 2


@pytest.mark.parametrize("argv, shown", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_cli_example_prints_the_shown_output(capsys, argv, shown):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == shown + "\n"


def test_verma_negative_depth_exits_1(capsys):
    code, out, err = run_cli(capsys, "verma", "--dims", "-n", "-3")
    assert code == 1 and out == ""
    assert "nonnegative" in err


def test_verma_quotient_dims(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"d0": {"1": "5/7"}, "c": {"1": "2"}}))
    code, out, _ = run_cli(capsys, "verma", "--quotient-dims", "-n", "4",
                           "-phi", str(phi))
    assert code == 0
    assert out.strip() == "1 1 2 3 5"


def test_verma_singular(capsys, dual_algebra, dual_phi):
    code, out, _ = run_cli(capsys, "verma", "--singular", "-n", "1",
                           "-A", dual_algebra, "-phi", dual_phi,
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["vectors"] == ["(d[-1]*t) v"]


def test_verma_singular_text(capsys, dual_algebra, dual_phi):
    # the count, then one vector per line
    code, out, _ = run_cli(capsys, "verma", "--singular", "-n", "1",
                           "-A", dual_algebra, "-phi", dual_phi)
    assert code == 0
    assert out == "1\n(d[-1]*t) v\n"


def test_verma_dims_tsv_prints_text(capsys):
    code, out, _ = run_cli(capsys, "verma", "--dims", "-n", "4", "--format", "tsv")
    assert code == 0
    assert out == "1 1 2 3 5\n"


def test_check_reducible_example(capsys, dual_algebra, dual_phi):
    code, out, _ = run_cli(capsys, "check", "--reducible",
                           "-A", dual_algebra, "-phi", dual_phi)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "reducible_certified"
    assert payload["witness"] == "(t)"
    assert payload["metadata"]["algebra"]["kind"] == "product_local"


def test_check_quasifinite_polynomial(capsys, tmp_path):
    alg = tmp_path / "poly.json"
    alg.write_text(json.dumps({"kind": "polynomial", "window": [0, 32]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({
        "d0_seq": [format_scalar(F(2) ** k) for k in range(9)],
        "c_seq": ["0"] * 9,
        "exact_ideal": "t - 2"}))
    code, out, _ = run_cli(capsys, "check", "--quasifinite",
                           "-A", str(alg), "-phi", str(phi))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "quasifinite_certified"
    assert payload["witness"] == "(t - 2)"


def test_check_quasifinite_sampled_prints_the_candidate(capsys, tmp_path):
    alg = tmp_path / "poly.json"
    alg.write_text(json.dumps({"kind": "polynomial", "window": [0, 32]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({
        "d0_seq": [format_scalar(F(2) ** k) for k in range(9)],
        "c_seq": ["0"] * 9}))
    code, out, _ = run_cli(capsys, "check", "--quasifinite",
                           "-A", str(alg), "-phi", str(phi))
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["witness"], payload["candidate"], payload["note"]) == (
        "no_witness_up_to_bound", None, "(t - 2)", "recurrence found but values are sampled")


def test_split(capsys, tmp_path):
    alg = tmp_path / "a.json"
    alg.write_text(json.dumps({"kind": "product_local",
                               "factors": [{"point": "0", "order": 1},
                                           {"point": "1", "order": 1}]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"d0": {"1": "5", "t": "2"}, "c": {}}))
    code, out, _ = run_cli(capsys, "split", "-A", str(alg), "-phi", str(phi))
    assert code == 0
    payload = json.loads(out)
    weights = [c["functional"]["d0"].get("1", "0") for c in payload["components"]]
    assert weights == ["3", "2"]


def test_module_weights_tsv(capsys, tmp_path):
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"variant": "int_series_eval", "a": "1/2",
                               "b": "1/3", "window": [-20, 20]}))
    code, out, _ = run_cli(capsys, "module", "-M", str(mod),
                           "--weights", "--offsets=-2:2", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "offset\tweight\tmultiplicity"
    assert lines[1].split("\t") == ["-2", "-7/6", "1"]


def test_module_weights_text_prints_json(capsys, tmp_path):
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"variant": "int_series_eval", "a": "1/2",
                               "b": "1/3", "window": [-20, 20]}))
    code, out, _ = run_cli(capsys, "module", "-M", str(mod),
                           "--weights", "--offsets=-2:2", "--format", "text")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"weights", "metadata"}
    assert payload["metadata"]["algebra"]["kind"] == "structure_constants"


def test_check_reducible_text_prints_json(capsys, dual_algebra, dual_phi):
    code, out, _ = run_cli(capsys, "check", "--reducible", "-A", dual_algebra,
                           "-phi", dual_phi, "--format", "text")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "reducible_certified"
    assert payload["metadata"]["algebra"]["kind"] == "product_local"


def test_module_annihilator(capsys, tmp_path):
    alg = tmp_path / "a.json"
    alg.write_text(json.dumps({"kind": "product_local",
                               "factors": [{"point": "0", "order": 1},
                                           {"point": "1", "order": 1}]}))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"variant": "int_series_eval", "a": "1/2",
                               "b": "1/3", "point": "0", "window": [-10, 10]}))
    code, out, _ = run_cli(capsys, "module", "-M", str(mod), "-A", str(alg),
                           "--annihilator")
    assert code == 0
    payload = json.loads(out)
    assert payload["annihilator"]["support"] == ["0"]
    assert payload["annihilator"]["annihilator_generators"] == ["t"]


@pytest.mark.parametrize("algebra, point, message", [
    ({"kind": "laurent", "window": [-4, 4]}, "0", "t is not invertible at the point 0"),
    ({"kind": "product_local", "factors": [{"point": "0", "order": 1},
                                           {"point": "1", "order": 1}]},
     "5", "no factor dominating this point/order"),
], ids=["laurent-at-0", "split-at-5"])
def test_module_rejects_an_evaluation_point_outside_the_spectrum(capsys, tmp_path, algebra,
                                                                 point, message):
    alg = tmp_path / "a.json"
    alg.write_text(json.dumps(algebra))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"variant": "int_series_eval", "a": "1/2",
                               "b": "1/3", "point": point, "window": [-10, 10]}))
    code, out, err = run_cli(capsys, "module", "-M", str(mod), "-A", str(alg),
                             "--annihilator")
    assert code == 1
    assert out == ""
    assert message in err


def test_module_trichotomy(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"variant": "verma",
                               "functional": {"d0": {"1": "2"}, "c": {}}}))
    code, out, _ = run_cli(capsys, "module", "-M", str(mod), "--trichotomy",
                           "--offsets=-6:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["trichotomy"]["shape"] == "truncated_above"


def test_classify(capsys, tmp_path):
    alg = tmp_path / "a.json"
    alg.write_text(json.dumps({"kind": "product_local",
                               "factors": [{"point": "0", "order": 1},
                                           {"point": "1", "order": 1}]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"d0": {"1": "5", "t": "2"}, "c": {}}))
    code, out, _ = run_cli(capsys, "classify", "-A", str(alg), "-phi", str(phi),
                           "--explain")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "hw_tensor_of_generalized_evals"
    assert [c["point"] for c in payload["components"]] == ["0", "1"]
    assert payload["idempotents"] == ["-t + 1", "t"]


def test_classify_module_rejects_a_verma_spec(capsys, tmp_path):
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"variant": "verma",
                               "functional": {"d0": {"1": "2"}, "c": {}}}))
    code, out, err = run_cli(capsys, "classify", "-M", str(mod))
    assert code == 1
    assert out == ""
    assert "classify -M expects an int_series_eval module spec" in err


def test_selftest_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "selftest", "--seed", "3")
    code2, out2, _ = run_cli(capsys, "selftest", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed 3" in out1


def test_selftest_idempotents_suite_catches_a_wrong_split(monkeypatch):
    from mapvir import selftest
    real = selftest.crt_idempotents
    monkeypatch.setattr(selftest, "crt_idempotents",
                        lambda alg: ((F(1),),) + real(alg)[1:])
    ok, detail = selftest.suite_idempotents(0)
    assert not ok
    assert "idempotents" in detail


def test_reports_byte_identical(capsys, dual_algebra, dual_phi):
    _, out1, _ = run_cli(capsys, "check", "--reducible",
                         "-A", dual_algebra, "-phi", dual_phi)
    _, out2, _ = run_cli(capsys, "check", "--reducible",
                         "-A", dual_algebra, "-phi", dual_phi)
    assert out1 == out2


def test_emitted_rationals_roundtrip(capsys, dual_algebra, dual_phi):
    _, out, _ = run_cli(capsys, "check", "--reducible",
                        "-A", dual_algebra, "-phi", dual_phi)
    payload = json.loads(out)

    def scan(node):
        if isinstance(node, dict):
            for v in node.values():
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)
        elif isinstance(node, str):
            try:
                q = parse_scalar(node)
            except ValueError:
                return
            assert format_scalar(q) == node or node != node.strip()

    scan(payload)


def test_exit_code_validation_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--reducible",
                           "-phi", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error" in err


def test_exit_code_window_overflow(capsys, tmp_path):
    alg = tmp_path / "poly.json"
    alg.write_text(json.dumps({"kind": "polynomial", "window": [0, 2]}))
    code, _, err = run_cli(capsys, "bracket", "-A", str(alg),
                           "d[1]*(t^2)", "d[-1]*(t)")
    assert code == 2
    assert "window" in err.lower()


@pytest.mark.parametrize("exc, code", [
    (ValueError, 1), (errors.UnsupportedKind, 1), (errors.MissingWindow, 1),
    (errors.AlgebraMismatch, 1), (errors.WindowOverflow, 2), (errors.ModeRangeError, 2),
    (errors.NotLowering, 2), (errors.ImproperIdeal, 2), (errors.InfiniteDimensionalAlgebra, 2),
], ids=lambda x: getattr(x, "__name__", None))
def test_exit_code_by_error_class(capsys, monkeypatch, exc, code):
    def failing(args, alg):
        raise exc("planted")

    monkeypatch.setattr(cli, "_cmd_bracket", failing)
    assert run_cli(capsys, "bracket", "d[1]", "d[-1]") == (code, "", "error: planted\n")


@pytest.mark.parametrize("command", [("check", "--quasifinite"),
                                     ("check", "--reducible"), ("classify",)])
def test_exit_code_negative_bound(capsys, tmp_path, command):
    alg = tmp_path / "poly.json"
    alg.write_text(json.dumps({"kind": "polynomial", "window": [0, 16]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"d0_seq": ["1", "2", "4", "8", "16", "32"],
                               "c_seq": ["0"] * 6}))
    code, out, err = run_cli(capsys, *command, "-A", str(alg), "-phi", str(phi),
                             "--bound=-1", "--assume-exact")
    assert code == 1
    assert out == "" and "bound" in err


def test_console_script_installed():
    # src first, so an uninstalled checkout runs its own package
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "mapvir.cli", "bracket",
                           "d[2]*1", "d[-2]*1"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-4*d[0] + 1/2*c"


def test_only_the_emitter_prints_json_and_metadata():
    # one function renders every report; only module --weights reads the format
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    callers, readers = {}, set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ("dumps", "_metadata"):
                    callers.setdefault(name, set()).add(owner)
            elif isinstance(node, ast.Attribute) and node.attr == "format" \
                    and getattr(node.value, "id", None) == "args":
                readers.add(owner)
    assert callers == {"dumps": {"_emit"}, "_metadata": {"_emit"}}
    assert readers == {"_emit", "_cmd_module"}
