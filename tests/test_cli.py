import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbfold

from hilbfold.cli import main
from hilbfold.export import (complex_to_dict, dict_to_json, polytope_to_off,
                             render_svg, sing_complex_to_dict)
from hilbfold.hypercomplex import build_complex
from hilbfold.localmodel import build_sing_complex, toric_polytope


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_count_punctual(capsys):
    rc, out = run(capsys, ["count", "--punctual", "-n", "3", "-m", "5"])
    assert rc == 0
    assert out.startswith("16")


def test_count_global_json(capsys):
    rc, out = run(capsys, ["count", "--global", "-n", "3", "-m", "3",
                           "--json"])
    assert rc == 0
    assert json.loads(out) == {"global_components": 13}


def test_count_multi(capsys):
    rc, out = run(capsys, ["count", "--multi", "3,3", "-m", "4"])
    assert rc == 0
    assert out.startswith("4 ")


def test_count_missing_args(capsys):
    rc = main(["count", "--punctual", "-n", "3"])
    assert rc == 2


def test_components_listing(capsys):
    rc, out = run(capsys, ["components", "-n", "3", "-m", "3"])
    assert rc == 0
    assert out.count("l=2") == 3 and out.count("l=1") == 1


def ideal_file(tmp_path, data):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(data))
    return str(path)


VERTEX_IDEAL = {"n": 3, "generators": [
    {"constant": 0, "branches": [[0, 1], [], []]},
    {"constant": 0, "branches": [[], [1], []]},
    {"constant": 0, "branches": [[], [], [1]]},
]}


def test_classify_vertex_ideal(capsys, tmp_path):
    rc, out = run(capsys, ["classify", "--ideal",
                           ideal_file(tmp_path, VERTEX_IDEAL)])
    assert rc == 0
    assert "singular" in out and "degree >= 2" in out
    assert "smoothable: true" in out


def test_classify_json_roundtrip(capsys, tmp_path):
    rc, out = run(capsys, ["classify", "--json", "--ideal",
                           ideal_file(tmp_path, VERTEX_IDEAL)])
    data = json.loads(out)
    assert data["singular"] is True and data["smoothable"] is True
    assert json.loads(dict_to_json(data)) == data


def test_moment_output(capsys, tmp_path):
    rc, out = run(capsys, ["moment", "--json", "--ideal",
                           ideal_file(tmp_path, VERTEX_IDEAL)])
    data = json.loads(out)
    assert data["moment"] == ["1", "0", "0"]
    assert data["face"]["dim"] == 0


def test_tangent_output(capsys, tmp_path):
    rc, out = run(capsys, ["tangent", "--json", "--ideal",
                           ideal_file(tmp_path, VERTEX_IDEAL)])
    data = json.loads(out)
    assert data == {"colength": 2, "tangent_dim": 4}


def test_gaussian_coefficients_accepted(capsys, tmp_path):
    data = {"n": 2, "generators": [
        {"constant": [0, 1, 0, 1],
         "branches": [[[1, 2, 1, 2]], [[1, 1, 0, 1]]]}]}
    rc, out = run(capsys, ["tangent", "--json", "--ideal",
                           ideal_file(tmp_path, data)])
    assert json.loads(out)["colength"] == 2


def test_bad_ideal_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", "--ideal", str(path)]) == 2


def test_zero_denominator_is_validation_error(capsys, tmp_path):
    data = {"n": 2, "generators": [
        {"constant": 0, "branches": [[[1, 0, 0, 1]], [1]]}]}
    assert main(["tangent", "--ideal", ideal_file(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "zero denominator" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("n, coeff", [
    (2.7, 1),
    (True, 1),
    ("2", 1),
    (2, True),
    (2, 1.0),
    (2, [True, 1, 0, 1]),
    (2, [1, 1, 0, True]),
    (2, [1.5, 1, 0, 1]),
])
def test_non_integer_ideal_values_are_rejected(n, coeff, capsys, tmp_path):
    data = {"n": n, "generators": [
        {"constant": 0, "branches": [[coeff], [1]]}]}
    assert main(["tangent", "--ideal", ideal_file(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_not_origin_supported_is_validation_error(capsys, tmp_path):
    data = {"n": 2, "generators": [
        {"constant": 0, "branches": [[1, -1], []]},
        {"constant": 0, "branches": [[], [1]]}]}
    assert main(["classify", "--ideal", ideal_file(tmp_path, data)]) == 2


def test_local_text(capsys):
    rc, out = run(capsys, ["local", "-n", "3", "-k", "2"])
    assert rc == 0
    assert "5" in out.splitlines()[0]


def test_local_json(capsys):
    rc, out = run(capsys, ["local", "-n", "3", "-k", "2", "--json"])
    data = json.loads(out)
    assert data["component_count"] == 5
    assert len(data["cells"]) == 5


def test_local_off(capsys):
    rc, out = run(capsys, ["local", "-n", "4", "-k", "3", "--format", "off"])
    assert rc == 0
    assert out.startswith("OFF\n6 8 0")


def test_complex_export(tmp_path, capsys):
    target = tmp_path / "k.json"
    rc = main(["complex", "-n", "2", "-m", "3", "--out", str(target)])
    assert rc == 0
    data = json.loads(target.read_text())
    assert len(data["cells"]) == 2
    assert data["adjacency"] == [[0, 1, 0]]


def test_plot_svg(tmp_path):
    target = tmp_path / "k34.svg"
    assert main(["plot", "-n", "3", "-m", "4", "--out", str(target)]) == 0
    svg = target.read_text()
    assert svg.count("<polygon") == 9


def test_plot_rejects_high_dimension(capsys):
    assert main(["plot", "-n", "4", "-m", "3"]) == 2


def test_verify_runs(capsys):
    rc, out = run(capsys, ["verify", "--field-prime", "2", "--seed", "11"])
    assert rc == 0
    assert "FAIL" not in out
    assert "gluing sweep seed=11" in out


def test_strict_turns_flagged_mismatch_into_failure(capsys):
    assert main(["count", "--punctual", "-n", "2", "-m", "3"]) == 0
    capsys.readouterr()
    assert main(["count", "--punctual", "-n", "2", "-m", "3",
                 "--strict"]) == 3


def test_components_strata_listing(capsys):
    rc, out = run(capsys, ["components", "-n", "3", "-m", "4",
                           "--mprime", "2", "--json"])
    data = json.loads(out)
    assert [r["component_count"] for r in data["strata"]] == [1, 3, 6]


def test_local_with_degree_vector(capsys):
    rc, out = run(capsys, ["local", "-n", "3", "-k", "2", "--u", "3,2,1",
                           "--json"])
    data = json.loads(out)
    kinds = {r["family"]: r for r in data["components"]}
    assert kinds["J(1,)"]["grass"] == [2, 2]
    assert not kinds["J(1,)"]["smoothable"]
    assert kinds["Q(1,)"]["smoothable"]
    assert len(data["punctual_primes"]) == 3


def test_complex_off_export(capsys):
    rc, out = run(capsys, ["complex", "-n", "2", "-m", "3",
                           "--format", "off"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "nOFF" and lines[2] == "3 2 0"


def test_plot_segments(tmp_path):
    target = tmp_path / "k24.svg"
    assert main(["plot", "-n", "2", "-m", "4", "--out", str(target)]) == 0
    svg = target.read_text()
    assert svg.count("<line") == 3
    assert svg.count("<circle") == 4


# -- determinism ----------------------------------------------------------------

def test_exports_byte_identical():
    K = build_complex(3, 4)
    a = dict_to_json(complex_to_dict(K))
    b = dict_to_json(complex_to_dict(build_complex(3, 4)))
    assert a == b
    assert render_svg(K) == render_svg(build_complex(3, 4))
    p = toric_polytope(3)
    assert polytope_to_off(p) == polytope_to_off(toric_polytope(3))
    sc = build_sing_complex(3, 2)
    assert dict_to_json(sing_complex_to_dict(sc)) == \
        dict_to_json(sing_complex_to_dict(build_sing_complex(3, 2)))


def test_complex_json_schema_fields():
    data = complex_to_dict(build_complex(3, 3))
    assert set(data) == {"n", "m", "cells", "faces", "adjacency"}
    assert all(set(c) == {"l", "shift"} for c in data["cells"])
    assert all(set(f) == {"s1", "s2", "l", "shift"} for f in data["faces"])
    assert all(len(e) == 3 for e in data["adjacency"])


def test_off_format_for_square():
    text = polytope_to_off(toric_polytope(2))
    lines = text.splitlines()
    assert lines[0] == "nOFF" and lines[1] == "2"
    assert lines[2] == "4 4 0"


# -- rejected input ---------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["count", "-n", "3", "-m", "3", "--ideal", "x"],
    ["complex", "-n", "3", "-m", "3", "--json"],
    ["complex", "-n", "3", "-m", "3", "--seed", "4"],
    ["complex", "-n", "3", "-m", "3", "-k", "9"],
    ["plot", "-n", "3", "-m", "3", "--format", "svg"],
    ["classify", "--ideal", "x", "-n", "3"],
    ["local", "-n", "3", "-m", "4"],
    ["verify", "-n", "3"],
    ["local", "-n", "3", "-k", "2", "--format", "svg"],
])
def test_flags_of_other_verbs_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["count", "-n", "0", "-m", "3"],
    ["count", "--multi", "3,3", "-m", "-2"],
    ["local", "-n", "3", "-k", "5"],
    ["local", "-n", "2", "-k", "3", "--u", "2,2"],
    ["local", "-n", "3", "-k", "5", "--format", "off"],
    ["local", "-n", "3", "-k", "1", "--format", "off"],
    ["components", "-n", "3", "-m", "3", "--mprime", "9"],
    ["components", "-n", "3", "-m", "3", "--mprime", "1"],
])
def test_out_of_range_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_count_rejects_two_mode_flags(capsys):
    assert main(["count", "--curve", "--global", "-n", "3", "-m", "3"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_cross_check_disagreement_exits_3(capsys, tmp_path, monkeypatch):
    from hilbfold import hypercomplex
    closed = hypercomplex._smoothable_closed
    monkeypatch.setattr(hypercomplex, "_smoothable_closed",
                        lambda face: not closed(face))
    path = ideal_file(tmp_path, VERTEX_IDEAL)
    assert main(["classify", "--ideal", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal diagnostic failure: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_local_dimension_bookkeeping_failure_exits_3(capsys):
    # the (2,1) origin_pair family fails translate_component's check
    assert main(["local", "-n", "2", "-k", "1", "--u", "2,1"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("internal diagnostic failure: ")
    assert len(captured.err.splitlines()) == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(hilbfold.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "hilbfold", "count", "-n", "3", "-m", "3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n"
