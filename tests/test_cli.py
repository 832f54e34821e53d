import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hilbfold

from hilbfold.cli import main
from hilbfold.export import (complex_to_dict, dict_to_json, polytope_to_off,
                             render_svg, sing_complex_to_dict)
from hilbfold.foldring import InternalDiagnosticError
from hilbfold.hypercomplex import build_complex
from hilbfold.localmodel import (build_sing_complex, primary_components,
                                 reduced_ideal, toric_polytope,
                                 verify_decomposition_ff, verify_reduction,
                                 verify_sing_complex)


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
    for text in ("{not json", '{"n": 2, "generators": [[1, 1, 0, 1]]}'):
        path.write_text(text)
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


_SMALL = st.integers(-3, 3)
_HUGE = st.integers(-10 ** 40, 10 ** 40)
_DENOMINATOR = st.sampled_from([1, 2, -1, -3, 10 ** 40 + 1, 0])
_COEFF = st.one_of(_SMALL, st.tuples(_SMALL, _DENOMINATOR, _SMALL,
                                     _DENOMINATOR).map(list), _HUGE)
_BRANCH = st.one_of(  # a monomial x^k keeps the ideal at the origin
    st.tuples(st.integers(0, 2), _COEFF).map(lambda t: [0] * t[0] + [t[1]]),
    st.lists(_COEFF, min_size=1, max_size=3))
_WRONG = st.one_of(st.none(), st.booleans(), st.floats(-4, 4),
                   st.text(max_size=2),
                   st.dictionaries(st.text(max_size=1), _SMALL, max_size=1),
                   st.lists(st.one_of(_SMALL, st.none()), max_size=5))


@st.composite
def _ideal_json(draw):
    """An ideal file with n from 1 to 3 and integer or Gaussian
    coefficients, some of them huge or with a zero or negative
    denominator; two files in three are then given one flaw."""
    n = draw(st.integers(1, 3))
    gens = [{"constant": 0, "branches": [draw(_BRANCH) for _ in range(n)]}
            for _ in range(draw(st.integers(1, 3)))]
    data = {"n": n, "generators": gens}
    gen = draw(st.sampled_from(gens))
    flaw = draw(st.sampled_from(["none", "none", "none", "n", "constant",
                                 "coefficient", "branches", "generator",
                                 "key", "file"]))
    if flaw == "n":
        data["n"] = draw(st.one_of(_HUGE, _WRONG, st.integers(-2, 0)))
    elif flaw == "constant":
        gen["constant"] = draw(st.one_of(_COEFF, _WRONG))
    elif flaw == "coefficient":
        draw(st.sampled_from(gen["branches"])).append(draw(_WRONG))
    elif flaw == "branches":
        gen["branches"] = draw(st.one_of(_COEFF, _WRONG,
                                         st.lists(st.lists(_COEFF))))
    elif flaw == "generator":
        gens.insert(draw(st.integers(0, len(gens))),
                    draw(st.one_of(_COEFF, _WRONG)))
    elif flaw == "key":
        del data[draw(st.sampled_from(["n", "generators"]))]
    elif flaw == "file":
        data = draw(st.one_of(_COEFF, _WRONG))
    return data


@pytest.mark.parametrize("verb", ["classify", "moment", "tangent"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=_ideal_json())
def test_random_ideal_files_exit_cleanly(verb, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ideal.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([verb, "--json", "--ideal", path])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        json.loads(out.getvalue())
    else:
        assert len(err.getvalue().splitlines()) == 1


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


# sha256 of the default `hilbfold verify --json` output; a check added to
# verify on purpose changes it
VERIFY_JSON_SHA256 = ("df496f73325e688c6c37b2a5a4bacaefba01390bc809ccc118cf"
                      "3fbe80f1455a")


def test_verify_json_is_pinned(capsys):
    rc, out = run(capsys, ["verify", "--json"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256


def test_verify_reports_a_broken_gluing(capsys, monkeypatch):
    """Containing presentations of a sweep instance differ by one row, so
    shifting the moment on odd row counts breaks every instance."""
    from hilbfold import moment
    original = moment._moment_of_presentation

    def shifted(n, l, u, matrix):
        point = original(n, l, u, matrix)
        return moment.MomentPoint((point.coords[0] + l % 2,)
                                  + point.coords[1:])
    monkeypatch.setattr(moment, "_moment_of_presentation", shifted)
    with pytest.raises(InternalDiagnosticError):
        moment.gluing_consistency_sweep(10, seed=0)
    rc, out = run(capsys, ["verify", "--field-prime", "2"])
    assert rc == 3
    assert "FAIL  moment gluing sweep seed=0" in out.splitlines()


PUNCTUAL_GRID = [["count", "--punctual", "-n", str(n), "-m", str(m)]
                 for n in range(1, 6) for m in range(2, 7)]
STRATA_GRID = [["components", "-n", str(n), "-m", str(m), "--mprime", str(p)]
               for n in range(3, 7) for m in range(2, 8)
               for p in range(2, min(m, n - 1) + 1)]

# sha256 of the concatenated outputs of each command list; a change to a
# listing or a count on purpose changes it
PINNED_OUTPUTS = {
    "components": ([["components", "-n", "4", "-m", "5"]],
                   "9097b2d75005a15a45fc6bc3263181373685c03137091efcaa169404"
                   "cd5a8a61"),
    "components-json": ([["components", "-n", "4", "-m", "5", "--json"]],
                        "4269747276a5d67aa58d671239b431002e3e6bbedd88af70422"
                        "55dcc122973f5"),
    "components-mprime": ([["components", "-n", "5", "-m", "5", "--mprime",
                            "3"]],
                          "d954a3e5881bc405d972e898724856ea6e9fddb9fca722df3"
                          "e84b036dba98ef6"),
    "components-mprime-json": ([["components", "-n", "5", "-m", "5",
                                 "--mprime", "3", "--json"]],
                               "c819cb720e6ac6246a2ec84da038f27d30646e3e64c5"
                               "dd20e86e001bef77fd32"),
    "components-mprime-grid": (STRATA_GRID,
                               "23fe38e69fc79e8fc80b1001b7b7ce57e6ef3afff702"
                               "856338569bc99b6da1d2"),
    "components-mprime-grid-json": ([argv + ["--json"]
                                     for argv in STRATA_GRID],
                                    "5a7c40d1e213a8547e17b0bc169628617e70a29"
                                    "d2672ae26cb5c7150c57498bf"),
    "count-punctual": (PUNCTUAL_GRID,
                       "100d8b2975d755524124c634be81f740d9eefabccf5e29d5ab62"
                       "0534bf4cf999"),
    "count-punctual-json": ([argv + ["--json"] for argv in PUNCTUAL_GRID],
                            "791815ee01e13799aefa9547f50507a74bb96b82db937a3"
                            "39978ac0cb6a8f7c1"),
}


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_listing_and_count_outputs_are_pinned(name, capsys):
    argvs, digest = PINNED_OUTPUTS[name]
    text = ""
    for argv in argvs:
        rc, out = run(capsys, argv)
        assert rc == 0, argv
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_strict_turns_flagged_mismatch_into_failure(capsys):
    """The punctual closed form is the advertised formula, not a second
    route to the count: its mismatch is flagged at exit 0, and there is no
    flag that turns it into a failure."""
    rc, out = run(capsys, ["count", "-n", "2", "-m", "3"])
    assert rc == 0 and out.startswith("2  [closed form ")
    assert "disagrees]" in out
    with pytest.raises(SystemExit) as exc:
        main(["count", "-n", "2", "-m", "3", "--strict"])
    assert exc.value.code == 2


def test_components_strata_listing(capsys):
    rc, out = run(capsys, ["components", "-n", "3", "-m", "4",
                           "--mprime", "2", "--json"])
    data = json.loads(out)
    assert [r["component_count"] for r in data["strata"]] == [1, 3, 6]


def test_strata_are_counted_without_intersecting(capsys, monkeypatch):
    def refuse(c1, c2):
        raise AssertionError("strata need no pairwise intersections")
    monkeypatch.setattr(hilbfold.components, "intersect_components", refuse)
    rc, out = run(capsys, ["components", "-n", "5", "-m", "6",
                           "--mprime", "2", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert [r["component_count"] for r in data["strata"]] == [1, 5, 15, 35,
                                                              70]


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
    for k in range(2, 6):
        lines = polytope_to_off(toric_polytope(k)).splitlines()
        if lines[0] == "OFF":
            dim, lines = 3, lines[1:]
        else:
            assert lines[0] == "nOFF"
            dim, lines = int(lines[1]), lines[2:]
        assert dim == k
        nv, nf, _ = map(int, lines[0].split())
        assert len(lines) == 1 + nv + nf
        for row in lines[1:1 + nv]:
            assert len(row.split()) == dim, (k, row)
        for row in lines[1 + nv:]:
            size, *members = map(int, row.split())
            assert size == len(members) >= dim
            assert all(0 <= i < nv for i in members)


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
    ["local", "-n", "3", "-k", "2", "--u", "3,2,1", "--format", "json"],
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
    ["local", "-n", "3", "-k", "2", "--format", "off", "--u", "3,2,1"],
    ["local", "-n", "3", "-k", "2", "--format", "off", "--json"],
    ["components", "-n", "3", "-m", "3", "--mprime", "2", "--global"],
])
def test_out_of_range_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_every_flag_is_read_by_a_verb():
    from hilbfold import cli
    read = set()
    for _, _, flags, required in cli.VERBS.values():
        assert set(required) <= set(flags)
        read.update(flags)
    assert set(cli.FLAGS) == read


def test_count_rejects_two_mode_flags(capsys):
    assert main(["count", "--curve", "--global", "-n", "3", "-m", "3"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


ONE_AXIS_IDEAL = {"n": 1, "generators": [
    {"constant": 0, "branches": [[0, -1]]},
]}


def test_one_axis_ideal(capsys, tmp_path):
    # <x^2> on a curve: classify refuses n = 1, the other verbs answer
    path = ideal_file(tmp_path, ONE_AXIS_IDEAL)
    assert main(["classify", "--ideal", path]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: classify needs n >= 2")
    assert "smooth" in captured.err and len(captured.err.splitlines()) == 1
    rc, out = run(capsys, ["moment", "--ideal", path, "--json"])
    assert rc == 0 and json.loads(out) == {"colength": 2, "moment": ["1"]}
    rc, out = run(capsys, ["tangent", "--ideal", path, "--json"])
    assert rc == 0 and json.loads(out) == {"colength": 2, "tangent_dim": 2}


def test_cell_count_disagreement_exits_3(capsys, monkeypatch):
    from hilbfold import hypercomplex
    monkeypatch.setattr(hypercomplex, "count_maximal_cells",
                        lambda n, m: 0)
    hypercomplex.build_complex.cache_clear()
    assert main(["complex", "-n", "3", "-m", "5"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("internal diagnostic failure: ")
    assert "cell count" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_punctual_count_disagreement_exits_3(capsys, monkeypatch):
    from hilbfold import components
    monkeypatch.setattr(components, "count_maximal_cells", lambda n, m: 0)
    assert main(["count", "--punctual", "-n", "3", "-m", "4"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("internal diagnostic failure: ")
    assert len(captured.err.splitlines()) == 1


def test_counts_do_not_list_components(capsys, monkeypatch):
    from hilbfold import components

    def refuse(*args):
        raise AssertionError("a count lists no components")
    for name in ("punctual_components", "global_components",
                 "positive_compositions"):
        monkeypatch.setattr(components, name, refuse)
    assert run(capsys, ["count", "-n", "9", "-m", "9"]) == (0, "11440\n")
    assert run(capsys, ["count", "--global", "-n", "10", "-m", "14"]) == (
        0, "1462835\n")
    rc, out = run(capsys, ["components", "-n", "8", "-m", "12",
                           "--mprime", "2", "--json"])
    assert rc == 0
    assert [r["component_count"] for r in json.loads(out)["strata"]] == [
        math.comb(u + 7, 7) for u in range(11)]


@pytest.mark.parametrize("argv", [
    ["count", "-n", "4", "-m", "5"],
    ["count", "--global", "-n", "4", "-m", "5"],
    ["components", "-n", "4", "-m", "5", "--mprime", "2"],
])
def test_composition_count_disagreement_exits_3(argv, capsys, monkeypatch):
    from hilbfold import components
    original = components.lattice_point_count
    monkeypatch.setattr(components, "lattice_point_count",
                        lambda n, l, t: original(n, l, t) + 1)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("internal diagnostic failure: ")
    assert len(captured.err.splitlines()) == 1


def test_curve_count_disagreement_exits_3(capsys, monkeypatch):
    from hilbfold import components
    original = components.multi_sing_count

    def off_by_one(k, m, ns):
        res = original(k, m, ns)
        return components.MultiSingCount(res.brute + 1, res.formula,
                                         res.matches, res.vectors)
    monkeypatch.setattr(components, "multi_sing_count", off_by_one)
    assert main(["count", "--curve", "-n", "4", "-m", "5"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("internal diagnostic failure: ")
    assert len(captured.err.splitlines()) == 1


def test_multi_count_mismatch_exits_3(capsys, monkeypatch):
    from hilbfold import components
    original = components._chi
    monkeypatch.setattr(components, "_chi",
                        lambda j, budget, caps: original(j, budget, caps) + 1)
    rc, out = run(capsys, ["count", "--multi", "3,3", "-m", "4"])
    assert rc == 3 and "match=False" in out


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


def test_pure_power_tangent_mutation_exits_3(capsys, tmp_path, monkeypatch):
    # a tangent dimension wrong only where a pure power of degree >= 2 is a
    # minimal generator must still be caught
    from hilbfold import foldring
    original = foldring.tangent_dim

    def wrong_on_pure_powers(ideal, m=None):
        if any(ideal.u[axis] >= 2 for _, axis in ideal.monomial_rows()):
            return 0
        return original(ideal, m)
    monkeypatch.setattr(foldring, "tangent_dim", wrong_on_pure_powers)
    path = ideal_file(tmp_path, VERTEX_IDEAL)
    assert main(["classify", "--ideal", path]) == 3
    assert capsys.readouterr().err.startswith("internal diagnostic failure: ")


def test_local_2_1_translates_both_families(capsys):
    # at n = 2 the origin pair lies inside line_plus_point(2), so only the
    # two minimal families are translated
    assert main(["local", "-n", "2", "-k", "1", "--u", "2,1"]) == 0
    assert capsys.readouterr().out == (
        "single_line(): smoothable len-2 on axis 1\n"
        "line_plus_point(2,): smoothable len-1 on axis 1 x len-1 on axis 2\n")


def test_local_1_1_is_one_smooth_component(capsys):
    # the reduced ideal has no generators: one family, one cell
    rc, out = run(capsys, ["local", "-n", "1", "-k", "1"])
    assert rc == 0 and out.splitlines()[0].endswith(": 1")
    rc, out = run(capsys, ["local", "-n", "1", "-k", "1", "--json"])
    assert rc == 0 and json.loads(out)["component_count"] == 1
    sc = build_sing_complex(1, 1)
    for q in (2, 3):
        assert verify_decomposition_ff(reduced_ideal(1, 1),
                                       primary_components(1, 1), q)
        assert verify_reduction(1, 1, (3,), q)
        assert verify_sing_complex(sc, q)


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
