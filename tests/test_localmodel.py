import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from hilbfold import ffield, localmodel
from hilbfold.cli import main
from hilbfold.foldring import InternalDiagnosticError
from hilbfold.localmodel import (ComponentTranslation, PolyIdealGens,
                                 build_sing_complex, deformation_ideal,
                                 expected_intersection_labels,
                                 local_component_count,
                                 pairwise_incomparable,
                                 polytope_lattice_volume, primary_components,
                                 punctual_local_ring, reduced_ideal,
                                 technical_ideal, toric_polytope,
                                 translate_component,
                                 unimodular_triangulation,
                                 verify_decomposition_ff, verify_reduction,
                                 verify_sing_complex)
from hilbfold.localmodel import _enumerate_facets, _qi_polytope_vertices
from test_ffield import reference_chunks, reference_mask, reference_tables

ACCEPTANCE_PAIRS = [(2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


# -- generator families -----------------------------------------------------

def test_deformation_ideal_block_sizes():
    n, k, u = 3, 2, (2, 2, 1)
    ideal = deformation_ideal(n, k, u)
    # blocks: (n-k)(n-1), (n-k)(n-1)sum(u_r - 1), and for the inner axes
    # (n-1)k each for the two coefficient blocks, (n-1)sum(u_j-2) for the
    # recursion, (n-1)sum over j of sum_{r != j}(u_r - 1) for cross rows
    s = sum(x - 1 for x in u[:k])
    expected = ((n - k) * (n - 1)
                + (n - k) * (n - 1) * s
                + (n - 1) * k
                + (n - 1) * k
                + (n - 1) * sum(x - 2 for x in u[:k])
                + (n - 1) * sum(sum(u[r] - 1 for r in range(k) if r != j)
                                for j in range(k)))
    assert len(ideal.generators) == expected


def test_deformation_ideal_k_equals_n_has_no_outer_blocks():
    ideal = deformation_ideal(3, 3, (2, 2, 2))
    names = ideal.variables
    # no generator may involve a product of two A-variables
    for gen in ideal.generators:
        avars = [v for _, powers in gen for v, _ in powers
                 if names[v].startswith("A")]
        assert len(avars) <= 1


def test_deformation_ideal_2_1_structure():
    ideal = deformation_ideal(2, 1, (3, 1))
    assert "A1" in ideal.variables and "a2_1_2" in ideal.variables


def test_reduced_ideal_3_1():
    ideal = reduced_ideal(3, 1)
    assert ideal.pretty() == ["A1*a2", "A1*a3", "a2*a3*a1_1"]


def test_reduced_ideal_2_1():
    assert reduced_ideal(2, 1).pretty() == ["A1*a2"]


def test_reduced_ideal_3_2_variables():
    ideal = reduced_ideal(3, 2)
    assert ideal.variables == ("b1", "b2", "a1_2", "a2_1", "a3_1", "a3_2")


def test_poly_ideal_rejects_triple_terms():
    with pytest.raises(ValueError):
        PolyIdealGens(("x", "y"), (((1, ((0, 1),)), (1, ((1, 1),)),
                                    (1, ((0, 2),))),))


# -- pinned local models ------------------------------------------------------

PIN_GRID = [(n, k) for n in range(1, 6) for k in range(1, n + 1)]


def _degree_vectors(n, k):
    """Two degree vectors of depth k: all twos, and k + 1 down to 2."""
    return [(2,) * k + (1,) * (n - k),
            tuple(range(k + 1, 1, -1)) + (1,) * (n - k)]


def _families(fams):
    return [(f.kind, f.data, f.sigma_label, f.gens.generators) for f in fams]


def _cli_text(argvs, capsys):
    text = ""
    for argv in argvs:
        assert main(argv) == 0, argv
        text += capsys.readouterr().out
    return text


def _local_argvs(*extra):
    return [["local", "-n", str(n), "-k", str(k), *extra]
            for n, k in PIN_GRID]


# sha256 of the repr of each builder's generators over PIN_GRID, and of the
# concatenated `local` outputs; a change to a local model on purpose changes
# it
PINNED_LOCAL_MODELS = {
    "deformation_ideal": (
        lambda _: repr([deformation_ideal(n, k, u).generators
                        for n, k in PIN_GRID for u in _degree_vectors(n, k)]),
        "a7f2d3bf96ba12156d55b1cf43a6da1f4b3ba6313dba4e793ccc9ea2663b435e"),
    "reduced_ideal": (
        lambda _: repr([reduced_ideal(n, k).generators for n, k in PIN_GRID]),
        "6ba7ad7edff78d9654b5da46c3a16289b5ce2368b43941b8315698fdc273f8b2"),
    "primary_components": (
        lambda _: repr([_families(primary_components(n, k))
                        for n, k in PIN_GRID]),
        "15aea93fbb9bad379a5fdc75b8f85e266e1980754dd5fc5b6ea02a1a8378afec"),
    "technical_ideal": (
        lambda _: repr([(ideal.generators, _families(primes))
                        for n, k in PIN_GRID
                        for axes in (range(1, k + 1), range(n - k + 1, n + 1))
                        for ideal, primes in [technical_ideal(n, axes)]]),
        "afe361dfe845bd2234bce4e15829a6a99726c5cfbc36aadcfa63725c216cc8a8"),
    "punctual_local_ring": (
        lambda _: repr([(ideal.generators, _families(primes))
                        for n, k in PIN_GRID for u in _degree_vectors(n, k)
                        for ideal, primes in [punctual_local_ring(n, k, u)]]),
        "5ffa6dcd5b12d4143ddc37e448cd9b5d633d79589ce8c7475f10e3922db62545"),
    "local": (
        lambda capsys: _cli_text(_local_argvs(), capsys),
        "50b1799cd1e72660988669fe94f9ca2a08401da4c82e7e30b58963252b2cd5e5"),
    "local-json": (
        lambda capsys: _cli_text(_local_argvs("--json"), capsys),
        "8cc7b64698a255e9efb67be4fcaf9ae58cb36014636fef597b1022e912013a84"),
    "local-u-json": (
        lambda capsys: _cli_text([["local", "-n", "4", "-k", "3", "--u",
                                   "3,2,2,1", "--json"]], capsys),
        "6c4f4c798b36178ff279f7c4bff8557b4951224fcb6cb2b28d49b9ff6466f399"),
}


@pytest.mark.parametrize("name", PINNED_LOCAL_MODELS)
def test_local_models_are_pinned(name, capsys):
    produce, digest = PINNED_LOCAL_MODELS[name]
    text = produce(capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- primary decompositions ---------------------------------------------------

@pytest.mark.parametrize("n,k,expected", [(3, 1, 4), (4, 1, 5), (3, 2, 5),
                                          (4, 2, 7), (3, 3, 6), (2, 1, 2),
                                          (1, 1, 1)])
def test_family_counts(n, k, expected):
    assert len(primary_components(n, k)) == expected
    assert local_component_count(n, k) == expected


@pytest.mark.parametrize("n,k", [(3, 5), (3, 4), (3, 0)])
def test_k_out_of_range_rejected(n, k):
    u = (2,) * n
    for build in (reduced_ideal, primary_components):
        with pytest.raises(ValueError, match="k out of range"):
            build(n, k)
    with pytest.raises(ValueError, match="k out of range"):
        punctual_local_ring(n, k, u)


def test_3_2_families_explicit():
    fams = primary_components(3, 2)
    kinds = sorted((f.kind, f.data) for f in fams)
    assert kinds == [("J", (1,)), ("J", (2,)), ("Q", (1,)), ("Q", (2,)),
                     ("Q", (3,))]


def test_families_incomparable_where_minimal():
    for n, k in ACCEPTANCE_PAIRS:
        assert pairwise_incomparable(primary_components(n, k))


@pytest.mark.parametrize("n,k", ACCEPTANCE_PAIRS)
@pytest.mark.parametrize("q", [2, 3])
def test_decomposition_pointwise(n, k, q):
    assert verify_decomposition_ff(reduced_ideal(n, k),
                                   primary_components(n, k), q)


@pytest.mark.parametrize("n,k", ACCEPTANCE_PAIRS)
@pytest.mark.parametrize("q", [2, 3])
def test_punctual_ring_pointwise(n, k, q):
    u = tuple([2] * k + [1] * (n - k))
    ideal, primes = punctual_local_ring(n, k, u)
    expected = 2 ** k - (2 if k == n else 1)
    assert len(primes) == expected
    assert verify_decomposition_ff(ideal, primes, q)


def test_punctual_prime_labels():
    # colength of the vertex ideal with u = (3, 2, 1) is 4
    _, primes = punctual_local_ring(3, 2, (3, 2, 1))
    labels = {p.data: p.sigma_label for p in primes}
    assert labels[()] == (4, 1, (2, 1, 1))
    assert labels[(1,)] == (4, 2, (3, 1, 1))
    assert labels[(2,)] == (4, 2, (2, 2, 1))


@pytest.mark.parametrize("n,axes", [(3, (1,)), (3, (1, 2)), (4, (1, 2, 3)),
                                    (3, (1, 2, 3)), (5, (1, 2, 3))])
@pytest.mark.parametrize("q", [2, 3])
def test_technical_ideal_pointwise(n, axes, q):
    ideal, primes = technical_ideal(n, axes)
    assert verify_decomposition_ff(ideal, primes, q)
    expected = 2 ** len(axes) - (2 if len(axes) == n else 1)
    assert len(primes) == expected


@pytest.mark.parametrize("n,k", ACCEPTANCE_PAIRS)
@pytest.mark.parametrize("q", [2, 3])
def test_reduction_matches_deformation_ideal(n, k, q):
    u = tuple([2] * k + [1] * (n - k))
    assert verify_reduction(n, k, u, q)


def test_reduction_with_free_series_coefficients():
    assert verify_reduction(2, 1, (3, 1), 3)
    assert verify_reduction(3, 2, (3, 2, 1), 2)


def test_reduction_walks_each_variety_once(monkeypatch):
    walked = []
    walk = ffield._walk

    def counting(gens_list, nvars, q, budget):
        walked.append(nvars)
        return walk(gens_list, nvars, q, budget)
    monkeypatch.setattr(ffield, "_walk", counting)
    assert verify_reduction(3, 2, (3, 2, 1), 2)
    big, small = deformation_ideal(3, 2, (3, 2, 1)), reduced_ideal(3, 2)
    assert walked == [big.nvars(), small.nvars()]


# -- polytopes ------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_polytope_counts(k):
    p = toric_polytope(k)
    assert len(p.vertices) == 2 * k
    assert len(p.facets) == 2 ** k
    assert all(len(f) == k for f in p.facets)


def test_square_for_k2():
    p = toric_polytope(2)
    assert dict(p.vertices) == {"a1": (0, 0), "b2": (1, 0), "a2": (0, 1),
                                "b1": (1, 1)}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_triangulation_counts_and_volume(k):
    p = toric_polytope(k)
    tri = unimodular_triangulation(p)  # raises on a non-unimodular simplex
    assert len(tri) == 2 ** (k - 1)
    assert polytope_lattice_volume(p) == 2 ** (k - 1)


def test_triangulation_count_checked_against_volume(monkeypatch):
    monkeypatch.setattr(localmodel, "polytope_lattice_volume",
                        lambda p: 2 ** p.k)
    with pytest.raises(InternalDiagnosticError):
        unimodular_triangulation(toric_polytope(3))


def test_triangulation_simplices_use_vertices():
    p = toric_polytope(4)
    labels = {lbl for lbl, _ in p.vertices}
    for simplex in unimodular_triangulation(p):
        assert set(simplex) <= labels
        assert len(simplex) == 5


def _toric_vertex_sets():
    """The labelled vertices of toric_polytope(k), k = 2..5, and of every
    Q-cell up to (5,5)."""
    for k in range(2, 6):
        yield toric_polytope(k).vertices
    for n in range(2, 6):
        for k in range(2, n + 1):
            for i in range(1, n + 1):
                yield _qi_polytope_vertices(n, k, i)


def test_facet_inequalities_are_primitive_inward_and_tight():
    for verts in _toric_vertex_sets():
        facets = _enumerate_facets(verts)
        assert facets
        for labels, (normal, offset) in facets.items():
            assert all(type(x) is int for x in normal + (offset,))
            assert math.gcd(*normal) == 1
            for lbl, coords in verts:
                value = sum(a * x for a, x in zip(normal, coords))
                assert value >= offset, (labels, lbl)
                assert (value == offset) == (lbl in labels), (labels, lbl)


# -- singularity complexes ---------------------------------------------------------

def _toric_face_sets(labelled_vertices):
    """All vertex sets of faces: intersections of facet vertex sets."""
    facets = _enumerate_facets(labelled_vertices)
    all_labels = frozenset(lbl for lbl, _ in labelled_vertices)
    faces = {all_labels} | set(facets)
    frontier = set(facets)
    while frontier:
        new = set()
        for a in frontier:
            for b in facets:
                c = a & b
                if c and c not in faces:
                    new.add(c)
        faces |= new
        frontier = new
    faces |= {frozenset({lbl}) for lbl in all_labels}
    return tuple(sorted(faces, key=sorted))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6)
                                 for k in range(2, n + 1)])
def test_toric_is_face_matches_face_lattice(n, k):
    toric = [c for c in build_sing_complex(n, k).cells if c.kind == "toric"]
    assert len(toric) == n
    for cell in toric:
        verts = _qi_polytope_vertices(n, k, int(cell.label[1:]))
        faces = set(_toric_face_sets(verts))
        labels = sorted(cell.vertex_labels)
        for size in range(1, len(labels) + 1):
            for subset in itertools.combinations(labels, size):
                subset = frozenset(subset)
                assert cell.is_face(subset) == (subset in faces), subset


def test_square_diagonal_is_not_a_face():
    square = next(c for c in build_sing_complex(3, 2).cells
                  if c.label == "P3")
    # a3_1, a3_2 stand for a1, a2 of the P_2 square
    assert square.is_face(frozenset({"a3_1", "b2"}))
    assert not square.is_face(frozenset({"a3_1", "b1"}))
    assert not square.is_face(frozenset({"a3_2", "b2"}))


def test_sing_complex_3_2_census():
    sc = build_sing_complex(3, 2)
    by_label = {c.label: c for c in sc.cells}
    assert set(by_label) == {"P1", "P2", "P3", "D1", "D2"}
    assert by_label["P3"].vertex_labels == frozenset(
        {"a3_1", "a3_2", "b1", "b2"})
    assert by_label["P1"].vertex_labels == frozenset({"a1_2", "b1", "b2"})
    assert by_label["D1"].vertex_labels == frozenset({"a2_1", "a3_1", "b2"})
    sizes = sorted(len(c.vertex_labels) for c in sc.cells)
    assert sizes == [3, 3, 3, 3, 4]  # two simplices, two triangles, a square


def test_sing_complex_3_3_simplices_meet_in_points():
    sc = build_sing_complex(3, 3)
    simplices = [i for i, c in enumerate(sc.cells) if c.kind == "simplex"]
    assert len(simplices) == 3
    for i, j in itertools.combinations(simplices, 2):
        common = sc.intersections[(min(i, j), max(i, j))]
        assert len(common) == 1 and next(iter(common)).startswith("b")


def test_sing_complex_3_1_recipe():
    sc = build_sing_complex(3, 1)
    cells = {c.label: sorted(c.vertex_labels) for c in sc.cells}
    assert cells == {"D0": ["a2", "a3"], "M1": ["A1", "a1_1"],
                     "M2": ["a1_1", "a2"], "M3": ["a1_1", "a3"]}
    # segments: triangles once coned over the apex
    assert all(len(c.vertex_labels) == 2 for c in sc.cells)


def test_sing_complex_intersection_dictionary():
    for n, k in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        sc = build_sing_complex(n, k)
        for (i, j), common in sc.intersections.items():
            expected = expected_intersection_labels(
                n, k, sc.cells[i].prime, sc.cells[j].prime)
            assert common == expected


def _sing_complex_mutations(sc):
    """Each pair's labels with one label removed, then with one missing
    variable added."""
    for pair, common in sc.intersections.items():
        for label in sorted(common):
            yield pair, common - {label}
        for var in sc.variables:
            if var not in common:
                yield pair, common | {var}


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
@pytest.mark.parametrize("q", [2, 3])
def test_sing_complex_rejects_every_single_label_mutation(n, k, q):
    sc = build_sing_complex(n, k)
    mutations = list(_sing_complex_mutations(sc))
    assert len(mutations) == len(sc.intersections) * len(sc.variables)
    for pair, labels in mutations:
        wrong = replace(sc, intersections={**sc.intersections, pair: labels})
        assert not verify_sing_complex(wrong, q), (pair, sorted(labels))


def _pairwise_reference(sc, q):
    """Per pair, the labels of the coordinate subspace that V(A) and V(B)
    meet in over F_q, or None when their intersection is not one: the
    subspace spanned by the variables nonzero somewhere on it must hold
    exactly as many points as the intersection.  Points and masks come
    from the reference kernel of test_ffield, not from ffield."""
    nvars = len(sc.variables)
    tables = [reference_tables(cell.prime.gens.generators, nvars)
              for cell in sc.cells]
    support = {pair: np.zeros(nvars, dtype=bool) for pair in sc.intersections}
    points = dict.fromkeys(sc.intersections, 0)
    for X in reference_chunks(nvars, q):
        masks = [reference_mask(X, tab, q) for tab in tables]
        for a, b in sc.intersections:
            both = masks[a] & masks[b]
            support[(a, b)] |= (X[both] != 0).any(axis=0)
            points[(a, b)] += int(both.sum())
    out = {}
    for pair, live in support.items():
        labels = frozenset(v for v, on in zip(sc.variables, live) if on)
        out[pair] = labels if points[pair] == q ** len(labels) else None
    return out


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 1),
                                 (4, 2), (4, 3)])
@pytest.mark.parametrize("q", [2, 3])
def test_sing_complex_pointwise(n, k, q):
    sc = build_sing_complex(n, k)
    reference = _pairwise_reference(sc, q)
    expected = all(reference[pair] == labels
                   for pair, labels in sc.intersections.items())
    assert verify_sing_complex(sc, q) == expected
    assert expected


def test_local_count_matches_incident_cells_plus_smoothables():
    from hilbfold.hypercomplex import build_complex, cells_at_vertex
    for n in range(2, 5):
        for k in range(1, n + 1):
            u = tuple([2] * k + [1] * (n - k))
            m = sum(u) + 1 - n
            if m < 2:
                continue
            vertex = tuple(x - 1 for x in u)
            incident = cells_at_vertex(build_complex(n, m), vertex)
            excess = n if k <= n - 2 else (n - 1 if k == n - 1 else 0)
            assert local_component_count(n, k) == incident + excess


# -- translations --------------------------------------------------------------------

def test_translate_k1_families():
    fams = {f.kind: f for f in primary_components(3, 1)}
    u = (5, 1, 1)
    origin = translate_component(fams["origin_pair"], 3, 1, u)
    assert origin == ComponentTranslation(False, ((1, 3),), (2, 2))
    line = translate_component(fams["single_line"], 3, 1, u)
    assert line == ComponentTranslation(True, ((1, 5),), ())


def test_translate_k2_families():
    fams = primary_components(4, 2)
    u = (3, 2, 1, 1)
    for fam in fams:
        tr = translate_component(fam, 4, 2, u)
        if fam.kind == "J":
            assert not tr.smoothable
            assert tr.grass == (len(fam.data) + 1, 4 - len(fam.data))
        else:
            assert tr.smoothable


def test_translate_dimension_bookkeeping_grid():
    for n in range(2, 5):
        for k in range(1, n + 1):
            u = tuple([3] * k + [1] * (n - k))
            for fam in primary_components(n, k):
                translate_component(fam, n, k, u)  # raises on mismatch
