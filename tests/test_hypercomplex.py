import itertools
import random
from fractions import Fraction

import pytest

from hilbfold.export import complex_to_dict
from hilbfold.foldring import InternalDiagnosticError
from hilbfold.hypercomplex import (ComplexKnm, Face, HyperCell, build_complex,
                                   cell_as_face, cells_at_vertex,
                                   compositions, count_maximal_cells, faces_of,
                                   intersect_cells, is_singular_face,
                                   is_smoothable_face, lattice_point_count,
                                   normalized_volume, slice_complex,
                                   volume_check)


def cell(n, l, shift):
    return HyperCell(n, l, tuple(shift))


# -- construction and counting ----------------------------------------------

@pytest.mark.parametrize("n,m,expected", [(3, 4, 9), (4, 4, 15), (2, 3, 2),
                                          (3, 3, 4), (3, 5, 16), (4, 3, 5)])
def test_cell_counts(n, m, expected):
    K = build_complex(n, m)
    assert len(K.cells) == expected
    assert count_maximal_cells(n, m) == expected


def test_cell_count_by_type():
    K = build_complex(3, 4)
    by_l = {}
    for c in K.cells:
        by_l[c.l] = by_l.get(c.l, 0) + 1
    assert by_l == {1: 6, 2: 3}


def test_cell_count_formula_grid():
    for n in range(2, 7):
        for m in range(2, 9):
            assert len(build_complex(n, m).cells) == count_maximal_cells(n, m)


def test_degenerate_complexes():
    for K in (build_complex(3, 1), build_complex(1, 5)):
        assert K.is_point
        assert volume_check(K)


def test_vertex_count_of_cell():
    assert len(cell(4, 2, (0, 0, 0, 0)).vertices()) == 6


# -- intersections -----------------------------------------------------------

def meeting_face(K, i, s1, s2):
    """The Face that a meetings() entry of cell i describes."""
    return Face(K.n, K.cells[i].l, K.cells[i].shift, frozenset(s1),
                frozenset(s2))


def test_intersect_two_segments_in_a_point():
    f = intersect_cells(cell(2, 1, (1, 0)), cell(2, 1, (0, 1)))
    assert f.vertices() == frozenset({(1, 1)})
    assert f.dim == 0


def test_intersect_identical_cells():
    c = cell(3, 2, (1, 0, 0))
    f = intersect_cells(c, c)
    assert f.vertices() == c.vertices()
    assert (f.s1, f.s2) == (frozenset(), frozenset())


def test_intersect_far_shifts_empty():
    a = cell(3, 1, (2, 0, 0))
    b = cell(3, 1, (0, 2, 0))
    assert intersect_cells(a, b) is None


def test_intersect_requires_same_ambient():
    with pytest.raises(ValueError):
        intersect_cells(cell(3, 1, (0, 0, 0)), cell(3, 2, (0, 0, 0)))


def test_pairwise_intersections_are_common_faces():
    """Exhaustive polyhedral-complex property via vertex sets."""
    for n in range(2, 5):
        for m in range(2, 6):
            K = build_complex(n, m)
            meetings = {(i, j): meeting_face(K, i, s1, s2)
                        for i, j, s1, s2 in K.meetings()}
            for i, j in itertools.combinations(range(len(K.cells)), 2):
                c1, c2 = K.cells[i], K.cells[j]
                meet = c1.vertices() & c2.vertices()
                face = meetings.get((i, j))
                if face is None:
                    assert not meet
                else:
                    assert face.vertices() <= c1.vertices()
                    assert face.vertices() <= c2.vertices()
                    assert face.vertices() == meet


def test_adjacency_equals_all_pairs_intersection():
    # the neighbour walk, and the export read from it, against the O(C^2)
    # definition: faces deduplicated by vertex set, each described by the
    # first pair that meets in it
    for n in range(2, 7):
        for m in range(2, 9 if n < 6 else 7):
            K = build_complex(n, m)
            expected = {}
            for i, j in itertools.combinations(range(len(K.cells)), 2):
                face = intersect_cells(K.cells[i], K.cells[j])
                if face is not None:
                    expected[(i, j)] = face
            meetings = {(i, j): meeting_face(K, i, s1, s2)
                        for i, j, s1, s2 in K.meetings()}
            assert list(meetings) == list(expected), (n, m)
            faces, face_index, pairs = [], {}, []
            for key, face in expected.items():
                got = meetings[key]
                assert (got.vertices(), got.s1, got.s2, got.shift) == \
                    (face.vertices(), face.s1, face.s2, face.shift)
                if face.vertices() not in face_index:
                    face_index[face.vertices()] = len(faces)
                    faces.append({"s1": sorted(face.s1),
                                  "s2": sorted(face.s2), "l": face.l,
                                  "shift": list(face.shift)})
                pairs.append([*key, face_index[face.vertices()]])
            cells = [{"l": c.l, "shift": list(c.shift)} for c in K.cells]
            assert complex_to_dict(K) == {
                "n": n, "m": m, "cells": cells, "faces": faces,
                "adjacency": pairs}, (n, m)


def test_small_difference_can_still_be_disjoint():
    # a {0,1,-1} shift difference with two +1s and two -1s pins the cells
    # into incompatible slices
    a = cell(4, 1, (0, 0, 1, 1))
    b = cell(4, 1, (1, 1, 0, 0))
    assert intersect_cells(a, b) is None
    assert not a.vertices() & b.vertices()


# -- faces --------------------------------------------------------------------

def test_facet_count_of_simplex_cell():
    # pinning a coordinate to its top value gives a vertex, not a facet
    assert len(faces_of(cell(3, 1, (0, 0, 0)), 1)) == 3


def test_facet_count_of_octahedron_cell():
    faces = faces_of(cell(4, 2, (0, 0, 0, 0)), 1)
    assert len(faces) == 8
    assert all(f.dim == 2 for f in faces)


def test_vertex_faces():
    faces = faces_of(cell(4, 2, (0, 0, 0, 0)), 3)
    assert len(faces) == 6
    assert all(f.is_vertex for f in faces)


def test_face_codim_zero_is_cell():
    c = cell(3, 2, (1, 0, 0))
    [f] = faces_of(c, 0)
    assert f.vertices() == c.vertices()


def test_face_vertices_subset_of_cell():
    c = cell(4, 2, (1, 0, 2, 0))
    for d in range(4):
        for f in faces_of(c, d):
            assert f.vertices() <= c.vertices()


def face_from_vertices(verts, cell):
    """The face of a cell with the given vertex set, if any: a search over
    every codimension, the reference for HyperCell.face_through."""
    for d in range(cell.n):
        for f in faces_of(cell, d):
            if f.vertices() == verts:
                return f
    return None


def test_face_through_matches_face_search():
    # every face of every cell, n, m <= 5: the same face, descriptor included
    for n in range(2, 6):
        for m in range(2, 6):
            for c in build_complex(n, m).cells:
                for d in range(n):
                    for f in faces_of(c, d):
                        got = c.face_through(f.vertices())
                        ref = face_from_vertices(f.vertices(), c)
                        assert (got.vertices(), got.s1, got.s2) == \
                            (ref.vertices(), ref.s1, ref.s2), (c, f)


def test_face_through_rejects_vertex_sets_that_are_not_faces():
    # every nonempty vertex subset of every cell, n <= 4 and m <= 5: the
    # smallest face through it has exactly its vertices when it is a face
    rejected = 0
    for n in range(2, 5):
        for m in range(2, 6):
            for c in build_complex(n, m).cells:
                verts = sorted(c.vertices())
                for r in range(1, len(verts) + 1):
                    for subset in map(frozenset,
                                      itertools.combinations(verts, r)):
                        got = c.face_through(subset)
                        ref = face_from_vertices(subset, c)
                        assert subset <= got.vertices()
                        if ref is None:
                            assert got.vertices() != subset, (c, subset)
                            rejected += 1
                        else:
                            assert got == ref, (c, subset)
    assert rejected > 0


def test_face_identity_by_vertex_set():
    a = intersect_cells(cell(2, 1, (1, 0)), cell(2, 1, (0, 1)))
    b = intersect_cells(cell(2, 1, (0, 1)), cell(2, 1, (1, 0)))
    assert a == b and hash(a) == hash(b)


# -- point location and sharing ---------------------------------------------------

def _sample_points(K, rng):
    """Lattice vertices, points on random faces of random cells (boundaries
    included) and rational points of the dilated simplex on a 1/2 and 1/3
    grid."""
    points = list(K.vertices())
    for _ in range(40):
        verts = sorted(rng.choice(K.cells).vertices())
        chosen = rng.sample(verts, rng.randint(1, len(verts)))
        weights = [Fraction(rng.randint(1, 4)) for _ in chosen]
        total = sum(weights)
        points.append(tuple(sum(w * v[i] for w, v in zip(weights, chosen))
                            / total for i in range(K.n)))
    for den in (2, 3):
        for _ in range(20):
            cuts = sorted(rng.randint(0, (K.m - 1) * den)
                          for _ in range(K.n - 1))
            parts = [b - a for a, b in
                     zip([0] + cuts, cuts + [(K.m - 1) * den])]
            points.append(tuple(Fraction(p, den) for p in parts))
    return points


def test_cells_containing_matches_linear_scan():
    rng = random.Random("hilbfold:cells_containing")
    for n in range(2, 6):
        for m in range(2, 7):
            K = build_complex(n, m)
            for p in _sample_points(K, rng):
                assert K.cells_containing(p) == \
                    [c for c in K.cells if c.contains(p)], (n, m, p)
    K = build_complex(3, 4)
    for p in [(1, 1), (1, 1, 1, 0), (4, -1, 0), (1, 1, 2), (0.5, 1.5, 1)]:
        assert K.cells_containing(p) == [c for c in K.cells if c.contains(p)]


def test_build_complex_is_memoised_and_immutable():
    K = build_complex(3, 4)
    assert build_complex(3, 4) is K
    cells = K.cells
    for attr, value in [("cells", ()), ("n", 4), ("m", 5),
                        ("meetings", None)]:
        with pytest.raises(AttributeError):
            setattr(K, attr, value)
    assert K.cells is cells and (K.n, K.m) == (3, 4)
    with pytest.raises(TypeError):
        K.cells[0] = None


# -- slicing -------------------------------------------------------------------

def test_slice_drops_an_axis():
    K = build_complex(3, 3)
    assert slice_complex(K, [2], [0]) is build_complex(2, 3)


def test_slice_at_level_one():
    K = build_complex(3, 4)
    assert slice_complex(K, [2], [1]) is build_complex(2, 3)


def test_slice_identity_on_empty_axis_set():
    K = build_complex(3, 3)
    assert slice_complex(K, [], []) is K


def test_slice_isomorphism_grid():
    for n in range(2, 5):
        for m in range(2, 7):
            K = build_complex(n, m)
            for size in range(1, min(2, n - 1) + 1):
                for axes in itertools.combinations(range(n), size):
                    for values in itertools.product(range(m), repeat=size):
                        if sum(values) > m - 1:
                            continue
                        sliced = slice_complex(K, axes, values)
                        expected = build_complex(n - size, m - sum(values))
                        assert sliced is expected, (n, m, axes, values)


def test_every_lattice_point_of_the_simplex_is_a_vertex():
    """Why slice_complex needs no check of its degenerate pieces: each is
    one lattice point of the sliced simplex, hence a vertex of a cell."""
    for n in range(2, 6):
        for m in range(2, 7):
            assert set(build_complex(n, m).vertices()) == \
                set(compositions(m - 1, n)), (n, m)


def test_slice_that_is_not_the_smaller_complex_is_refused(monkeypatch):
    from hilbfold import hypercomplex
    K = build_complex(3, 4)
    full = build_complex(2, 3)

    def short_of_a_cell(n, m):
        assert (n, m) == (2, 3)
        return ComplexKnm(n, m, cells=full.cells[:-1])
    monkeypatch.setattr(hypercomplex, "build_complex", short_of_a_cell)
    with pytest.raises(InternalDiagnosticError, match=r"is not K\(2,3\)"):
        slice_complex(K, [2], [1])


# -- smoothable and singular faces ---------------------------------------------

def test_vertices_and_edges_smoothable():
    for n, m in [(3, 3), (3, 4), (4, 3), (4, 4)]:
        K = build_complex(n, m)
        for f in K.all_faces():
            if f.dim <= 1:
                assert is_smoothable_face(f, K)


def test_maximal_cell_smoothability():
    K = build_complex(3, 3)
    for c in K.cells:
        face = cell_as_face(c)
        assert is_smoothable_face(face, K) == (c.l == 2)


def test_four_smoothable_two_faces_in_k43():
    K = build_complex(4, 3)
    octa = next(c for c in K.cells if c.l == 2)
    smoothable = [f for f in faces_of(octa, 1) if is_smoothable_face(f, K)]
    assert len(smoothable) == 4
    assert all(len(f.s1) == 1 and not f.s2 for f in smoothable)


def test_recursive_and_closed_criteria_agree_grid():
    # is_smoothable_face raises if the two computations ever disagree
    for n in range(2, 5):
        for m in range(2, 7):
            K = build_complex(n, m)
            for f in K.all_faces():
                is_smoothable_face(f, K)


def test_all_vertices_singular():
    for n, m in [(3, 3), (4, 3), (4, 4)]:
        K = build_complex(n, m)
        for f in K.all_faces():
            if f.is_vertex:
                assert is_singular_face(f, K)


def test_singular_faces_n3_are_exactly_low_dim():
    K = build_complex(3, 4)
    for f in K.all_faces():
        assert is_singular_face(f, K) == (f.dim <= 1)


def test_singular_two_faces_of_octahedron():
    K = build_complex(4, 3)
    octa = next(c for c in K.cells if c.l == 2)
    for f in faces_of(octa, 1):
        assert is_singular_face(f, K)


# -- vertices ------------------------------------------------------------------

def test_cells_at_center_vertex():
    assert cells_at_vertex(build_complex(3, 4), (1, 1, 1)) == 6


def test_cells_at_edge_vertex():
    assert cells_at_vertex(build_complex(3, 4), (2, 1, 0)) == 3


def test_cells_at_corner_vertex():
    assert cells_at_vertex(build_complex(3, 4), (3, 0, 0)) == 1


def test_cells_at_vertex_rejects_non_vertex():
    with pytest.raises(ValueError):
        cells_at_vertex(build_complex(3, 4), (4, 0, 0))


def test_cells_at_vertex_formula_grid():
    # the direct count is compared against 2^k - 1 / 2^k - 2 internally
    for n in range(2, 5):
        for m in range(2, 6):
            K = build_complex(n, m)
            for v in K.vertices():
                cells_at_vertex(K, v)


# -- volumes -------------------------------------------------------------------

def test_lattice_counts():
    assert lattice_point_count(3, 1, 2) == 6
    assert lattice_point_count(4, 2, 1) == 6


def test_normalized_volumes():
    assert normalized_volume(3, 1) == 1
    assert normalized_volume(3, 2) == 1
    assert normalized_volume(4, 2) == 4
    assert normalized_volume(5, 2) == 11  # cross-check against 2^4 - 5


def test_volume_check_examples():
    assert volume_check(build_complex(3, 4))     # 9 unit triangles = 3^2
    assert volume_check(build_complex(4, 3))     # 4 + 4 = 2^3
    assert volume_check(build_complex(2, 6))     # 5 segments


def test_volume_check_grid():
    for n in range(2, 5):
        for m in range(2, 7):
            assert volume_check(build_complex(n, m))
