import itertools
from fractions import Fraction
from math import comb

import pytest

from hilbfold.components import (GrassComponent, curve_count,
                                 global_components, global_count,
                                 intersect_components, multi_sing_count,
                                 punctual_components, punctual_count,
                                 stratum_descriptor)
from hilbfold.foldring import FoldRingCtx, PunctualIdeal, normalize_punctual
from hilbfold.hypercomplex import build_complex
from hilbfold.moment import moment_global
from conftest import generic_full_rank, ideal_from_matrix, rng_for


# -- punctual components -------------------------------------------------------

@pytest.mark.parametrize("n,m,expected", [(3, 3, 4), (3, 4, 9), (3, 5, 16),
                                          (4, 4, 15), (4, 3, 5)])
def test_punctual_counts(n, m, expected):
    assert punctual_count(n, m).value == expected
    assert len(punctual_components(n, m)) == expected


def test_punctual_counts_nodal():
    for m in range(2, 9):
        assert punctual_count(2, m).value == m - 1


def test_punctual_count_single_axis():
    # one smooth branch: the punctual locus is a single point
    for m in range(2, 6):
        assert punctual_count(1, m).value == 1
        assert punctual_components(1, m) == []


@pytest.mark.parametrize("n,m", [(0, 3), (-1, 4), (3, 1), (1, 1)])
def test_punctual_count_rejects_out_of_range(n, m):
    with pytest.raises(ValueError):
        punctual_count(n, m)


def test_punctual_multiplicities_by_row_count():
    for n in range(2, 7):
        for m in range(2, 9):
            comps = punctual_components(n, m)
            for l in range(max(1, n + 1 - m), n):
                got = sum(1 for c in comps if c.l == l)
                assert got == comb(l + m - 2, n - 1)


def test_closed_form_matches_for_n_at_least_m():
    for n in range(2, 9):
        for m in range(2, n + 1):
            result = punctual_count(n, m)
            assert result.matches, (n, m, result)


def test_closed_form_fails_at_2_3():
    result = punctual_count(2, 3)
    assert result.value == 2
    assert result.closed_form == Fraction(3, 2)
    assert not result.matches


def test_component_cell_dictionary():
    for n in range(2, 5):
        for m in range(2, 7):
            comps = punctual_components(n, m)
            cells = set(build_complex(n, m).cells)
            assert {c.cell for c in comps} == cells


# -- intersections ---------------------------------------------------------------

def meeting_pairs(n, m):
    """(a, b, descriptor) for each pair of punctual components that meet."""
    for a, b in itertools.combinations(punctual_components(n, m), 2):
        desc = intersect_components(a, b)
        if desc is not None:
            yield a, b, desc


def test_intersect_consecutive_nodal_components():
    m = 5
    a = GrassComponent(2, m, 1, (2, 3))
    b = GrassComponent(2, m, 1, (3, 2))
    desc = intersect_components(a, b)
    # a single point: the doubly-pinned ideal
    assert (desc.gr_l, desc.gr_n) == (0, 0)
    assert desc.fixed_monomials == {1: 3}
    assert desc.forced_powers == {0: 3}


def test_intersect_self_is_whole_grassmannian():
    c = GrassComponent(3, 4, 2, (2, 2, 1))
    desc = intersect_components(c, c)
    assert (desc.gr_l, desc.gr_n) == (2, 3)


def test_intersect_mixed_difference_nonempty():
    a = GrassComponent(3, 4, 2, (2, 2, 1))
    b = GrassComponent(3, 4, 1, (1, 1, 2))
    assert tuple(x - y for x, y in zip(a.u, b.u)) == (1, 1, -1)
    assert intersect_components(a, b) is not None
    c = GrassComponent(3, 3, 2, (2, 1, 1))
    e = GrassComponent(3, 3, 1, (1, 1, 1))
    assert intersect_components(c, e) is not None


def test_all_ones_difference_cannot_occur():
    # |u| - |v| = l - l' rules the all-ones difference out between genuine
    # components of one punctual locus; the guard in intersect_components
    # is therefore never reachable with validated inputs
    for n in range(2, 5):
        for m in range(2, 6):
            comps = punctual_components(n, m)
            for a, b in itertools.combinations(comps, 2):
                d = set(x - y for x, y in zip(a.u, b.u))
                assert d != {1} and d != {-1}


def test_gluing_graph_3_3():
    comps = punctual_components(3, 3)
    assert len(comps) == 4
    plane = [c for c in comps if c.l == 1][0]
    line_edges = [d for a, b, d in meeting_pairs(3, 3) if plane in (a, b)]
    # the simplex component meets each of the three others in a line
    assert len(line_edges) == 3
    assert all((d.gr_l, d.gr_n) == (1, 2) for d in line_edges)


def test_gluing_graph_nodal_is_a_path():
    assert len(punctual_components(2, 6)) == 5
    edges = [(a, b) for a, b, _ in meeting_pairs(2, 6)]
    assert len(edges) == 4
    degrees = {}
    for a, b in edges:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    assert sorted(degrees.values()) == [1, 1, 2, 2, 2]


def test_gluing_graph_4_3():
    comps = punctual_components(4, 3)
    big = [c for c in comps if c.l == 2]
    small = [c for c in comps if c.l == 3]
    assert len(big) == 1 and len(small) == 4
    cross = [d for a, b, d in meeting_pairs(4, 3) if {a.l, b.l} == {2, 3}]
    assert len(cross) == 4
    assert all((d.gr_l, d.gr_n) == (2, 3) for d in cross)


def test_graph_edges_match_complex_adjacency():
    for n in range(2, 5):
        for m in range(2, 6):
            K = build_complex(n, m)
            cell_index = {c: i for i, c in enumerate(K.cells)}
            mapped = set()
            for c1, c2, _ in meeting_pairs(n, m):
                a, b = cell_index[c1.cell], cell_index[c2.cell]
                mapped.add((min(a, b), max(a, b)))
            assert mapped == {(i, j) for i, j, _, _ in K.meetings()}


# -- global components ------------------------------------------------------------

def test_global_count_examples():
    assert global_count(3, 3) == 13
    assert global_count(4, 2) == 11
    assert global_count(2, 5) == 6


def test_global_components_m2():
    for n in range(3, 6):
        comps = global_components(n, 2)
        elementary = [c for c in comps if c.kind == "nonsmoothable"]
        assert len(elementary) == 1
        assert elementary[0].mprime == 2
        assert len(comps) == comb(n + 1, 2) + 1


def test_global_nodal_only_smoothable():
    for m in range(1, 7):
        assert all(c.kind == "smoothable" for c in global_components(2, m))


def test_global_count_grid():
    for n in range(2, 7):
        for m in range(2, 9):
            global_count(n, m)  # raises when formula != enumeration


# -- curve and multi-singularity counts ---------------------------------------------

def test_curve_count_plateau():
    assert [curve_count(3, m) for m in range(1, 6)] == [1, 2, 2, 2, 2]
    assert [curve_count(4, m) for m in range(1, 6)] == [1, 2, 3, 3, 3]


def test_curve_count_agrees_with_single_singularity():
    for n in range(2, 7):
        for m in range(1, 11):
            res = multi_sing_count(1, m, (n,))
            assert res.matches
            assert res.brute == curve_count(n, m)


def test_multi_sing_examples():
    res = multi_sing_count(2, 4, (3, 3))
    assert res.brute == 4
    assert set(res.vectors) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    res = multi_sing_count(2, 2, (3, 3))
    assert res.brute == 3
    assert set(res.vectors) == {(0, 0), (2, 0), (0, 2)}


def test_multi_sing_brute_vs_formula_grid():
    for k in range(1, 4):
        for m in range(1, 9):
            for ns in itertools.combinations_with_replacement(range(2, 6), k):
                res = multi_sing_count(k, m, ns)
                assert res.matches, (k, m, ns, res)


# -- degree shifts --------------------------------------------------------------------

def _all_ones_ideal(rng, n, l):
    return ideal_from_matrix(FoldRingCtx(n), (1,) * n,
                             generic_full_rank(rng, l, n))


def test_degree_shift_moment_commutes():
    """Raising the degree vector of an all-ones presentation by `extra`
    (x_i -> x_i^{extra_i + 1}) translates its moment image by `extra`."""
    rng = rng_for("phi-moment")
    done = 0
    while done < 100:
        n = rng.randint(2, 5)
        l = rng.randint(1, n - 1)
        ideal = _all_ones_ideal(rng, n, l)
        extra = tuple(rng.randint(0, 2) for _ in range(n))
        shifted = PunctualIdeal(ideal.ctx, l, tuple(1 + e for e in extra),
                                ideal.matrix)
        mu = moment_global(ideal)
        mu2 = moment_global(shifted)
        assert tuple(mu2.coords) == tuple(a + e for a, e in
                                          zip(mu.coords, extra))
        done += 1


# -- strata and normalization fibers ----------------------------------------------------

def test_stratum_example_3_2_1():
    sd = stratum_descriptor(3, 3, 2, 1)
    assert sd.sym_degree == 0
    assert sd.component_count == 3
    assert (sd.l, sd.local_length) == (2, 3)


def test_stratum_example_4_2_2():
    sd = stratum_descriptor(3, 4, 2, 2)
    assert sd.component_count == 6


def test_stratum_open_level():
    sd = stratum_descriptor(4, 5, 3, 0)
    assert sd.component_count == 1
    assert sd.sym_degree == 2
    assert (sd.l, sd.local_length) == (2, 3)


def test_restricted_graph_sizes():
    # six planes glued through points vs three glued at one point
    comps = punctual_components(3, 4)
    assert sum(1 for c in comps if c.l == 2) == 6
    assert sum(1 for c in comps if c.l == 1) == 3


def fiber_degree(ideal, mprime):
    """Cells of K(n, m) with l = mprime - 1 that hold the ideal's moment
    image: the degree of the normalization fiber over it."""
    K = build_complex(ideal.n, ideal.colength())
    return sum(1 for c in K.cells_containing(moment_global(ideal).coords)
               if c.l == mprime - 1)


def test_fiber_degree_interior():
    rng = rng_for("fiber-interior")
    ctx = FoldRingCtx(3)
    ideal = ideal_from_matrix(ctx, (1, 1, 1), generic_full_rank(rng, 2, 3))
    assert fiber_degree(ideal, 2) == 1


def test_fiber_degree_gluing_vertex():
    ctx = FoldRingCtx(3)
    ideal = normalize_punctual(ctx, [ctx.axis_monomial(0, 3),
                                     ctx.axis_monomial(1, 2),
                                     ctx.axis_monomial(2, 1)])
    assert ideal.colength() == 4
    assert fiber_degree(ideal, 2) == 2


def test_fiber_degree_center_vertex():
    ctx = FoldRingCtx(3)
    ideal = normalize_punctual(ctx, [ctx.axis_monomial(0, 2),
                                     ctx.axis_monomial(1, 2),
                                     ctx.axis_monomial(2, 2)])
    assert ideal.colength() == 4
    assert fiber_degree(ideal, 3) == 3
