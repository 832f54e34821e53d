import itertools
from fractions import Fraction

import pytest

from hilbfold import moment
from hilbfold.exact import ExactMatrix, GaussRational, minor
from hilbfold.foldring import FoldRingCtx, PunctualIdeal, normalize_punctual
from hilbfold.hypercomplex import build_complex
from hilbfold.moment import (MomentPoint, PluckerVector,
                             containing_presentations, locate, moment_global,
                             moment_grass, plucker_of)
from conftest import generic_full_rank, ideal_from_matrix, rng_for

R2 = FoldRingCtx(2)
R3 = FoldRingCtx(3)


def mono(ctx, axis, deg, coeff=1):
    return ctx.axis_monomial(axis, deg, coeff)


# -- Pluecker coordinates -----------------------------------------------------

def test_plucker_of_monomial_span():
    # three coordinate monomials: one maximal minor
    ideal = PunctualIdeal(R3, 3, (2, 1, 2), ExactMatrix.identity(3))
    p = plucker_of(ideal)
    nonzero = [(s, q) for s, q in p.items() if q]
    assert nonzero == [((0, 1, 2), GaussRational(1))]


def test_plucker_of_binomial():
    ideal = normalize_punctual(R2, [mono(R2, 0, 2) + mono(R2, 1, 3)])
    p = plucker_of(ideal)
    assert [q for _, q in p.items()] == [GaussRational(1), GaussRational(1)]


def test_plucker_two_planes():
    ideal = normalize_punctual(R3, [mono(R3, 0, 1) + mono(R3, 1, 1),
                                    mono(R3, 0, 1) + mono(R3, 2, 1)])
    p = plucker_of(ideal)
    weights = [q.norm_sq() for _, q in p.items()]
    assert weights == [1, 1, 1]


def test_plucker_rejects_zero_vector():
    with pytest.raises(ValueError):
        PluckerVector(1, 2, (GaussRational(0), GaussRational(0)))


# -- the Grassmannian moment map ------------------------------------------------

def test_moment_grass_single_coordinate_is_vertex():
    p = PluckerVector(1, 3, (GaussRational(0), GaussRational(1),
                             GaussRational(0)))
    assert moment_grass(p).coords == (0, 1, 0)


def test_moment_grass_symmetry():
    p = PluckerVector(1, 2, (GaussRational(1), GaussRational(1)))
    assert moment_grass(p).coords == (Fraction(1, 2), Fraction(1, 2))
    p3 = PluckerVector(1, 3, (GaussRational(1),) * 3)
    assert moment_grass(p3).coords == (Fraction(1, 3),) * 3


def test_moment_grass_uses_exact_norms():
    i = GaussRational(0, 1)
    p = PluckerVector(1, 2, (GaussRational(1) + i, GaussRational(1)))
    # weights are |1+i|^2 = 2 and 1
    assert moment_grass(p).coords == (Fraction(2, 3), Fraction(1, 3))


# -- the component and global maps ----------------------------------------------

def own_moment(ideal):
    """Moment image computed on the ideal's own presentation."""
    return moment._moment_of_presentation(ideal.n, ideal.l, ideal.u,
                                          ideal.matrix)


def test_moment_torus_fixed_points():
    for m in range(2, 9):
        for i in range(1, m):
            ideal = normalize_punctual(R2, [mono(R2, 0, i + 1),
                                            mono(R2, 1, m - i)])
            mu = moment_global(ideal, m)
            assert mu.coords == (i, m - i - 1)


def test_moment_binomial_midpoint():
    ideal = normalize_punctual(R2, [mono(R2, 0, 2) + mono(R2, 1, 3)])
    assert own_moment(ideal).coords == (Fraction(3, 2), Fraction(5, 2))


def test_moment_lands_in_own_cell():
    rng = rng_for("moment-own-cell")
    for _ in range(60):
        n = rng.randint(2, 5)
        l = rng.randint(1, n - 1)
        total = rng.randint(n, 8)
        from conftest import random_degree_vector
        u = random_degree_vector(rng, n, total)
        ideal = ideal_from_matrix(FoldRingCtx(n), u,
                                  generic_full_rank(rng, l, n))
        mu = own_moment(ideal)
        assert sum(mu.coords) == ideal.colength() - 1
        from hilbfold.hypercomplex import HyperCell
        home = HyperCell(ideal.n, ideal.n - ideal.l,
                         tuple(x - 1 for x in ideal.u))
        assert home.contains(mu.coords)


def test_moment_gluing_on_intersection_ideals():
    """Ideals lying in several components give one moment value; built per
    the intersection template with a pinned pure power."""
    rng = rng_for("moment-gluing")
    done = 0
    while done < 500:
        n = rng.randint(2, 5)
        m = rng.randint(2, 7)
        lo, hi = max(1, n + 1 - m), n - 1
        if lo > hi:
            continue
        l = rng.randint(lo, hi)
        from conftest import random_degree_vector
        u = list(random_degree_vector(rng, n, m + l - 1))
        high = [i for i in range(n) if u[i] >= 2]
        if not high:
            continue
        ctx = FoldRingCtx(n)
        pinned = rng.choice(high)
        rest = [i for i in range(n) if i != pinned]
        if l - 1 > len(rest):
            continue
        gens = [ctx.axis_monomial(pinned, u[pinned])]
        if l - 1:
            mat = generic_full_rank(rng, l - 1, len(rest))
            for r in range(l - 1):
                f = None
                for p, a in enumerate(rest):
                    if mat[r, p]:
                        t = ctx.axis_monomial(a, u[a], mat[r, p])
                        f = t if f is None else f + t
                gens.append(f)
        try:
            ideal = normalize_punctual(ctx, gens)
        except ValueError:
            continue
        if ideal.colength() != m:
            continue
        if len(list(containing_presentations(ideal))) < 2:
            continue
        moment_global(ideal, m)  # raises when the evaluations disagree
        done += 1


def _moment_over_complements(n, l, u, matrix):
    """Reference: the |q_S|^2 weighted average of the complementary
    indicators e_{[n] - S}, shifted by u - 1."""
    total = Fraction(0)
    acc = [Fraction(0)] * n
    for cols in itertools.combinations(range(n), l):
        w = minor(matrix, range(l), cols).norm_sq()
        total += w
        for i in set(range(n)) - set(cols):
            acc[i] += w
    return tuple(acc[i] / total + u[i] - 1 for i in range(n))


@pytest.mark.parametrize("gaussian", [False, True])
def test_presentation_moment_matches_complement_average(gaussian):
    from conftest import random_degree_vector
    rng = rng_for(f"moment-complements-{gaussian}")
    for _ in range(60):
        n = rng.randint(2, 5)
        l = rng.randint(1, n - 1)
        u = random_degree_vector(rng, n, rng.randint(n, n + 4))
        ideal = ideal_from_matrix(FoldRingCtx(n), u, generic_full_rank(
            rng, l, n, rational_only=not gaussian))
        for l2, u2, mat in [(ideal.l, ideal.u, ideal.matrix),
                            *containing_presentations(ideal)]:
            got = moment._moment_of_presentation(n, l2, u2, mat)
            assert got.coords == _moment_over_complements(n, l2, u2, mat)


def test_library_gluing_sweep():
    from hilbfold.moment import gluing_consistency_sweep
    assert gluing_consistency_sweep(25, seed=3) == 25


def test_containing_presentations_of_vertex_ideal():
    ideal = normalize_punctual(R2, [mono(R2, 0, 3), mono(R2, 1, 2)])
    pres = sorted((l, u) for l, u, _ in containing_presentations(ideal))
    assert pres == [(1, (2, 2)), (1, (3, 1))]


# -- locating moment images -------------------------------------------------------

def test_locate_lattice_vertex():
    K = build_complex(2, 5)
    face = locate(MomentPoint((2, 2)), K)
    assert face.is_vertex and face.vertices() == frozenset({(2, 2)})


def test_locate_segment_interior():
    K = build_complex(2, 5)
    face = locate(MomentPoint((Fraction(3, 2), Fraction(5, 2))), K)
    assert face.dim == 1
    assert face.vertices() == frozenset({(1, 3), (2, 2)})


def test_locate_barycenter_gives_cell():
    K = build_complex(3, 3)
    face = locate(MomentPoint((Fraction(2, 3),) * 3), K)
    assert face.dim == 2


def test_locate_rejects_outside_point():
    K = build_complex(2, 3)
    with pytest.raises(ValueError):
        locate(MomentPoint((5, 5)), K)


def test_face_dictionary_for_constructed_shapes():
    """Pinned monomials go to s1, forced powers to s2, the free axes stay."""
    ctx = FoldRingCtx(4)
    # J = <x1^2> + <x3^2> + <g> with g generic in span(x2^1, x4^1):
    # inside the component with u = (2, 1, 2, 1) this pins axis 0 at u0 and
    # forces nothing; the moment image sits on a face with s1 = {0}
    gens = [ctx.axis_monomial(0, 2), ctx.axis_monomial(2, 2),
            ctx.axis_monomial(1, 1, 2) + ctx.axis_monomial(3, 1, 5)]
    ideal = normalize_punctual(ctx, gens)
    m = ideal.colength()
    K = build_complex(4, m)
    face = locate(moment_global(ideal, m), K)
    assert face.dim == 1
    fixed = face.fixed_coordinates()
    # both pinned axes are integral, the two generic axes are not
    assert set(fixed) == {0, 2}
