"""Acceptance gate: one test per criterion, exact values, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
pass lines.
"""

import itertools
import time
from fractions import Fraction

from hilbfold.components import (curve_count, global_count, multi_sing_count,
                                 punctual_count)
from hilbfold.exact import GaussRational
from hilbfold.export import (complex_to_dict, dict_to_json, polytope_to_off,
                             render_svg, sing_complex_to_dict)
from hilbfold.foldring import (FoldRingCtx, is_singular_point, is_smoothable,
                               normalize_punctual, tangent_dim)
from hilbfold.hypercomplex import (build_complex, compositions,
                                   count_maximal_cells, slice_complex,
                                   volume_check)
from hilbfold.localmodel import (build_sing_complex, local_component_count,
                                 polytope_lattice_volume, primary_components,
                                 punctual_local_ring, reduced_ideal,
                                 technical_ideal, toric_polytope,
                                 unimodular_triangulation,
                                 verify_decomposition_ff, verify_sing_complex)
from hilbfold.moment import containing_presentations, moment_global
from conftest import generic_full_rank, ideal_from_matrix, \
    random_degree_vector, rng_for


def report(num, text):
    print(f"acceptance {num:02d}: PASS  {text}")


def test_criterion_01_punctual_component_counts():
    start = time.time()
    assert punctual_count(3, 3).value == 4
    assert punctual_count(3, 4).value == 9
    assert punctual_count(3, 5).value == 16
    assert punctual_count(4, 4).value == 15
    for m in range(2, 9):
        assert punctual_count(2, m).value == m - 1
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"punctual component counts exact ({elapsed:.2f}s)")


def test_criterion_02_closed_form_identity_and_flagged_mismatch():
    for n in range(2, 9):
        for m in range(2, n + 1):
            result = punctual_count(n, m)
            assert result.matches, (n, m)
    bad = punctual_count(2, 3)
    assert bad.value == 2 and bad.closed_form == Fraction(3, 2)
    assert not bad.matches
    report(2, "closed form exact for n >= m; (2,3) mismatch flagged")


def test_criterion_03_global_counts():
    for n in range(2, 7):
        for m in range(2, 9):
            global_count(n, m)  # asserts formula == enumeration internally
    report(3, "global component formula equals enumeration on the grid")


def test_criterion_04_curve_plateau_and_multi_singularity():
    for n in range(2, 7):
        for m in range(1, 11):
            assert curve_count(n, m) == min(n - 1, m)
            res = multi_sing_count(1, m, (n,))
            assert res.matches and res.brute == curve_count(n, m)
    for k in range(1, 4):
        for m in range(1, 9):
            for ns in itertools.combinations_with_replacement(
                    range(2, 6), k):
                assert multi_sing_count(k, m, ns).matches
    report(4, "curve plateau and inclusion-exclusion match brute force")


def test_criterion_05_moment_values_and_gluing():
    ctx = FoldRingCtx(2)
    for m in range(2, 9):
        for i in range(1, m):
            ideal = normalize_punctual(
                ctx, [ctx.axis_monomial(0, i + 1), ctx.axis_monomial(1, m - i)])
            assert moment_global(ideal, m).coords == (i, m - i - 1)

    rng = rng_for("acceptance-gluing")
    done = 0
    while done < 500:
        n = rng.randint(2, 5)
        m = rng.randint(2, 7)
        lo, hi = max(1, n + 1 - m), n - 1
        if lo > hi:
            continue
        l = rng.randint(lo, hi)
        u = list(random_degree_vector(rng, n, m + l - 1))
        high = [i for i in range(n) if u[i] >= 2]
        if not high:
            continue
        ctx_n = FoldRingCtx(n)
        pinned = rng.choice(high)
        rest = [i for i in range(n) if i != pinned]
        if l - 1 > len(rest):
            continue
        gens = [ctx_n.axis_monomial(pinned, u[pinned])]
        if l - 1:
            mat = generic_full_rank(rng, l - 1, len(rest))
            for r in range(l - 1):
                f = None
                for p, a in enumerate(rest):
                    if mat[r, p]:
                        t = ctx_n.axis_monomial(a, u[a], mat[r, p])
                        f = t if f is None else f + t
                gens.append(f)
        try:
            ideal = normalize_punctual(ctx_n, gens)
        except ValueError:
            continue
        if ideal.colength() != m:
            continue
        if len(list(containing_presentations(ideal))) < 2:
            continue
        moment_global(ideal, m)  # raises on any disagreement
        done += 1
    report(5, "torus-point moment values and gluing on 500 seeded ideals")


def test_criterion_06_complex_structure():
    start = time.time()
    for n in range(2, 5):
        for m in range(2, 7):
            K = build_complex(n, m)
            assert len(K.cells) == count_maximal_cells(n, m)
            assert volume_check(K)
            for size in range(1, min(2, n - 1) + 1):
                for axes in itertools.combinations(range(n), size):
                    for values in itertools.product(range(m), repeat=size):
                        if sum(values) > m - 1:
                            continue
                        sliced = slice_complex(K, axes, values)
                        assert sliced is build_complex(n - size,
                                                       m - sum(values))
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(6, f"cell counts, volumes and slice isomorphisms ({elapsed:.1f}s)")


def _generic_instance(rng, n, m, l):
    u = random_degree_vector(rng, n, m + l - 1)
    ideal = ideal_from_matrix(FoldRingCtx(n), u, generic_full_rank(rng, l, n))
    if ideal.colength() != m or ideal.monomial_rows():
        return None
    return ideal


def _axis_instance(rng, n, m, l, a):
    nf = n - l + a
    if nf < 2 or a > nf:
        return None
    ctx = FoldRingCtx(n)
    u = [1] * n
    for _ in range(m + l - 1 - n):
        u[rng.randrange(nf)] += 1
    gens = [ctx.axis_monomial(i, 1) for i in range(nf, n)]
    mat = generic_full_rank(rng, a, nf)
    for r in range(a):
        f = None
        for p in range(nf):
            if mat[r, p]:
                t = ctx.axis_monomial(p, u[p], mat[r, p])
                f = t if f is None else f + t
        gens.append(f)
    ideal = normalize_punctual(ctx, gens)
    mon_axes = [ax for _, ax in ideal.monomial_rows()]
    if (ideal.colength() != m or len(mon_axes) != l - a
            or any(ideal.u[ax] != 1 for ax in mon_axes)):
        return None
    return ideal


def test_criterion_07_tangent_closed_forms():
    start = time.time()
    rng = rng_for("acceptance-tangent")

    done = 0
    while done < 200:
        n = rng.randint(3, 5)
        m = rng.randint(2, 7)
        lo = max(2, n + 1 - m)
        if lo > n - 1:
            continue
        l = rng.randint(lo, n - 1)
        ideal = _generic_instance(rng, n, m, l)
        if ideal is None:
            continue
        assert tangent_dim(ideal, m) == l * (n - l) + (m + l - 1 - n)
        done += 1

    for a_choice, offset in ((1, 0), (2, -1)):
        done = 0
        while done < 200:
            n = rng.randint(3, 5)
            m = rng.randint(2, 7)
            lo = max(2, n + 1 - m)
            if lo > n - 1:
                continue
            l = rng.randint(lo, n - 1)
            if not 1 <= a_choice <= l - 1:
                continue
            ideal = _axis_instance(rng, n, m, l, a_choice)
            if ideal is None:
                continue
            assert tangent_dim(ideal, m) == l * (n - l) + m + l - n + offset
            done += 1

    elapsed = time.time() - start
    assert elapsed < 30.0
    report(7, f"three tangent closed forms on 200 instances each "
              f"({elapsed:.1f}s)")


def test_criterion_08_singularity_classification():
    rng = rng_for("acceptance-classification")
    for n in range(2, 5):
        ctx = FoldRingCtx(n)
        for m in range(2, 7):
            for msize in range(0, n):
                for maxes in itertools.combinations(range(n), msize):
                    rest = [i for i in range(n) if i not in maxes]
                    for total_c in range(msize, msize * m + 1):
                        td = m + msize - total_c
                        if td < len(rest):
                            continue
                        for c in compositions(total_c - msize, msize):
                            cc = [x + 1 for x in c]
                            for d in compositions(td - len(rest), len(rest)):
                                dd = [x + 1 for x in d]
                                gens = [ctx.axis_monomial(ax, cc[p])
                                        for p, ax in enumerate(maxes)]
                                f = None
                                for p, ax in enumerate(rest):
                                    coeff = GaussRational(rng.randint(1, 5))
                                    t = ctx.axis_monomial(ax, dd[p], coeff)
                                    f = t if f is None else f + t
                                if f is not None:
                                    gens.append(f)
                                ideal = normalize_punctual(ctx, gens)
                                assert ideal.colength() == m
                                # raises on any (a)/(b) disagreement
                                is_singular_point(ideal, m)
                                is_smoothable(ideal)
    report(8, "syntactic and tangent verdicts agree on exhaustive families")


def test_criterion_09_local_models():
    start = time.time()
    pairs = [(2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
    for n, k in pairs:
        local_component_count(n, k)  # formula vs enumeration
        ideal = reduced_ideal(n, k)
        fams = primary_components(n, k)
        u = tuple([2] * k + [1] * (n - k))
        punctual, punctual_primes = punctual_local_ring(n, k, u)
        for q in (2, 3):
            assert verify_decomposition_ff(ideal, fams, q), (n, k, q)
            assert verify_decomposition_ff(punctual, punctual_primes, q)
    for n, axes in [(3, (1, 2)), (4, (1, 2, 3)), (4, (1, 2)), (5, (1, 2, 3))]:
        t_ideal, t_primes = technical_ideal(n, axes)
        for q in (2, 3):
            assert verify_decomposition_ff(t_ideal, t_primes, q)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(9, f"pointwise primary decompositions over F2/F3 ({elapsed:.1f}s)")


def test_criterion_10_polytopes():
    for k in range(2, 6):
        p = toric_polytope(k)  # facet formula vs hyperplane enumeration
        assert len(p.vertices) == 2 * k
        assert len(p.facets) == 2 ** k
        tri = unimodular_triangulation(p)  # asserts every determinant +-1
        assert len(tri) == 2 ** (k - 1)
        assert polytope_lattice_volume(p) == len(tri)
    report(10, "polytope vertex/facet counts and unimodular triangulations")


def test_criterion_11_singularity_complexes():
    sc = build_sing_complex(3, 2)
    assert len(sc.cells) == 5
    kinds = sorted((c.kind, len(c.vertex_labels)) for c in sc.cells)
    assert kinds == [("simplex", 3), ("simplex", 3), ("toric", 3),
                     ("toric", 3), ("toric", 4)]
    for n, k in [(2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]:
        complex_ = build_sing_complex(n, k)
        for q in (2, 3):
            assert verify_sing_complex(complex_, q), (n, k, q)
    report(11, "singularity complex census and face dictionary verified")


def test_criterion_12_determinism():
    a = dict_to_json(complex_to_dict(build_complex(3, 4)))
    b = dict_to_json(complex_to_dict(build_complex(3, 4)))
    assert a == b
    assert render_svg(build_complex(3, 5)) == render_svg(build_complex(3, 5))
    assert polytope_to_off(toric_polytope(4)) == \
        polytope_to_off(toric_polytope(4))
    assert dict_to_json(sing_complex_to_dict(build_sing_complex(4, 2))) == \
        dict_to_json(sing_complex_to_dict(build_sing_complex(4, 2)))
    report(12, "byte-identical exports across repeated runs")
