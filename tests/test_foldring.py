import itertools

import pytest

from hilbfold import foldring
from hilbfold.exact import GR_ZERO, ExactMatrix, GaussRational, rref
from hilbfold.foldring import (FoldRingCtx, InternalDiagnosticError,
                               NotFiniteColength, NotOriginSupported,
                               PunctualIdeal, SeparatedPoly, colength,
                               component_dimension, is_singular_point,
                               is_smoothable, normalize_punctual, tangent_dim)
from hilbfold.hypercomplex import compositions
from hilbfold.moment import moment_global
from conftest import (generic_full_rank, ideal_from_matrix,
                      random_degree_vector, random_gauss, rng_for)

R2 = FoldRingCtx(2)
R3 = FoldRingCtx(3)


def mono(ctx, axis, deg, coeff=1):
    return ctx.axis_monomial(axis, deg, coeff)


# -- ring arithmetic -------------------------------------------------------

def test_cross_branch_products_vanish():
    p = mono(R3, 0, 1) * mono(R3, 1, 1)
    assert p.is_zero()


def test_same_branch_products_convolve():
    p = (mono(R2, 0, 1) + mono(R2, 1, 2)) * mono(R2, 0, 2, 3)
    assert p.coeff(0, 3) == GaussRational(3)
    assert p.branch_degree(1) == 0


def test_trimming():
    p = SeparatedPoly(2, 0, [[1, 0, 0], []])
    assert p.branch_degree(0) == 1


# -- colength --------------------------------------------------------------

def test_colength_monomial_cube():
    assert colength(R3, [mono(R3, 0, 2), mono(R3, 1, 2), mono(R3, 2, 2)]) == 4


def test_colength_generic_line():
    g = mono(R2, 0, 1, 3) + mono(R2, 1, 1, 5)
    assert colength(R2, [g]) == 2


def test_colength_infinite():
    assert colength(R2, [mono(R2, 0, 2)]) is None


def test_colength_single_axis():
    ctx = FoldRingCtx(1)
    assert colength(ctx, [ctx.axis_monomial(0, 4)]) == 4
    g = ctx.axis_monomial(0, 2) + ctx.axis_monomial(0, 3, 5)
    assert colength(ctx, [g]) == 2  # local dimension at the origin


def test_colength_matches_degree_identity_randomly():
    rng = rng_for("colength-identity")
    for _ in range(100):
        n = rng.randint(2, 5)
        l = rng.randint(1, n)
        u = random_degree_vector(rng, n, rng.randint(n, 8))
        ctx = FoldRingCtx(n)
        mat = generic_full_rank(rng, l, n)
        gens = []
        for r in range(l):
            f = None
            for a in range(n):
                if mat[r, a]:
                    t = mono(ctx, a, u[a], mat[r, a])
                    f = t if f is None else f + t
            gens.append(f)
        assert colength(ctx, gens) == sum(u) + 1 - l


# -- normalization ---------------------------------------------------------

def test_normalize_monomial_golden():
    ideal = normalize_punctual(R3, [mono(R3, 0, 3), mono(R3, 1, 1),
                                    mono(R3, 2, 1)])
    assert (ideal.l, ideal.u) == (3, (3, 1, 1))
    assert ideal.matrix == ExactMatrix.identity(3)
    assert ideal.colength() == 3


def test_normalize_two_planes_golden():
    ideal = normalize_punctual(R3, [mono(R3, 0, 1) + mono(R3, 1, 1),
                                    mono(R3, 0, 1) + mono(R3, 2, 1)])
    assert (ideal.l, ideal.u) == (2, (1, 1, 1))
    assert ideal.matrix == ExactMatrix([[1, 0, 1], [0, 1, -1]])
    assert ideal.colength() == 2


def test_normalize_detects_redundant_power():
    # x1^2 = x1 * (x1 + x2) is not a minimal generator
    ideal = normalize_punctual(R2, [mono(R2, 0, 2),
                                    mono(R2, 0, 1) + mono(R2, 1, 1)])
    assert (ideal.l, ideal.u) == (1, (1, 1))
    assert ideal.matrix == ExactMatrix([[1, 1]])
    assert ideal.colength() == 2


def test_normalize_idempotent_and_colength_preserving():
    rng = rng_for("normalize-idempotent")
    for _ in range(40):
        n = rng.randint(2, 4)
        ctx = FoldRingCtx(n)
        l = rng.randint(1, n)
        u = random_degree_vector(rng, n, rng.randint(n, 7))
        ideal = ideal_from_matrix(ctx, u, generic_full_rank(rng, l, n))
        again = normalize_punctual(ctx, ideal.generators())
        assert again == ideal
        assert again.colength() == colength(ctx, ideal.generators())


def _random_poly(rng, n, gaussian, constant):
    """Random element of R_n with branch degrees up to 2."""
    def coeff():
        return random_gauss(rng) if gaussian else GaussRational(
            rng.randint(-3, 3))
    return SeparatedPoly(n, coeff() if constant else 0,
                         [[coeff() for _ in range(rng.randint(0, 2))]
                          for _ in range(n)])


@pytest.mark.parametrize("gaussian", [False, True])
def test_normalize_recovers_presentation_from_r_combinations(gaussian):
    """Generators C * f + H * f + K * (x_i^{u_i + 1}) with C an invertible
    constant matrix and H without constant terms, together with the pure
    powers x_i^{u_i + 1}, generate the ideal of (u, A) (Nakayama, and the
    pure powers keep the zeros at the origin), so they normalise back."""
    rng = rng_for(f"normalize-r-combinations-{gaussian}")
    for _ in range(30):
        n = rng.randint(1, 4)
        ctx = FoldRingCtx(n)
        l = rng.randint(1, n)
        u = random_degree_vector(rng, n, rng.randint(n, n + 4))
        ideal = PunctualIdeal(ctx, l, u, generic_full_rank(
            rng, l, n, rational_only=not gaussian))
        f = ideal.generators()
        powers = [ctx.axis_monomial(i, u[i] + 1) for i in range(n)]
        mix = generic_full_rank(rng, l, l, rational_only=not gaussian)
        gens = []
        for r in range(l):
            g = SeparatedPoly.zero(n)
            for s in range(l):
                g = g + f[s].scaled(mix[r, s]) + \
                    _random_poly(rng, n, gaussian, False) * f[s]
            for p in powers:
                g = g + _random_poly(rng, n, gaussian, True) * p
            gens.append(g)
        gens += [p.scaled(random_gauss(rng, nonzero=True)) for p in powers]
        rng.shuffle(gens)
        assert normalize_punctual(ctx, gens) == ideal


def test_normalize_catches_a_degree_one_too_high(monkeypatch):
    """With u_0 read one too high the presentation's colength often still
    matches the span's; the membership check must catch every case."""
    original = foldring._branch_restriction_gcds

    def one_too_high_on_axis_0(ctx, gens):
        return [[GR_ZERO] + g if i == 0 else g
                for i, g in enumerate(original(ctx, gens))]
    monkeypatch.setattr(foldring, "_branch_restriction_gcds",
                        one_too_high_on_axis_0)
    rng = rng_for("normalize-degree-too-high")
    for _ in range(40):
        n = rng.randint(1, 4)
        ctx = FoldRingCtx(n)
        l = rng.randint(1, n)
        u = random_degree_vector(rng, n, rng.randint(n, n + 4))
        ideal = PunctualIdeal(ctx, l, u, generic_full_rank(rng, l, n))
        with pytest.raises(InternalDiagnosticError):
            normalize_punctual(ctx, ideal.generators())


def test_contains_reads_the_presentation():
    ideal = PunctualIdeal(R2, 1, (2, 1), ExactMatrix([[1, 3]]))
    assert ideal.contains(mono(R2, 0, 2, 2) + mono(R2, 1, 1, 6))
    assert ideal.contains(mono(R2, 0, 3) + mono(R2, 1, 2, 5))
    assert not ideal.contains(mono(R2, 0, 2))
    assert not ideal.contains(mono(R2, 0, 1) + mono(R2, 0, 2) +
                              mono(R2, 1, 1, 3))
    assert not ideal.contains(SeparatedPoly(2, 1, [[], []]))


def test_noncanonical_matrix_gets_canonical_verdicts():
    """Any full-rank matrix without zero columns presents the ideal of its
    row space; the verdicts and the moment are those of the reduced form."""
    given = PunctualIdeal(R3, 2, (2, 1, 1),
                          ExactMatrix([[1, 1, 1], [2, 1, 1]]))
    canonical = normalize_punctual(R3, [
        mono(R3, 0, 2) + mono(R3, 1, 1) + mono(R3, 2, 1),
        mono(R3, 0, 2, 2) + mono(R3, 1, 1) + mono(R3, 2, 1)])
    assert (canonical.u, canonical.matrix) == (
        (2, 1, 1), ExactMatrix([[1, 0, 0], [0, 1, 1]]))
    assert given == canonical
    verdict = is_singular_point(given)
    assert verdict == is_singular_point(canonical)
    assert verdict.singular
    assert is_smoothable(given) and is_smoothable(canonical)
    assert moment_global(given) == moment_global(canonical)


def test_normalize_rejects_off_origin_root():
    # x1 - x1^2 vanishes at x1 = 1
    bad = mono(R2, 0, 1) + mono(R2, 0, 2, -1)
    with pytest.raises(NotOriginSupported):
        normalize_punctual(R2, [bad, mono(R2, 1, 1)])


def test_normalize_rejects_infinite_colength():
    with pytest.raises(NotFiniteColength):
        normalize_punctual(R3, [mono(R3, 0, 1), mono(R3, 1, 1)])


def test_normalize_rejects_constant_term():
    one_plus = SeparatedPoly(2, 1, [[1], []])
    with pytest.raises(NotOriginSupported):
        normalize_punctual(R2, [one_plus, mono(R2, 1, 1)])


def test_colength_identity_invariant():
    rng = rng_for("colength-invariant")
    for _ in range(60):
        n = rng.randint(2, 5)
        l = rng.randint(1, n)
        u = random_degree_vector(rng, n, rng.randint(n, 8))
        ideal = ideal_from_matrix(FoldRingCtx(n), u,
                                  generic_full_rank(rng, l, n))
        assert ideal.colength() == sum(ideal.u) + 1 - ideal.l


# -- tangent spaces ----------------------------------------------------------

def test_tangent_generic_plane():
    ideal = normalize_punctual(R3, [mono(R3, 0, 1) + mono(R3, 1, 1),
                                    mono(R3, 1, 1, 2) + mono(R3, 2, 1)])
    assert ideal.colength() == 2
    assert tangent_dim(ideal, 2) == 2  # l(n-l) + (m+l-1-n)


def test_tangent_single_nonmonomial_with_axis():
    ideal = normalize_punctual(R3, [mono(R3, 0, 2) + mono(R3, 1, 1, 3),
                                    mono(R3, 2, 1)])
    assert ideal.colength() == 3
    assert tangent_dim(ideal, 3) == 4  # one above the component dimension


def test_tangent_principal_is_whole_quotient():
    # a principal ideal has no syzygies, so Hom(J, R/J) = R/J
    ideal = normalize_punctual(R2, [mono(R2, 0, 1) + mono(R2, 1, 1)])
    assert tangent_dim(ideal, 2) == 2


def test_tangent_maximal_ideal():
    ideal = normalize_punctual(R3, [mono(R3, 0, 1), mono(R3, 1, 1),
                                    mono(R3, 2, 1)])
    assert ideal.colength() == 1
    assert tangent_dim(ideal) == 3


def test_tangent_colength_mismatch():
    ideal = normalize_punctual(R2, [mono(R2, 0, 1) + mono(R2, 1, 1)])
    with pytest.raises(ValueError):
        tangent_dim(ideal, 5)


@pytest.mark.parametrize("gaussian", [False, True])
def test_quotient_ring_closed_form(gaussian):
    """The closed-form quotient is a ring presentation of R_n / J: x_i^s
    is basis monomial (i, s) for s < u_i, products of different axes
    vanish, x_i^{u_i + 1} and every generator map to 0, and its dimension
    is the colength of the span."""
    rng = rng_for(f"quotient-closed-form-{gaussian}")
    for _ in range(40):
        n = rng.randint(1, 5)
        ctx = FoldRingCtx(n)
        l = rng.randint(1, n)
        u = random_degree_vector(rng, n, rng.randint(n, n + 4))
        ideal = PunctualIdeal(ctx, l, u, generic_full_rank(
            rng, l, n, rational_only=not gaussian))
        quo = foldring._QuotientRing(ideal)
        m = quo.m
        assert m == colength(ctx, ideal.generators()) == ideal.colength()
        actions = [quo.action(i) for i in range(n)]

        def times(i, v):
            return [sum((v[b] * coords[o] for b, coords in actions[i]),
                        GR_ZERO) for o in range(m)]

        def unit(b):
            return [GaussRational(int(o == b)) for o in range(m)]
        powers = []  # powers[i][s]: coordinates of x_i^s
        for i in range(n):
            powers.append([unit(0)])
            for _ in range(u[i] + 1):
                powers[i].append(times(i, powers[i][-1]))
            for s in range(1, u[i]):
                assert powers[i][s] == unit(quo.basis_pos[(i, s)])
            assert not any(powers[i][u[i] + 1])
        for r in range(l):
            image = [sum((ideal.matrix[r, j] * powers[j][u[j]][o]
                          for j in range(n)), GR_ZERO) for o in range(m)]
            assert not any(image)
        for i, j in itertools.permutations(range(n), 2):
            for b in range(m):
                assert not any(times(i, times(j, unit(b))))


def _tangent_dim_all_pairs(ideal):
    """Reference: l*m minus the rank of the relations of every pair of rows,
    A[k][i] * x_i * f_j - A[j][i] * x_i * f_k = 0 for j < k and each axis i."""
    quo = foldring._QuotientRing(ideal)
    mdim, l = quo.m, ideal.l
    rows = []
    for i in range(ideal.n):
        moved = quo.action(i)
        for j, k in itertools.combinations(range(l), 2):
            cj, ck = ideal.matrix[k, i], -ideal.matrix[j, i]
            for out in range(mdim):
                row = [GR_ZERO] * (l * mdim)
                for b, coords in moved:
                    if coords[out]:
                        row[j * mdim + b] = cj * coords[out]
                        row[k * mdim + b] = ck * coords[out]
                if any(row):
                    rows.append(row)
    return l * mdim - (len(rref(rows)[1]) if rows else 0)


@pytest.mark.parametrize("gaussian", [False, True])
def test_tangent_first_row_pairs_match_all_pairs(gaussian):
    """tangent_dim keeps, per axis i, only the pairs (p, j) with p the first
    row where A[p][i] != 0; the rank must equal that of all n * C(l, 2)
    relations, and every kept relation must annihilate the generators."""
    rng = rng_for(f"tangent-all-pairs-{gaussian}")
    for _ in range(40):
        n = rng.randint(2, 5)
        l = rng.randint(2, n)
        u = random_degree_vector(rng, n, rng.randint(n, n + 4))
        ctx = FoldRingCtx(n)
        ideal = ideal_from_matrix(ctx, u, generic_full_rank(
            rng, l, n, rational_only=not gaussian))
        assert tangent_dim(ideal) == _tangent_dim_all_pairs(ideal)
        gens = ideal.generators()
        for i in range(n):
            a = [ideal.matrix[r, i] for r in range(ideal.l)]
            p = next(r for r in range(ideal.l) if a[r])
            x = ctx.axis_monomial(i, 1)
            for j in range(ideal.l):
                relation = (x * gens[p]).scaled(a[j]) - \
                    (x * gens[j]).scaled(a[p])
                assert relation.is_zero()


def _generic_stratum_ideal(rng, n, m, l):
    u = random_degree_vector(rng, n, m + l - 1)
    ideal = ideal_from_matrix(FoldRingCtx(n), u, generic_full_rank(rng, l, n))
    if ideal.colength() != m or ideal.monomial_rows():
        return None
    return ideal


def test_tangent_generic_closed_form_sweep():
    rng = rng_for("tangent-generic")
    done = 0
    while done < 200:
        n = rng.randint(3, 5)
        m = rng.randint(2, 7)
        lo = max(2, n + 1 - m)
        if lo > n - 1:
            continue
        l = rng.randint(lo, n - 1)
        ideal = _generic_stratum_ideal(rng, n, m, l)
        if ideal is None:
            continue
        assert tangent_dim(ideal, m) == l * (n - l) + (m + l - 1 - n)
        done += 1


def _axis_plus_generic_ideal(rng, n, m, l, a):
    """a non-monomial rows on the first n-l+a axes, degree-one axis rows on
    the rest."""
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


@pytest.mark.parametrize("a_choice,offset", [(1, 0), (2, -1)])
def test_tangent_axis_closed_forms_sweep(a_choice, offset):
    rng = rng_for(f"tangent-axis-{a_choice}")
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
        ideal = _axis_plus_generic_ideal(rng, n, m, l, a_choice)
        if ideal is None:
            continue
        assert tangent_dim(ideal, m) == l * (n - l) + m + l - n + offset
        done += 1


def test_component_dimension_two_bookkeepings():
    for n in range(2, 7):
        for m in range(2, 9):
            for l in range(2, n):
                assert component_dimension(n, m, l) == \
                    l * (n - l) + (m - (n + 1 - l))


def test_component_dimension_checked_by_generic_tangent(monkeypatch):
    monkeypatch.setattr(foldring, "tangent_dim", lambda ideal: 0)
    component_dimension.cache_clear()
    try:
        with pytest.raises(InternalDiagnosticError):
            component_dimension(4, 5, 2)
        assert component_dimension(4, 5, 1) == 5  # the smoothable component
        assert component_dimension(6, 2, 2) == 5  # empty stratum: no member
    finally:
        component_dimension.cache_clear()


# -- singularity and smoothability -------------------------------------------

def test_singular_high_power_axis():
    for m in range(2, 6):
        gens = [mono(R3, 0, m), mono(R3, 1, 1), mono(R3, 2, 1)]
        verdict = is_singular_point(normalize_punctual(R3, gens), m)
        assert verdict.singular
        assert "degree >= 2" in verdict.matched_condition


def test_smooth_generic_member():
    rng = rng_for("smooth-generic")
    done = 0
    while done < 25:
        n = rng.randint(3, 5)
        m = rng.randint(2, 6)
        lo = max(2, n + 1 - m)
        if lo > n - 1:
            continue
        l = rng.randint(lo, n - 1)
        ideal = _generic_stratum_ideal(rng, n, m, l)
        if ideal is None:
            continue
        assert not is_singular_point(ideal, m).singular
        done += 1


def test_singular_single_constraint_case():
    ideal = normalize_punctual(R3, [mono(R3, 0, 2) + mono(R3, 1, 1, 3),
                                    mono(R3, 2, 1)])
    verdict = is_singular_point(ideal, 3)
    assert verdict.singular
    assert verdict.tangent == verdict.expected_smooth_dim + 1


def test_singular_length_one():
    ideal = normalize_punctual(R3, [mono(R3, 0, 1), mono(R3, 1, 1),
                                    mono(R3, 2, 1)])
    assert is_singular_point(ideal, 1).singular


@pytest.mark.parametrize("m", range(2, 7))
def test_one_axis_smooth_and_smoothable(m):
    ctx = FoldRingCtx(1)
    ideal = normalize_punctual(ctx, [mono(ctx, 0, m)])
    verdict = is_singular_point(ideal, m)
    assert not verdict.singular
    assert verdict.tangent == verdict.expected_smooth_dim == m
    assert is_smoothable(ideal)


def test_one_axis_tangent_disagreement_raises(monkeypatch):
    ctx = FoldRingCtx(1)
    ideal = normalize_punctual(ctx, [mono(ctx, 0, 3)])
    monkeypatch.setattr(foldring, "tangent_dim", lambda ideal: 4)
    with pytest.raises(InternalDiagnosticError):
        is_singular_point(ideal)


def test_pure_power_tangent_compared_with_components(monkeypatch):
    """On the pure-power branch the tangent dimension must exceed every
    containing component's dimension; a tangent too small raises."""
    ideal = normalize_punctual(R3, [mono(R3, 0, 3), mono(R3, 1, 1)
                                    + mono(R3, 2, 1)])
    verdict = is_singular_point(ideal)
    assert verdict.singular and "degree >= 2" in verdict.matched_condition
    monkeypatch.setattr(foldring, "tangent_dim",
                        lambda ideal: verdict.expected_smooth_dim)
    with pytest.raises(InternalDiagnosticError):
        is_singular_point(ideal)


def test_exhaustive_monomial_plus_one_generator_agreement():
    """Syntactic and tangent-based verdicts agree on every monomial-plus-
    one-generator ideal (n <= 4, m <= 6); any disagreement raises."""
    rng = rng_for("exhaustive-families")
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
                                gens = [mono(ctx, ax, cc[p])
                                        for p, ax in enumerate(maxes)]
                                f = None
                                for p, ax in enumerate(rest):
                                    coeff = GaussRational(rng.randint(1, 5))
                                    t = mono(ctx, ax, dd[p], coeff)
                                    f = t if f is None else f + t
                                if f is not None:
                                    gens.append(f)
                                ideal = normalize_punctual(ctx, gens)
                                assert ideal.colength() == m
                                is_singular_point(ideal, m)
                                is_smoothable(ideal)


def test_smoothable_hyperplane():
    # one non-monomial generator through all axes
    gens = [mono(R3, 0, 1) + mono(R3, 1, 1, 2) + mono(R3, 2, 1, 3)]
    ideal = normalize_punctual(R3, gens)
    assert ideal.colength() == 3
    assert is_smoothable(ideal)


def test_not_smoothable_elementary_member():
    # generic member of the elementary stratum for 2 <= m <= n - 1
    rng = rng_for("elementary-not-smoothable")
    for n, m in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        l = n + 1 - m
        done = False
        while not done:
            ideal = _generic_stratum_ideal(rng, n, m, l)
            if ideal is None:
                continue
            assert not is_smoothable(ideal)
            done = True


def test_smoothable_two_constraints_false():
    gens = [mono(R3, 0, 2) + mono(R3, 2, 1),
            mono(R3, 1, 2) + mono(R3, 2, 1, 2)]
    ideal = normalize_punctual(R3, gens)
    assert ideal.colength() == 4
    assert not is_smoothable(ideal)


def test_smoothable_vertex_ideal():
    ideal = normalize_punctual(R3, [mono(R3, 0, 2), mono(R3, 1, 2),
                                    mono(R3, 2, 1)])
    assert is_smoothable(ideal)
