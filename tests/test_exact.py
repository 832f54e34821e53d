import itertools
from fractions import Fraction

import pytest

from hilbfold.exact import (GR_ONE, GR_ZERO, ExactMatrix, GaussRational, det,
                            kernel_basis, minor, rank, rref)
from conftest import random_gauss, rng_for


def test_lowest_terms_and_sign():
    g = GaussRational(2, 4, -6)
    assert (g.a, g.b, g.d) == (-1, -2, 3)
    assert g.re == Fraction(-1, 3) and g.im == Fraction(-2, 3)


def test_arithmetic_identities():
    rng = rng_for("gauss-arith")
    for _ in range(300):
        a = random_gauss(rng, nonzero=True)
        b = random_gauss(rng, nonzero=True)
        assert a * a.inverse() == GaussRational(1)
        assert (a / b) * (b / a) == GaussRational(1)
        assert a * b - b * a == GaussRational(0)
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def test_norm_is_rational_and_positive():
    g = GaussRational(3, 4, 5)
    assert g.norm_sq() == Fraction(25, 25)
    assert GaussRational(0).norm_sq() == 0


def test_rank_identity_and_zero():
    assert rank(ExactMatrix.identity(2)) == 2
    assert rank(ExactMatrix.zeros(3, 4)) == 0


def test_rank_dependent_rows():
    m = ExactMatrix([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(ExactMatrix.identity(3)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(ExactMatrix.zeros(2, 3))
    assert len(basis) == 3


def test_kernel_annihilates():
    m = ExactMatrix([[1, 1, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        for row in m.entries:
            assert not sum((x * y for x, y in zip(row, v)), GR_ZERO)


def test_rank_nullity_random():
    rng = rng_for("rank-nullity")
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = ExactMatrix([[random_gauss(rng) for _ in range(c)]
                         for _ in range(r)])
        assert rank(m) + len(kernel_basis(m)) == c


def test_minor_examples():
    ident = ExactMatrix.identity(3)
    assert minor(ident, range(3), range(3)) == GaussRational(1)
    m = ExactMatrix([[1, 2], [3, 4]])
    assert minor(m, (0, 1), (0, 1)) == GaussRational(-2)


def test_minor_zero_column():
    m = ExactMatrix([[1, 0, 2], [3, 0, 4], [5, 0, 6]])
    assert minor(m, range(3), range(3)) == GaussRational(0)


def test_minor_bad_index():
    m = ExactMatrix.identity(2)
    with pytest.raises(IndexError):
        minor(m, (0, 2), (0, 1))
    with pytest.raises(ValueError):
        minor(m, (0,), (0, 1))


def test_det_alternating_on_row_swap():
    rng = rng_for("det-alternating")
    for _ in range(40):
        rows = [[random_gauss(rng) for _ in range(3)] for _ in range(3)]
        m = ExactMatrix(rows)
        swapped = ExactMatrix([rows[1], rows[0], rows[2]])
        assert det(swapped) == -det(m)


def test_det_multilinear_in_first_row():
    rng = rng_for("det-multilinear")
    for _ in range(40):
        base = [[random_gauss(rng) for _ in range(3)] for _ in range(3)]
        extra = [random_gauss(rng) for _ in range(3)]
        c = random_gauss(rng)
        lhs = det(ExactMatrix(
            [[x * c + y for x, y in zip(base[0], extra)]] + base[1:]))
        rhs = c * det(ExactMatrix(base)) + \
            det(ExactMatrix([extra] + base[1:]))
        assert lhs == rhs


def test_complex_scalars_in_elimination():
    i = GaussRational(0, 1)
    m = ExactMatrix([[i, 1], [1, -i]])
    # second row is -i times the first
    assert rank(m) == 1


# -- the elimination loop against independent references ---------------------

def _dense_rref(rows):
    """The dense Gauss-Jordan loop: every entry of every row is updated,
    whether or not the pivot row is zero there."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def _leibniz(rows):
    """Determinant as the signed sum over permutations."""
    total = GR_ZERO
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2)
                         if a > b)
        term = GR_ONE if inversions % 2 == 0 else -GR_ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def _triples(rows):
    return [[(x.a, x.b, x.d) for x in row] for row in rows]


def _random_rows(rng, r, c, density, gaussian):
    def entry():
        if rng.random() >= density:
            return GR_ZERO
        return GaussRational(rng.randint(-5, 5),
                             rng.randint(-2, 2) if gaussian else 0,
                             rng.randint(1, 3))
    return [[entry() for _ in range(c)] for _ in range(r)]


def _degenerate(rng, rows):
    """The rows with a zero row and a repeated row mixed in."""
    c = len(rows[0])
    rows = rows + [[GR_ZERO] * c, list(rng.choice(rows))]
    rng.shuffle(rows)
    return rows


def test_rref_matches_dense_reference():
    rng = rng_for("rref-dense-reference")
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 7)]
    for r, c in shapes:  # square, wide and tall
        for density in (0.2, 0.5, 1.0):  # sparse to dense
            for gaussian in (False, True):
                rows = _random_rows(rng, r, c, density, gaussian)
                for case in (rows, _degenerate(rng, rows)):
                    got_rows, got_pivots = rref(case)
                    want_rows, want_pivots = _dense_rref(case)
                    assert got_pivots == want_pivots
                    assert _triples(got_rows) == _triples(want_rows)


def _square_cases(rng):
    for n in range(1, 5):
        for density in (0.4, 0.8, 1.0):
            for gaussian in (False, True):
                for _ in range(4):
                    rows = _random_rows(rng, n, n, density, gaussian)
                    yield rows
                    corner = [list(row) for row in rows]
                    corner[0][0] = GR_ZERO  # forces a row swap when n > 1
                    yield corner
                    if n > 1:  # singular: a repeated row, a zero column
                        yield rows[:-1] + [rows[0]]
                        yield [[GR_ZERO] + row[1:] for row in rows]


def test_det_matches_leibniz():
    rng = rng_for("det-leibniz")
    singular = swapped = 0
    for rows in _square_cases(rng):
        got = det(ExactMatrix(rows))
        want = _leibniz(rows)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
        singular += not want
        swapped += not rows[0][0] and bool(want)
    assert singular and swapped
    assert det(ExactMatrix([])) == GR_ONE


def test_minor_matches_leibniz():
    rng = rng_for("minor-leibniz")
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = ExactMatrix(_random_rows(rng, r, c, rng.choice((0.4, 1.0)),
                                     rng.random() < 0.5))
        k = rng.randint(0, min(r, c, 4))
        rowset = rng.sample(range(r), k)
        colset = rng.sample(range(c), k)
        got = minor(m, rowset, colset)
        want = _leibniz([[m[i, j] for j in colset] for i in rowset])
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)

