import copy
import itertools
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest

from hilbfold.exact import (GR_ONE, GR_ZERO, ExactMatrix, GaussRational, det,
                            kernel_basis, minor, rank, rref)
from conftest import random_gauss, rng_for


def test_lowest_terms_and_sign():
    g = GaussRational(2, 4, -6)
    assert (g.a, g.b, g.d) == (-1, -2, 3)
    assert g.re == Fraction(-1, 3) and g.im == Fraction(-2, 3)


@pytest.mark.parametrize("args", [(Fraction(1, 2), 1),
                                  (Fraction(1, 2), 0, 3),
                                  (Fraction(1, 2), 0, -1),
                                  (GaussRational(1, 2), 0, 3)])
def test_one_part_constructor_rejects_b_and_d(args):
    with pytest.raises(TypeError, match="from_fractions"):
        GaussRational(*args)


def test_one_part_constructor():
    assert GaussRational(Fraction(-3, 6)) == GaussRational(-1, 0, 2)
    g = GaussRational(1, -2, 3)
    assert GaussRational(g) == g
    assert GaussRational.from_fractions(Fraction(1, 2), 1) == \
        GaussRational(1, 2, 2)


COPIES = [copy.copy, copy.deepcopy,
          lambda x: pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("clone", COPIES)
def test_copy_and_pickle_round_trip(clone):
    g = GaussRational(1, 2, 3)
    h = clone(g)
    assert type(h) is GaussRational and h == g
    assert (h.a, h.b, h.d) == (1, 2, 3) and hash(h) == hash(g)
    M = ExactMatrix([[g, 1], [GaussRational(0, -1), Fraction(5, 7)]])
    N = clone(M)
    assert type(N) is ExactMatrix and N == M
    assert (N.rows, N.cols) == (2, 2) and hash(N) == hash(M)


def test_attributes_cannot_be_deleted():
    g = GaussRational(1, 2, 3)
    M = ExactMatrix([[g]])
    for obj, attr in [(g, "a"), (g, "b"), (g, "d"), (M, "rows"),
                      (M, "cols"), (M, "entries")]:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(obj, attr)
    assert (g.a, g.b, g.d) == (1, 2, 3) and M.rows == 1 and M[0, 0] == g


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_float_operand_is_refused(op):
    g = GaussRational(1, 1)
    with pytest.raises(TypeError):
        op(0.5, g)
    with pytest.raises(TypeError):
        op(g, 0.5)


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



# -- scalars against an independent reference: (re, im) pairs of Fractions ---

def _pair(x):
    """The reference value of an operand: a pair of Fractions."""
    if isinstance(x, GaussRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _p_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _p_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _p_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _p_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return x[0] / n, -x[1] / n


def _p_div(x, y):
    return _p_mul(x, _p_inv(y))


def _p_zero(x):
    return x == (0, 0)


def _assert_canonical(got, want):
    """got is in lowest terms with d > 0, has the reference value, hashes
    like an equal value built another way, and cannot be changed."""
    assert isinstance(got, GaussRational)
    assert got.d > 0 and gcd(got.a, got.b, got.d) == 1
    assert (got.re, got.im) == want
    twin = GaussRational.from_fractions(*want)
    assert got == twin and hash(got) == hash(twin)
    with pytest.raises(AttributeError):
        got.a = 0


def _reference_operand(rng):
    """An int, a Fraction or a GaussRational: zero, small, large, or with
    a denominator that cancels against the other operand's."""
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice((0, GR_ZERO, Fraction(0)))
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 12)))
    big = 10 ** rng.randint(20, 40)
    parts = [Fraction(rng.randint(-big, big) if kind == 3 else
                      rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12)))
             for _ in range(2)]
    if kind == 4:
        parts[1] = Fraction(0)
    return GaussRational.from_fractions(*parts)


def test_scalar_operators_match_fraction_pairs():
    rng = rng_for("scalar-fraction-pairs")
    ops = [(operator.add, _p_add), (operator.sub, _p_sub),
           (operator.mul, _p_mul), (operator.truediv, _p_div)]
    for _ in range(3000):
        x, y = _reference_operand(rng), _reference_operand(rng)
        if not isinstance(x, GaussRational) and \
                not isinstance(y, GaussRational):
            y = GaussRational(y)  # at least one side is a GaussRational
        px, py = _pair(x), _pair(y)
        for op, ref in ops:
            if op is operator.truediv and _p_zero(py):
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            _assert_canonical(op(x, y), ref(px, py))
        g = x if isinstance(x, GaussRational) else y
        pg = _pair(g)
        _assert_canonical(-g, (-pg[0], -pg[1]))
        _assert_canonical(g.conjugate(), (pg[0], -pg[1]))
        if _p_zero(pg):
            with pytest.raises(ZeroDivisionError):
                g.inverse()
        else:
            _assert_canonical(g.inverse(), _p_inv(pg))


def _pair_rref(rows):
    """Reduced row echelon form over (re, im) pairs, zero rows dropped."""
    work = [list(r) for r in rows]
    out, pivots = [], []
    for col in range(len(work[0]) if work else 0):
        sel = next((r for r in work if not _p_zero(r[col])), None)
        if sel is None:
            continue
        work.remove(sel)
        inv = _p_inv(sel[col])
        sel = [_p_mul(x, inv) for x in sel]
        work = [[_p_sub(x, _p_mul(r[col], y)) for x, y in zip(r, sel)]
                for r in work]
        out = [[_p_sub(x, _p_mul(r[col], y)) for x, y in zip(r, sel)]
               for r in out] + [sel]
        pivots.append(col)
    return out, pivots


def _pair_det(rows):
    total = (Fraction(0), Fraction(0))
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2)
                         if a > b)
        term = (Fraction((-1) ** inversions), Fraction(0))
        for i, j in enumerate(perm):
            term = _p_mul(term, rows[i][j])
        total = _p_add(total, term)
    return total


def test_rref_and_det_match_fraction_pairs():
    rng = rng_for("rref-fraction-pairs")
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = _random_rows(rng, r, c, rng.choice((0.3, 0.6, 1.0)),
                            rng.random() < 0.5)
        if r > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        pairs = [[_pair(x) for x in row] for row in rows]
        got_rows, got_pivots = rref(rows)
        want_rows, want_pivots = _pair_rref(pairs)
        assert got_pivots == want_pivots
        assert len(got_rows) == len(want_rows)
        for got_row, want_row in zip(got_rows, want_rows):
            for got, want in zip(got_row, want_row):
                _assert_canonical(got, want)
        if r == c:
            _assert_canonical(det(ExactMatrix(rows)), _pair_det(pairs))
