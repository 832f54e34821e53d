import numpy as np
import pytest

from hilbfold import ffield
from hilbfold.localmodel import (primary_components, reduced_ideal,
                                 verify_decomposition_ff)


# -- reference kernel: repeated multiplication, one generator at a time ------

def reference_tables(generators, nvars):
    """Flatten generators into (sign, monomial, boundary) arrays."""
    signs = []
    monos = []
    bounds = [0]
    for gen in generators:
        for coeff, powers in gen:
            signs.append(int(coeff))
            row = np.zeros(nvars, dtype=np.int64)
            for var, exp in powers:
                row[var] += exp
            monos.append(row)
        bounds.append(len(signs))
    sign = np.asarray(signs, dtype=np.int64)
    mono = (np.vstack(monos) if monos
            else np.zeros((0, nvars), dtype=np.int64))
    gstart = np.asarray(bounds, dtype=np.int64)
    return sign, mono, gstart


def reference_chunks(nvars, q, chunk=ffield.CHUNK):
    """Yield (chunk_size, V) digit arrays enumerating F_q^V."""
    total = q ** nvars
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        X = np.empty((stop - start, nvars), dtype=np.int64)
        for v in range(nvars):
            X[:, v] = idx % q
            idx //= q
        yield X
        start = stop


def reference_mask(X, tables, q):
    """Boolean mask of the rows of X at which every generator vanishes."""
    sign, mono, gstart = tables
    npts = X.shape[0]
    ok = np.ones(npts, dtype=bool)
    for g in range(len(gstart) - 1):
        val = np.zeros(npts, dtype=np.int64)
        for t in range(gstart[g], gstart[g + 1]):
            term = np.full(npts, sign[t] % q, dtype=np.int64)
            for v in np.nonzero(mono[t])[0]:
                for _ in range(mono[t, v]):
                    term = term * X[:, v] % q
            val = (val + term) % q
        ok &= val == 0
    return ok


def random_generator(rng, nvars, q):
    """Up to three terms, with coefficients that q may divide, constant
    terms, repeated variables and exponents up to 2q."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice([rng.randint(-2 * q, 2 * q),
                            q * rng.randint(-2, 2), 1, -1])
        size = rng.randint(0, 3) if nvars else 0
        powers = tuple((rng.randrange(nvars), rng.randint(1, 2 * q))
                       for _ in range(size))
        terms.append((coeff, powers))
    if rng.random() < 0.15:
        # every term cancels mod q against a shifted copy of itself
        terms += [(q * rng.randint(-1, 1) - c, p) for c, p in terms]
    return tuple(terms)


# -- tests -------------------------------------------------------------------

def simple_gens():
    # x*y and x*z - y over three variables
    return [((1, ((0, 1), (1, 1))),),
            ((1, ((0, 1), (2, 1))), (-1, ((1, 1),)))]


def test_compile_tables_shapes():
    keys = ffield.compile_tables(simple_gens(), 3)
    assert keys == (((1, ((0, 1), (1, 1))),),
                    ((1, ((0, 1), (2, 1))), (-1, ((1, 1),))))


def test_compile_tables_merges_and_drops():
    gen = ((2, ((1, 1), (0, 2), (1, 3))), (3, ((0, 2), (1, 4))),
           (4, ((0, 0),)), (-4, ()), (1, ((2, 0),)))
    assert ffield.compile_tables([gen], 3) == (
        ((1, ()), (5, ((0, 2), (1, 4)))),)
    with pytest.raises(ValueError):
        ffield.compile_tables([((1, ((3, 1),)),)], 3)


def test_point_enumeration_covers_space():
    chunks = list(ffield.iter_point_chunks(3, 3, chunk=7))
    pts = np.vstack(chunks)
    assert pts.shape == (27, 3)
    assert len({tuple(r) for r in pts.tolist()}) == 27


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("chunk", [1, 5, 7, 11, ffield.CHUNK])
def test_enumeration_order_and_chunk_alignment(q, chunk):
    for nvars in range(6):
        chunks = list(ffield.iter_point_chunks(nvars, q, chunk=chunk))
        want = np.vstack(list(reference_chunks(nvars, q)))
        assert np.array_equal(np.vstack(chunks), want)
        # each chunk is q^j rows, j the largest with q^j <= chunk, j <= V
        j = 0
        while j < nvars and q ** (j + 1) <= chunk:
            j += 1
        assert [len(X) for X in chunks] == [q ** j] * q ** (nvars - j)


def test_numpy_matches_bruteforce():
    gens = simple_gens()
    tables = ffield.compile_tables(gens, 3)
    for q in (2, 3):
        for X in ffield.iter_point_chunks(3, q):
            got = ffield.vanishing_mask(X, tables, q)
            for row, ok in zip(X.tolist(), got.tolist()):
                x, y, z = row
                expected = (x * y) % q == 0 and (x * z - y) % q == 0
                assert ok == expected


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_masks_match_reference_kernel(q, rng):
    for nvars in range(5):
        points = np.vstack(list(reference_chunks(nvars, q)))
        shuffled = points[rng.sample(range(len(points)), len(points))]
        for _ in range(40):
            gens = [random_generator(rng, nvars, q)
                    for _ in range(rng.randint(0, 4))]
            want = reference_mask(points, reference_tables(gens, nvars), q)
            tables = ffield.compile_tables(gens, nvars)
            assert np.array_equal(
                ffield.vanishing_mask(points, tables, q), want)
            assert np.array_equal(
                ffield.vanishing_mask(shuffled, tables, q),
                reference_mask(shuffled, reference_tables(gens, nvars), q))
            assert ffield.count_vanishing(gens, nvars, q) == want.sum()


@pytest.mark.parametrize("q", [127, 131, 181, 191, 257])
def test_wide_fields_match_reference_kernel(q, rng):
    """Primes at the edges of the narrow digit and log types."""
    points = np.array([[rng.randrange(q) for _ in range(2)]
                       for _ in range(300)] + [[0, 0], [q - 1, q - 1]])
    line = np.vstack(list(reference_chunks(1, q)))
    # x^(q-2) - 2y^(q-3), whose log sums reach (q-2)^2, vanishes at
    # (y^2/2, y) for y != 0 and at the origin
    top = ((1, ((0, q - 2),)), (-2, ((1, q - 3),)))
    x, y = np.vstack(list(reference_chunks(2, q))).T
    want = np.where(y == 0, x == 0, x == y * y * pow(2, -1, q) % q)
    assert np.array_equal(ffield.vanishing_mask(
        np.stack([x, y], axis=1), ffield.compile_tables([top], 2), q), want)
    for _ in range(10):
        gens = [random_generator(rng, 2, q) for _ in range(3)]
        assert np.array_equal(
            ffield.vanishing_mask(points, ffield.compile_tables(gens, 2), q),
            reference_mask(points, reference_tables(gens, 2), q))
        gens = [random_generator(rng, 1, q) for _ in range(2)]
        assert ffield.count_vanishing(gens, 1, q) == reference_mask(
            line, reference_tables(gens, 1), q).sum()


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_walk_masks_match_reference_with_shared_generators(q, rng):
    nvars = 4
    pool = [random_generator(rng, nvars, q) for _ in range(8)]
    for _ in range(10):
        gens_list = [rng.sample(pool, rng.randint(0, 4))
                     for _ in range(rng.randint(1, 5))]
        tables = [reference_tables(gens, nvars) for gens in gens_list]
        walked = list(ffield._walk(gens_list, nvars, q, ffield.DEFAULT_BUDGET))
        got = np.vstack([X for X, _ in walked])
        assert np.array_equal(got, np.vstack(list(reference_chunks(nvars, q))))
        for i, tab in enumerate(tables):
            assert np.array_equal(
                np.concatenate([masks[i] for _, masks in walked]),
                reference_mask(got, tab, q))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_special_generators(q):
    x, y = 0, 1
    cases = [
        [],                                            # no generator
        [((q, ((x, 1),)),)],                           # coefficient q
        [((1, ()),)],                                  # nonzero constant
        [((q + 1, ()), (-1, ()))],                     # constant q
        [((1, ((x, 1), (x, 2))), (-1, ((y, 3),)))],    # x x^2 - y^3
        [((1, ((x, q + 2),)), (-1, ((x, 3),)))],       # exponents >= q
        [((1, ((x, 1),)), (q - 1, ((x, 1),)))],        # cancels mod q
        [((1, ((x, 1), (y, 1))), (-1, ((y, 1), (x, 1))))],
        [((2, ((x, q - 1),)), (-2, ()))],              # 2x^(q-1) - 2
        [((1, ((x, 0), (y, 1))), (-1, ()))],           # x^0 y - 1
    ]
    points = np.vstack(list(reference_chunks(2, q)))
    for gens in cases:
        assert np.array_equal(
            ffield.vanishing_mask(points, ffield.compile_tables(gens, 2), q),
            reference_mask(points, reference_tables(gens, 2), q)), gens


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_no_variables(q):
    for gens, count in [([], 1), ([((q, ()),)], 1), ([((1, ()),)], 0)]:
        assert ffield.count_vanishing(gens, 0, q) == count
        mask = ffield.vanishing_mask(np.zeros((1, 0), dtype=np.int8),
                                     ffield.compile_tables(gens, 0), q)
        assert mask.tolist() == [bool(count)]


def test_union_detects_wrong_decomposition():
    ideal = reduced_ideal(3, 1)
    fams = primary_components(3, 1)[:-1]  # drop one prime
    assert not verify_decomposition_ff(ideal, fams, 3)


def test_budget_guard():
    with pytest.raises(ffield.BudgetExceeded):
        ffield.count_vanishing(simple_gens(), 3, 3, budget=10)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_projection_counts_the_big_variety_or_refuses(q):
    gens = simple_gens()
    # V(xy, xz - y) projects onto V(xy) in the (x, y) plane, and the walk
    # counts its points on the way
    assert ffield.projection_into_variety(gens, 3, gens[:1], 2,
                                          {0: 0, 1: 1}, q) == \
        ffield.count_vanishing(gens, 3, q)
    # but not onto V(x): (1, 0, 0) lies on it
    x = [((1, ((0, 1),)),)]
    assert ffield.projection_into_variety(gens, 3, x, 1, {0: 0}, q) is None
    # an empty big variety projects, with no points
    assert ffield.projection_into_variety([((1, ()),)], 2, x, 1, {0: 0},
                                          q) == 0


def test_count_vanishing_simple():
    # x*y = 0 over F_2^2: points (0,0), (0,1), (1,0)
    gens = [((1, ((0, 1), (1, 1))),)]
    assert ffield.count_vanishing(gens, 2, 2) == 3


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
def test_non_prime_q_is_refused_before_walking(q, monkeypatch):
    made = []

    def chunks(*args, **kwargs):
        made.append(args)
        return iter(())
    monkeypatch.setattr(ffield, "iter_point_chunks", chunks)
    gens = simple_gens()
    sweeps = [
        lambda: ffield.count_vanishing(gens, 3, q),
        lambda: ffield.union_equals_ideal(gens, [gens[:1]], 3, q),
        lambda: ffield.projection_into_variety(gens, 3, gens[:1], 2,
                                               {0: 0, 1: 1}, q),
        lambda: ffield.coordinate_subspace_equals_intersection(
            [gens[:1], gens[1:]], {(0, 1): [2]}, 3, q),
        lambda: ffield.vanishing_mask(np.zeros((1, 3), dtype=np.int8),
                                      ffield.compile_tables(gens, 3), q),
    ]
    for sweep in sweeps:
        with pytest.raises(ValueError, match="not prime"):
            sweep()
    assert made == []


def test_field_tables_are_a_discrete_log():
    for q in (2, 3, 5, 7, 11, 13, 101, 257):
        log, power = ffield._field(q)
        assert sorted(power.tolist()) == list(range(1, q))
        assert all(int(power[log[x]]) == x for x in range(1, q))


def test_chunked_equals_unchunked():
    ideal = reduced_ideal(3, 1)
    tables = ffield.compile_tables(ideal.generators, ideal.nvars())
    big = np.vstack(list(ffield.iter_point_chunks(ideal.nvars(), 3)))
    whole = ffield.vanishing_mask(big, tables, 3)
    parts = [ffield.vanishing_mask(X, tables, 3)
             for X in ffield.iter_point_chunks(ideal.nvars(), 3, chunk=11)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_subspace_check_refuses_before_walking(monkeypatch):
    made = []

    def chunks(*args, **kwargs):
        made.append(args)
        return iter(())
    monkeypatch.setattr(ffield, "iter_point_chunks", chunks)
    gens = simple_gens()
    with pytest.raises(ffield.BudgetExceeded):
        ffield.coordinate_subspace_equals_intersection(
            [gens[:1], gens[1:]], {(0, 1): [2]}, 3, 3, budget=10)
    assert made == []
