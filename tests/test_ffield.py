import numpy as np
import pytest

from hilbfold import ffield
from hilbfold.localmodel import (primary_components, reduced_ideal,
                                 verify_decomposition_ff)


def simple_gens():
    # x*y and x*z - y over three variables
    return [((1, ((0, 1), (1, 1))),),
            ((1, ((0, 1), (2, 1))), (-1, ((1, 1),)))]


def test_compile_tables_shapes():
    sign, mono, gstart = ffield.compile_tables(simple_gens(), 3)
    assert sign.tolist() == [1, 1, -1]
    assert mono.shape == (3, 3)
    assert gstart.tolist() == [0, 1, 3]


def test_point_enumeration_covers_space():
    chunks = list(ffield.iter_point_chunks(3, 3, chunk=7))
    pts = np.vstack(chunks)
    assert pts.shape == (27, 3)
    assert len({tuple(r) for r in pts.tolist()}) == 27


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


def test_union_detects_wrong_decomposition():
    ideal = reduced_ideal(3, 1)
    fams = primary_components(3, 1)[:-1]  # drop one prime
    assert not verify_decomposition_ff(ideal, fams, 3)


def test_budget_guard():
    with pytest.raises(ffield.BudgetExceeded):
        ffield.count_vanishing(simple_gens(), 3, 3, budget=10)


def test_count_vanishing_simple():
    # x*y = 0 over F_2^2: points (0,0), (0,1), (1,0)
    gens = [((1, ((0, 1), (1, 1))),)]
    assert ffield.count_vanishing(gens, 2, 2) == 3


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
