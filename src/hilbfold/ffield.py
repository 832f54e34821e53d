"""Brute-force vanishing sweeps over small prime fields.

The set-theoretic primary-decomposition checks walk every point of F_q^V
(up to 10^7 points) and evaluate a few dozen monomial/binomial generators
at each.  That loop dominates the package's runtime, so it is vectorised
with numpy.

A generator is a sequence of (coeff, ((var_index, exponent), ...)) terms;
the families handled here only ever carry one or two terms with
coefficients +-1, but the sweep accepts anything integral.
"""

from __future__ import annotations

import numpy as np


class BudgetExceeded(ValueError):
    """The requested sweep would visit too many points."""


DEFAULT_BUDGET = 10 ** 7
CHUNK = 1 << 15


def compile_tables(generators, nvars):
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


def iter_point_chunks(nvars, q, chunk=CHUNK):
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


def vanishing_mask(X, tables, q):
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


def _check_budget(nvars, q, budget):
    if q ** nvars > budget:
        raise BudgetExceeded(
            f"{q}^{nvars} points exceed the sweep budget {budget}")


def union_equals_ideal(ideal_gens, prime_gens_list, nvars, q,
                       budget=DEFAULT_BUDGET) -> bool:
    """Pointwise over F_q^V: the ideal vanishes exactly where at least one
    of the primes vanishes.  Only union equality is required; individual
    containments are not assumed."""
    _check_budget(nvars, q, budget)
    ideal_tables = compile_tables(ideal_gens, nvars)
    prime_tables = [compile_tables(p, nvars) for p in prime_gens_list]
    for X in iter_point_chunks(nvars, q):
        lhs = vanishing_mask(X, ideal_tables, q)
        rhs = np.zeros(X.shape[0], dtype=bool)
        for tab in prime_tables:
            rhs |= vanishing_mask(X, tab, q)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def count_vanishing(gens, nvars, q, budget=DEFAULT_BUDGET) -> int:
    _check_budget(nvars, q, budget)
    tables = compile_tables(gens, nvars)
    total = 0
    for X in iter_point_chunks(nvars, q):
        total += int(vanishing_mask(X, tables, q).sum())
    return total


def projection_into_variety(big_gens, big_nvars, small_gens, small_nvars,
                            var_map, q, budget=DEFAULT_BUDGET) -> bool:
    """Every F_q-point of the big variety must project (via var_map:
    small index -> big index) onto a point of the small one."""
    _check_budget(big_nvars, q, budget)
    big_tables = compile_tables(big_gens, big_nvars)
    small_tables = compile_tables(small_gens, small_nvars)
    cols = np.asarray([var_map[i] for i in range(small_nvars)], dtype=np.int64)
    for X in iter_point_chunks(big_nvars, q):
        on_big = vanishing_mask(X, big_tables, q)
        if not on_big.any():
            continue
        proj = X[on_big][:, cols]
        if not vanishing_mask(proj, small_tables, q).all():
            return False
    return True


def coordinate_subspace_equals_intersection(gens_a, gens_b, nvars, live_vars,
                                            q, budget=DEFAULT_BUDGET) -> bool:
    """V(A) intersect V(B) must equal the coordinate subspace where every
    variable outside live_vars vanishes."""
    _check_budget(nvars, q, budget)
    ta = compile_tables(gens_a, nvars)
    tb = compile_tables(gens_b, nvars)
    dead = np.asarray([v for v in range(nvars) if v not in set(live_vars)],
                      dtype=np.int64)
    for X in iter_point_chunks(nvars, q):
        on_both = vanishing_mask(X, ta, q) & vanishing_mask(X, tb, q)
        if dead.size:
            on_subspace = (X[:, dead] == 0).all(axis=1)
        else:
            on_subspace = np.ones(X.shape[0], dtype=bool)
        if not np.array_equal(on_both, on_subspace):
            return False
    return True
