"""Brute-force vanishing sweeps over small prime fields.

The set-theoretic checks (primary decompositions, reductions, the
singularity complex) walk every point of F_q^V (up to 10^7 points) and
evaluate a few dozen monomial/binomial generators at each.  One engine,
``_walk``, does that: it checks the budget, compiles each generator list
once and yields each chunk of points with one vanishing mask per list.
Every check is a reduction over those masks and walks F_q^V once, however
many varieties it compares.  The loop is vectorised with numpy.

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


def _walk(gens_list, nvars, q, budget):
    """Walk F_q^V once, chunk by chunk.  Yields (X, masks), where masks[i]
    marks the rows of X at which every generator of gens_list[i] vanishes.
    The budget is checked before any point is made."""
    if q ** nvars > budget:
        raise BudgetExceeded(
            f"{q}^{nvars} points exceed the sweep budget {budget}")
    tables = [compile_tables(gens, nvars) for gens in gens_list]
    for X in iter_point_chunks(nvars, q):
        yield X, [vanishing_mask(X, tab, q) for tab in tables]


def union_equals_ideal(ideal_gens, prime_gens_list, nvars, q,
                       budget=DEFAULT_BUDGET) -> bool:
    """Pointwise over F_q^V: the ideal vanishes exactly where at least one
    of the primes vanishes.  Only union equality is required; individual
    containments are not assumed."""
    for X, (lhs, *primes) in _walk([ideal_gens, *prime_gens_list], nvars, q,
                                   budget):
        rhs = np.zeros(X.shape[0], dtype=bool)
        for mask in primes:
            rhs |= mask
        if not np.array_equal(lhs, rhs):
            return False
    return True


def count_vanishing(gens, nvars, q, budget=DEFAULT_BUDGET) -> int:
    return sum(int(mask.sum())
               for _, (mask,) in _walk([gens], nvars, q, budget))


def projection_into_variety(big_gens, big_nvars, small_gens, small_nvars,
                            var_map, q, budget=DEFAULT_BUDGET) -> bool:
    """Every F_q-point of the big variety must project (via var_map:
    small index -> big index) onto a point of the small one."""
    small_tables = compile_tables(small_gens, small_nvars)
    cols = [var_map[i] for i in range(small_nvars)]
    for X, (on_big,) in _walk([big_gens], big_nvars, q, budget):
        if on_big.any() and not vanishing_mask(
                X[on_big][:, cols], small_tables, q).all():
            return False
    return True


def coordinate_subspace_equals_intersection(gens_list, live_vars, nvars, q,
                                            budget=DEFAULT_BUDGET) -> bool:
    """For every pair (a, b) of live_vars, V(gens_list[a]) intersect
    V(gens_list[b]) must equal the coordinate subspace where every variable
    outside live_vars[(a, b)] vanishes.  One walk answers every pair."""
    dead = {pair: [v for v in range(nvars) if v not in set(live)]
            for pair, live in live_vars.items()}
    for X, masks in _walk(gens_list, nvars, q, budget):
        zero = X == 0
        for (a, b), cols in dead.items():
            if not np.array_equal(masks[a] & masks[b],
                                  zero[:, cols].all(axis=1)):
                return False
    return True
