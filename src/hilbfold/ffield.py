"""Brute-force vanishing sweeps over small prime fields.

The set-theoretic checks (primary decompositions, reductions, the
singularity complex) walk every point of F_q^V (up to 10^7 points) and
evaluate a few dozen monomial/binomial generators at each.  One engine,
``_walk``, does that: it checks that q is prime and the budget, compiles
each generator list once and yields each chunk of points with one
vanishing mask per list.  Every check is a reduction over those masks and
walks F_q^V once, however many varieties it compares.

A generator is a sequence of (coeff, ((var_index, exponent), ...)) terms;
the families handled here only ever carry one or two terms with
coefficients +-1, but the sweep accepts anything integral.  Each generator
is compiled to a canonical key, so a generator shared by several lists is
evaluated once per chunk and a list's mask is the AND of its generators'.

Evaluation is exact integer arithmetic on the zero pattern and the
discrete logarithm.  A term vanishes exactly where a variable of its
support is zero.  Elsewhere c*x^e = g^(L(c) + sum_v e_v*L(x_v) mod (q-1)),
with g a generator of F_q^x and L its discrete log, so a one-term
generator needs only the zero columns and a longer one the log columns of
its variables.  Both are vectorised with numpy; q must be prime.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class BudgetExceeded(ValueError):
    """The requested sweep would visit too many points."""


DEFAULT_BUDGET = 10 ** 7
CHUNK = 1 << 15


def _check_prime(q):
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"q = {q} is not prime: sweeps run over the field "
                         f"F_q")


@lru_cache(maxsize=4)
def _field(q):
    """(log, power) tables of the prime field F_q for its smallest
    generator g: power[k] = g^k and log[g^k] = k for 0 <= k < q - 1.
    Their type holds q^2, so a log plus a log times an exponent below
    q - 1 fits."""
    factors, rest = set(), q - 1
    for d in range(2, math.isqrt(q) + 1):
        while rest % d == 0:
            factors.add(d)
            rest //= d
    if rest > 1:
        factors.add(rest)
    g = next(g for g in range(1, q)
             if all(pow(g, (q - 1) // p, q) != 1 for p in factors))
    dtype = np.promote_types(np.int16, np.min_scalar_type(-q * q))
    power = np.empty(q - 1, dtype=dtype)
    x = 1
    for k in range(q - 1):
        power[k] = x
        x = x * g % q
    log = np.zeros(q, dtype=dtype)
    log[power] = np.arange(q - 1)
    return log, power


def compile_tables(generators, nvars):
    """Canonical key of each generator: its terms as (coeff,
    ((var, exp), ...)) in monomial order, repeated variables merged, zero
    exponents dropped, like monomials combined and zero terms dropped."""
    keys = []
    for gen in generators:
        terms = {}
        for coeff, powers in gen:
            mono = {}
            for var, exp in powers:
                if not 0 <= var < nvars:
                    raise ValueError(f"variable {var} outside 0..{nvars - 1}")
                mono[var] = mono.get(var, 0) + exp
            mono = tuple(sorted((v, e) for v, e in mono.items() if e))
            terms[mono] = terms.get(mono, 0) + int(coeff)
        keys.append(tuple((terms[m], m) for m in sorted(terms) if terms[m]))
    return tuple(keys)


def _over(tables, q):
    """The distinct keys of tables over F_q: coefficients reduced mod q and
    terms divisible by q dropped.  A generator that becomes 0 vanishes
    everywhere and is left out."""
    keys = {tuple((c % q, mono) for c, mono in key if c % q)
            for key in tables}
    keys.discard(())
    return keys


def iter_point_chunks(nvars, q, chunk=CHUNK):
    """Yield digit arrays enumerating F_q^V in little-endian order: row r
    of the walk holds the base-q digits of r, lowest first.  Each chunk has
    q^j rows, j the largest with q^j <= chunk and j <= V.  The low j digits
    are one block made once; the high digits are constant in a chunk.
    Digits have the narrowest signed type that holds q (int8 up to 128)."""
    j = 0
    while j < nvars and q ** (j + 1) <= chunk:
        j += 1
    dtype = np.min_scalar_type(-q)
    low = np.empty((q ** j, j), dtype=dtype, order="F")
    for v in range(j):
        low[:, v].reshape(-1, q ** (v + 1))[...] = np.repeat(
            np.arange(q, dtype=dtype), q ** v)
    for high in range(q ** (nvars - j)):
        X = np.empty((q ** j, nvars), dtype=dtype, order="F")
        X[:, :j] = low
        for v in range(j, nvars):
            X[:, v] = high % q
            high //= q
        yield X


def _evaluate(X, keys, q):
    """Yield the vanishing mask of each canonical generator on the rows of
    X.  The zero columns and the log columns are shared by all of them."""
    zero = X == 0
    logs = {}

    def any_zero(powers):
        hit = np.zeros(X.shape[0], dtype=bool)
        for v, _ in powers:
            hit |= zero[:, v]
        return hit

    for key in keys:
        if len(key) == 1:
            yield any_zero(key[0][1])
            continue
        log, power = _field(q)
        total = None
        for coeff, powers in key:
            k = int(log[coeff])
            for v, e in powers:
                if e % (q - 1):
                    if v not in logs:
                        logs[v] = log.take(X[:, v])
                    k = k + e % (q - 1) * logs[v]
                    k %= q - 1
            value = np.where(any_zero(powers), 0, power.take(k))
            total = value if total is None else (total + value) % q
        yield total == 0


def _all(masks, npts):
    ok = np.ones(npts, dtype=bool)
    for mask in masks:
        ok &= mask
    return ok


def vanishing_mask(X, tables, q):
    """Boolean mask of the rows of X at which every generator vanishes."""
    _check_prime(q)
    return _all(_evaluate(X, _over(tables, q), q), X.shape[0])


def _walk(gens_list, nvars, q, budget):
    """Walk F_q^V once, chunk by chunk.  Yields (X, masks), where masks[i]
    marks the rows of X at which every generator of gens_list[i] vanishes.
    q must be prime, and the budget is checked before any point is made."""
    _check_prime(q)
    if q ** nvars > budget:
        raise BudgetExceeded(
            f"{q}^{nvars} points exceed the sweep budget {budget}")
    lists = [_over(compile_tables(gens, nvars), q) for gens in gens_list]
    distinct = set().union(*lists)
    for X in iter_point_chunks(nvars, q):
        value = dict(zip(distinct, _evaluate(X, distinct, q)))
        yield X, [_all((value[key] for key in keys), X.shape[0])
                  for keys in lists]


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
                            var_map, q,
                            budget=DEFAULT_BUDGET) -> int | None:
    """Every F_q-point of the big variety must project (via var_map:
    small index -> big index) onto a point of the small one.  Returns the
    number of F_q-points of the big variety, or None as soon as one of
    them does not project."""
    small_tables = compile_tables(small_gens, small_nvars)
    cols = [var_map[i] for i in range(small_nvars)]
    count = 0
    for X, (on_big,) in _walk([big_gens], big_nvars, q, budget):
        if on_big.any() and not vanishing_mask(
                X[on_big][:, cols], small_tables, q).all():
            return None
        count += int(on_big.sum())
    return count


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
