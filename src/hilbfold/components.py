"""Irreducible components: punctual strata, global components, and how
two punctual components meet.

Each count is checked against a count of the compositions that index the
components; the advertised closed form is compared, never trusted (it is
provably wrong at small parameters, and the comparison records that).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .foldring import InternalDiagnosticError
from .hypercomplex import (HyperCell, compositions, count_maximal_cells, kappa,
                           lattice_point_count)


def positive_compositions(total, parts):
    """Integer vectors >= 1 of given length and sum."""
    for c in compositions(total - parts, parts):
        yield tuple(x + 1 for x in c)


@dataclass(frozen=True, order=True)
class GrassComponent:
    """The closure of the ideals spanned by l independent elements of the
    degree-u monomial space; a Grassmannian Gr(l, n) inside the punctual
    locus of length m."""

    n: int
    m: int
    l: int
    u: tuple

    def __post_init__(self):
        if not max(1, self.n + 1 - self.m) <= self.l <= self.n - 1:
            raise ValueError("row count outside the component range")
        if len(self.u) != self.n or any(x < 1 for x in self.u):
            raise ValueError("degree vector must be positive of length n")
        if sum(self.u) != self.m + self.l - 1:
            raise ValueError("degree vector has the wrong total")

    @property
    def cell(self) -> HyperCell:
        """The moment-map image: a translated hypersimplex."""
        return HyperCell(self.n, self.n - self.l,
                         tuple(x - 1 for x in self.u))


def punctual_components(n: int, m: int):
    """All punctual components, enumerated directly.

    A single axis (n = 1) has a one-point punctual locus with no
    Grassmannian strata; the list is empty and the count is one."""
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    out = []
    for l in range(max(1, n + 1 - m), n):
        for u in positive_compositions(m + l - 1, n):
            out.append(GrassComponent(n, m, l, u))
    return sorted(out)


@dataclass(frozen=True)
class CountComparison:
    value: int              # authoritative, counted two ways
    closed_form: Fraction   # the advertised formula
    matches: bool


def punctual_count(n: int, m: int) -> CountComparison:
    """Number of punctual components, with the closed form evaluated for
    comparison.  The n >= m branch is reliable; the other one is not (it
    already fails at (n, m) = (2, 3)), which the comparison records."""
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    if n == 1:
        # the punctual locus of a single smooth branch is one point
        return CountComparison(1, Fraction(1), True)
    # each component's moment image is one cell of K(n, m) (see .cell)
    value = count_maximal_cells(n, m)
    # l rows: one component per positive composition of m + l - 1 into n
    direct = sum(lattice_point_count(n, 1, m + l - 1 - n)
                 for l in range(max(1, n + 1 - m), n))
    if direct != value:
        raise InternalDiagnosticError(
            "composition count disagrees with the summed count")
    if n >= m:
        closed = Fraction(m - 1, n) * comb(m + n - 2, n - 1)
    else:
        closed = (Fraction(m - 1, n) + Fraction(n - m, n)) * comb(m + n - 2, n - 1)
    return CountComparison(value, closed, closed == value)


@dataclass(frozen=True)
class IntersectionDescriptor:
    """Intersection of two punctual components: a Grassmannian Gr(gr_l, gr_n)
    of ideals with the recorded fixed monomials and forced pure powers."""

    gr_l: int
    gr_n: int
    span_axes: tuple       # axes whose degree-u monomials span the free part
    fixed_monomials: dict  # axis -> degree of a pinned pure-power generator
    forced_powers: dict    # axis -> degree of a forced pure power (u_i + 1)


def intersect_components(c1: GrassComponent, c2: GrassComponent):
    """Empty unless the degree vectors differ by a {0,1,-1}-vector (an
    all-ones difference cannot occur: |u1| - |u2| = l1 - l2 < n)."""
    if (c1.n, c1.m) != (c2.n, c2.m):
        raise ValueError("components of different punctual loci")
    d = tuple(a - b for a, b in zip(c1.u, c2.u))
    if any(x not in (-1, 0, 1) for x in d):
        return None
    up, down, same = kappa(d, 1), kappa(d, -1), kappa(d, 0)
    if not 0 <= c1.l - len(up) <= len(same):
        # the would-be Grassmannian Gr(r, s) with r > s is empty
        return None
    return IntersectionDescriptor(
        c1.l - len(up), len(same), tuple(sorted(same)),
        {i: c1.u[i] for i in sorted(up)},
        {i: c1.u[i] + 1 for i in sorted(down)})


# --------------------------------------------------------------------------
# Global components.
# --------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class GlobalComponent:
    """A component of the full Hilbert scheme: either smoothable with a
    point-distribution over the axes, or the closure of (points away from
    the origin) x (an elementary punctual piece of length mprime)."""

    kind: str              # "smoothable" | "nonsmoothable"
    distribution: tuple    # |distribution| = m (smoothable) or m - mprime
    mprime: int = 0

    def __post_init__(self):
        if self.kind not in ("smoothable", "nonsmoothable"):
            raise ValueError("unknown component kind")
        if self.kind == "nonsmoothable" and self.mprime < 2:
            raise ValueError("nonsmoothable components need mprime >= 2")


def global_components(n: int, m: int):
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    out = [GlobalComponent("smoothable", u)
           for u in compositions(m, n)]
    for mprime in range(2, min(m, n - 1) + 1):
        out.extend(GlobalComponent("nonsmoothable", u, mprime)
                   for u in compositions(m - mprime, n))
    return sorted(out)


def global_count(n: int, m: int) -> int:
    """Count of global components; formula and composition count agree."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    # points distributed over the axes: m, or m - mprime per nonsmoothable
    free = [m] + [m - mp for mp in range(2, min(m, n - 1) + 1)]
    formula = sum(comb(t + n - 1, t) for t in free)
    direct = sum(lattice_point_count(n, 1, t) for t in free)
    if formula != direct:
        raise InternalDiagnosticError(
            f"global formula {formula} != composition count {direct}")
    return direct


def curve_count(n: int, m: int) -> int:
    """Components of the length-m Hilbert scheme of an irreducible curve
    with one rational n-fold singularity: the count plateaus at n - 1.

    Checked against the brute-force count of the admissible local lengths
    of the one singularity."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    value = min(n - 1, m)
    if multi_sing_count(1, m, (n,)).brute != value:
        raise InternalDiagnosticError(
            "curve component count disagrees with the brute-force count")
    return value


@dataclass(frozen=True)
class MultiSingCount:
    brute: int
    formula: int
    matches: bool
    vectors: tuple


def multi_sing_count(k: int, m: int, ns) -> MultiSingCount:
    """Components of the Hilbert scheme of a curve with k fold-type
    singularities: brute-force enumeration of the admissible local-length
    vectors (authoritative) next to the inclusion-exclusion evaluation."""
    ns = tuple(ns)
    if k < 1 or len(ns) != k or any(x < 2 for x in ns):
        raise ValueError("need k >= 1 singularities of multiplicity >= 2")
    if m < 0:
        raise ValueError(f"length m = {m} is negative")
    choices = [[0] + list(range(2, min(m, ni - 1) + 1)) for ni in ns]
    vectors = tuple(v for v in itertools.product(*choices) if sum(v) <= m)
    brute = len(vectors)
    formula = sum(_chi(len(j_set), m - 2 * len(j_set),
                       [ns[i] - 3 for i in j_set])
                  for r in range(k + 1)
                  for j_set in itertools.combinations(range(k), r))
    return MultiSingCount(brute, formula, brute == formula, vectors)


def _chi(j: int, budget: int, caps) -> int:
    """#{x in Z_{>=0}^j : |x| <= budget, x_i <= caps[i]}, by
    inclusion-exclusion over the violated caps."""
    if j == 0:
        return 1 if budget >= 0 else 0
    total = 0
    for r in range(j + 1):
        for picked in itertools.combinations(range(j), r):
            a = budget - sum(caps[i] + 1 for i in picked) + j
            total += (-1) ** r * (comb(a, j) if a >= j else 0)
    return total


# --------------------------------------------------------------------------
# Strata of the nonsmoothable components.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumDescriptor:
    sym_degree: int          # points moving on the smooth locus
    local_length: int        # mprime + u
    l: int                   # n + 1 - mprime
    component_count: int


def stratum_descriptor(n: int, m: int, mprime: int, u_level: int) -> StratumDescriptor:
    """Stratum of a nonsmoothable component: a symmetric power of the curve
    away from the singularity times a glued union of Grassmannians, one per
    degree vector of the local length with l rows."""
    if not 2 <= mprime <= min(m, n - 1):
        raise ValueError("mprime out of range")
    if not 0 <= u_level <= m - mprime:
        raise ValueError("stratum level out of range")
    l = n + 1 - mprime
    local = mprime + u_level
    count = comb(u_level + n - 1, n - 1)
    # degree vectors: positive compositions of local + l - 1 = u_level + n
    if lattice_point_count(n, 1, u_level) != count:
        raise InternalDiagnosticError(
            "stratum component count disagrees with C(u+n-1, n-1)")
    return StratumDescriptor(m - mprime - u_level, local, l, count)
