"""Moment maps: from punctual ideals to points of the dilated simplex.

The map sends a presentation (u, A) to u minus the Grassmannian moment of the
row space of A, the |q_S|^2 weighted average of the indicator vectors e_S
over its Pluecker coordinates q_S.  Everything is exact: the scalars are
Gaussian rationals, so the weights |q|^2 are honest rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactMatrix, minor
from .foldring import FoldRingCtx, InternalDiagnosticError, PunctualIdeal
from .hypercomplex import ComplexKnm, Face


@dataclass(frozen=True)
class PluckerVector:
    """Pluecker coordinates of an l-plane, indexed by l-subsets of axes."""

    l: int
    n: int
    coords: tuple  # ordered like itertools.combinations(range(n), l)

    def __post_init__(self):
        if len(self.coords) != math.comb(self.n, self.l):
            raise ValueError("wrong number of Pluecker coordinates")
        if not any(self.coords):
            raise ValueError("all Pluecker coordinates vanish")

    def items(self):
        return zip(itertools.combinations(range(self.n), self.l), self.coords)


def _plucker(n, l, matrix: ExactMatrix) -> PluckerVector:
    """The maximal minors in axis order (rows as given, columns the chosen
    axis subset)."""
    return PluckerVector(l, n, tuple(
        minor(matrix, range(l), cols)
        for cols in itertools.combinations(range(n), l)))


def plucker_of(ideal: PunctualIdeal) -> PluckerVector:
    """Pluecker coordinates of the canonical generator matrix."""
    return _plucker(ideal.n, ideal.l, ideal.matrix)


@dataclass(frozen=True)
class MomentPoint:
    coords: tuple  # Fractions

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __iter__(self):
        return iter(self.coords)


def moment_grass(p: PluckerVector) -> MomentPoint:
    """Weighted average of indicator vectors: sum |q_A|^2 e_A / sum |q_A|^2."""
    total = Fraction(0)
    acc = [Fraction(0)] * p.n
    for subset, q in p.items():
        w = q.norm_sq()
        if not w:
            continue
        total += w
        for i in subset:
            acc[i] += w
    return MomentPoint(tuple(c / total for c in acc))


def _moment_of_presentation(n, l, u, matrix: ExactMatrix) -> MomentPoint:
    """u - 1 plus the weighted average of the complementary indicators
    e_{[n] - S}, which is u minus the Grassmannian moment, since the weights
    of the S missing i are the total less those of the S containing i."""
    grass = moment_grass(_plucker(n, l, matrix))
    return MomentPoint(tuple(u[i] - c for i, c in enumerate(grass)))


def containing_presentations(ideal: PunctualIdeal):
    """All (l, u, matrix) presentations of the ideal inside the genuine
    component strata: a pure-power row x_i^{u_i} with u_i >= 2 may be
    dropped, lowering u_i by one and leaving column i zero, since every
    ideal of that stratum contains the power one past its degree there.

    Yields (l, u, matrix) triples, one per containing component."""
    n = ideal.n
    movable = [(row, axis) for row, axis in ideal.monomial_rows()
               if ideal.u[axis] >= 2]
    for r in range(len(movable) + 1):
        for chosen in itertools.combinations(movable, r):
            rows_out = set(row for row, _ in chosen)
            axes_out = set(axis for _, axis in chosen)
            l2 = ideal.l - len(chosen)
            if not 1 <= l2 <= n - 1:
                continue
            u2 = tuple(ideal.u[i] - 1 if i in axes_out else ideal.u[i]
                       for i in range(n))
            rows = [ideal.matrix.row(i) for i in range(ideal.l)
                    if i not in rows_out]
            yield l2, u2, ExactMatrix(rows)


def moment_global(ideal: PunctualIdeal, m: int | None = None) -> MomentPoint:
    """Moment image, evaluated on every containing component and checked to
    agree; disagreement would mean the gluing is broken."""
    if m is not None and ideal.colength() != m:
        raise ValueError(f"colength is {ideal.colength()}, not {m}")
    values = [_moment_of_presentation(ideal.n, l2, u2, mat)
              for l2, u2, mat in containing_presentations(ideal)]
    if not values:
        # only the full stratum presentation exists (e.g. the maximal ideal)
        return _moment_of_presentation(ideal.n, ideal.l, ideal.u,
                                       ideal.matrix)
    first = values[0]
    for other in values[1:]:
        if other.coords != first.coords:
            raise InternalDiagnosticError(
                f"moment images disagree across components: {values}")
    return first


def gluing_consistency_sweep(count: int = 100, seed: int = 0) -> int:
    """Seeded property sweep: random ideals pinned into several components
    must receive the same moment value from every one of them.

    Instances are drawn as presentations (u, A) following the intersection
    template: one pure-power row on an axis of degree >= 2 plus random rows
    on the remaining axes; a draw that PunctualIdeal refuses is skipped.
    Any disagreement raises.  Returns the number of instances checked."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        n = rng.randint(2, 5)
        m = rng.randint(2, 7)
        lo, hi = max(1, n + 1 - m), n - 1
        if lo > hi:
            continue
        l = rng.randint(lo, hi)
        u = [1] * n
        for _ in range(m + l - 1 - n):
            u[rng.randrange(n)] += 1
        high = [i for i in range(n) if u[i] >= 2]
        if not high:
            continue
        pinned = rng.choice(high)
        rows = [[int(j == pinned) for j in range(n)]]
        rows += [[0 if j == pinned else rng.randint(-4, 4) for j in range(n)]
                 for _ in range(l - 1)]
        try:
            ideal = PunctualIdeal(FoldRingCtx(n), l, tuple(u),
                                  ExactMatrix(rows))
        except ValueError:
            continue
        if len(list(containing_presentations(ideal))) < 2:
            continue
        moment_global(ideal, m)
        done += 1
    return done


def locate(point: MomentPoint, K: ComplexKnm) -> Face:
    """The unique minimal face of the complex containing the point."""
    coords = point.coords
    if len(coords) != K.n or any(c < 0 for c in coords) or sum(coords) != K.m - 1:
        raise ValueError("point outside the dilated simplex")
    found = None
    for cell in K.cells_containing(coords):
        face = cell.face_through((coords,))
        if found is None:
            found = face
        elif found != face:
            raise InternalDiagnosticError(
                "minimal face is not unique across cells")
    if found is None:
        raise ValueError("point not covered by any cell")
    return found
