"""Translated hypersimplices and the hypersimplicial subdivision they form.

A cell is a translated hypersimplex shift + conv{e_T : |T| = l}; the cells
with 1 <= l <= min(n-1, m-1) and |shift| = m-1-l tile the dilated simplex
(m-1) * standard-simplex.  Faces are stored as (S1, S2) descriptors (axes
pinned to the bottom resp. top of their unit interval), saturated so that
every geometric face has a canonical descriptor; vertex sets are derived on
demand and are the notion of identity.

Lattice volumes are computed by exhaustive lattice-point counts and exact
finite differences, so no closed volume formula is ever trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor
from types import MappingProxyType

from .foldring import InternalDiagnosticError


@dataclass(frozen=True)
class HyperCell:
    """shift + conv{e_{i_1} + ... + e_{i_l}} inside the slice of sum l+|shift|."""

    n: int
    l: int
    shift: tuple

    def __post_init__(self):
        if not 1 <= self.l <= self.n - 1:
            raise ValueError("hypersimplex parameter out of range")
        if len(self.shift) != self.n or any(s < 0 for s in self.shift):
            raise ValueError("shift must be a nonnegative integer vector")

    @property
    def coordinate_sum(self):
        return self.l + sum(self.shift)

    def vertices(self):
        base = self.shift
        verts = []
        for t in itertools.combinations(range(self.n), self.l):
            v = list(base)
            for i in t:
                v[i] += 1
            verts.append(tuple(v))
        return frozenset(verts)

    def contains(self, point) -> bool:
        if len(point) != self.n:
            return False
        if sum(point) != self.coordinate_sum:
            return False
        return all(self.shift[i] <= point[i] <= self.shift[i] + 1
                   for i in range(self.n))

    def face_through(self, points) -> Face:
        """The smallest face containing the given points of the cell: on
        every axis where all the points sit at shift_i, or all sit at
        shift_i + 1, the face is pinned there."""
        shift = self.shift
        s1 = s2 = range(self.n)
        for p in points:
            s1 = [i for i in s1 if p[i] == shift[i]]
            s2 = [i for i in s2 if p[i] == shift[i] + 1]
        return Face(self.n, self.l, shift, frozenset(s1), frozenset(s2))

    def sort_key(self):
        return (self.l, self.shift)


@dataclass(frozen=True)
class Face:
    """A face of a cell: axes in s1 pinned to shift_i, axes in s2 pinned to
    shift_i + 1.  Saturated on construction; a face whose every axis is
    pinned is a vertex."""

    n: int
    l: int
    shift: tuple
    s1: frozenset
    s2: frozenset
    _vertices: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        s1, s2 = set(self.s1), set(self.s2)
        if s1 & s2:
            raise ValueError("pinned axis sets must be disjoint")
        free = [i for i in range(self.n) if i not in s1 and i not in s2]
        a = self.l - len(s2)
        if not 0 <= a <= len(free):
            raise ValueError("empty face descriptor")
        if free and a == 0:
            s1.update(free)
            free = []
        elif free and a == len(free):
            s2.update(free)
            free = []
        object.__setattr__(self, "s1", frozenset(s1))
        object.__setattr__(self, "s2", frozenset(s2))
        verts = []
        a = self.l - len(s2)
        for t in itertools.combinations(free, a):
            v = list(self.shift)
            for i in s2:
                v[i] += 1
            for i in t:
                v[i] += 1
            verts.append(tuple(v))
        object.__setattr__(self, "_vertices", frozenset(verts))

    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def dim(self) -> int:
        if self.is_vertex:
            return 0
        return self.n - 1 - len(self.s1) - len(self.s2)

    @property
    def is_vertex(self) -> bool:
        return len(self.s1) + len(self.s2) == self.n

    def __eq__(self, other):
        return isinstance(other, Face) and self._vertices == other._vertices

    def __hash__(self):
        return hash(self._vertices)

    def fixed_coordinates(self):
        """Map axis -> pinned value over s1 and s2."""
        out = {i: self.shift[i] for i in self.s1}
        out.update({i: self.shift[i] + 1 for i in self.s2})
        return out

    def sort_key(self):
        return (self.l, self.shift, tuple(sorted(self.s1)), tuple(sorted(self.s2)))


def cell_as_face(cell: HyperCell) -> Face:
    return Face(cell.n, cell.l, cell.shift, frozenset(), frozenset())


def faces_of(cell: HyperCell, codim: int):
    """All faces of the cell of the given (true) codimension.

    Codimension 0 is the cell itself; codimension n-1 the vertices; in
    between, all honest pinned descriptors with |s1| + |s2| = codim.
    """
    n = cell.n
    if not 0 <= codim <= n - 1:
        raise ValueError("codimension out of range")
    if codim == n - 1:
        return [Face(n, cell.l, cell.shift,
                     frozenset(set(range(n)) - set(t)), frozenset(t))
                for t in itertools.combinations(range(n), cell.l)]
    out = []
    for pinned in itertools.combinations(range(n), codim):
        for k2 in range(codim + 1):
            for s2 in itertools.combinations(pinned, k2):
                s1 = frozenset(set(pinned) - set(s2))
                a = cell.l - k2
                b = n - codim
                if 1 <= a <= b - 1:
                    out.append(Face(n, cell.l, cell.shift, s1, frozenset(s2)))
    return out


def kappa(vec, value):
    """Axes where an integer vector takes the given value."""
    return frozenset(i for i, x in enumerate(vec) if x == value)


def intersect_cells(c1: HyperCell, c2: HyperCell):
    """Common face of two cells, or None when disjoint.

    Nonempty exactly when the shifts differ by a {0,1,-1}-vector (and the
    pinned intervals leave room for the coordinate sum)."""
    if c1.n != c2.n or c1.coordinate_sum != c2.coordinate_sum:
        raise ValueError("cells live in different ambient slices")
    if c1 == c2:
        return cell_as_face(c1)
    d = tuple(a - b for a, b in zip(c1.shift, c2.shift))
    if any(x not in (-1, 0, 1) for x in d):
        return None
    s1, s2 = kappa(d, 1), kappa(d, -1)
    a = c1.l - len(s2)
    if not 0 <= a <= c1.n - len(s1) - len(s2):
        return None
    return Face(c1.n, c1.l, c1.shift, s1, s2)


class ComplexKnm:
    """The subdivision of (m-1) * simplex by translated hypersimplices.

    Immutable: n, m and cells are read-only, so one instance can be shared
    by every caller (build_complex memoises it).  Adjacency is never stored:
    meetings() is the one neighbour walk, yielding each meeting pair with
    its face descriptor."""

    __slots__ = ("_n", "_m", "_cells", "_index")

    def __init__(self, n, m, cells=None):
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if cells is None:
            cells = self._enumerate_cells(n, m)
        cells = tuple(sorted(cells, key=HyperCell.sort_key))
        if any(c.n != n or c.coordinate_sum != m - 1 for c in cells):
            raise ValueError("cells live outside the slice of sum m - 1")
        index = {(c.l, c.shift): i for i, c in enumerate(cells)}
        if len(index) != len(cells):
            raise ValueError("duplicate cells")
        self._n = n
        self._m = m
        self._cells = cells
        self._index = MappingProxyType(index)

    @property
    def n(self):
        return self._n

    @property
    def m(self):
        return self._m

    @property
    def cells(self):
        return self._cells

    @staticmethod
    def _enumerate_cells(n, m):
        cells = []
        for l in range(1, min(n - 1, m - 1) + 1):
            for shift in compositions(m - 1 - l, n):
                cells.append(HyperCell(n, l, shift))
        return cells

    def meetings(self):
        """Every pair of meeting cells i < j with their common face, as
        (i, j, s1, s2) in (i, j) order: the face of cell i pinning s1 to
        shift_i and s2 to shift_i + 1, saturated as Face saturates it, with
        s1 and s2 as sorted tuples.

        Two cells meet exactly when their shifts differ by some d in
        {-1,0,1}^n with s1 = {d = 1} of size <= n - l and s2 = {d = -1} of
        size <= l (see intersect_cells), so each cell looks up its
        neighbours shift - d instead of testing every other cell.  Only
        |s1| >= |s2| can give a later cell, as cells sort by l first."""
        n, cells, index = self.n, self.cells, self._index
        for i, cell in enumerate(cells):
            l, shift = cell.l, cell.shift
            support = [k for k in range(n) if shift[k]]
            later = []
            for a in range(min(len(support), n - l) + 1):
                for s1 in itertools.combinations(support, a):
                    down = list(shift)
                    for k in s1:
                        down[k] -= 1
                    rest = [k for k in range(n) if k not in s1]
                    for b in range(max(0, l + a - n + 1), min(a, l) + 1):
                        for s2 in itertools.combinations(rest, b):
                            up = down[:]
                            for k in s2:
                                up[k] += 1
                            j = index.get((l + a - b, tuple(up)))
                            if j is None or j <= i:
                                continue
                            # saturate: free axes all at the bottom, or
                            # all at the top, are pinned there
                            t1, t2, free = s1, s2, n - a - b
                            if free and l == b:
                                t1 = tuple(k for k in range(n) if k not in s2)
                            elif free and l - b == free:
                                t2 = tuple(k for k in range(n) if k not in s1)
                            later.append((j, t1, t2))
            later.sort()
            for j, s1, s2 in later:
                yield i, j, s1, s2

    @property
    def is_point(self):
        return not self.cells

    def __eq__(self, other):
        # the meetings are a function of the cells, so equal cells suffice
        if not isinstance(other, ComplexKnm):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and self.cells == other.cells)

    def all_faces(self):
        """Every face of every cell, deduplicated by vertex set."""
        seen = {}
        for cell in self.cells:
            for d in range(cell.n):
                for f in faces_of(cell, d):
                    seen.setdefault(f.vertices(), f)
        return sorted(seen.values(), key=Face.sort_key)

    def vertices(self):
        out = set()
        for cell in self.cells:
            out |= cell.vertices()
        return sorted(out)

    def cells_containing(self, point):
        """Cells containing the point, in cell order.

        A containing cell has shift_i in {floor(p_i), ceil(p_i) - 1} and
        l = m - 1 - |shift|, so only those candidates are looked up.  The
        point is made exact here, once, for every candidate cell."""
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.n:
            return []
        choices = [{floor(x), ceil(x) - 1} for x in point]
        hits = []
        for shift in itertools.product(*choices):
            i = self._index.get((self.m - 1 - sum(shift), shift))
            if i is not None and self.cells[i].contains(point):
                hits.append(i)
        return [self.cells[i] for i in sorted(hits)]

    def maximal_cells_through(self, face: Face):
        fv = face.vertices()
        return [c for c in self.cells if fv <= c.vertices()]


def compositions(total, parts):
    """All nonnegative integer vectors of given length and sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def build_complex(n: int, m: int) -> ComplexKnm:
    """K(n, m), built once; its enumerated cells are counted against the
    closed form."""
    K = ComplexKnm(n, m)
    expected = count_maximal_cells(n, m)
    if len(K.cells) != expected:
        raise InternalDiagnosticError(
            f"K({n},{m}) has {len(K.cells)} cells; the closed cell count "
            f"is {expected}")
    return K


def count_maximal_cells(n: int, m: int) -> int:
    """Closed-form cell count, checked against the enumeration by
    build_complex."""
    return sum(comb(m + n - l - 2, n - 1) for l in range(1, min(n - 1, m - 1) + 1))


def slice_complex(K: ComplexKnm, axes, values) -> ComplexKnm:
    """Intersect with {lambda_i = values[i] : i in axes} and project out the
    pinned axes.  The result is the memoised K(n - |axes|, m - |values|):
    the projected cells are checked to be exactly its cells."""
    axes = tuple(axes)
    values = tuple(values)
    if len(axes) != len(values):
        raise ValueError("one value per pinned axis")
    if sum(values) > K.m - 1:
        raise ValueError("pinned values exceed the ambient simplex")
    if not axes:
        return K
    keep = [i for i in range(K.n) if i not in set(axes)]
    pin = dict(zip(axes, values))
    n2, m2 = K.n - len(axes), K.m - sum(values)
    keys = set()
    for cell in K.cells:
        ok = all(cell.shift[i] <= pin[i] <= cell.shift[i] + 1 for i in axes)
        if not ok:
            continue
        s2 = sum(1 for i in axes if pin[i] == cell.shift[i] + 1)
        l2 = cell.l - s2
        if 1 <= l2 <= n2 - 1:
            keys.add((l2, tuple(cell.shift[i] for i in keep)))
    # A degenerate piece (l2 = 0 or n2) is one lattice point of the sliced
    # simplex, and every such point is a vertex of K(n2, m2), so the key
    # check covers it too.
    result = build_complex(n2, m2)
    if result._index.keys() != keys:
        raise InternalDiagnosticError(
            f"slice of K({K.n},{K.m}) at {pin} is not K({n2},{m2})")
    return result


# --------------------------------------------------------------------------
# Smoothable and singular faces.
# --------------------------------------------------------------------------


def is_smoothable_face(face: Face, K: ComplexKnm) -> bool:
    """Smoothability of a face, by the closed criterion with the recursive
    slicing definition re-run alongside as a consistency check."""
    closed = _smoothable_closed(face)
    recursive = _smoothable_recursive(face, K)
    if closed != recursive:
        raise InternalDiagnosticError(
            f"smoothable-face criteria disagree on {face}: "
            f"closed={closed} recursive={recursive}")
    return closed


def _smoothable_closed(face: Face) -> bool:
    # intrinsically the face is a hypersimplex of type (a, b); it is
    # smoothable exactly when that type is a simplex (a = b - 1), vertices
    # included.
    if face.is_vertex:
        return True
    a = face.l - len(face.s2)
    b = face.n - len(face.s1) - len(face.s2)
    return a == b - 1


def _smoothable_recursive(face: Face, K: ComplexKnm) -> bool:
    if K.n <= 2:
        return True
    fv = face.vertices()
    for cell in K.cells:
        if cell.l == K.n - 1 and fv <= cell.vertices():
            return True
    fixed = face.fixed_coordinates()
    if not fixed:
        return False
    axes = sorted(fixed)
    if len(axes) == K.n:
        axes = axes[:-1]
    values = [fixed[i] for i in axes]
    sliced = slice_complex(K, axes, values)
    if sliced.is_point or sliced.n <= 2:
        return True
    keep = [i for i in range(K.n) if i not in set(axes)]
    proj = frozenset(tuple(v[i] for i in keep) for v in fv)
    for cell in sliced.cells:
        if proj <= cell.vertices():
            image = cell.face_through(proj)
            if image.vertices() == proj:
                return _smoothable_recursive(image, sliced)
    raise InternalDiagnosticError(
        "sliced face image not found in the sliced complex")


def is_singular_face(face: Face, K: ComplexKnm) -> bool:
    """A face is singular when it lies in two distinct maximal cells, or is
    smoothable of dimension at most n - 2."""
    if len(K.maximal_cells_through(face)) >= 2:
        return True
    return is_smoothable_face(face, K) and face.dim <= K.n - 2


def cells_at_vertex(K: ComplexKnm, vertex) -> int:
    """Number of maximal cells containing a lattice vertex.

    Counted directly, then compared with 2^k - 1 (or 2^k - 2 when the
    vertex has full support), k the number of nonzero coordinates."""
    vertex = tuple(vertex)
    if len(vertex) != K.n or any(x < 0 for x in vertex) or sum(vertex) != K.m - 1:
        raise ValueError("not a vertex of the complex")
    count = len(K.cells_containing(vertex))
    k = sum(1 for x in vertex if x > 0)
    expected = (2 ** k - 2) if k == K.n else (2 ** k - 1)
    if count != expected:
        raise InternalDiagnosticError(
            f"incident-cell count {count} contradicts closed form {expected}")
    return count


# --------------------------------------------------------------------------
# Lattice volumes.
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def lattice_point_count(n: int, l: int, t: int) -> int:
    """#{x in Z^n : 0 <= x_i <= t, sum x = t*l}, by dynamic programming."""
    target = t * l
    counts = [1] + [0] * target
    for _ in range(n):
        new = [0] * (target + 1)
        running = 0
        for s in range(target + 1):
            running += counts[s]
            if s - t - 1 >= 0:
                running -= counts[s - t - 1]
            new[s] = running
        counts = new
    return counts[target]


@lru_cache(maxsize=None)
def normalized_volume(n: int, l: int) -> int:
    """Lattice-normalized volume of the hypersimplex, as the top finite
    difference of its dilation point counts (an exact integer)."""
    values = [lattice_point_count(n, l, t) for t in range(n)]
    return sum((-1) ** (n - 1 - j) * comb(n - 1, j) * values[j]
               for j in range(n))


def volume_check(K: ComplexKnm) -> bool:
    """Cell volumes must add up to the volume of the dilated simplex."""
    if K.is_point:
        return True
    total = sum(normalized_volume(K.n, c.l) for c in K.cells)
    return total == (K.m - 1) ** (K.n - 1)
