"""Local models at the deepest singular points: generator families, their
set-theoretic primary decompositions, the attached toric polytopes and the
polyhedral complexes recording how the local components meet.

All ideals handled here are generated by monomials and binomial differences
with unit coefficients, so set-theoretic statements can be verified by
exhaustive sweeps over small prime fields (see ffield) instead of a general
primary-decomposition engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import comb, lcm

from . import ffield
from .exact import ExactMatrix, det, kernel_basis
from .foldring import InternalDiagnosticError, component_dimension


# --------------------------------------------------------------------------
# Monomial/binomial generator lists.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyIdealGens:
    """Generators over a fixed ordered variable list; every generator is a
    monomial or a difference of two monomials (checked on construction).

    A generator is a tuple of (coeff, ((var_index, exponent), ...)) terms.
    """

    variables: tuple
    generators: tuple

    def __post_init__(self):
        nv = len(self.variables)
        for gen in self.generators:
            if not 1 <= len(gen) <= 2:
                raise ValueError("generators must be monomials or binomials")
            for coeff, powers in gen:
                if coeff not in (1, -1):
                    raise ValueError("coefficients must be +-1")
                for var, exp in powers:
                    if not (0 <= var < nv and exp >= 1):
                        raise ValueError("bad variable power")

    def var_index(self, name: str) -> int:
        return self.variables.index(name)

    def nvars(self) -> int:
        return len(self.variables)

    def pretty(self) -> list:
        out = []
        for gen in self.generators:
            parts = []
            for coeff, powers in gen:
                names = "*".join(
                    self.variables[v] if e == 1 else f"{self.variables[v]}^{e}"
                    for v, e in powers)
                parts.append(("-" if coeff < 0 else "+") + names)
            text = "".join(parts)
            out.append(text[1:] if text.startswith("+") else text)
        return out


def _ideal(names, gens) -> PolyIdealGens:
    """The ideal on the variables `names` with generators written by name:
    each is one monomial, or a pair of monomials standing for the first
    minus the second, and a monomial is a tuple of variable names, each to
    the first power.  The only place where a name becomes an index."""
    power = {name: (p, 1) for p, name in enumerate(names)}.__getitem__
    out = []
    for gen in gens:
        if isinstance(gen[0], str):
            out.append(((1, tuple(map(power, gen))),))
        else:
            first, second = gen
            out.append(((1, tuple(map(power, first))),
                        (-1, tuple(map(power, second)))))
    return PolyIdealGens(names, tuple(out))


# --------------------------------------------------------------------------
# The deformation ideal at a lattice-vertex ideal and its reduced form.
# --------------------------------------------------------------------------


def deformation_variables(n: int, k: int, u):
    names = [f"A{i}" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            for s in range(1, u[j - 1]):
                names.append(f"a{i}_{j}_{s}")
    return tuple(names)


def _vertex_degrees(n: int, k: int, u) -> tuple:
    """The degree vector of a depth-k vertex ideal: u_i >= 2 exactly on the
    first k axes."""
    u = tuple(u)
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    if len(u) != n or any(u[i] < 2 for i in range(k)) or \
            any(u[i] != 1 for i in range(k, n)):
        raise ValueError("degree vector incompatible with k")
    return u


def deformation_ideal(n: int, k: int, u) -> PolyIdealGens:
    """The six relation blocks cutting out the deformations of the vertex
    ideal with degree vector u (u_i >= 2 exactly on the first k axes)."""
    u = _vertex_degrees(n, k, u)
    outer = [(i, j) for j in range(k + 1, n + 1)
             for i in range(1, n + 1) if i != j]
    inner = [(i, j) for j in range(1, k + 1)
             for i in range(1, n + 1) if i != j]
    series = [(r, s) for r in range(1, k + 1) for s in range(1, u[r - 1])]

    def top(i, j):
        return f"a{i}_{j}_{u[j - 1] - 1}"

    # outer-axis times outer-axis coefficients
    gens = [(f"A{i}", f"A{j}") for i, j in outer]
    # outer-axis coefficient against every series coefficient of an outer row
    gens += [(f"A{i}", f"a{j}_{r}_{s}") for i, j in outer for r, s in series]
    # top coefficient times bottom coefficient recovers the constant
    gens += [((top(i, j), f"a{j}_{j}_1"), (f"A{i}",)) for i, j in inner]
    # top coefficient kills the constant of its own row
    gens += [(top(i, j), f"A{j}") for i, j in inner]
    # descending recursion among the series coefficients
    gens += [((top(i, j), f"a{j}_{j}_{s + 1}"), (f"a{i}_{j}_{s}",))
             for i, j in inner for s in range(1, u[j - 1] - 1)]
    # cross-row products vanish
    gens += [(top(i, j), f"a{j}_{r}_{s}")
             for i, j in inner for r, s in series if r != j]
    return _ideal(deformation_variables(n, k, u), gens)


def reduced_variables(n: int, k: int):
    if k == 1:
        return ("A1", "a1_1") + tuple(f"a{i}" for i in range(2, n + 1))
    names = [f"b{j}" for j in range(1, k + 1)]
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            if i != j:
                names.append(f"a{i}_{j}")
    return tuple(names)


def reduced_ideal(n: int, k: int) -> PolyIdealGens:
    """The eliminated presentation of the deformation ring.

    Independent of the degree vector; the dropped series coefficients are
    free, which verify_reduction counts as a factor q^free."""
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    names = reduced_variables(n, k)
    if k == 1:
        gens = [("A1", f"a{i}") for i in range(2, n + 1)]
        gens += [(f"a{i}", f"a{j}", "a1_1")
                 for i, j in itertools.combinations(range(2, n + 1), 2)]
        return _ideal(names, gens)
    # column-chain products vanish
    gens = [(f"a{i}_{j}", f"a{j}_{r}") for i in range(1, n + 1)
            for j in range(1, k + 1) if i != j
            for r in range(1, k + 1) if r != j]
    # weighted rows agree across columns
    gens += [((f"a{i}_{j}", f"b{j}"), (f"a{i}_{r}", f"b{r}"))
             for i in range(1, n + 1)
             for j, r in itertools.combinations(range(1, k + 1), 2)
             if i != j and i != r]
    # reconstructed outer-row block (garbled in the source presentation):
    # a_{i,r} a_{j,r} b_r for r <= k < j, i distinct from r and j
    gens += [(f"a{i}_{r}", f"a{j}_{r}", f"b{r}") for r in range(1, k + 1)
             for j in range(k + 1, n + 1)
             for i in range(1, n + 1) if i != r and i != j]
    return _ideal(names, gens)


# --------------------------------------------------------------------------
# Prime families.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeFamily:
    kind: str
    data: tuple
    gens: PolyIdealGens
    sigma_label: tuple = ()   # (length, rows, degree vector) when punctual

    def pretty(self):
        return self.gens.pretty()


def primary_components(n: int, k: int):
    """The prime families whose union is the local model, verbatim."""
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    names = reduced_variables(n, k)
    fams = []
    if k == 1:
        # at n = 2, V(A1, a1_1) lies inside line_plus_point(2) = V(A1)
        if n >= 3:
            fams.append(PrimeFamily("origin_pair", (),
                                    _ideal(names, [("A1",), ("a1_1",)])))
        fams.append(PrimeFamily("single_line", (), _ideal(
            names, [(f"a{i}",) for i in range(2, n + 1)])))
        for i in range(2, n + 1):
            fams.append(PrimeFamily("line_plus_point", (i,), _ideal(
                names, [("A1",)] + [(f"a{j}",) for j in range(2, n + 1)
                                    if j != i])))
        return fams

    for i in range(1, n + 1):
        cols = [j for j in range(1, k + 1) if j != i]
        gens = [((f"a{i}_{r}", f"b{r}"), (f"a{i}_{s}", f"b{s}"))
                for r, s in itertools.combinations(cols, 2)]
        gens += [(f"a{r}_{s}",) for r in range(1, n + 1) if r != i
                 for s in range(1, k + 1) if r != s]
        fams.append(PrimeFamily("Q", (i,), _ideal(names, gens)))

    for size in range(1, min(k, n - 2) + 1):
        for subset in itertools.combinations(range(1, k + 1), size):
            gens = [(f"b{j}",) for j in subset]
            gens += [(f"a{j}_{r}",) for j in subset
                     for r in range(1, k + 1) if r != j]
            gens += [(f"a{r}_{s}",) for r in range(1, n + 1)
                     if r not in subset
                     for s in range(1, k + 1) if s not in subset and r != s]
            fams.append(PrimeFamily("J", subset, _ideal(names, gens)))
    return fams


def local_component_count(n: int, k: int) -> int:
    """Closed branch formula, asserted against the family enumeration."""
    if k == 1:
        expected = n + 1 if n >= 3 else n
    elif k <= n - 2:
        expected = n + 2 ** k - 1
    elif k == n - 1:
        expected = n + 2 ** (n - 1) - 2
    else:
        expected = 2 ** k - 2
    direct = len(primary_components(n, k))
    if direct != expected:
        raise InternalDiagnosticError(
            f"family enumeration {direct} disagrees with formula {expected}")
    return expected


def punctual_local_ring(n: int, k: int, u):
    """Local model of the punctual locus at a vertex ideal: the chain
    products a_{i,j} a_{j,r} vanish, and the prime pieces are labelled by
    the sub-families of axes kept at full degree."""
    u = _vertex_degrees(n, k, u)
    ideal, pieces = technical_ideal(n, range(1, k + 1))
    m = sum(u) + 1 - n
    primes = []
    for piece in pieces:
        t_subset = piece.data[1]
        degree = tuple(u[i] - (1 if i < k and i + 1 not in t_subset else 0)
                       for i in range(n))
        primes.append(replace(
            piece, kind="punctual", data=t_subset,
            sigma_label=(m, n - k + len(t_subset), degree)))
    return ideal, primes


def technical_ideal(n: int, axes):
    """The chain-product ideal on an axis subset, with its prime pieces."""
    axes = tuple(axes)
    pairs = [(i, j) for i in range(1, n + 1) for j in axes if i != j]
    names = tuple(f"a{i}_{j}" for i, j in pairs)
    ideal = _ideal(names, [(f"a{i}_{j}", f"a{j}_{r}") for j in axes
                           for i in range(1, n + 1) if i != j
                           for r in axes if r != j])
    primes = []
    for size in range(0, len(axes)):
        if len(axes) == n and size == 0:
            continue
        for t_subset in itertools.combinations(axes, size):
            # the columns in t die, and on the rows of the axes outside t
            # so do the other columns
            killed = [(f"a{i}_{j}",) for i, j in pairs if j in t_subset or
                      (i in axes and i not in t_subset)]
            primes.append(PrimeFamily("technical", (axes, t_subset),
                                      _ideal(names, killed)))
    return ideal, primes


def verify_decomposition_ff(ideal: PolyIdealGens, primes, q: int) -> bool:
    """Pointwise over F_q: the ideal vanishes exactly on the union of the
    primes' vanishing loci."""
    prime_gens = [p.gens.generators for p in primes]
    return ffield.union_equals_ideal(ideal.generators, prime_gens,
                                     ideal.nvars(), q)


def pairwise_incomparable(primes) -> bool:
    """No family's generator set may contain another's (minimality)."""
    sets = [frozenset(p.gens.generators) for p in primes]
    for a, b in itertools.combinations(range(len(sets)), 2):
        if sets[a] <= sets[b] or sets[b] <= sets[a]:
            return False
    return True


def verify_reduction(n: int, k: int, u, q: int) -> bool:
    """The eliminated presentation must match the full deformation ideal
    over F_q: the big variety projects into the small one, and the point
    counts agree up to the free series coefficients.  The big variety is
    walked once, for both."""
    u = tuple(u)
    big = deformation_ideal(n, k, u)
    small = reduced_ideal(n, k)
    if k == 1:
        projection = {"A1": "A1", "a1_1": "a1_1_1"}
        projection.update({f"a{i}": f"a{i}_1_{u[0] - 1}"
                           for i in range(2, n + 1)})
        free = u[0] - 2
    else:
        projection = {f"b{j}": f"a{j}_{j}_1" for j in range(1, k + 1)}
        projection.update({f"a{i}_{j}": f"a{i}_{j}_{u[j - 1] - 1}"
                           for i in range(1, n + 1)
                           for j in range(1, k + 1) if i != j})
        free = sum(u[j] - 2 for j in range(k))
    mapping = {small.var_index(s): big.var_index(b)
               for s, b in projection.items()}
    big_count = ffield.projection_into_variety(
        big.generators, big.nvars(), small.generators, small.nvars(),
        mapping, q)
    if big_count is None:
        return False
    small_count = ffield.count_vanishing(small.generators, small.nvars(), q)
    return big_count == small_count * q ** free


# --------------------------------------------------------------------------
# Toric polytopes.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopePk:
    """Polytope of the chain toric ideal: 2k labelled lattice vertices in
    R^k whose 2^k facets are all simplices."""

    k: int
    vertices: tuple          # ((label, coords), ...)
    facets: tuple            # tuple of frozensets of labels


def _pk_vertex_dictionary(k: int):
    verts = []
    e = lambda i: tuple(1 if j == i else 0 for j in range(k))  # noqa: E731
    zero = (0,) * k
    e12 = tuple(a + b for a, b in zip(e(0), e(1)))
    verts.append(("a1", zero))
    verts.append(("b2", e(0)))
    verts.append(("a2", e(1)))
    verts.append(("b1", e12))
    for i in range(3, k + 1):
        verts.append((f"a{i}", e(i - 1)))
        verts.append((f"b{i}", tuple(a - b for a, b in zip(e12, e(i - 1)))))
    return verts


def toric_polytope(k: int) -> PolytopePk:
    """Vertices and facets of the chain-ideal polytope; the facet formula is
    validated against an exact supporting-hyperplane enumeration."""
    if k < 2:
        raise ValueError("need k >= 2")
    verts = _pk_vertex_dictionary(k)
    tail = list(range(3, k + 1))
    base_pairs = [("a1", "b2"), ("a1", "a2"), ("b2", "b1"), ("a2", "b1")]
    facets = []
    for v0 in base_pairs:
        for split in itertools.product([0, 1], repeat=len(tail)):
            labels = set(v0)
            for sel, i in zip(split, tail):
                labels.add(f"a{i}" if sel == 0 else f"b{i}")
            facets.append(frozenset(labels))
    facets = tuple(sorted(set(facets), key=sorted))
    enumerated = _enumerate_facets(verts)
    if len(enumerated) != 2 ** k:
        raise InternalDiagnosticError(
            "hyperplane enumeration did not find 2^k facets")
    if set(enumerated) != set(facets):
        raise InternalDiagnosticError(
            "facet formula disagrees with the hyperplane enumeration")
    return PolytopePk(k, tuple(verts), facets)


def _enumerate_facets(labelled_vertices):
    """Exact facet enumeration of a full-dimensional lattice polytope: every
    hyperplane through dim vertices that supports the polytope is a facet.

    Maps each facet's label set to its inward inequality (normal, offset):
    normal . x >= offset on the polytope, with equality exactly on the
    facet's vertices."""
    labels = [lbl for lbl, _ in labelled_vertices]
    pts = [coords for _, coords in labelled_vertices]
    facets = {}
    for subset in itertools.combinations(range(len(pts)), len(pts[0])):
        normal_offset = _hyperplane_through(pts, subset)
        if normal_offset is None:
            continue
        normal, offset = normal_offset
        vals = [sum(a * x for a, x in zip(normal, p)) - offset for p in pts]
        if all(v <= 0 for v in vals):
            normal, offset = tuple(-a for a in normal), -offset
        elif any(v < 0 for v in vals):
            continue
        on = frozenset(lbl for lbl, v in zip(labels, vals) if v == 0)
        facets[on] = (normal, offset)
    return facets


def _hyperplane_through(pts, subset):
    """Primitive integer normal and offset of the affine hyperplane through
    dim lattice points, or None when they are affinely dependent.  The
    kernel vector has a 1 in its free column, so clearing its denominators
    leaves it primitive."""
    base = pts[subset[0]]
    rows = [[p - b for p, b in zip(pts[i], base)] for i in subset[1:]]
    kernel = kernel_basis(ExactMatrix(rows))
    if len(kernel) != 1:
        return None
    scale = lcm(*(x.re.denominator for x in kernel[0]))
    normal = tuple(int(x.re * scale) for x in kernel[0])
    return normal, sum(a * x for a, x in zip(normal, base))


def unimodular_triangulation(p: PolytopePk):
    """The inductive simplicial subdivision: every simplex of the one-lower
    polytope is coned over the two new vertices.  Returns label tuples;
    every simplex has lattice determinant +-1, and their count 2^(k-1) is
    checked against the normalized volume."""
    coords = dict(p.vertices)
    simplices = [("a1", "b2", "a2"), ("b2", "a2", "b1")]
    for i in range(3, p.k + 1):
        simplices = [s + (f"a{i}",) for s in simplices] + \
                    [s + (f"b{i}",) for s in simplices]
    if len(simplices) != polytope_lattice_volume(p):
        raise InternalDiagnosticError("simplex count is not the volume")
    for s in simplices:
        base, *rest = (coords[lbl] for lbl in s)
        edges = ExactMatrix([[a - b for a, b in zip(pt, base)] for pt in rest])
        if abs(det(edges).re) != 1:
            raise InternalDiagnosticError(f"simplex {s} is not unimodular")
    return tuple(simplices)


def polytope_lattice_volume(p: PolytopePk) -> int:
    """Normalized volume by exhaustive dilation point counts and the top
    finite difference; independent of the triangulation."""
    coords = [pt for _, pt in p.vertices]
    k = p.k
    planes = list(_enumerate_facets(p.vertices).values())
    # a facet inequality is tested once its last nonzero coordinate is set
    due = [[] for _ in range(k)]
    for j, (normal, _) in enumerate(planes):
        due[max(i for i, a in enumerate(normal) if a)].append(j)

    def count(t, i, partial):
        """Lattice points of t*P whose first i coordinates give the facet
        sums partial."""
        if i == k:
            return 1
        total = 0
        for x in range(min(c[i] for c in coords) * t,
                       max(c[i] for c in coords) * t + 1):
            sums = [s + normal[i] * x
                    for s, (normal, _) in zip(partial, planes)]
            if all(sums[j] >= planes[j][1] * t for j in due[i]):
                total += count(t, i + 1, sums)
        return total

    values = [count(t, 0, [0] * len(planes)) for t in range(k + 1)]
    return sum((-1) ** (k - j) * comb(k, j) * values[j] for j in range(k + 1))


# --------------------------------------------------------------------------
# The singularity complexes.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SingCell:
    label: str
    kind: str                # "simplex" | "toric"
    vertex_labels: frozenset
    prime: PrimeFamily
    facets: tuple = ()       # facet label sets, toric cells only

    def is_face(self, labels: frozenset) -> bool:
        """A face of a polytope is the intersection of the facets holding
        it (the whole polytope when no facet does)."""
        if self.kind == "simplex":
            return labels <= self.vertex_labels
        closure = self.vertex_labels
        for facet in self.facets:
            if labels <= facet:
                closure &= facet
        return labels == closure


@dataclass(frozen=True)
class SingComplex:
    n: int
    k: int
    variables: tuple
    cells: tuple
    intersections: dict = field(compare=False)  # (i, j) -> frozenset labels


def build_sing_complex(n: int, k: int) -> SingComplex:
    """Cells for every prime family, glued along shared vertex labels.

    Variable-generated primes give simplices on their complementary
    variables; the toric primes carry the chain polytope with its labelled
    facets."""
    fams = primary_components(n, k)
    names = reduced_variables(n, k)
    cells = []
    for fam in fams:
        if fam.kind in ("origin_pair", "single_line", "line_plus_point", "J"):
            killed = {names[gen[0][1][0][0]] for gen in fam.gens.generators}
            labels = frozenset(v for v in names if v not in killed)
            if fam.kind == "origin_pair":
                tag = "D0"
            elif fam.kind == "single_line":
                tag = "M1"
            elif fam.kind == "line_plus_point":
                tag = f"M{fam.data[0]}"
            else:
                tag = "D" + "".join(map(str, fam.data))
            cells.append(SingCell(tag, "simplex", labels, fam))
        else:
            i = fam.data[0]
            verts = _qi_polytope_vertices(n, k, i)
            facets = tuple(sorted(_enumerate_facets(verts), key=sorted))
            cells.append(SingCell(f"P{i}", "toric",
                                  frozenset(lbl for lbl, _ in verts), fam,
                                  facets))
    inters = {}
    for a, b in itertools.combinations(range(len(cells)), 2):
        common = cells[a].vertex_labels & cells[b].vertex_labels
        inters[(a, b)] = common
        for cell in (cells[a], cells[b]):
            if common and not cell.is_face(common):
                raise InternalDiagnosticError(
                    f"shared labels {sorted(common)} are not a face of {cell.label}")
    return SingComplex(n, k, names, tuple(cells), inters)


def _qi_polytope_vertices(n: int, k: int, i: int):
    """Labelled lattice vertices of the toric cell of the i-th smoothable
    prime: the chain polytope in the surviving alpha/beta coordinates."""
    if i > k:
        dictionary = _pk_vertex_dictionary(k)
        relabel = {}
        for j in range(1, k + 1):
            relabel[f"a{j}"] = f"a{i}_{j}"
            relabel[f"b{j}"] = f"b{j}"
        return [(relabel[lbl], coords) for lbl, coords in dictionary]
    others = [j for j in range(1, k + 1) if j != i]
    if len(others) == 1:
        base = [("a1", (0,)), ("b1", (1,))]
    else:
        base = _pk_vertex_dictionary(len(others))
    out = []
    for lbl, coords in base:
        pos = int(lbl[1:]) - 1
        kind = lbl[0]
        j = others[pos]
        new = f"a{i}_{j}" if kind == "a" else f"b{j}"
        out.append((new, tuple(coords) + (0,)))
    extra = tuple([0] * len(others)) + (1,)
    out.append((f"b{i}", extra))
    return out


def expected_intersection_labels(n, k, fam_a: PrimeFamily, fam_b: PrimeFamily):
    """Predicted shared faces between local components (k >= 2 families)."""
    kinds = {fam_a.kind, fam_b.kind}
    all_b = {f"b{j}" for j in range(1, k + 1)}
    if kinds == {"Q"}:
        return frozenset(all_b)
    if kinds == {"J"}:
        s, t = set(fam_a.data), set(fam_b.data)
        labels = {f"b{j}" for j in range(1, k + 1) if j not in s | t}
        labels |= {f"a{i}_{j}" for i in range(1, n + 1)
                   for j in s & t if i not in s | t}
        return frozenset(labels)
    qf, jf = (fam_a, fam_b) if fam_a.kind == "Q" else (fam_b, fam_a)
    i = qf.data[0]
    s = set(jf.data)
    labels = {f"b{j}" for j in range(1, k + 1) if j not in s}
    if i not in s:
        labels |= {f"a{i}_{j}" for j in s if j != i}
    return frozenset(labels)


def verify_sing_complex(sc: SingComplex, q: int) -> bool:
    """Every pairwise label intersection must equal the pointwise
    intersection of the two varieties over F_q, all pairs in one walk."""
    names = sc.variables
    live = {pair: [names.index(v) for v in common if v in names]
            for pair, common in sc.intersections.items()}
    return ffield.coordinate_subspace_equals_intersection(
        [cell.prime.gens.generators for cell in sc.cells], live, len(names),
        q)


# --------------------------------------------------------------------------
# Geometric meaning of the local primes.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentTranslation:
    smoothable: bool
    line_lengths: tuple      # (axis, length) pairs, 1-based axes
    grass: tuple             # (length, rows) of the elementary factor, or ()

    def dimension(self, n):
        total = sum(length for _, length in self.line_lengths)
        if self.grass:
            length, rows = self.grass
            total += rows * (n - rows)
        return total


def translate_component(fam: PrimeFamily, n: int, k: int, u) -> ComponentTranslation:
    """Product-of-strata description of a local prime, with the dimension
    bookkeeping checked against the global component dimension."""
    u = tuple(u)
    m = sum(u) + 1 - n
    if fam.kind == "origin_pair":
        out = ComponentTranslation(False, ((1, m - 2),), (2, n - 1))
    elif fam.kind == "single_line":
        out = ComponentTranslation(True, ((1, m),), ())
    elif fam.kind == "line_plus_point":
        out = ComponentTranslation(True, ((1, m - 1), (fam.data[0], 1)), ())
    elif fam.kind == "Q":
        a = fam.data[0]
        lengths = tuple((i, u[i - 1] if i == a else u[i - 1] - 1)
                        for i in range(1, n + 1))
        out = ComponentTranslation(True, lengths, ())
    elif fam.kind == "J":
        s = set(fam.data)
        lengths = tuple((i, u[i - 1] - 2 if i in s else u[i - 1] - 1)
                        for i in range(1, k + 1))
        out = ComponentTranslation(False, lengths, (len(s) + 1, n - len(s)))
    else:
        raise ValueError(f"no translation for family kind {fam.kind}")

    if out.smoothable:
        expected = m
    else:
        rows = out.grass[1]
        expected = component_dimension(n, m, rows)
    if out.dimension(n) != expected:
        raise InternalDiagnosticError(
            f"dimension bookkeeping broken for {fam.kind}{fam.data}")
    return out
