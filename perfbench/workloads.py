"""The four benchmark workloads: seeded inputs, one timed operation each,
and checks of every answer against values the benchmark computes itself.

A workload is a class with

* ``round_inputs(seed, index, short)``: the inputs of one round, made from
  the seed alone; every round of a workload runs the same kinds of
  operation, so the share of failed operations is the same in every run;
* ``op(item)``: the timed call into hilbfold, returning its answers;
* ``check(item, answer)``: untimed, returns the list of problems found
  (empty when every answer is right);
* ``warm_up(seed)``: untimed, before the first timed operation; it runs
  the operation's code paths on an input outside the timed set, so that
  no first call in a process pays for them.

The expected answers come from closed forms and constructions made here,
never from a stored copy of hilbfold's output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

from hilbfold import cli, localmodel as lm
from hilbfold import foldring as fr
from hilbfold import hypercomplex as hc
from hilbfold import moment as mo
from hilbfold.exact import GaussRational


def rng_for(*parts) -> random.Random:
    return random.Random("perfbench:" + ":".join(str(p) for p in parts))


# --------------------------------------------------------------------------
# Punctual ideals with known answers (classify and tangent).
#
# A coefficient matrix V * diag(c) with V[r][j] = x_j^r, distinct nonzero
# nodes x_j and nonzero scales c_j has every maximal minor nonzero (a
# Vandermonde determinant times the scales).  Its reduced row echelon form
# is then [I | B] with every entry of B nonzero, so no canonical row is a
# monomial: the instance is generic by construction, with no rejection step
# that could make the workload depend on the seed.
# --------------------------------------------------------------------------


def _nonzero_gauss(rng, gaussian):
    while True:
        if gaussian:
            value = GaussRational(rng.randint(-4, 4), rng.randint(-3, 3),
                                  rng.randint(1, 3))
        else:
            value = GaussRational(rng.randint(-4, 4))
        if value:
            return value


def _distinct_nodes(rng, count, gaussian):
    if gaussian:
        pool = [GaussRational(a, b) for a in range(-3, 4) for b in range(-2, 3)
                if a or b]
    else:
        pool = [GaussRational(a) for a in range(-6, 7) if a]
    return rng.sample(pool, count)


def generic_matrix(rng, rows, cols, gaussian):
    nodes = _distinct_nodes(rng, cols, gaussian)
    scales = [_nonzero_gauss(rng, gaussian) for _ in range(cols)]
    out = []
    for r in range(rows):
        out.append([scales[j] * _power(nodes[j], r) for j in range(cols)])
    return out


def _power(x, e):
    out = GaussRational(1)
    for _ in range(e):
        out = out * x
    return out


def _spread(rng, axes, extra):
    """Degree vector: one on every axis plus `extra` increments dealt out
    evenly in a seeded axis order.  Uneven vectors are left out because the
    cost of an operation depends on them, which would make each run's
    figures depend on its seed."""
    u = {a: 1 for a in axes}
    order = list(axes)
    rng.shuffle(order)
    for i in range(extra):
        u[order[i % len(order)]] += 1
    return u


def _rows_to_gens(ctx, u, matrix, axes):
    gens = []
    for row in matrix:
        f = None
        for coeff, a in zip(row, axes):
            t = ctx.axis_monomial(a, u[a], coeff)
            f = t if f is None else f + t
        gens.append(f)
    return gens


def monomial_tangent(a):
    """dim Hom(J, R/J) for J = (x_1^{a_1}, ..., x_n^{a_n}).

    J is the direct sum of the cyclic modules R x_i^{a_i}, each annihilated
    by the other axes, so Hom(J, R/J) is the sum over i of the elements v of
    R/J with x_j v = 0 for all j != i.  Such a v has free coefficients on
    x_i^s (a_i - 1 of them), on the top power of every other axis of degree
    >= 2, and on the constant when every other axis has degree one."""
    total = 0
    for i, ai in enumerate(a):
        others = [ak for k, ak in enumerate(a) if k != i]
        total += (ai - 1) + sum(1 for ak in others if ak >= 2)
        total += 1 if all(ak == 1 for ak in others) else 0
    return total


def make_ideal(rng, family, n, m, l, gaussian):
    """One seeded instance of a family, with the answers it implies.

    Families (n axes, colength m, l canonical rows):
      generic  -- l generic rows on all axes;
      axis1/2  -- l - a degree-one axes plus a = 1 or 2 generic rows on the
                  remaining n - l + a axes;
      pinned   -- one pure power of degree >= 2 plus l - 1 generic rows on
                  the other axes;
      monomial -- the torus-fixed ideal (x_1^{a_1}, ..., x_n^{a_n}).
    """
    ctx = fr.FoldRingCtx(n)
    item = {"family": family, "n": n, "m": m, "l": l, "ctx": ctx}
    if family == "generic":
        axes = list(range(n))
        u = _spread(rng, axes, m + l - 1 - n)
        gens = _rows_to_gens(ctx, u, generic_matrix(rng, l, n, gaussian), axes)
        item.update(tangent=l * (n - l) + m + l - 1 - n,
                    singular=False, smoothable=False)
    elif family in ("axis1", "axis2"):
        a = int(family[-1])
        nf = n - l + a
        live = list(range(nf))
        u = _spread(rng, live, m + l - 1 - n)
        gens = [ctx.axis_monomial(i, 1) for i in range(nf, n)]
        gens += _rows_to_gens(ctx, u, generic_matrix(rng, a, nf, gaussian),
                              live)
        item.update(tangent=l * (n - l) + m + l - n - (a - 1),
                    singular=(a == 1), smoothable=(a == 1))
    elif family == "pinned":
        p = rng.randrange(n)
        rest = [i for i in range(n) if i != p]
        u = _spread(rng, list(range(n)), m + l - 2 - n)
        u[p] += 1
        gens = [ctx.axis_monomial(p, u[p])]
        gens += _rows_to_gens(ctx, u, generic_matrix(rng, l - 1, n - 1,
                                                     gaussian), rest)
        item.update(tangent=None, singular=True, smoothable=(l == 2))
    elif family == "monomial":
        axes = list(range(n))
        degrees = _spread(rng, axes, m - 1)
        a = tuple(degrees[i] for i in axes)
        gens = [ctx.axis_monomial(i, a[i]) for i in axes]
        item.update(tangent=monomial_tangent(a), singular=True,
                    smoothable=True, vertex=tuple(x - 1 for x in a))
    else:
        raise ValueError(f"unknown family {family}")
    item["gens"] = gens
    return item


def stratum_dimension(n, m, l):
    """Dimension of the component through a generic ideal with l rows."""
    return m if l == 1 else l * (n - l) + m + l - 1 - n


def point_in_face(coords, face):
    """The point satisfies the face's equations and lies in its relative
    interior: pinned axes equal, free axes strictly inside their interval."""
    problems = []
    if sum(coords) != face.l + sum(face.shift):
        problems.append("moment point off the face's coordinate sum")
    for i, x in enumerate(coords):
        lo = face.shift[i]
        if i in face.s1:
            ok = x == lo
        elif i in face.s2:
            ok = x == lo + 1
        else:
            ok = lo < x < lo + 1
        if not ok:
            problems.append(f"moment coordinate {i} = {x} outside face "
                            f"{sorted(face.s1)}/{sorted(face.s2)} at {face.shift}")
    return problems


def ideal_shapes(ns, ms, families, gaussian):
    """Every (family, n, m, l, gaussian) on the grid that the family
    admits."""
    out = []
    for n in ns:
        for m in ms:
            for family in families:
                if family == "monomial":
                    out.append((family, n, m, n, gaussian))
                    continue
                for l in range(2, n):
                    if family == "generic":
                        ok = m + l - 1 >= n
                    elif family == "pinned":
                        ok = m + l - 2 >= n
                    else:
                        ok = int(family[-1]) <= l - 1 and m + l - 1 >= n
                    if ok:
                        out.append((family, n, m, l, gaussian))
    return tuple(out)


class _IdealWorkload:
    """Shared by classify and tangent: every shape of a grid once per
    round, with seeded degree vectors and coefficients.  A whole grid per
    round spreads the operation costs evenly, so that the median and the
    90th percentile do not sit on one shape."""

    name = ""
    shapes = ()
    short_shapes = ()
    fresh_process_per_round = False

    def __init__(self, workdir):
        self.workdir = workdir

    def warm_up(self, seed):
        self.op(self.round_inputs(seed, -1, True)[0])

    def round_inputs(self, seed, index, short):
        rng = rng_for(self.name, seed, index)
        shapes = list(self.short_shapes if short else self.shapes)
        rng.shuffle(shapes)
        return [make_ideal(rng, *shape) for shape in shapes]

    def _check_common(self, item, ans):
        problems = []
        if ans["colength"] != item["m"]:
            problems.append(f"colength {ans['colength']} != {item['m']}")
        if ans["singular"] != item["singular"]:
            problems.append(f"singular verdict {ans['singular']}")
        if item["tangent"] is not None:
            if ans["tangent"] != item["tangent"]:
                problems.append(f"tangent dim {ans['tangent']} != "
                                f"{item['tangent']}")
        elif item["singular"]:
            n, m, l = item["n"], item["m"], item["l"]
            bound = max(stratum_dimension(n, m, l),
                        stratum_dimension(n, m, l - 1))
            if ans["tangent"] <= bound:
                problems.append(f"singular point with tangent dim "
                                f"{ans['tangent']} <= component dim {bound}")
        return problems


class Classify(_IdealWorkload):
    """What `hilbfold classify`, `moment` and `tangent` answer for one ideal."""

    name = "classify"
    # n from 2 to 5 and m up to 7, except n = 5, m = 7: its 246-cell
    # complex alone would take two thirds of a round.  The heaviest cell
    # left, n = 5 and m = 6, comes once more with Gaussian-rational
    # coefficients; without the repeat the 90th percentile falls on the
    # edge between two cost levels and moves from run to run.
    families = ("generic", "axis1", "axis2", "pinned", "monomial")
    shapes = ideal_shapes(range(2, 5), range(2, 8), families, False) + \
        ideal_shapes([5], range(2, 7), families, False) + \
        ideal_shapes([5], [6], families, True)
    short_shapes = ideal_shapes([3], [4], families, False) + \
        ideal_shapes([4], [4], ("axis2",), False)

    def op(self, item):
        ideal = fr.normalize_punctual(item["ctx"], item["gens"])
        verdict = fr.is_singular_point(ideal)
        smooth = fr.is_smoothable(ideal)
        m = ideal.colength()
        mu = mo.moment_global(ideal, m)
        face = mo.locate(mu, hc.build_complex(item["n"], m))
        return {"colength": m, "singular": verdict.singular,
                "tangent": verdict.tangent, "smoothable": smooth,
                "moment": mu.coords, "face": face}

    def check(self, item, ans):
        problems = self._check_common(item, ans)
        if ans["smoothable"] != item["smoothable"]:
            problems.append(f"smoothable verdict {ans['smoothable']}")
        coords = [Fraction(c) for c in ans["moment"]]
        if any(c < 0 for c in coords) or sum(coords) != item["m"] - 1:
            problems.append(f"moment point {coords} not in the simplex")
        problems += point_in_face(coords, ans["face"])
        if "vertex" in item and tuple(coords) != item["vertex"]:
            problems.append(f"monomial ideal maps to {coords}, "
                            f"not the vertex {item['vertex']}")
        return problems


class Tangent(_IdealWorkload):
    """normalize_punctual and the singular verdict on larger ideals with
    Gaussian-rational coefficients; no complex is built."""

    name = "tangent"
    shapes = ideal_shapes(range(3, 7), range(6, 11),
                          ("generic", "axis1", "axis2"), True)
    short_shapes = ideal_shapes([4], [6], ("generic", "axis1", "axis2"),
                                True)

    def op(self, item):
        ideal = fr.normalize_punctual(item["ctx"], item["gens"])
        verdict = fr.is_singular_point(ideal)
        return {"colength": ideal.colength(), "singular": verdict.singular,
                "tangent": verdict.tangent}

    def check(self, item, ans):
        return self._check_common(item, ans)


# --------------------------------------------------------------------------
# Complex exports through the command line.
# --------------------------------------------------------------------------


def cell_count(n, m):
    """Maximal cells of K(n, m): sum over l of C(m + n - l - 2, n - 1)."""
    return sum(comb(m + n - l - 2, n - 1)
               for l in range(1, min(n - 1, m - 1) + 1))


def eulerian(n, k):
    """A(n, k): permutations of n with k descents (alternating sum)."""
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n
               for j in range(k + 1))


# The (n, m) of one round, in cost tiers: every tier's operations take
# about the same time, and the median and the 90th percentile each fall
# well inside one tier.  A percentile that falls between two cost levels
# jumps from one to the other with the machine's noise.
COMPLEX_TIERS = (
    ((3, 5), (3, 6), (4, 4), (5, 4)),      # 15-25 cells, about 6 ms
    ((3, 8), (4, 5), (6, 4)),              # 28-49 cells, about 11 ms: p50
    ((3, 10),),                            # 81 cells, about 18 ms
    ((4, 9), (5, 7), (6, 6)),              # 210-260 cells, about 190 ms: p90
)
FORMATS = ("json", "off", "svg")


def complex_requests(index):
    """Round `index`: every (n, m) of the tiers once.  For n = 3 the format
    cycles with m and the round, so that three consecutive rounds make every
    (3, m, format) once."""
    return [(n, m, FORMATS[(m + index) % 3] if n == 3 else "json")
            for tier in COMPLEX_TIERS for n, m in tier]


def _argv(n, m, fmt, path):
    if fmt == "svg":
        return ["plot", "-n", str(n), "-m", str(m), "--out", path]
    return ["complex", "-n", str(n), "-m", str(m), "--format", fmt,
            "--out", path]


class Complex:
    """One `hilbfold complex` or `hilbfold plot` request through cli.main.

    A command-line user pays for a fresh process per request, so no
    complex is built twice inside one process: a round asks for every (n, m)
    once, in seeded order, and runs in a process of its own."""

    name = "complex"
    fresh_process_per_round = True

    def __init__(self, workdir):
        self.workdir = workdir

    def warm_up(self, seed):
        # K(3, 4) is in no round, so a memoised build cannot carry over.
        for fmt in FORMATS:
            code, path = self._export((3, 4, fmt), "warm")
            os.remove(path)

    def round_inputs(self, seed, index, short):
        reqs = complex_requests(index)
        if short:
            reqs = [r for r in reqs if cell_count(r[0], r[1]) <= 30]
        rng_for(self.name, seed, index).shuffle(reqs)
        return reqs

    def _export(self, req, tag):
        n, m, fmt = req
        path = os.path.join(self.workdir, f"{n}-{m}-{tag}.{fmt}")
        code = cli.main(_argv(n, m, fmt, path))
        return code, path

    def op(self, req):
        return self._export(req, "a")

    def check(self, req, ans):
        n, m, fmt = req
        code, path = ans
        if code != 0:
            return [f"exit code {code}"]
        with open(path, "rb") as fh:
            data = fh.read()
        code2, path2 = self._export(req, "b")
        with open(path2, "rb") as fh:
            again = fh.read()
        os.remove(path)
        os.remove(path2)
        problems = [] if code2 == 0 and again == data else \
            ["second export differs"]
        want = cell_count(n, m)
        if fmt == "json":
            doc = json.loads(data)
            cells = doc["cells"]
            volume = sum(eulerian(n - 1, c["l"] - 1) for c in cells)
            for i, j, _ in doc["adjacency"]:
                diff = [a - b for a, b in zip(cells[i]["shift"],
                                              cells[j]["shift"])]
                if any(d not in (-1, 0, 1) for d in diff):
                    problems.append(f"adjacent cells {i},{j} shift by {diff}")
                    break
            found = len(cells)
        elif fmt == "off":
            lines = data.decode().splitlines()
            nverts, found, _ = map(int, lines[2].split())
            verts = [tuple(map(int, s.split())) for s in lines[3:3 + nverts]]
            if any(min(v) < 0 or sum(v) != m - 1 for v in verts):
                problems.append("OFF vertex outside the dilated simplex")
            volume = found  # A(2, 0) = A(2, 1) = 1: every triangle has volume 1
        else:
            found = data.decode().count("<polygon ")
            volume = found
        if found != want:
            problems.append(f"{found} cells, expected {want}")
        if volume != (m - 1) ** (n - 1):
            problems.append(f"cell volumes sum to {volume}, "
                            f"not {(m - 1) ** (n - 1)}")
        return problems


# --------------------------------------------------------------------------
# Finite-field oracle checks.
# --------------------------------------------------------------------------

def local_count_formula(n, k):
    """Local components at a depth-k vertex of the n-axes ring."""
    if k == 1:
        return n + 1
    if k <= n - 2:
        return n + 2 ** k - 1
    if k == n - 1:
        return n + 2 ** (n - 1) - 2
    return 2 ** k - 2


def _vanishes(gens, point, q):
    """Every generator is zero at the point, evaluated mod q here."""
    for gen in gens:
        value = 0
        for coeff, powers in gen:
            term = coeff
            for var, exp in powers:
                term *= point[var] ** exp
            value += term
        if value % q:
            return False
    return True


def _zero_one_point(nvars, ones):
    return [1 if v in ones else 0 for v in range(nvars)]


def _decomposition(source, params):
    if source == "reduced":
        n, k = params
        return lm.reduced_ideal(n, k), lm.primary_components(n, k)
    n, axes = params
    return lm.technical_ideal(n, axes)


def decomposition_control(source, params, q):
    """Index of a prime whose removal must make the union check fail.

    The witness is the 0/1 point that is zero exactly on the variables the
    prime kills by single-variable generators.  When it lies on the ideal's
    variety and on that prime's, and off every other prime's, the union of
    the others misses an F_q-point of the ideal's variety."""
    ideal, primes = _decomposition(source, params)
    nvars = ideal.nvars()
    gens = [p.gens.generators for p in primes]
    for d, pg in enumerate(gens):
        killed = {g[0][1][0][0] for g in pg if len(g) == 1 and len(g[0][1]) == 1}
        w = _zero_one_point(nvars, set(range(nvars)) - killed)
        if (_vanishes(ideal.generators, w, q) and _vanishes(pg, w, q)
                and not any(_vanishes(o, w, q)
                            for e, o in enumerate(gens) if e != d)):
            return d
    raise RuntimeError(f"no negative control for {source}{params} q={q}")


def sing_complex_control(n, k, q):
    """A pair (a, b) and a label whose removal from their recorded
    intersection must make the check fail: the 0/1 point that is one
    exactly on the recorded labels lies on both varieties, and is not in
    the smaller coordinate subspace."""
    sc = lm.build_sing_complex(n, k)
    names = sc.variables
    for (a, b), common in reversed(list(sc.intersections.items())):
        ones = {names.index(v) for v in common}
        w = _zero_one_point(len(names), ones)
        if common and all(_vanishes(sc.cells[c].prime.gens.generators, w, q)
                          for c in (a, b)):
            return (a, b), sorted(common)[0]
    raise RuntimeError(f"no negative control for the ({n},{k}) complex")


# Checks of `hilbfold verify` and of acceptance criteria 09 and 11, chosen
# in cost tiers so that the median and the 90th percentile each fall well
# inside one tier (with the negative controls, 17 operations a round):
#   about 7 ms   -- reduced (4,2) over F_3, technical n = 5 over F_2,
#                   reductions (4,1) over F_3 and (4,2) over F_2;
#   about 20 ms  -- reduced (3,3) and technical n = 4 over F_3, reduction
#                   (3,2) over F_3: the median;
#   about 33 ms  -- singularity complex (4,2) over F_3;
#   about 90 ms  -- singularity complexes (3,3) over F_3 and (4,3) over
#                   F_2: the 90th percentile.
# Left out: checks under about 5 ms, which would need as many heavy ones
# to keep the median in its tier; the three checks of about a second
# (reductions (3,3) and (4,2) and technical n = 5 over F_3), which would
# leave four rounds a run; and the (4,3) singularity complex over F_3,
# whose 45 walks of 3^12 points take about 10 s.
DECOMPOSITIONS = [("reduced", (4, 2), 3), ("technical", (5, (1, 2, 3)), 2),
                  ("reduced", (3, 3), 3), ("technical", (4, (1, 2, 3)), 3)]
REDUCTIONS = [(4, 1, 3), (4, 2, 2), (3, 2, 3)]
SING_COMPLEXES = [(4, 2, 3), (3, 3, 3), (4, 3, 2)]


class Sweep:
    """One finite-field oracle check per operation; decomposition and
    singularity-complex checks each come with a negative control.

    Like `hilbfold verify`, a process runs each check once: every round
    runs in a process of its own."""

    name = "sweep"
    fresh_process_per_round = True

    def __init__(self, workdir):
        self.workdir = workdir
        items = []
        for source, params, q in DECOMPOSITIONS:
            items.append(("dec", source, params, q, None))
            items.append(("dec", source, params, q,
                          decomposition_control(source, params, q)))
        for n, k, q in REDUCTIONS:
            items.append(("red", n, k, q))
        for n, k, q in SING_COMPLEXES:
            items.append(("sing", n, k, q, None))
            items.append(("sing", n, k, q, sing_complex_control(n, k, q)))
        self.items = items

    def warm_up(self, seed):
        # Checks on the (3,1) models, which are in no round.
        ideal, primes = _decomposition("reduced", (3, 1))
        lm.verify_decomposition_ff(ideal, primes, 2)
        lm.verify_reduction(3, 1, (2, 1, 1), 2)
        lm.verify_sing_complex(lm.build_sing_complex(3, 1), 2)

    def round_inputs(self, seed, index, short):
        items = list(self.items)
        if short:
            items = [it for it in items
                     if it[0] == "red" and it[1:3] == (4, 1)
                     or it[0] == "dec" and it[2] == (4, 2)
                     or it[0] == "sing" and it[1:3] == (4, 2)]
        rng_for(self.name, seed, index).shuffle(items)
        return items

    def op(self, item):
        kind = item[0]
        if kind == "dec":
            _, source, params, q, drop = item
            ideal, primes = _decomposition(source, params)
            if drop is not None:
                primes = primes[:drop] + primes[drop + 1:]
            ok = lm.verify_decomposition_ff(ideal, primes, q)
            if source == "reduced" and drop is None:
                return ok, len(primes), lm.local_component_count(*params)
            return ok, None, None
        if kind == "red":
            _, n, k, q = item
            u = (2,) * k + (1,) * (n - k)
            return lm.verify_reduction(n, k, u, q), None, None
        _, n, k, q, mutation = item
        sc = lm.build_sing_complex(n, k)
        if mutation is not None:
            pair, label = mutation
            inters = dict(sc.intersections)
            inters[pair] = inters[pair] - {label}
            sc = replace(sc, intersections=inters)
        return lm.verify_sing_complex(sc, q), None, None

    def check(self, item, ans):
        ok, found, count = ans
        control = item[0] != "red" and item[-1] is not None
        problems = []
        if ok != (not control):
            problems.append(f"{'control' if control else 'check'} returned "
                            f"{ok}")
        if found is not None:
            want = local_count_formula(*item[2])
            if found != want or count != want:
                problems.append(f"{found} families, count {count}, "
                                f"formula {want}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Classify, Tangent, Complex, Sweep)}
