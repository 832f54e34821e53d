"""Command-line surface: counting, classification, exports, pictures."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import components as comp
from . import export, localmodel
from .exact import GaussRational
from .foldring import (FoldRingCtx, InternalDiagnosticError, SeparatedPoly,
                       is_singular_point, is_smoothable, normalize_punctual,
                       tangent_dim)
from .hypercomplex import build_complex
from .moment import gluing_consistency_sweep, locate, moment_global


class CliError(Exception):
    pass


def _is_int(raw) -> bool:
    """A plain JSON integer: not a bool, which Python counts as an int."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _parse_coeff(raw) -> GaussRational:
    if _is_int(raw):
        return GaussRational(raw)
    if isinstance(raw, list) and len(raw) == 4 and all(map(_is_int, raw)):
        rn, rd, im_n, im_d = raw
        if rd == 0 or im_d == 0:
            raise CliError(f"bad coefficient {raw!r}: zero denominator")
        return GaussRational.from_fractions(Fraction(rn, rd), Fraction(im_n, im_d))
    raise CliError(f"bad coefficient {raw!r}: expected int or [re_n,re_d,im_n,im_d]")


def load_ideal(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read ideal file: {exc}")
    try:
        n = data["n"]
        if not _is_int(n):
            raise CliError(f"malformed ideal file: n = {n!r} is not an integer")
        gens = []
        for g in data["generators"]:
            if not isinstance(g, dict):
                raise CliError(f"malformed ideal file: generator {g!r} "
                               "is not an object")
            constant = _parse_coeff(g.get("constant", 0))
            branches = [[_parse_coeff(c) for c in br] for br in g["branches"]]
            gens.append(SeparatedPoly(n, constant, branches))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed ideal file: {exc}")
    return FoldRingCtx(n), gens


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, data: dict, plain: str):
    if args.json:
        _emit(args, export.dict_to_json(data))
    else:
        _emit(args, plain if plain.endswith("\n") else plain + "\n")


def _cmd_count(args):
    modes = [args.multi, args.curve, args.global_, args.punctual]
    if sum(1 for mode in modes if mode) > 1:
        raise CliError("count takes at most one of --multi, --curve, "
                       "--global, --punctual")
    if args.multi:
        if args.m is None:
            raise CliError("count --multi requires -m")
        ns = [int(x) for x in args.multi.split(",")]
        res = comp.multi_sing_count(len(ns), args.m, ns)
        data = {"brute": res.brute, "formula": res.formula,
                "matches": res.matches}
        _report(args, data, f"{res.brute} (formula {res.formula}, "
                            f"match={res.matches})")
        return 0 if res.matches else 3
    if args.n is None or args.m is None:
        raise CliError("count requires -n and -m")
    if args.curve:
        value = comp.curve_count(args.n, args.m)
        _report(args, {"curve_components": value}, str(value))
        return 0
    if args.global_:
        value = comp.global_count(args.n, args.m)
        _report(args, {"global_components": value}, str(value))
        return 0
    res = comp.punctual_count(args.n, args.m)
    data = {"punctual_components": res.value,
            "closed_form": str(res.closed_form), "matches": res.matches}
    plain = str(res.value)
    if not res.matches:
        plain += f"  [closed form {res.closed_form} disagrees]"
    _report(args, data, plain)
    # the closed form is no second route to the count: a mismatch is flagged
    return 0


def _cmd_components(args):
    if args.mprime is not None:
        if args.global_:
            raise CliError("components takes at most one of --mprime, "
                           "--global")
        if not 2 <= args.mprime <= min(args.m, args.n - 1):
            raise CliError(f"components needs 2 <= mprime <= min(m, n - 1), "
                           f"got n={args.n} m={args.m} "
                           f"mprime={args.mprime}")
        rows = []
        for level in range(args.m - args.mprime + 1):
            sd = comp.stratum_descriptor(args.n, args.m, args.mprime, level)
            rows.append({"level": level, "sym_degree": sd.sym_degree,
                         "local_length": sd.local_length, "l": sd.l,
                         "component_count": sd.component_count})
        data = {"n": args.n, "m": args.m, "mprime": args.mprime,
                "strata": rows}
        plain = "\n".join(
            f"level {r['level']}: sym^{r['sym_degree']} x glued "
            f"Gr({r['l']},{args.n}) pieces = {r['component_count']}"
            for r in rows)
        _report(args, data, plain)
        return 0
    if args.global_:
        items = comp.global_components(args.n, args.m)
        data = {"n": args.n, "m": args.m,
                "components": [{"kind": c.kind, "mprime": c.mprime,
                                "distribution": list(c.distribution)}
                               for c in items]}
        plain = "\n".join(
            f"{c.kind}" + (f" mprime={c.mprime}" if c.mprime else "")
            + f" distribution={list(c.distribution)}" for c in items)
    else:
        items = comp.punctual_components(args.n, args.m)
        data = {"n": args.n, "m": args.m,
                "components": [{"l": c.l, "u": list(c.u)} for c in items]}
        plain = "\n".join(f"l={c.l} u={list(c.u)}" for c in items)
    _report(args, data, plain)
    return 0


def _cmd_complex(args):
    K = build_complex(args.n, args.m)
    if args.format == "svg":
        _emit(args, export.render_svg(K))
    elif args.format == "off":
        _emit(args, export.complex_to_off(K))
    else:
        _emit(args, export.dict_to_json(export.complex_to_dict(K)))
    return 0


def _cmd_plot(args):
    K = build_complex(args.n, args.m)
    _emit(args, export.render_svg(K))
    return 0


def _normalized_from_file(args):
    ctx, gens = load_ideal(args.ideal)
    return ctx, normalize_punctual(ctx, gens)


def _cmd_moment(args):
    ctx, ideal = _normalized_from_file(args)
    m = ideal.colength()
    mu = moment_global(ideal, m)
    K = build_complex(ctx.n, m)
    data = {"colength": m, "moment": [str(c) for c in mu.coords]}
    plain = "moment = (" + ", ".join(str(c) for c in mu.coords) + ")"
    if not K.is_point:
        face = locate(mu, K)
        data["face"] = {"l": face.l, "shift": list(face.shift),
                        "s1": sorted(face.s1), "s2": sorted(face.s2),
                        "dim": face.dim}
        plain += f"; minimal face dim {face.dim}"
    _report(args, data, plain)
    return 0


def _cmd_tangent(args):
    _, ideal = _normalized_from_file(args)
    dim = tangent_dim(ideal)
    _report(args, {"colength": ideal.colength(), "tangent_dim": dim},
            f"tangent dimension {dim} (colength {ideal.colength()})")
    return 0


def _cmd_classify(args):
    ctx, gens = load_ideal(args.ideal)
    if ctx.n < 2:
        raise CliError("classify needs n >= 2: a one-axis curve is smooth, "
                       "so every point of its Hilbert scheme is smooth")
    ideal = normalize_punctual(ctx, gens)
    verdict = is_singular_point(ideal)
    smooth = is_smoothable(ideal)
    data = {"colength": ideal.colength(), "l": ideal.l, "u": list(ideal.u),
            "singular": verdict.singular,
            "condition": verdict.matched_condition,
            "tangent_dim": verdict.tangent, "smoothable": smooth}
    word = "singular" if verdict.singular else "smooth point"
    plain = (f"{word}, condition: {verdict.matched_condition}; "
             f"smoothable: {str(smooth).lower()}")
    _report(args, data, plain)
    return 0


def _cmd_local(args):
    n, k = args.n, args.k
    if not 1 <= k <= n:
        raise CliError(f"local needs 1 <= k <= n, got n={n} k={k}")
    if args.format == "off":
        if args.u is not None or args.json:
            raise CliError("local --format off takes neither --u nor --json")
        poly = localmodel.toric_polytope(k)
        _emit(args, export.polytope_to_off(poly))
        return 0
    if args.u:
        u = tuple(int(x) for x in args.u.split(","))
        _, primes = localmodel.punctual_local_ring(n, k, u)
        rows = []
        for fam in localmodel.primary_components(n, k):
            tr = localmodel.translate_component(fam, n, k, u)
            rows.append({"family": f"{fam.kind}{fam.data}",
                         "smoothable": tr.smoothable,
                         "line_lengths": list(map(list, tr.line_lengths)),
                         "grass": list(tr.grass)})
        data = {"n": n, "k": k, "u": list(u), "components": rows,
                "punctual_primes": [
                    {"kept_axes": list(p.data),
                     "sigma": list(p.sigma_label[:2]) +
                              [list(p.sigma_label[2])]}
                    for p in primes]}
        plain = "\n".join(
            f"{r['family']}: "
            + ("smoothable " if r["smoothable"] else "")
            + " x ".join(f"len-{length} on axis {axis}"
                         for axis, length in r["line_lengths"] if length)
            + (f" x Sigma({r['grass'][0]},{r['grass'][1]},1)"
               if r["grass"] else "")
            for r in rows)
        _report(args, data, plain)
        return 0
    sc = localmodel.build_sing_complex(n, k)
    if args.json:
        data = export.sing_complex_to_dict(sc)
        data["component_count"] = localmodel.local_component_count(n, k)
        _emit(args, export.dict_to_json(data))
        return 0
    lines = [f"local components at a depth-{k} vertex of the {n}-axes ring: "
             f"{localmodel.local_component_count(n, k)}"]
    for fam in (cell.prime for cell in sc.cells):
        lines.append(f"  {fam.kind}{fam.data}: " + ", ".join(fam.pretty()))
    lines.append(f"singularity complex: {len(sc.cells)} maximal cells")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args):
    primes = [2, 3] if args.field_prime is None else [args.field_prime]
    pairs = [(2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
    results = []
    for n, k in pairs:
        ideal = localmodel.reduced_ideal(n, k)
        fams = localmodel.primary_components(n, k)
        for q in primes:
            good = localmodel.verify_decomposition_ff(ideal, fams, q)
            results.append({"check": f"decomposition n={n} k={k} q={q}",
                            "ok": good})
    for n, k in pairs:
        u = tuple([2] * k + [1] * (n - k))
        for q in primes:
            good = localmodel.verify_reduction(n, k, u, q)
            results.append({"check": f"reduction n={n} k={k} q={q}",
                            "ok": good})
    try:
        checked = gluing_consistency_sweep(100, args.seed)
        results.append({"check": f"moment gluing sweep seed={args.seed} "
                                 f"({checked} ideals)", "ok": True})
    except AssertionError:
        results.append({"check": f"moment gluing sweep seed={args.seed}",
                        "ok": False})
    ok = all(r["ok"] for r in results)
    data = {"ok": ok, "results": results}
    plain = "\n".join(f"{'PASS' if r['ok'] else 'FAIL'}  {r['check']}"
                      for r in results)
    _report(args, data, plain)
    return 0 if ok else 3


FLAGS = {
    "-n": dict(type=int, help="number of axes/branches"),
    "-m": dict(type=int, help="length of the subschemes"),
    "-k": dict(type=int, default=1, help="number of axes with degree >= 2"),
    "--mprime": dict(type=int),
    "--u": dict(type=str, help="comma-separated degree vector"),
    "--ideal": dict(type=str, help="path to an ideal JSON file"),
    "--json": dict(action="store_true"),
    "--out": dict(type=str),
    "--format": dict(help="output format"),
    "--field-prime": dict(type=int, choices=[2, 3]),
    "--seed": dict(type=int, default=0),
    "--punctual": dict(action="store_true"),
    "--global": dict(dest="global_", action="store_true"),
    "--curve": dict(action="store_true"),
    "--multi": dict(type=str, help="comma-separated branch multiplicities"),
}

IDEAL_FLAGS = ("--ideal", "--json", "--out")

# verb -> the --format values its handler reads
FORMATS = {"complex": ["json", "off", "svg"], "local": ["off"]}

# verb -> (help, handler, flags it reads, flags it requires)
VERBS = {
    "count": ("component counts", _cmd_count,
              ("-n", "-m", "--multi", "--curve", "--global", "--json",
               "--out", "--punctual"), ()),
    "components": ("list components", _cmd_components,
                   ("-n", "-m", "--mprime", "--global", "--json", "--out"),
                   ("-n", "-m")),
    "complex": ("export the hypersimplicial complex", _cmd_complex,
                ("-n", "-m", "--format", "--out"), ("-n", "-m")),
    "moment": ("moment image of an ideal", _cmd_moment, IDEAL_FLAGS,
               ("--ideal",)),
    "tangent": ("tangent dimension of an ideal", _cmd_tangent, IDEAL_FLAGS,
                ("--ideal",)),
    "classify": ("singularity and smoothability", _cmd_classify,
                 IDEAL_FLAGS, ("--ideal",)),
    "local": ("local models at a vertex ideal", _cmd_local,
              ("-n", "-k", "--u", "--format", "--json", "--out"), ("-n",)),
    "verify": ("run the finite-field oracles", _cmd_verify,
               ("--field-prime", "--seed", "--json", "--out"),
               ()),
    "plot": ("SVG picture of the complex", _cmd_plot, ("-n", "-m", "--out"),
             ("-n", "-m")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser():
    parser = _Parser(
        prog="hilbfold",
        description="Hilbert schemes of points on curves with rational "
                    "n-fold singularities: exact counts, classification "
                    "and combinatorial exports.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, handler, flags, required) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag in flags:
            spec = dict(FLAGS[flag])
            if flag == "--format":
                spec["choices"] = FORMATS[verb]
            p.add_argument(flag, required=flag in required, **spec)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalDiagnosticError as exc:
        print(f"internal diagnostic failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
