"""Deterministic exports: JSON complexes, OFF polytopes, SVG pictures.

Every writer sorts its content canonically and emits no timestamps, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .hypercomplex import ComplexKnm
from .localmodel import PolytopePk, SingComplex


def complex_to_dict(K: ComplexKnm) -> dict:
    cells = [{"l": c.l, "shift": list(c.shift)} for c in K.cells]
    face_list = []
    face_index = {}
    adjacency = []
    for (i, j), face in sorted(K.adjacency.items()):
        key = face.vertices()
        if key not in face_index:
            face_index[key] = len(face_list)
            face_list.append({"s1": sorted(face.s1), "s2": sorted(face.s2),
                              "l": face.l, "shift": list(face.shift)})
        adjacency.append([i, j, face_index[key]])
    return {"n": K.n, "m": K.m, "cells": cells,
            "faces": face_list, "adjacency": adjacency}


def dict_to_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def sing_complex_to_dict(sc: SingComplex) -> dict:
    cells = [{"label": c.label, "kind": c.kind,
              "vertices": sorted(c.vertex_labels)} for c in sc.cells]
    inters = [[i, j, sorted(labels)]
              for (i, j), labels in sorted(sc.intersections.items())]
    return {"n": sc.n, "k": sc.k, "variables": list(sc.variables),
            "cells": cells, "intersections": inters}


def complex_to_off(K: ComplexKnm) -> str:
    """Cells of a one- or two-dimensional complex as an OFF face list."""
    if K.n not in (2, 3):
        raise ValueError("OFF export only for complexes on 2 or 3 axes")
    verts = K.vertices()
    index = {v: i for i, v in enumerate(verts)}
    lines = ["nOFF", str(K.n), f"{len(verts)} {len(K.cells)} 0"]
    for v in verts:
        lines.append(" ".join(str(x) for x in v))
    for cell in K.cells:
        members = sorted(index[v] for v in cell.vertices())
        lines.append(" ".join([str(len(members))] +
                              [str(i) for i in members]))
    return "\n".join(lines) + "\n"


def polytope_to_off(p: PolytopePk) -> str:
    labels = [lbl for lbl, _ in p.vertices]
    coords = [pt for _, pt in p.vertices]
    index = {lbl: i for i, lbl in enumerate(labels)}
    lines = []
    if p.k == 3:
        lines.append("OFF")
    else:
        lines.append("nOFF")
        lines.append(str(p.k))
    lines.append(f"{len(coords)} {len(p.facets)} 0")
    for pt in coords:
        padded = list(pt) + [0] * max(0, 3 - len(pt)) if p.k < 3 else list(pt)
        lines.append(" ".join(str(x) for x in padded))
    for facet in sorted(p.facets, key=sorted):
        members = sorted(index[lbl] for lbl in facet)
        lines.append(" ".join([str(len(members))] + [str(i) for i in members]))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# SVG rendering of the low-dimensional complexes.
# --------------------------------------------------------------------------

_VIEW_W, _VIEW_H = 800, 700
_CELL_COLORS = ["#4a90e2", "#bd10e0", "#7ed321", "#f5a623"]


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(K: ComplexKnm) -> str:
    """Cells colored by hypersimplex type, vertices dotted; the simplex for
    three axes is drawn in barycentric coordinates."""
    if K.n not in (2, 3):
        raise ValueError("only complexes on two or three axes are drawn")
    pad = 60.0
    scale = min(_VIEW_W, _VIEW_H) - 2 * pad
    body = []

    if K.n == 2:
        y = _VIEW_H / 2.0
        span = max(K.m - 1, 1)

        def pos(c):
            return pad + float(Fraction(c)) / span * scale

        for idx, cell in enumerate(K.cells):
            x0 = pos(cell.shift[0])
            x1 = pos(cell.shift[0] + 1)
            color = _CELL_COLORS[idx % len(_CELL_COLORS)]
            body.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" '
                        f'x2="{_fmt(x1)}" y2="{_fmt(y)}" '
                        f'stroke="{color}" stroke-width="6"/>')
        for v in K.vertices():
            body.append(f'<circle cx="{_fmt(pos(v[0]))}" cy="{_fmt(y)}" '
                        f'r="5" fill="#222222"/>')
    else:
        span = max(K.m - 1, 1)
        corners = [(pad, _VIEW_H - pad),
                   (pad + scale, _VIEW_H - pad),
                   (pad + scale / 2.0, _VIEW_H - pad - scale * 0.866)]

        def project(v):
            lam = [float(Fraction(x)) / span for x in v]
            x = sum(l * c[0] for l, c in zip(lam, corners))
            y = sum(l * c[1] for l, c in zip(lam, corners))
            return x, y

        for cell in K.cells:
            pts = sorted(cell.vertices())
            poly = " ".join(f"{_fmt(x)},{_fmt(y)}"
                            for x, y in (project(p) for p in pts))
            color = _CELL_COLORS[(cell.l - 1) % len(_CELL_COLORS)]
            body.append(f'<polygon points="{poly}" fill="{color}" '
                        f'fill-opacity="0.45" stroke="#333333"/>')
        for v in K.vertices():
            x, y = project(v)
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                        f'r="4" fill="#222222"/>')

    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_VIEW_W}" height="{_VIEW_H}" '
            f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"
