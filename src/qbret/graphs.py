"""Transition graphs for (quasi-)stochastic matrices, emitted as DOT or SVG.

Positive transition weights draw warm and solid, negative ones cool and
dashed, and the optional node "bubbles" carry a quasiprobability
distribution (the image of the maximally mixed state on the output side of
a forward graph, the reference prior on the input side of a retrodictive
graph).  Rendering is done by this module itself on a fixed bipartite
layout so that identical inputs produce byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RepMismatch

DEFAULT_CUTOFF = 1e-6

FORWARD = "forward"
RETRODICTIVE = "retrodictive"

# diverging colormap anchors: cool blue for negative, white at zero, warm
# red for positive
_COOL = (33, 102, 172)
_ZERO = (247, 247, 247)
_WARM = (178, 24, 43)


@dataclass(frozen=True)
class TransitionGraph:
    """Bipartite weighted digraph of a channel matrix.

    Inputs {a_j} sit on the left, outputs {a'_j} on the right; an edge is a
    (left_index, right_index, weight) triple.  The direction tag decides
    which way the arrows point: forward graphs run left to right,
    retrodictive ones right to left (the retro map's input is the forward
    map's output).
    """

    in_labels: tuple
    out_labels: tuple
    edges: tuple
    direction: str = FORWARD
    in_bubbles: tuple | None = None
    out_bubbles: tuple | None = None


@dataclass(frozen=True)
class GraphOptions:
    """Emission options: a symmetric colormap half-range (auto-scaled to
    the largest |weight| when None) and the node label style ("name" keeps
    the provided labels, "index" numbers them)."""

    bounds: float | None = None
    label_style: str = "name"


def _as_labels(labels, n: int, prefix: str) -> tuple:
    if labels is None:
        return tuple(f"{prefix}{j}" for j in range(n))
    if len(labels) != n:
        raise RepMismatch(f"{len(labels)} labels for {n} nodes")
    return tuple(str(l) for l in labels)


def _graph(s: np.ndarray, bubbles: np.ndarray, labels, cutoff: float,
           direction: str) -> TransitionGraph:
    # s[right, left] is the weight of the edge between input `left` and
    # output `right`; the bubbles sit on the side the arrows point to
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if s.shape != (n, n):
        raise RepMismatch(f"expected a square matrix, got {s.shape}")
    bubbles = np.asarray(bubbles, dtype=float)
    if bubbles.shape != (n,):
        raise RepMismatch(
            f"bubble vector of length {bubbles.shape} for matrix of size {n}")
    edges = tuple((left, right, float(s[right, left]))
                  for left in range(n) for right in range(n)
                  if abs(s[right, left]) > cutoff)
    bubbles = tuple(float(x) for x in bubbles)
    return TransitionGraph(
        in_labels=_as_labels(labels, n, "a"),
        out_labels=_as_labels(labels, n, "a'"),
        edges=edges,
        direction=direction,
        in_bubbles=bubbles if direction == RETRODICTIVE else None,
        out_bubbles=bubbles if direction == FORWARD else None,
    )


def forward_graph(s: np.ndarray, v_unif_image: np.ndarray, labels=None,
                  cutoff: float = DEFAULT_CUTOFF) -> TransitionGraph:
    """Graph of a forward channel matrix with output bubbles carrying the
    image of the maximally mixed state (callers pass S @ uniform)."""
    return _graph(s, v_unif_image, labels, cutoff, FORWARD)


def retro_graph(s_hat: np.ndarray, v_prior: np.ndarray, labels=None,
                cutoff: float = DEFAULT_CUTOFF) -> TransitionGraph:
    """Graph of a retrodiction matrix: arrows run from the output side back
    to the input side and the input bubbles carry the reference prior.
    s_hat[a, a'] is the retrodicted input a (left) given the observed
    output a' (right)."""
    return _graph(np.asarray(s_hat, dtype=float).T, v_prior, labels, cutoff,
                  RETRODICTIVE)


def _lerp(a, b, t: float) -> tuple:
    return tuple(a[i] + (b[i] - a[i]) * t for i in range(3))


def diverging_color(value: float, half_range: float) -> str:
    """Hex color for a weight on the symmetric scale [-half_range, +half_range]."""
    if half_range <= 0:
        t = 0.0
    else:
        t = max(-1.0, min(1.0, value / half_range))
    rgb = _lerp(_ZERO, _WARM, t) if t >= 0 else _lerp(_ZERO, _COOL, -t)
    return "#{:02x}{:02x}{:02x}".format(*(int(round(c)) for c in rgb))


def _half_range(values, override: float | None) -> float:
    if override is not None:
        return float(override)
    vals = [abs(v) for v in values]
    return max(vals) if vals else 1.0


def _fmt(w: float) -> str:
    return f"{w:.9g}"


def _node_name(side: str, idx: int) -> str:
    return f"{side}{idx}"


def _label(g: TransitionGraph, side: str, idx: int, opts: GraphOptions) -> str:
    if opts.label_style == "index":
        return f"a{idx}" if side == "in" else f"a'{idx}"
    return g.in_labels[idx] if side == "in" else g.out_labels[idx]


def emit_dot(g: TransitionGraph, opts: GraphOptions = GraphOptions()) -> str:
    """Deterministic DOT text: two same-rank columns, dashed negative edges,
    diverging edge colors, bubble-tinted nodes."""
    edges = sorted(g.edges, key=lambda e: (e[0], e[1]))
    w_max = _half_range([e[2] for e in edges], opts.bounds)
    bubbles = {"in": g.in_bubbles, "out": g.out_bubbles}
    b_vals = [v for side in bubbles.values() if side is not None for v in side]
    b_max = _half_range(b_vals, None)
    lines = ["digraph transitions {", "    rankdir=LR;",
             "    node [shape=circle, style=filled, fontname=\"Helvetica\"];"]
    n = len(g.in_labels)
    for side in ("in", "out"):
        members = []
        for j in range(n):
            fill = "#ffffff"
            if bubbles[side] is not None:
                fill = diverging_color(bubbles[side][j], b_max)
            members.append(
                f"    {_node_name(side, j)} [label=\"{_label(g, side, j, opts)}\","
                f" fillcolor=\"{fill}\"];")
        lines.append(f"    {{ rank=same; " + " ".join(
            _node_name(side, j) + ";" for j in range(n)) + " }")
        lines.extend(members)
    for left, right, w in edges:
        style = "solid" if w >= 0 else "dashed"
        color = diverging_color(w, w_max)
        src, dst = _node_name("in", left), _node_name("out", right)
        if g.direction == RETRODICTIVE:
            src, dst = dst, src
        lines.append(
            f"    {src} -> {dst} [style={style}, color=\"{color}\","
            f" label=\"{_fmt(w)}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# fixed SVG geometry
_X_IN, _X_OUT = 110.0, 370.0
_Y_TOP, _Y_STEP = 60.0, 70.0
_R_NODE = 16.0
_LEGEND_STEPS = 32


def emit_svg(g: TransitionGraph, opts: GraphOptions = GraphOptions()) -> str:
    """Self-contained SVG with the same semantics as the DOT output plus a
    diverging color legend spanning [-w_max, +w_max]."""
    edges = sorted(g.edges, key=lambda e: (e[0], e[1]))
    w_max = _half_range([e[2] for e in edges], opts.bounds)
    bubbles = {"in": g.in_bubbles, "out": g.out_bubbles}
    b_vals = [v for side in bubbles.values() if side is not None for v in side]
    b_max = _half_range(b_vals, None)
    n = len(g.in_labels)
    height = _Y_TOP + _Y_STEP * n + 70
    width = _X_OUT + 110
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
           f' height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
           '  <defs>',
           '    <marker id="arrow" markerWidth="8" markerHeight="6"'
           ' refX="7" refY="3" orient="auto">'
           '<polygon points="0 0, 8 3, 0 6" fill="#555555"/></marker>',
           '  </defs>',
           '  <rect width="100%" height="100%" fill="#ffffff"/>']
    # edges first so nodes draw on top
    for left, right, w in edges:
        x1, y1 = _X_IN, _Y_TOP + _Y_STEP * left
        x2, y2 = _X_OUT, _Y_TOP + _Y_STEP * right
        if g.direction == RETRODICTIVE:
            x1, y1, x2, y2 = x2, y2, x1, y1
        # trim the segment to the node boundaries so arrowheads stay visible
        dist = np.hypot(x2 - x1, y2 - y1)
        ux, uy = (x2 - x1) / dist, (y2 - y1) / dist
        trim = _R_NODE + 2.0
        x1, y1 = x1 + trim * ux, y1 + trim * uy
        x2, y2 = x2 - trim * ux, y2 - trim * uy
        style = ' stroke-dasharray="6,4"' if w < 0 else ""
        color = diverging_color(w, w_max)
        sw = 1.0 + 2.5 * min(abs(w) / w_max if w_max else 0.0, 1.0)
        out.append(f'  <path d="M {x1:.1f} {y1:.1f} L {x2:.1f} {y2:.1f}"'
                   f' stroke="{color}" stroke-width="{sw:.2f}" fill="none"'
                   f' marker-end="url(#arrow)"{style}/>')
    for side, x in (("in", _X_IN), ("out", _X_OUT)):
        for j in range(n):
            y = _Y_TOP + _Y_STEP * j
            fill = "#ffffff"
            if bubbles[side] is not None:
                fill = diverging_color(bubbles[side][j], b_max)
            out.append(f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="{_R_NODE:.1f}"'
                       f' fill="{fill}" stroke="#333333"/>')
            anchor = "end" if side == "in" else "start"
            tx = x - _R_NODE - 6 if side == "in" else x + _R_NODE + 6
            out.append(f'  <text x="{tx:.1f}" y="{y + 4:.1f}" font-size="12"'
                       f' font-family="Helvetica" text-anchor="{anchor}">'
                       f'{_label(g, side, j, opts)}</text>')
    # color legend strip, symmetric about zero
    ly = height - 38
    lx0, lx1 = _X_IN, _X_OUT
    step = (lx1 - lx0) / _LEGEND_STEPS
    for i in range(_LEGEND_STEPS):
        t = -1.0 + 2.0 * (i + 0.5) / _LEGEND_STEPS
        out.append(f'  <rect x="{lx0 + i * step:.2f}" y="{ly:.1f}"'
                   f' width="{step + 0.5:.2f}" height="12"'
                   f' fill="{diverging_color(t, 1.0)}"/>')
    for t, anchor in ((-1.0, "middle"), (0.0, "middle"), (1.0, "middle")):
        x = lx0 + (t + 1.0) / 2.0 * (lx1 - lx0)
        out.append(f'  <text x="{x:.1f}" y="{ly + 26:.1f}" font-size="11"'
                   f' font-family="Helvetica" text-anchor="{anchor}">'
                   f'{_fmt(t * w_max)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
