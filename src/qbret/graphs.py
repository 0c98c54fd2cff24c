"""Transition graphs for (quasi-)stochastic matrices, emitted as DOT or SVG.

Positive transition weights draw warm and solid, negative ones cool and
dashed, and the optional node "bubbles" carry a quasiprobability
distribution (the image of the maximally mixed state on the output side of
a forward graph, the reference prior on the input side of a retrodictive
graph).  Rendering is done by this module itself: `_layout` places a
graph once on a fixed bipartite layout, with its labels, fills, colors and
arrow directions, and `emit_dot` and `emit_svg` only format that drawing,
so identical inputs produce byte-identical text in either format.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import RepMismatch
from .qprcore import uniform_vector

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


def _as_labels(labels, n: int, prefix: str) -> tuple:
    if labels is None:
        return tuple(f"{prefix}{j}" for j in range(n))
    if len(labels) != n:
        raise RepMismatch(f"{len(labels)} labels for {n} nodes")
    return tuple(str(l) for l in labels)


def _graph(s: np.ndarray, bubbles, labels, cutoff: float,
           direction: str) -> TransitionGraph:
    # s[right, left], or s_hat[left, right] for a retro graph, is the weight
    # of the edge between input `left` and output `right`; the bubbles sit
    # on the side the arrows point to, and a forward graph's default to the
    # image S @ uniform of the maximally mixed state
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or not s.size or s.shape[0] != s.shape[1]:
        raise RepMismatch(f"expected a non-empty square matrix, got shape {s.shape}")
    n = s.shape[0]
    if bubbles is None and direction == FORWARD:
        bubbles = s @ uniform_vector(n)
    if direction == RETRODICTIVE:
        s = s.T
    bubbles = np.asarray(bubbles, dtype=float)
    if bubbles.shape != (n,):
        raise RepMismatch(
            f"bubble vector of length {bubbles.shape} for matrix of size {n}")
    # a NaN edge would be dropped by the cutoff, and an infinite one would
    # stretch the colormap to infinity
    if not (np.isfinite(s).all() and np.isfinite(bubbles).all()):
        raise RepMismatch("a graph's weights and bubbles must be finite")
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


def forward_graph(s: np.ndarray, v_unif_image: np.ndarray | None = None,
                  labels=None, cutoff: float = DEFAULT_CUTOFF) -> TransitionGraph:
    """Graph of a forward channel matrix with output bubbles carrying the
    image of the maximally mixed state, S @ uniform unless given.  Nodes
    are numbered a0.../a'0... when `labels` is None."""
    return _graph(s, v_unif_image, labels, cutoff, FORWARD)


def retro_graph(s_hat: np.ndarray, v_prior: np.ndarray, labels=None,
                cutoff: float = DEFAULT_CUTOFF) -> TransitionGraph:
    """Graph of a retrodiction matrix: arrows run from the output side back
    to the input side and the input bubbles carry the reference prior.
    s_hat[a, a'] is the retrodicted input a (left) given the observed
    output a' (right)."""
    return _graph(s_hat, v_prior, labels, cutoff, RETRODICTIVE)


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


# fixed bipartite geometry, which the SVG writer draws
_X_IN, _X_OUT = 110.0, 370.0
_Y_TOP, _Y_STEP = 60.0, 70.0
_R_NODE = 16.0
_LEGEND_STEPS = 32

_Node = namedtuple("_Node", "name label fill x y")

# a label escaped inside a DOT double-quoted string, and as SVG text
# content, where its quotes stay: no label goes into an SVG attribute.
# xml.sax.saxutils.escape is the SVG table, but its import pulls
# urllib.request and http.client into every CLI process
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})
_SVG_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _layout(g: TransitionGraph, bounds: float | None) -> tuple:
    """(columns, edges, w_max): the one drawing both writers format.  The
    two columns hold the input and the output nodes, each with its label
    and bubble fill; the edges, sorted by (input, output), run from source
    to target node in the graph's direction with their weight and color;
    w_max is the edge colormap's half-range, `bounds` or the largest
    |weight|."""
    sides = ((g.in_labels, g.in_bubbles, "in", _X_IN),
             (g.out_labels, g.out_bubbles, "out", _X_OUT))
    b_max = _half_range([v for _, bubbles, _, _ in sides if bubbles is not None
                         for v in bubbles], None)
    columns = tuple(
        [_Node(f"{side}{j}", label,
               "#ffffff" if bubbles is None else diverging_color(bubbles[j], b_max),
               x, _Y_TOP + _Y_STEP * j) for j, label in enumerate(labels)]
        for labels, bubbles, side, x in sides)
    edges = sorted(g.edges, key=lambda e: (e[0], e[1]))
    w_max = _half_range([e[2] for e in edges], bounds)
    drawn = []
    for left, right, w in edges:
        ends = (columns[0][left], columns[1][right])
        if g.direction == RETRODICTIVE:
            ends = ends[::-1]
        drawn.append((*ends, w, diverging_color(w, w_max)))
    return columns, drawn, w_max


def emit_dot(g: TransitionGraph, bounds: float | None = None) -> str:
    """Deterministic DOT text: two same-rank columns, dashed negative edges,
    diverging edge colors on [-bounds, +bounds] (the largest |weight| when
    None), bubble-tinted nodes."""
    columns, edges, _ = _layout(g, bounds)
    lines = ["digraph transitions {", "    rankdir=LR;",
             "    node [shape=circle, style=filled, fontname=\"Helvetica\"];"]
    for column in columns:
        lines.append("    { rank=same; "
                     + " ".join(node.name + ";" for node in column) + " }")
        lines.extend(f"    {node.name} [label=\"{node.label.translate(_DOT_ESCAPES)}\","
                     f" fillcolor=\"{node.fill}\"];" for node in column)
    for src, dst, w, color in edges:
        style = "solid" if w >= 0 else "dashed"
        lines.append(
            f"    {src.name} -> {dst.name} [style={style}, color=\"{color}\","
            f" label=\"{_fmt(w)}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_svg(g: TransitionGraph, bounds: float | None = None) -> str:
    """Self-contained SVG with the same semantics as the DOT output plus a
    diverging color legend spanning [-w_max, +w_max]."""
    columns, edges, w_max = _layout(g, bounds)
    height = _Y_TOP + _Y_STEP * len(columns[0]) + 70
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
    for src, dst, w, color in edges:
        # trim the segment to the node boundaries so arrowheads stay visible
        dist = np.hypot(dst.x - src.x, dst.y - src.y)
        ux, uy = (dst.x - src.x) / dist, (dst.y - src.y) / dist
        trim = _R_NODE + 2.0
        x1, y1 = src.x + trim * ux, src.y + trim * uy
        x2, y2 = dst.x - trim * ux, dst.y - trim * uy
        style = ' stroke-dasharray="6,4"' if w < 0 else ""
        sw = 1.0 + 2.5 * min(abs(w) / w_max if w_max else 0.0, 1.0)
        out.append(f'  <path d="M {x1:.1f} {y1:.1f} L {x2:.1f} {y2:.1f}"'
                   f' stroke="{color}" stroke-width="{sw:.2f}" fill="none"'
                   f' marker-end="url(#arrow)"{style}/>')
    # labels outside the columns: left of the inputs, right of the outputs
    for column, anchor, shift in zip(columns, ("end", "start"), (-1, 1)):
        for node in column:
            out.append(f'  <circle cx="{node.x:.1f}" cy="{node.y:.1f}"'
                       f' r="{_R_NODE:.1f}" fill="{node.fill}" stroke="#333333"/>')
            out.append(f'  <text x="{node.x + shift * (_R_NODE + 6):.1f}"'
                       f' y="{node.y + 4:.1f}" font-size="12"'
                       f' font-family="Helvetica" text-anchor="{anchor}">'
                       f'{node.label.translate(_SVG_ESCAPES)}</text>')
    # color legend strip, symmetric about zero
    ly = height - 38
    lx0, lx1 = _X_IN, _X_OUT
    step = (lx1 - lx0) / _LEGEND_STEPS
    for i in range(_LEGEND_STEPS):
        t = -1.0 + 2.0 * (i + 0.5) / _LEGEND_STEPS
        out.append(f'  <rect x="{lx0 + i * step:.2f}" y="{ly:.1f}"'
                   f' width="{step + 0.5:.2f}" height="12"'
                   f' fill="{diverging_color(t, 1.0)}"/>')
    for t in (-1.0, 0.0, 1.0):
        x = lx0 + (t + 1.0) / 2.0 * (lx1 - lx0)
        out.append(f'  <text x="{x:.1f}" y="{ly + 26:.1f}" font-size="11"'
                   ' font-family="Helvetica" text-anchor="middle">'
                   f'{_fmt(t * w_max)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
