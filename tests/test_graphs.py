import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qbret import errors
from qbret.frames import build_dw_qubit, structure_coeffs
from qbret.graphs import (
    diverging_color,
    emit_dot,
    emit_svg,
    forward_graph,
    retro_graph,
)
from qbret.hilbert import KET_PLUS, builtin_channel, projector
from qbret.qprcore import channel_to_qpr, petz_qpr, state_to_qpr, uniform_vector


@pytest.fixture(scope="module")
def dw():
    return build_dw_qubit()


@pytest.fixture(scope="module")
def half_swap_s(dw):
    f, g = dw
    return channel_to_qpr(builtin_channel("half_swap"), f, g)


@pytest.fixture(scope="module")
def retro_half_swap(dw, half_swap_s):
    f, g = dw
    v = state_to_qpr(projector(KET_PLUS), f)
    shat = petz_qpr(half_swap_s, v, structure_coeffs(f, g), kind="nq").matrix
    return retro_graph(shat, v)


def labels_of(frame):
    return tuple(str(l) for l in frame.labels)


class TestGraphBuild:
    def test_identity_graph(self):
        g = forward_graph(np.eye(4), uniform_vector(4))
        assert len(g.edges) == 4
        assert all(w == 1.0 and i == j for i, j, w in g.edges)
        assert g.out_bubbles == (0.25, 0.25, 0.25, 0.25)

    def test_unital_channel_uniform_bubbles(self, dw):
        f, gd = dw
        s = channel_to_qpr(builtin_channel("hadamard"), f, gd)
        graph = forward_graph(s, s @ uniform_vector(4))
        assert max(graph.out_bubbles) - min(graph.out_bubbles) < 1e-12

    def test_half_swap_bubbles_from_mixed_image(self, dw, half_swap_s):
        f, gd = dw
        graph = forward_graph(half_swap_s, half_swap_s @ uniform_vector(4))
        # image of the maximally mixed state is diag(1/4, 3/4)
        expected = state_to_qpr(np.diag([0.25, 0.75]).astype(complex), f)
        np.testing.assert_allclose(graph.out_bubbles, expected, atol=1e-12)
        assert max(graph.out_bubbles) - min(graph.out_bubbles) > 0.1

    def test_cutoff_drops_small_weights(self):
        s = np.eye(4)
        s[0, 0] = 1 - 1e-9
        s[1, 0] = 1e-9
        g = forward_graph(s, uniform_vector(4), cutoff=1e-6)
        assert len(g.edges) == 4

    def test_retro_edges_reverse(self, retro_half_swap):
        g = retro_half_swap
        assert g.direction == "retrodictive"
        np.testing.assert_allclose(g.in_bubbles, (0.5, 0.5, 0.0, 0.0),
                                   atol=1e-12)
        # half of the matrix rows vanish, eight 1/2-weight edges remain
        assert len(g.edges) == 8
        assert all(abs(w - 0.5) < 1e-9 for _, _, w in g.edges)

    def test_erasure_retro_connects_everything_to_prior(self, dw):
        f, gd = dw
        v = state_to_qpr(projector(np.array([1, 0])), f)  # (1/2, 0, 1/2, 0)
        shat = np.tile(v, (4, 1)).T
        g = retro_graph(shat, v)
        # each observed output connects to the two supported inputs
        assert len(g.edges) == 8
        for left, _right, w in g.edges:
            assert left in (0, 2) and abs(w - 0.5) < 1e-12

    def test_unitary_retro_mirrors_forward(self, dw):
        # retrodicting a unitary channel transposes its matrix, so the retro
        # graph carries the same weighted edges as the forward one, drawn
        # in the opposite direction
        f, gd = dw
        s = channel_to_qpr(builtin_channel("hadamard"), f, gd)
        fwd = forward_graph(s, s @ uniform_vector(4))
        back = retro_graph(s.T, uniform_vector(4))
        assert sorted(fwd.edges) == sorted(back.edges)
        assert back.direction == "retrodictive"

    def test_rep_mismatch(self):
        with pytest.raises(errors.RepMismatch):
            forward_graph(np.eye(4), np.ones(3))

    @pytest.mark.parametrize("build", [forward_graph, retro_graph])
    @pytest.mark.parametrize("s, bubbles", [
        (np.float64(1.0), np.ones(1)),
        (np.zeros((0, 0)), np.zeros(0)),
        (np.ones((2, 3)), np.ones(2)),
    ], ids=["scalar", "empty", "rectangular"])
    def test_matrix_that_is_not_a_nonempty_square(self, build, s, bubbles):
        # a 0-d matrix raised IndexError and a 0 x 0 one drew an empty graph
        with pytest.raises(errors.RepMismatch, match="non-empty square"):
            build(s, bubbles)


class TestEmitDot:
    def test_identity_all_solid(self):
        text = emit_dot(forward_graph(np.eye(4), uniform_vector(4)))
        assert text.count("->") == 4
        assert text.count("style=solid") == 4
        assert "style=dashed" not in text

    def test_half_swap_has_dashed_edge(self, dw, half_swap_s):
        graph = forward_graph(half_swap_s, half_swap_s @ uniform_vector(4))
        text = emit_dot(graph)
        assert "style=dashed" in text

    def test_sign_style_bijection(self, dw, half_swap_s):
        graph = forward_graph(half_swap_s, half_swap_s @ uniform_vector(4))
        text = emit_dot(graph)
        dashed = text.count("style=dashed")
        solid = text.count("style=solid")
        negatives = sum(1 for _, _, w in graph.edges if w < 0)
        assert dashed == negatives
        assert solid == len(graph.edges) - negatives

    def test_overwhelming_cutoff_empties_graph(self):
        g = forward_graph(np.eye(4), uniform_vector(4), cutoff=1.1)
        text = emit_dot(g)
        assert "->" not in text

    def test_deterministic(self, retro_half_swap):
        a = emit_dot(retro_half_swap)
        b = emit_dot(retro_half_swap)
        assert a == b

    def test_label_styles(self, dw, half_swap_s):
        f, _ = dw
        named = emit_dot(forward_graph(half_swap_s, labels=labels_of(f)))
        indexed = emit_dot(forward_graph(half_swap_s))
        assert "(0, 0)" in named
        assert "a0" in indexed and "(0, 0)" not in indexed


class TestEmitSvg:
    def test_identity_element_counts(self):
        text = emit_svg(forward_graph(np.eye(4), uniform_vector(4)))
        assert text.count("<circle") == 8
        assert text.count("<path") == 4

    def test_retro_pattern_edge_count(self, retro_half_swap):
        text = emit_svg(retro_half_swap)
        assert text.count("<path") == 8

    def test_legend_symmetric(self, retro_half_swap):
        text = emit_svg(retro_half_swap)
        # weights peak at 1/2, so the legend runs from -0.5 to +0.5
        assert ">-0.5</text>" in text and ">0.5</text>" in text
        assert ">0</text>" in text

    def test_deterministic(self, retro_half_swap):
        assert emit_svg(retro_half_swap) == emit_svg(retro_half_swap)

    def test_dashes_for_negative(self, dw, half_swap_s):
        graph = forward_graph(half_swap_s, half_swap_s @ uniform_vector(4))
        text = emit_svg(graph)
        assert "stroke-dasharray" in text


GOLDEN = Path(__file__).parent / "data" / "graphs"
DW_LABELS = ("(0, 0)", "(0, 1)", "(1, 0)", "(1, 1)")
# the Hadamard pattern (the same in the dw and sic frames) and the closed-form
# half-SWAP recovery at the |+> prior in dw, as `verify --suite
# counterexamples` states them, with the dw vector of |+>
HADAMARD = 0.5 * np.array([[1, 1, 1, -1], [1, -1, 1, 1],
                           [1, 1, -1, 1], [-1, 1, 1, 1]])
HALF_SWAP_RECOVERY = 0.5 * np.array([[1, 1, 1, 1], [1, 1, 1, 1],
                                     [0, 0, 0, 0], [0, 0, 0, 0]])
PLUS_DW = np.array([0.5, 0.5, 0.0, 0.0])
GOLDEN_CASES = {
    "hadamard": (lambda: forward_graph(HADAMARD, labels=DW_LABELS), None),
    "hadamard-bounds": (lambda: forward_graph(HADAMARD, labels=DW_LABELS), 0.8),
    "half-swap-retro": (
        lambda: retro_graph(HALF_SWAP_RECOVERY, PLUS_DW, DW_LABELS), None),
    "half-swap-retro-numbered": (
        lambda: retro_graph(HALF_SWAP_RECOVERY, PLUS_DW), None),
}


@pytest.mark.parametrize("emit, suffix", [(emit_dot, "dot"), (emit_svg, "svg")],
                         ids=["dot", "svg"])
@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_writers_match_their_reference_bytes(name, emit, suffix):
    # the files were written by the writers before they shared one layout;
    # the text must not move by a byte
    build, bounds = GOLDEN_CASES[name]
    text = emit(build(), bounds)
    assert text.encode("utf-8") == (GOLDEN / f"{name}.{suffix}").read_bytes()


# labels a frame document may hold, with characters that end a DOT string or
# an SVG text node
SPECIAL_LABELS = ("a<b", 'q"x', "c&d", "r\\s")


class TestLabelEscaping:
    def test_svg_parses_and_reads_back_the_labels(self):
        text = emit_svg(forward_graph(HADAMARD, labels=SPECIAL_LABELS))
        nodes = ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")
        # each column's labels, then the legend's three values
        assert [node.text for node in nodes][:8] == list(SPECIAL_LABELS) * 2

    def test_dot_labels_escape_backslashes_then_quotes(self):
        text = emit_dot(forward_graph(HADAMARD, labels=SPECIAL_LABELS))
        for side in ("in", "out"):
            assert f'{side}1 [label="q\\"x",' in text
            assert f'{side}3 [label="r\\\\s",' in text
            assert f'{side}0 [label="a<b",' in text and f'{side}2 [label="c&d",' in text


class TestColors:
    def test_zero_is_neutral(self):
        assert diverging_color(0.0, 1.0) == "#f7f7f7"

    def test_extremes(self):
        assert diverging_color(1.0, 1.0) == "#b2182b"
        assert diverging_color(-1.0, 1.0) == "#2166ac"

    def test_clamps_out_of_range(self):
        assert diverging_color(5.0, 1.0) == diverging_color(1.0, 1.0)
