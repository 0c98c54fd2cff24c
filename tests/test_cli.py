import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qbret
from qbret.cli import main
from qbret import hilbert as hb
from qbret.frames import (
    build_dw_qubit,
    build_sic_qubit,
    encode_complex_matrix,
    frame_to_dict,
)

SQ3 = np.sqrt(3.0)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def matrix_of(doc):
    return np.array(doc["entries"]).reshape(doc["shape"])


def custom_sic_file(tmp_path):
    """The SIC tetrahedron saved as a custom frame: its adjoint then comes
    from the frame Gram, not from the closed form of its kind."""
    doc = frame_to_dict(*build_sic_qubit())
    doc["kind"] = "custom"
    path = tmp_path / "custom_sic.json"
    path.write_text(json.dumps(doc))
    return path


class TestFrameCommand:
    def test_dw_qubit(self, tmp_path):
        out = tmp_path / "frame.json"
        assert main(["frame", "--kind", "dw-qubit", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["d"] == 2 and len(doc["F"]) == 4
        assert doc["validation"]["passed"]

    def test_two_qubit_tensor(self, tmp_path):
        out = tmp_path / "frame.json"
        assert main(["frame", "--kind", "dw-qubits:2", "--out", str(out)]) == 0
        assert len(read_json(out)["F"]) == 16

    def test_sic_tetrahedron(self, tmp_path):
        out = tmp_path / "frame.json"
        assert main(["frame", "--kind", "sic-qubit", "--out", str(out)]) == 0
        doc = read_json(out)
        f0 = np.array([[complex(*z) for z in row] for row in doc["F"][0]])
        expected = np.array([[1 + 1 / SQ3, (1 + 1j) / SQ3],
                             [(1 - 1j) / SQ3, 1 - 1 / SQ3]]) / 4
        np.testing.assert_allclose(f0, expected, atol=1e-12)

    def test_file_round_trip(self, tmp_path):
        built = tmp_path / "a.json"
        main(["frame", "--kind", "dw-qubit", "--out", str(built)])
        reloaded = tmp_path / "b.json"
        assert main(["frame", "--frame", str(built), "--out", str(reloaded)]) == 0
        np.testing.assert_allclose(
            np.array(read_json(built)["F"]), np.array(read_json(reloaded)["F"]))

    def test_invalid_frame_file_exits_1(self, tmp_path):
        f, g = build_dw_qubit()
        doc = frame_to_dict(f, g)
        doc["F"] = [[[[1.05 * z[0], 1.05 * z[1]] for z in row] for row in m]
                    for m in doc["F"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["frame", "--frame", str(bad)]) == 1

    def test_unknown_kind_exits_2(self):
        assert main(["frame", "--kind", "heptagon"]) == 2

    def test_tolerance_env_override(self, tmp_path, monkeypatch):
        f, g = build_dw_qubit()
        doc = frame_to_dict(f, g)
        doc["F"] = [[[[(1 + 1e-6) * z[0], (1 + 1e-6) * z[1]] for z in row]
                     for row in m] for m in doc["F"]]
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert main(["frame", "--frame", str(path)]) == 1
        monkeypatch.setenv("QBRET_TOL", "1e-3")
        assert main(["frame", "--frame", str(path),
                     "--out", str(tmp_path / "ok.json")]) == 0


class TestReprCommand:
    def test_hadamard_matrix(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
                     "--out", str(out)]) == 0
        doc = read_json(out)
        expected = 0.5 * np.array([[1, 1, 1, -1], [1, -1, 1, 1],
                                   [1, 1, -1, 1], [-1, 1, 1, 1]])
        np.testing.assert_allclose(matrix_of(doc), expected, atol=1e-12)
        assert doc["rep"] == "dw-qubit"

    def test_half_swap_quasi_stochastic(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["repr", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--out", str(out)]) == 0
        s = matrix_of(read_json(out))
        np.testing.assert_allclose(s.sum(axis=0), np.ones(4), atol=1e-10)
        assert s.min() < -1e-3

    def test_identity_channel(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["repr", "--builtin", "identity", "--kind", "sic-qubit",
                     "--out", str(out)]) == 0
        np.testing.assert_allclose(matrix_of(read_json(out)), np.eye(4),
                                   atol=1e-12)

    def test_state_vector(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["repr", "--angles", f"{np.pi / 2},0,0",
                     "--kind", "dw-qubit", "--out", str(out)]) == 0
        np.testing.assert_allclose(matrix_of(read_json(out)),
                                   [0.5, 0, 0.5, 0], atol=1e-12)

    def test_kraus_channel_file(self, tmp_path):
        ch = tmp_path / "ch.json"
        z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        ch.write_text(json.dumps({"kind": "kraus", "d": 2, "kraus": [z]}))
        out = tmp_path / "s.json"
        assert main(["repr", "--channel", str(ch), "--kind", "dw-qubit",
                     "--out", str(out)]) == 0

    def test_missing_channel_exits_2(self):
        assert main(["repr", "--kind", "dw-qubit"]) == 2


class TestPetzCommand:
    def test_half_swap_plus_prior(self, tmp_path):
        out = tmp_path / "petz.json"
        code = main(["petz", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--angles", f"{np.pi / 2},{np.pi / 2},0",
                     "--out", str(out)])
        assert code == 0
        doc = read_json(out)
        expected = 0.5 * np.array([[1, 1, 1, 1], [1, 1, 1, 1],
                                   [0, 0, 0, 0], [0, 0, 0, 0]])
        np.testing.assert_allclose(matrix_of(doc), expected, atol=1e-8)
        assert doc["meta"]["oracle_deviation"] < 1e-8
        assert doc["meta"]["eps_used"] == 0.0

    def test_unitary_gives_transpose(self, tmp_path):
        s_out = tmp_path / "s.json"
        main(["repr", "--builtin", "pauli_z", "--kind", "dw-qubit",
              "--out", str(s_out)])
        p_out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "pauli_z", "--kind", "dw-qubit",
                     "--angles", "0.4,1.1,0.3", "--out", str(p_out)]) == 0
        np.testing.assert_allclose(matrix_of(read_json(p_out)),
                                   matrix_of(read_json(s_out)).T, atol=1e-9)

    def test_erasure_columns(self, tmp_path):
        v_out = tmp_path / "v.json"
        angles = f"{np.pi / 16},{np.pi / 5},{np.pi / 8}"
        main(["repr", "--angles", angles, "--kind", "dw-qubit",
              "--out", str(v_out)])
        p_out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "full_swap",
                     "--ancilla", f"{7 * np.pi / 16},{3 * np.pi / 5},{np.pi / 6}",
                     "--kind", "dw-qubit", "--angles", angles,
                     "--out", str(p_out)]) == 0
        shat = matrix_of(read_json(p_out))
        v = matrix_of(read_json(v_out))
        np.testing.assert_allclose(shat, np.tile(v, (4, 1)).T, atol=1e-8)

    def test_matrix_only_mode_skips_oracle(self, tmp_path, capsys):
        s_out = tmp_path / "s.json"
        main(["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
              "--out", str(s_out)])
        p_out = tmp_path / "petz.json"
        assert main(["petz", "--matrix", str(s_out), "--kind", "dw-qubit",
                     "--angles", "0.4,1.1,0.3", "--out", str(p_out)]) == 0
        captured = capsys.readouterr()
        assert "cross-check is disabled" in captured.err
        assert "oracle_deviation" not in read_json(p_out)["meta"]

    def test_singular_posterior_reports_regularization(self, tmp_path):
        out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--angles", "0,0,0",
                     "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["eps_used"] > 0
        assert "extrapolation_dev" in meta

    def test_replacement_channel_projects_on_the_support(self, tmp_path):
        # a full swap replaces every state by the pure ancilla, so the
        # posterior keeps its kernel after regularization; the recovery is
        # right, and it is reported as support-projected, not unconverged
        out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "full_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--angles", "0.4,1.1,0.3",
                     "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["support_projected"] is True
        assert meta["converged"] is True and "extrapolation_dev" not in meta
        assert meta["oracle_deviation"] <= meta["oracle_tol"]

    def test_output_byte_deterministic(self, tmp_path):
        args = ["petz", "--builtin", "half_swap", "--ancilla", "1",
                "--kind", "sic-qubit", "--angles", "0.4,1.1,0.3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_frame_matrix_file_needs_no_channel(self, tmp_path):
        # repr, then petz on the bare matrix: the custom frame's adjoint
        # comes from quasiprobability data alone
        frame = str(custom_sic_file(tmp_path))
        channel = ["--builtin", "half_swap", "--ancilla", "1"]
        prior = ["--angles", "0.4,1.1,0.3"]
        s_out = tmp_path / "s.json"
        assert main(["repr", *channel, "--frame", frame,
                     "--out", str(s_out)]) == 0
        outs = {name: tmp_path / f"{name}.json"
                for name in ("matrix", "builtin", "closed_form")}
        assert main(["petz", "--matrix", str(s_out), "--frame", frame, *prior,
                     "--out", str(outs["matrix"])]) == 0
        assert main(["petz", *channel, "--frame", frame, *prior,
                     "--out", str(outs["builtin"])]) == 0
        assert main(["petz", *channel, "--kind", "sic-qubit", *prior,
                     "--out", str(outs["closed_form"])]) == 0
        shat = {name: matrix_of(read_json(path)) for name, path in outs.items()}
        assert np.abs(shat["matrix"] - shat["builtin"]).max() <= 1e-12
        assert np.abs(shat["matrix"] - shat["closed_form"]).max() <= 1e-12

    def test_custom_rep_uses_morphed_adjoint(self, tmp_path):
        f, g = build_dw_qubit()
        doc = frame_to_dict(f, g)
        doc["kind"] = "custom"
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "hadamard", "--frame", str(path),
                     "--angles", "0.4,1.1,0.3", "--out", str(out)]) == 0
        assert read_json(out)["meta"]["oracle_deviation"] < 1e-8

    def test_noncanonical_frame_file_with_nonunital_channel(self, tmp_path):
        # a blend of the two canonical frames, saved as a custom frame file;
        # the recovery of a non-unital channel then takes the Gram-rule
        # adjoint and must still agree with the oracle
        from qbret.frames import Frame, DualFrame
        dw_f, _ = build_dw_qubit()
        sp_f, _ = build_sic_qubit()
        ops = 0.6 * dw_f.ops + 0.4 * sp_f.ops
        gram = np.einsum("jab,kba->jk", ops, ops).real
        dual_ops = np.einsum("jk,kab->jab", np.linalg.inv(gram), ops)
        doc = frame_to_dict(
            Frame(name="blend", d=2, labels=tuple(range(4)), ops=ops,
                  kind="custom"),
            DualFrame(name="blend", ops=dual_ops))
        path = tmp_path / "blend.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "half_swap", "--ancilla", "1",
                     "--frame", str(path), "--angles", "0.4,1.1,0.3",
                     "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["oracle_deviation"] < 1e-8
        shat = matrix_of(read_json(out))
        np.testing.assert_allclose(shat.sum(axis=0), np.ones(4), atol=1e-9)


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["frames", "classical", "counterexamples"])
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--seed", "7"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "counterexamples", "--seed", "7",
                     "--format", "json", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["passed"] and doc["seed"] == 7
        names = {c["name"] for c in doc["checks"]}
        assert "born-violation-dw" in names

    def test_powers_suite_seeded(self, capsys):
        assert main(["verify", "--suite", "powers", "--seed", "7"]) == 0

    def test_all_suites(self, capsys):
        assert main(["verify", "--suite", "all", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        # every suite contributed checks
        for token in ("frame-invariants", "m-unit-trace", "power-identity",
                      "petz-commutes", "pipeline-agreement", "born-violation"):
            assert token in out


class TestCompareCommand:
    def test_half_swap_difference(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit",
                     "--angles", f"{np.pi / 2},{np.pi / 2},0",
                     "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["max_difference"] > 0.1
        classical = np.array(doc["classical"])
        expected_first_row = [1, (3 - np.sqrt(2)) / 7, 1, (np.sqrt(2) + 3) / 7]
        np.testing.assert_allclose(classical[0], expected_first_row, atol=1e-10)

    def test_reports_oracle_deviation(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "sic-qubit", "--angles", "0.4,1.1,0.3",
                     "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["oracle_tol"] == 1e-8
        assert doc["oracle_deviation"] < 1e-8

    def test_rotation_flags_born_violation(self, tmp_path):
        u = 0.5j * np.array([[SQ3, -1], [1, SQ3]])
        ch = tmp_path / "rot.json"
        ch.write_text(json.dumps({
            "kind": "kraus", "d": 2,
            "kraus": [[[[z.real, z.imag] for z in row] for row in u]]}))
        out = tmp_path / "cmp.json"
        assert main(["compare", "--channel", str(ch), "--kind", "dw-qubit",
                     "--angles", f"{np.pi / 2},{np.pi / 2},0",
                     "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["flagged"]
        values = {(row["state"], row["effect"]): row["value"]
                  for row in doc["born_scan_classical"]}
        assert abs(values[("plus", "ket0")] - (1 + SQ3) / 2) < 1e-9
        # same rotation through the tetrahedron frame flags a negative value
        out2 = tmp_path / "cmp_sic.json"
        assert main(["compare", "--channel", str(ch), "--kind", "sic-qubit",
                     "--angles", f"{np.pi / 2},{np.pi / 2},0",
                     "--out", str(out2)]) == 0
        doc2 = read_json(out2)
        values2 = {(row["state"], row["effect"]): row["value"]
                   for row in doc2["born_scan_classical"]}
        assert abs(values2[("ket0", "plus")] - (2 - 5 * SQ3) / 13) < 1e-9
        assert any(row["value"] < -1e-6 for row in doc2["flagged"])

    def test_diagonal_channel_agrees_on_diagonal(self, tmp_path):
        # classical channel embedded diagonally with a diagonal prior: the
        # recovery's computational-basis transition probabilities reduce to
        # the classical Bayes inverse
        from qbret.frames import build_dw_qubit
        from qbret.hilbert import KET0, KET1, projector
        from qbret.qprcore import born, povm_to_qpr, state_to_qpr

        t = np.array([[0.7, 0.2], [0.3, 0.8]])
        kraus = []
        for i in range(2):
            for j in range(2):
                k = np.zeros((2, 2))
                k[i, j] = np.sqrt(t[i, j])
                kraus.append([[[z, 0.0] for z in row] for row in k])
        ch = tmp_path / "diag.json"
        ch.write_text(json.dumps({"kind": "kraus", "d": 2, "kraus": kraus}))
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({
            "kind": "matrix",
            "matrix": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]}))
        out = tmp_path / "cmp.json"
        assert main(["compare", "--channel", str(ch), "--kind", "dw-qubit",
                     "--prior", str(prior), "--out", str(out)]) == 0
        recovery = np.array(read_json(out)["recovery"])
        p = np.array([0.6, 0.4])
        bayes = np.diag(p) @ t.T @ np.diag(1 / (t @ p))
        f, g = build_dw_qubit()
        kets = (projector(KET0), projector(KET1))
        for a_in, obs in enumerate(kets):
            for a_out, effect in enumerate(kets):
                value = born(recovery @ state_to_qpr(obs, f),
                             povm_to_qpr(effect, g))
                assert abs(value - bayes[a_out, a_in]) < 1e-8


class TestGraphCommand:
    def test_deterministic_dot_and_svg(self, tmp_path):
        args = ["graph", "--builtin", "half_swap", "--ancilla", "1",
                "--kind", "dw-qubit", "--angles", f"{np.pi / 2},{np.pi / 2},0",
                "--direction", "retro"]
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(args + ["--format", "svg", "--out", str(sa)]) == 0
        assert main(args + ["--format", "svg", "--out", str(sb)]) == 0
        assert sa.read_bytes() == sb.read_bytes()

    def test_forward_half_swap_has_dashed_edges(self, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["graph", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--direction", "forward",
                     "--out", str(out)]) == 0
        assert "style=dashed" in out.read_text()

    def test_identity_graph_four_edges(self, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["graph", "--builtin", "identity", "--kind", "dw-qubit",
                     "--direction", "forward", "--out", str(out)]) == 0
        assert out.read_text().count("->") == 4

    def test_matrix_file_input(self, tmp_path):
        s_out = tmp_path / "s.json"
        main(["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
              "--out", str(s_out)])
        out = tmp_path / "g.svg"
        assert main(["graph", "--matrix", str(s_out), "--direction", "forward",
                     "--format", "svg", "--out", str(out)]) == 0
        assert out.read_text().count("<circle") == 8

    def test_retro_matrix_needs_bubbles(self, tmp_path):
        s_out = tmp_path / "s.json"
        main(["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
              "--out", str(s_out)])
        assert main(["graph", "--matrix", str(s_out),
                     "--direction", "retro"]) == 2
        v_out = tmp_path / "v.json"
        main(["repr", "--angles", "0.4,1.1,0.3", "--kind", "dw-qubit",
              "--out", str(v_out)])
        out = tmp_path / "g.dot"
        assert main(["graph", "--matrix", str(s_out), "--bubbles", str(v_out),
                     "--direction", "retro", "--out", str(out)]) == 0


    def test_retro_custom_rep_morphs_the_adjoint(self, tmp_path):
        # a custom frame file: the adjoint comes from the frame Gram, and the
        # recovery is held to the oracle gate before it is drawn
        out = tmp_path / "g.dot"
        assert main(["graph", "--builtin", "half_swap", "--ancilla", "1",
                     "--frame", str(custom_sic_file(tmp_path)),
                     "--angles", "0.4,1.1,0.3", "--direction", "retro",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph")


class TestOracleGate:
    # the README's near-pure prior: its prior has eigenvalues near 1e-15,
    # which both sides cut at the same rank threshold, so every command
    # that emits its recovery meets the 1e-8 gate
    NEAR_PURE = ["--builtin", "half_swap", "--ancilla", "1", "--kind",
                 "dw-qubit", "--angles", "1.5707963,1.5707963,0"]

    @pytest.mark.parametrize("command", [
        ["petz"], ["compare"], ["graph", "--direction", "retro"]])
    def test_near_pure_prior_meets_the_gate(self, command, tmp_path):
        out = tmp_path / "out"
        assert main(command + self.NEAR_PURE + ["--out", str(out)]) == 0
        if command[0] == "graph":
            assert out.read_text().startswith("digraph")
            return
        doc = read_json(out)
        gate = doc["meta"] if command[0] == "petz" else doc
        assert gate["oracle_tol"] == 1e-8
        assert gate["oracle_deviation"] <= 1e-8

    def test_regularized_three_qubit_recovery_meets_the_gate(self, tmp_path):
        # a pure prior through a Haar-random unitary leaves a pure
        # posterior; the regularized recovery is held to the same 1e-8 gate
        rng = np.random.default_rng(0)
        u = hb.random_unitary(rng, 8)
        prior = hb.projector(hb.random_unitary(rng, 8)[:, 0])
        channel, state = tmp_path / "channel.json", tmp_path / "prior.json"
        channel.write_text(json.dumps(
            {"kind": "kraus", "kraus": [encode_complex_matrix(u)]}))
        state.write_text(json.dumps(
            {"kind": "matrix", "matrix": encode_complex_matrix(prior)}))
        out = tmp_path / "petz.json"
        assert main(["petz", "--kind", "dw-qubits:3", "--channel", str(channel),
                     "--prior", str(state), "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["eps_used"] == 1e-5 and meta["converged"]
        assert meta["oracle_deviation"] <= meta["oracle_tol"] == 1e-8


def imported_modules(path):
    """Absolute names of the modules (and the names in them) that a qbret
    source file imports, relative imports resolved against the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qbret" if node.level else None,
                                          node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


class TestImportCost:
    def test_no_module_imports_scipy(self):
        # scipy is a test-only dependency: the package runs on numpy alone
        modules = sorted(pathlib.Path(qbret.__file__).parent.glob("*.py"))
        assert len(modules) >= 9
        for path in modules:
            names = list(imported_modules(path))
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name

    def test_qprcore_imports_nothing_from_hilbert(self):
        # the recovery and its adjoint are computed from quasiprobability
        # data alone; the Hilbert side is only the oracle
        path = pathlib.Path(qbret.__file__).parent / "qprcore.py"
        names = list(imported_modules(path))
        assert "qbret.errors" in names and "qbret.frames" in names
        assert not any(n == "qbret.hilbert" or n.startswith("qbret.hilbert.")
                       for n in names)

    def test_sic_petz_loads_no_scipy(self, tmp_path):
        # no qbret module imports scipy; a fresh interpreter, since this
        # one has it
        out = tmp_path / "petz.json"
        argv = ["petz", "--builtin", "hadamard", "--kind", "sic-qubit",
                "--angles", "0.4,1.1,0.3", "--out", str(out)]
        code = ("import json, sys\n"
                "from qbret.cli import main\n"
                f"rc = main({argv!r})\n"
                "print(json.dumps([rc, sorted(m for m in sys.modules\n"
                "                             if m.split('.')[0] == 'scipy')]))")
        src = os.path.dirname(os.path.dirname(qbret.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == [0, []]
        assert read_json(out)["meta"]["oracle_deviation"] < 1e-8


class TestExitCodes:
    def test_unknown_builtin(self):
        assert main(["repr", "--builtin", "teleport", "--kind", "dw-qubit"]) == 2

    def test_missing_file(self):
        assert main(["repr", "--channel", "/nonexistent.json",
                     "--kind", "dw-qubit"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["repr", "--channel", str(bad), "--kind", "dw-qubit"]) == 2

    def test_bad_angles(self):
        assert main(["repr", "--angles", "1,2", "--kind", "dw-qubit"]) == 2

    def test_dilation_missing_field(self, tmp_path):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({"kind": "dilation", "U": [[[1.0, 0.0]]]}))
        assert main(["repr", "--channel", str(ch), "--kind", "dw-qubit"]) == 2

    def test_non_object_json(self, tmp_path):
        ch = tmp_path / "ch.json"
        ch.write_text("[1, 2, 3]")
        assert main(["repr", "--channel", str(ch), "--kind", "dw-qubit"]) == 2
