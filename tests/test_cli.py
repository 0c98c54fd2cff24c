import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qbret
from qbret import errors
from qbret.cli import _COMMANDS, build_parser, main, qpr_object_dict
from qbret import graphs as gr
from qbret import hilbert as hb
from qbret import qprcore as qp
from qbret.frames import (
    build_dw_qubit,
    build_sic_qubit,
    encode_complex_matrix,
    frame_to_dict,
    structure_coeffs,
)
from qbret.matcore import DEFAULT_TOL, ORACLE_TOL, max_abs

SQ3 = np.sqrt(3.0)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def matrix_of(doc):
    return np.array(doc["entries"]).reshape(doc["shape"])


def half_swap_plus_dw():
    """The library's channel matrix, prior vector and recovery for the
    half-SWAP (|1> ancilla) at the |+> prior on dw-qubit; `qbret verify`
    holds them to their closed forms."""
    f, g = build_dw_qubit()
    s = qp.channel_to_qpr(hb.builtin_channel("half_swap"), f, g)
    v = qp.state_to_qpr(hb.projector(hb.KET_PLUS), f)
    return s, v, qp.petz_qpr(s, v, structure_coeffs(f, g)).matrix


def custom_sic_file(tmp_path):
    """The SIC tetrahedron saved with the claim `custom`, which names the
    general rules and is never false: it loads with its derived kind sp,
    whose adjoint comes from the frame Gram as every non-nq frame's does."""
    doc = frame_to_dict(build_sic_qubit()[0])
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

    def test_sic_square_document_recovers_through_the_gate(self, tmp_path):
        # the document of sic-qubits:2 loads as a custom single-factor frame
        out, petz = tmp_path / "frame.json", tmp_path / "petz.json"
        assert main(["frame", "--kind", "sic-qubits:2", "--out", str(out)]) == 0
        doc = read_json(out)
        assert (doc["kind"], doc["name"], len(doc["F"])) == ("custom", "sic-qubits:2", 16)
        ch, prior = tmp_path / "ch.json", tmp_path / "prior.json"
        ch.write_text(json.dumps({"kind": "kraus", "kraus": [
            encode_complex_matrix(np.kron(hb.builtin_gates()["hadamard"], np.eye(2)))]}))
        prior.write_text(json.dumps({"kind": "matrix", "matrix": encode_complex_matrix(
            hb.random_density(np.random.default_rng(0), 4))}))
        assert main(["petz", "--channel", str(ch), "--frame", str(out),
                     "--prior", str(prior), "--out", str(petz)]) == 0
        meta = read_json(petz)["meta"]
        assert meta["oracle_deviation"] <= meta["oracle_tol"]

    def test_sic_qubit_powers_are_refused_by_name(self, tmp_path, monkeypatch, capsys):
        # sic-qubits:6 by its document, and a huge count by its operator
        # stack, both before the build
        def build(*_):
            raise AssertionError("a builder ran")
        monkeypatch.setitem(qbret.frames.BUILTIN_FRAMES, "sic-qubits:N",
                            (build, qbret.frames._qubits_dimension))
        out = tmp_path / "frame.json"
        for count, message in ((6, "document of frame sic-qubits:6"),
                               (10 ** 5, "sic-qubits:100000 has an operator stack")):
            assert main(["frame", "--kind", f"sic-qubits:{count}", "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
        assert not out.exists()

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
        doc = frame_to_dict(f)
        doc["F"] = [[[[1.05 * z[0], 1.05 * z[1]] for z in row] for row in m]
                    for m in doc["F"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["frame", "--frame", str(bad)]) == 1

    def test_unknown_kind_exits_2(self, capsys):
        assert main(["frame", "--kind", "heptagon"]) == 2
        # the message lists the one table of built-in names
        err = capsys.readouterr().err
        assert all(name in err for name in qbret.frames.BUILTIN_FRAMES)

    def test_kind_help_lists_the_builtin_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["frame", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert ", ".join(qbret.frames.BUILTIN_FRAMES) in help_text

    def test_oversized_document_is_refused_before_the_build(self, tmp_path,
                                                           monkeypatch, capsys):
        # dw-qubits:6 would build a 268 MB stack and its dual only to refuse them
        def build(*_):
            raise AssertionError("a builder ran")
        monkeypatch.setitem(qbret.frames.BUILTIN_FRAMES, "dw-qubits:N",
                            (build, qbret.frames._qubits_dimension))
        out = tmp_path / "frame.json"
        assert main(["frame", "--kind", "dw-qubits:6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "document of frame dw-qubits:6" in err
        assert f"over {qbret.frames.MAX_TENSOR_BYTES}" in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["abc", "0", "-1", ""])
    def test_bad_qubit_count_exits_2(self, count, capsys):
        assert main(["frame", "--kind", f"dw-qubits:{count}"]) == 2
        assert "N >= 1" in capsys.readouterr().err

    def test_frame_over_the_size_limit_exits_1(self, monkeypatch, capsys):
        # dw-qubits:3 stacks 64 KiB of operators; the limit is lowered so
        # that no test allocates a large stack
        import qbret.frames
        monkeypatch.setattr(qbret.frames, "MAX_TENSOR_BYTES", 2 ** 15)
        assert main(["frame", "--kind", "dw-qubits:3"]) == 1
        assert "operator stack" in capsys.readouterr().err

    def test_frame_document_over_the_size_limit_exits_1(self, monkeypatch, capsys,
                                                       tmp_path):
        # at the lowered limit dw-qubits:2 would build its 4 KiB operator
        # stacks, but its document of 4 n d^2 = 1024 floats would take 102400
        # bytes
        import qbret.frames
        monkeypatch.setattr(qbret.frames, "MAX_TENSOR_BYTES", 2 ** 15)
        checked = []
        monkeypatch.setattr(qbret.frames, "validate_frame",
                            lambda *args: checked.append(args))
        out = tmp_path / "frame.json"
        assert main(["frame", "--kind", "dw-qubits:2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "document" in err
        assert checked == [] and not out.exists()
        monkeypatch.undo()
        assert main(["frame", "--kind", "dw-qubit", "--out", str(out)]) == 0

    @pytest.mark.parametrize("qubits", [5, 6])
    def test_document_bound_admits_five_qubits_refuses_six(self, qubits, monkeypatch):
        # a stand-in of dw-qubits:N's size, so that no test builds one; the
        # command validates a frame only if it would write its document
        import qbret.cli
        d = 2 ** qubits
        frame = qbret.frames.Frame(name=f"dw-qubits:{qubits}", d=d, labels=(),
                                   ops=np.zeros((0, d, d)))
        monkeypatch.setattr(qbret.cli, "resolve_frame", lambda args, tol: (frame, None))
        reached = []

        def validate(*args):
            reached.append(args)
            raise qbret.QbretError("stand-in frame")

        monkeypatch.setattr(qbret.frames, "validate_frame", validate)
        assert main(["frame", "--kind", f"dw-qubits:{qubits}"]) == 1
        assert len(reached) == (qubits == 5)

    @pytest.mark.parametrize("count", [10 ** 5, 10 ** 9])
    def test_huge_qubit_count_exits_1_at_once(self, count, capsys):
        # refused from N alone, before a part is built or d is formed
        assert main(["frame", "--kind", f"dw-qubits:{count}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"dw-qubits:{count}" in err
        assert str(qbret.frames.MAX_TENSOR_BYTES) in err

    def test_tolerance_option(self, tmp_path):
        f, g = build_dw_qubit()
        doc = frame_to_dict(f)
        doc["F"] = [[[[(1 + 1e-6) * z[0], (1 + 1e-6) * z[1]] for z in row]
                     for row in m] for m in doc["F"]]
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert main(["frame", "--frame", str(path)]) == 1
        assert main(["--tol", "1e-3", "frame", "--frame", str(path),
                     "--out", str(tmp_path / "ok.json")]) == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3", "0", "abc"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        # at nan every check would fail with a misleading message, at inf
        # every check would pass
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "frame", "--kind", "dw-qubit"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


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

    def test_single_qubit_builtin_refuses_ancilla(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        assert main(["repr", "--builtin", "hadamard", "--ancilla", "1",
                     "--kind", "dw-qubit", "--out", str(out)]) == 1
        assert not out.exists()
        assert "hadamard" in capsys.readouterr().err

    def test_single_qubit_builtin_document_refuses_ancilla(self, tmp_path):
        source, out = tmp_path / "ch.json", tmp_path / "h.json"
        source.write_text(json.dumps({"kind": "builtin", "name": "hadamard",
                                      "ancilla": "1"}))
        assert main(["repr", "--channel", str(source), "--kind", "dw-qubit",
                     "--out", str(out)]) == 1
        assert not out.exists()

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
        assert max_abs(matrix_of(doc) - half_swap_plus_dw()[2]) < 1e-12
        assert doc["meta"]["oracle_checked"] is True
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

    def test_matrix_mode_is_gated(self, tmp_path, capsys):
        # the recovery of the given matrix, held to the oracle of the
        # channel the matrix stands for
        s_out = tmp_path / "s.json"
        main(["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
              "--out", str(s_out)])
        p_out = tmp_path / "petz.json"
        capsys.readouterr()
        assert main(["petz", "--matrix", str(s_out), "--kind", "dw-qubit",
                     "--angles", "0.4,1.1,0.3", "--out", str(p_out)]) == 0
        assert capsys.readouterr().err == ""
        doc = read_json(p_out)
        meta = doc["meta"]
        assert meta["oracle_checked"] is True
        assert meta["oracle_deviation"] <= meta["oracle_tol"] == ORACLE_TOL
        assert meta["eps_used"] == 0.0 and meta["root_routes"] == ["eigh", "eigh"]
        f, g = build_dw_qubit()
        s = matrix_of(read_json(s_out))
        v = qp.state_to_qpr(hb.qubit_state(0.4, 1.1, 0.3), f)
        assert np.array_equal(matrix_of(doc), qp.petz_qpr(s, v, structure_coeffs(f, g)).matrix)

    def test_singular_posterior_reports_regularization(self, tmp_path):
        out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--angles", "0,0,0",
                     "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["eps_used"] > 0
        assert len(meta["root_routes"]) == 4 and "support_route_dev" not in meta

    def test_replacement_channel_projects_on_the_support(self, tmp_path):
        # a full swap replaces every state by the pure ancilla, so the
        # posterior keeps its kernel after regularization; the recovery is
        # right, and it is reported as support-projected
        out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "full_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--angles", "0.4,1.1,0.3",
                     "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["support_projected"] is True
        assert len(meta["root_routes"]) == 4
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
        doc = frame_to_dict(f)
        doc["kind"] = "custom"
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "petz.json"
        assert main(["petz", "--builtin", "hadamard", "--frame", str(path),
                     "--angles", "0.4,1.1,0.3", "--out", str(out)]) == 0
        assert read_json(out)["meta"]["oracle_deviation"] < 1e-8

    def test_noncanonical_frame_file_with_nonunital_channel(self, tmp_path):
        # a blend of the two canonical frames, saved as a custom frame file
        # with its Gram-inverse dual; the recovery of a non-unital channel
        # then takes the Gram-rule adjoint and must still agree with the oracle
        from qbret.frames import Frame
        dw_f, _ = build_dw_qubit()
        sp_f, _ = build_sic_qubit()
        ops = 0.6 * dw_f.ops + 0.4 * sp_f.ops
        gram = np.einsum("jab,kba->jk", ops, ops).real
        dual_ops = np.einsum("jk,kab->jab", np.linalg.inv(gram), ops)
        doc = frame_to_dict(
            Frame(name="blend", d=2, labels=tuple(range(4)), ops=ops))
        doc["G"] = encode_complex_matrix(dual_ops)
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
        s, v, _ = half_swap_plus_dw()
        assert max_abs(np.array(doc["classical"]) - qp.classical_bayes(s, v)) < 1e-12

    def test_reports_oracle_deviation(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "sic-qubit", "--angles", "0.4,1.1,0.3",
                     "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["oracle_checked"] is True
        assert doc["oracle_tol"] == 1e-8
        assert doc["oracle_deviation"] < 1e-8

    def test_two_qubit_frame(self, tmp_path):
        # a dilation and a matrix prior on d = 4: the scan runs over the
        # basis kets and (|j> + |k>)/sqrt2, (|j> + i|k>)/sqrt2 for j < k
        rng = np.random.default_rng(2)
        channel, state = tmp_path / "channel.json", tmp_path / "prior.json"
        channel.write_text(json.dumps({
            "kind": "dilation",
            "U": encode_complex_matrix(hb.random_unitary(rng, 8)),
            "beta": encode_complex_matrix(np.diag([0.7, 0.3]))}))
        state.write_text(json.dumps({
            "kind": "matrix",
            "matrix": encode_complex_matrix(hb.random_density(rng, 4))}))
        out = tmp_path / "cmp.json"
        assert main(["compare", "--kind", "dw-qubits:2", "--channel",
                     str(channel), "--prior", str(state),
                     "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["oracle_deviation"] <= doc["oracle_tol"]
        states = ["ket0", "ket1", "ket2", "ket3"] + [
            f"{name}_{j}_{k}" for j in range(4) for k in range(j + 1, 4)
            for name in ("plus", "plus_i")]
        scan = doc["born_scan_classical"]
        assert len(scan) == 16 * 17
        assert [row["state"] for row in scan[::17]] == states
        assert [row["effect"] for row in scan[:17]] == states + ["identity"]
        # the identity effect sums a column of the unit-column-sum matrix
        for row in scan[16::17]:
            assert abs(row["value"] - 1.0) < 1e-12

    def test_qubit_scan_set(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--builtin", "hadamard", "--kind", "sic-qubit",
                     "--angles", "0.4,1.1,0.3", "--out", str(out)]) == 0
        scan = read_json(out)["born_scan_classical"]
        names = ["ket0", "ket1", "plus", "minus", "ket_i", "ket_minus_i"]
        assert [row["state"] for row in scan[::7]] == names
        assert [row["effect"] for row in scan[:7]] == names + ["identity"]

    def test_rotation_flags_born_violation(self, tmp_path):
        u = 0.5j * np.array([[SQ3, -1], [1, SQ3]])
        ch = tmp_path / "rot.json"
        ch.write_text(json.dumps({
            "kind": "kraus", "d": 2,
            "kraus": [[[[z.real, z.imag] for z in row] for row in u]]}))
        plus = hb.projector(hb.KET_PLUS)
        named = {"plus": plus, "ket0": hb.projector(hb.KET0)}
        # `qbret verify` holds both library values to their closed forms,
        # one above 1 and one below 0; `flagged` indexes the scan rows
        # outside [0, 1]
        for kind, (f, g), (state, effect) in (
                ("dw-qubit", build_dw_qubit(), ("plus", "ket0")),
                ("sic-qubit", build_sic_qubit(), ("ket0", "plus"))):
            out = tmp_path / f"cmp_{kind}.json"
            assert main(["compare", "--channel", str(ch), "--kind", kind,
                         "--angles", f"{np.pi / 2},{np.pi / 2},0",
                         "--out", str(out)]) == 0
            doc = read_json(out)
            scan = doc["born_scan_classical"]
            assert doc["flagged"] == [i for i, row in enumerate(scan)
                                      if not row["valid"]]
            flagged = {(scan[i]["state"], scan[i]["effect"]): scan[i]["value"]
                       for i in doc["flagged"]}
            scl = qp.classical_bayes(
                qp.channel_to_qpr(hb.KrausChannel.from_unitary(u), f, g),
                qp.state_to_qpr(plus, f))
            value = qp.born(scl @ qp.state_to_qpr(named[state], f),
                            qp.povm_to_qpr(named[effect], g))
            assert abs(flagged[(state, effect)] - value) < 1e-12

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

    @pytest.mark.parametrize("command", ["graph", "petz"])
    @pytest.mark.parametrize("shape", [[], [0, 0], [2, 2, 1], [2, 3]],
                             ids=["scalar", "empty", "three-axes", "rectangular"])
    def test_matrix_that_is_not_a_nonempty_square_exits_1(self, command, shape,
                                                          tmp_path, capsys):
        # graph formed its default bubbles S @ uniform from these first, and
        # ended in an IndexError, ZeroDivisionError or ValueError traceback;
        # it now refuses them as petz does
        path, out = tmp_path / "s.json", tmp_path / "out"
        path.write_text(json.dumps(qpr_object_dict(
            np.full(shape, 0.5), "unknown", "channel-matrix", {})))
        argv = {"graph": [], "petz": ["--kind", "dw-qubit", "--angles", "0.4,1.1,0.3"]}
        assert main([command, "--matrix", str(path), *argv[command],
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("entry, bubbles, fmt", [
        (float("nan"), None, "dot"), (float("inf"), None, "svg"),
        (0.5, [0.5, float("nan")], "dot")], ids=["nan-weight", "inf-weight", "nan-bubble"])
    def test_non_finite_weight_or_bubble_exits_1(self, entry, bubbles, fmt, tmp_path,
                                                 capsys):
        # a NaN edge was dropped silently, an infinite one drew every finite
        # edge in the colour of zero, and a NaN bubble the full positive colour
        s_path, v_path, out = tmp_path / "s.json", tmp_path / "v.json", tmp_path / "out"
        s_path.write_text(json.dumps(qpr_object_dict(
            np.array([[0.5, entry], [0.5, 1.0]]), "dw-qubit", "channel-matrix", {})))
        argv = ["graph", "--matrix", str(s_path), "--format", fmt, "--out", str(out)]
        if bubbles:
            v_path.write_text(json.dumps(qpr_object_dict(
                np.array(bubbles), "dw-qubit", "state-vector", {})))
            argv += ["--bubbles", str(v_path)]
        assert main(argv) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


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
        assert meta["eps_used"] == 1e-5 and len(meta["root_routes"]) == 4
        assert meta["oracle_deviation"] <= meta["oracle_tol"] == 1e-8

    def test_meta_names_the_root_routes(self, tmp_path):
        # a pure dw-qubits:3 prior through a Haar dilation with a mixed
        # ancilla: the prior, the support posterior and the mixed prior
        # take Lanczos runs, the regularized posterior fails its
        # certificate and takes eigh
        rng = np.random.default_rng(0)
        u = hb.random_unitary(rng, 16)
        prior = hb.projector(hb.random_unitary(rng, 8)[:, 0])
        channel, state = tmp_path / "channel.json", tmp_path / "prior.json"
        channel.write_text(json.dumps(
            {"kind": "dilation", "U": encode_complex_matrix(u),
             "beta": encode_complex_matrix(np.diag([0.7, 0.3]))}))
        state.write_text(json.dumps(
            {"kind": "matrix", "matrix": encode_complex_matrix(prior)}))
        out = tmp_path / "petz.json"
        assert main(["petz", "--kind", "dw-qubits:3", "--channel", str(channel),
                     "--prior", str(state), "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["root_routes"] == ["lanczos"] * 3 + ["eigh"]
        assert meta["oracle_deviation"] <= meta["oracle_tol"]
        assert main(["petz", *self.SIC_HALF_SWAP, "--out", str(out)]) == 0
        assert read_json(out)["meta"]["root_routes"] == ["eigh", "eigh"]

    def test_loose_tol_keeps_the_frames_gram_roots(self, near_dw, tmp_path):
        # near-dw is custom, 4.0e-7 off the nq form: a caller's --tol 1e-6
        # took its Gram for a multiple of 1, and the transpose adjoint
        # missed the oracle by 3.5e-7 (exit 1)
        frame = tmp_path / "near.json"
        frame.write_text(json.dumps(frame_to_dict(near_dw)))
        argv = ["petz", "--frame", str(frame), "--builtin", "half_swap",
                "--ancilla", "1", "--angles", "0.4,1.1,0.3", "--out"]
        loose, default = tmp_path / "loose.json", tmp_path / "default.json"
        assert main(["--tol", "1e-6", *argv, str(loose)]) == 0
        assert main([*argv, str(default)]) == 0
        assert read_json(loose)["meta"]["oracle_deviation"] <= 1e-12
        assert loose.read_bytes() == default.read_bytes()

    GATED = [["petz"], ["compare"], ["graph", "--direction", "retro"]]
    GATED_IDS = ["petz", "compare", "graph-retro"]
    SIC_HALF_SWAP = ["--builtin", "half_swap", "--ancilla", "1", "--kind",
                     "sic-qubit", "--angles", "0.4,1.1,0.3"]

    @pytest.mark.parametrize("command", GATED, ids=GATED_IDS)
    def test_oracle_runs_once(self, command, monkeypatch, tmp_path):
        calls = []
        oracle = hb.petz_hilbert

        def counting(*args, **kwargs):
            calls.append(args)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(hb, "petz_hilbert", counting)
        out = tmp_path / "out"
        assert main(command + self.SIC_HALF_SWAP + ["--out", str(out)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", GATED, ids=GATED_IDS)
    def test_mismatch_exits_one(self, command, monkeypatch, capsys, tmp_path):
        # an oracle built for the maximally mixed prior disagrees with the
        # recovery for the given prior; nothing is written
        oracle = hb.petz_hilbert
        monkeypatch.setattr(hb, "petz_hilbert", lambda channel, prior, **kw:
                            oracle(channel, np.eye(2) / 2, **kw))
        out = tmp_path / "out"
        assert main(command + self.SIC_HALF_SWAP + ["--out", str(out)]) == 1
        assert "oracle" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    # the option groups are shared parent parsers, so one edit reaches
    # several subcommands; every subcommand's options, in one place
    OPTIONS = {
        "frame": "--out --frame --kind",
        "repr": "--out --frame --kind --channel --builtin --ancilla --prior "
                "--angles",
        "petz": "--out --frame --kind --channel --builtin --ancilla --prior "
                "--angles --eps --matrix",
        "verify": "--out --suite --seed --format",
        "compare": "--out --frame --kind --channel --builtin --ancilla "
                   "--prior --angles --eps",
        "graph": "--out --frame --kind --channel --builtin --ancilla --prior "
                 "--angles --eps --matrix --bubbles --direction --cutoff "
                 "--bounds --label-style --format",
    }

    def test_option_strings(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {name: sorted(s for a in p._actions for s in a.option_strings)
                for name, p in sub.choices.items()} == {
            name: sorted(["-h", "--help", *opts.split()])
            for name, opts in self.OPTIONS.items()}

    def test_recovery_defaults(self, tmp_path):
        # --tol, --eps and --label-style have no parser default (a flag is
        # refused when its value is not None), so their defaults are pinned
        # by what a run without them writes
        def output(*argv):
            out = tmp_path / "out.txt"
            assert main([*argv, "--out", str(out)]) == 0
            return out.read_bytes()

        # |0> through the Hadamard: the prior and its posterior are pure, so
        # both recoveries regularize and the classical one at eps itself
        pure = ["--builtin", "hadamard", "--kind", "dw-qubit",
                "--angles", f"{np.pi / 2},0,0"]
        for command in ("petz", "compare"):
            assert output(command, *pure) == output(command, *pure, "--eps", "1e-8")
        assert output("compare", *pure) != output("compare", *pure, "--eps", "1e-6")
        frame = ["frame", "--kind", "dw-qubit"]
        assert output(*frame) == output("--tol", "1e-10", *frame)
        assert output(*frame) != output("--tol", "1e-9", *frame)
        retro = ["graph", "--direction", "retro", "--builtin", "hadamard",
                 "--kind", "dw-qubit", "--angles", ANGLES]
        assert output(*retro) == output(*retro, "--label-style", "name")
        assert output(*retro) != output(*retro, "--label-style", "index")
        args = build_parser().parse_args(["graph"])
        assert args.cutoff == gr.DEFAULT_CUTOFF and args.bounds is None


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


def private_argparse_names(path):
    """The attributes of the argparse module whose names start with "_"
    that a source file reads."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "argparse"):
            yield node.attr


class TestImportCost:
    def test_no_module_imports_scipy(self):
        # scipy is a test-only dependency: the package runs on numpy alone
        modules = sorted(pathlib.Path(qbret.__file__).parent.glob("*.py"))
        assert len(modules) >= 9
        for path in modules:
            names = list(imported_modules(path))
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name

    def test_cli_uses_no_private_argparse_name(self):
        # the parser is plain argparse: an option is on the command line
        # when its value is not None, with no action subclassing argparse's
        # private classes, whose behaviour a Python release may change
        path = pathlib.Path(qbret.__file__).parent / "cli.py"
        names = list(imported_modules(path))
        assert "argparse" in names
        assert not [n for n in names if n.startswith("argparse._")]
        assert list(private_argparse_names(path)) == []

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
    @pytest.mark.parametrize("option, value", [
        ("--bounds", "-1"), ("--bounds", "0"), ("--bounds", "nan"),
        ("--bounds", "inf"), ("--bounds", "abc"), ("--cutoff", "-1e-3"),
        ("--cutoff", "nan"), ("--cutoff", "inf"), ("--cutoff", "-inf")])
    @pytest.mark.parametrize("fmt", ["dot", "svg"])
    def test_graph_scale_must_be_finite(self, option, value, fmt, tmp_path, capsys):
        # a negative bound drew negative stroke widths, a NaN one NaN widths
        # and legend labels, and a NaN cutoff dropped every edge
        out = tmp_path / f"g.{fmt}"
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--builtin", "half_swap", "--ancilla", "1",
                  "--kind", "dw-qubit", f"{option}={value}", "--format", fmt,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err and not out.exists()

    def test_graph_scale_edges(self, tmp_path):
        # a zero cutoff keeps every nonzero edge; a tiny bound saturates the
        # colors but is still a scale
        out = tmp_path / "g.dot"
        assert main(["graph", "--builtin", "identity", "--kind", "dw-qubit",
                     "--cutoff", "0", "--bounds", "1e-300", "--out", str(out)]) == 0
        assert out.read_text().count("->") == 4

    @pytest.mark.parametrize("seed", ["-1", "-20240", "1.5", "abc"])
    def test_verify_seed_must_be_a_nonnegative_integer(self, seed, tmp_path, capsys):
        # a negative seed reached np.random.default_rng, whose ValueError
        # escaped as a traceback
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "classical", f"--seed={seed}",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err and not out.exists()

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

    @pytest.mark.parametrize("angles", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_angles_repr(self, angles, capsys):
        assert main(["repr", "--kind", "dw-qubit", "--angles", angles]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("angles", ["inf,0,0", "0,nan,0"])
    def test_non_finite_angles_petz(self, angles, capsys):
        assert main(["petz", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--angles", angles]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["2", "nan", "inf", "-1"])
    def test_eps_outside_the_unit_interval(self, eps, capsys):
        # at weight 2 the pure prior would mix to its orthogonal state, which
        # the oracle shares, so the gate alone cannot catch it
        with pytest.raises(SystemExit) as exc:
            main(["petz", "--kind", "dw-qubit", "--builtin", "hadamard",
                  "--angles", "1.5707963267948966,0.7,0.3", "--eps", eps])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", [float("nan"), "inf", "pi"])
    def test_bad_qubit_params(self, omega, tmp_path, capsys):
        state = tmp_path / "prior.json"
        state.write_text(json.dumps({"kind": "qubit_params", "omega": omega,
                                     "theta": 0.0, "phi": 0.0}))
        assert main(["repr", "--kind", "dw-qubit", "--prior", str(state)]) == 2
        assert "angle" in capsys.readouterr().err

    def test_dilation_missing_field(self, tmp_path):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({"kind": "dilation", "U": [[[1.0, 0.0]]]}))
        assert main(["repr", "--channel", str(ch), "--kind", "dw-qubit"]) == 2

    def test_non_square_dilation_unitary_exits_1(self, tmp_path, capsys):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({
            "kind": "dilation", "U": encode_complex_matrix(np.eye(2, 3)),
            "beta": encode_complex_matrix(np.eye(1))}))
        assert main(["petz", "--channel", str(ch), "--kind", "dw-qubit",
                     "--angles", "0.4,1.1,0.3"]) == 1
        assert "square" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path):
        ch = tmp_path / "ch.json"
        ch.write_text("[1, 2, 3]")
        assert main(["repr", "--channel", str(ch), "--kind", "dw-qubit"]) == 2

    @pytest.mark.parametrize("doc", [
        {"d": "two", "F": [], "G": []},
        {"d": 2, "F": 5, "G": []},
        {"d": 0, "F": [], "G": []},
        {**frame_to_dict(build_dw_qubit()[0]), "d": 2.0},
        {**frame_to_dict(build_dw_qubit()[0]), "labels": 5},
        {**frame_to_dict(build_dw_qubit()[0]), "labels": [0, 1]},
    ], ids=["d-string", "F-number", "d-zero", "d-float", "labels-number",
            "labels-short"])
    def test_malformed_frame_document(self, doc, tmp_path, capsys):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(doc))
        assert main(["frame", "--frame", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, argv", [
        ("--angles", ["--channel", "{ch}", "--angles", "0.4,1.1,0.3"]),
        ("--builtin", ["--builtin", "hadamard", "--prior", "{prior}"]),
        ("--ancilla", ["--channel", "{ch}", "--prior", "{prior}", "--ancilla", "plus"]),
    ], ids=["angles", "builtin", "ancilla"])
    @pytest.mark.parametrize("command", ["repr", "petz", "compare", "graph"])
    def test_qubit_shorthand_on_a_wider_frame(self, command, flag, argv, tmp_path,
                                              capsys):
        # the channel and prior documents fit d = 4, so the qubit-only flag
        # is the one fault; it exited 1 as a dimension mismatch, or was
        # ignored
        files = {"ch": tmp_path / "ch.json", "prior": tmp_path / "prior.json"}
        files["ch"].write_text(json.dumps(
            {"kind": "kraus", "kraus": [encode_complex_matrix(np.eye(4))]}))
        files["prior"].write_text(json.dumps(
            {"kind": "matrix", "matrix": encode_complex_matrix(np.eye(4) / 4)}))
        out = tmp_path / "out.json"
        assert main([command, "--kind", "dw-qubits:2",
                     *(a.format(**files) for a in argv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "qubit-only" in err and not out.exists()

    @pytest.mark.parametrize("kraus", [5, {"a": 1}, []],
                             ids=["number", "object", "empty"])
    def test_malformed_kraus_document(self, kraus, tmp_path, capsys):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({"kind": "kraus", "kraus": kraus}))
        assert main(["repr", "--channel", str(ch), "--kind", "dw-qubit"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _with_entry(encoded, entry):
    """An encoded matrix (or stack) whose first [re, im] pair is `entry`."""
    doc = json.loads(json.dumps(encoded))
    inner = doc
    while isinstance(inner[0][0], list):
        inner = inner[0]
    inner[0] = entry
    return doc


_PURE_0 = encode_complex_matrix(np.diag([1.0, 0.0]))
_HALF_SWAP_U = encode_complex_matrix(hb.builtin_gates()["half_swap"])


class TestMalformedNumbers:
    """Every numeric array of a document passes one decoder: a malformed one
    exits 2 with an `error:` line and writes no output file."""

    @staticmethod
    def _exits_2(tmp_path, capsys, argv, **docs):
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("matrix", [
        _with_entry(_PURE_0, [1.0, 0.0, 0.0]),
        [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
        [[[z] for z in row] for row in _PURE_0],
        [_PURE_0[0], _PURE_0[1][:1]],
    ], ids=["one-triple", "all-triples", "over-nested", "ragged"])
    def test_state_matrix(self, matrix, tmp_path, capsys):
        self._exits_2(tmp_path, capsys,
                      ["repr", "--kind", "dw-qubit", "--prior", str(tmp_path / "prior.json")],
                      prior={"kind": "matrix", "matrix": matrix})

    def test_qubit_params_of_numeric_strings(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys,
                      ["repr", "--kind", "dw-qubit", "--prior", str(tmp_path / "prior.json")],
                      prior={"kind": "qubit_params", "omega": "0.4", "theta": 1.1,
                             "phi": 0.3})

    def test_frame_operator_with_a_triple(self, tmp_path, capsys):
        doc = frame_to_dict(build_dw_qubit()[0])
        doc["F"] = _with_entry(doc["F"], [0.5, 0.0, 7.0])
        self._exits_2(tmp_path, capsys, ["frame", "--frame", str(tmp_path / "f.json")],
                      f=doc)

    def test_state_matrix_with_a_bool(self, tmp_path, capsys):
        # numpy reads [true, 0] among numbers as [1, 0]: this was |0><0|
        matrix = [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]
        self._exits_2(tmp_path, capsys,
                      ["repr", "--kind", "dw-qubit", "--prior", str(tmp_path / "prior.json")],
                      prior={"kind": "matrix", "matrix": matrix})

    def test_frame_operator_with_a_bool(self, tmp_path, capsys):
        # false as the zero imaginary part of a diagonal entry: the frame
        # was read unchanged and validated
        doc = frame_to_dict(build_dw_qubit()[0])
        doc["F"][0][0][0][1] = False
        self._exits_2(tmp_path, capsys, ["frame", "--frame", str(tmp_path / "f.json")],
                      f=doc)

    @pytest.mark.parametrize("command", ["graph", "petz"])
    @pytest.mark.parametrize("field, value", [
        ("entries", [str(x) for x in np.eye(4).reshape(-1)]),
        ("shape", [-1, 4]),
        ("shape", [4.7, 4]),
        ("shape", [4.7]),
        ("shape", ["4", "4"]),
    ], ids=["entries-strings", "shape-negative", "shape-float", "shape-float-only",
            "shape-strings"])
    def test_qpr_object(self, command, field, value, tmp_path, capsys):
        s, _, _ = half_swap_plus_dw()
        doc = qpr_object_dict(s, "dw-qubit", "channel-matrix", {})
        doc[field] = value
        argv = [command, "--matrix", str(tmp_path / "s.json")]
        if command == "petz":
            argv += ["--kind", "dw-qubit", "--angles", "0.4,1.1,0.3"]
        self._exits_2(tmp_path, capsys, argv, s=doc)

    @pytest.mark.parametrize("ancilla", [5, True, [[1, 0], [0, 0]]],
                             ids=["number", "bool", "real-matrix"])
    @pytest.mark.parametrize("kind", ["builtin", "dilation"])
    def test_ancilla(self, kind, ancilla, tmp_path, capsys):
        doc = ({"kind": "builtin", "name": "half_swap", "ancilla": ancilla}
               if kind == "builtin" else
               {"kind": "dilation", "U": _HALF_SWAP_U, "beta": ancilla})
        self._exits_2(tmp_path, capsys,
                      ["repr", "--kind", "dw-qubit", "--channel", str(tmp_path / "ch.json")],
                      ch=doc)

    def test_kraus_list_of_mixed_shapes(self, tmp_path, capsys):
        kraus = [encode_complex_matrix(np.eye(2) / np.sqrt(2)),
                 encode_complex_matrix(np.eye(3) / np.sqrt(2))]
        self._exits_2(tmp_path, capsys,
                      ["repr", "--kind", "dw-qubit", "--channel", str(tmp_path / "ch.json")],
                      ch={"kind": "kraus", "kraus": kraus})


class TestAncillaForms:
    """A builtin's `ancilla` and a dilation's `beta` take the same forms: a
    state document, an [re, im] matrix or a state spec string."""

    FORMS = {"spec": "1",
             "matrix": encode_complex_matrix(np.diag([0.0, 1.0])),
             "document": {"kind": "matrix",
                          "matrix": encode_complex_matrix(np.diag([0.0, 1.0]))}}

    @pytest.mark.parametrize("form", list(FORMS))
    @pytest.mark.parametrize("kind", ["builtin", "dilation"])
    def test_every_form_gives_the_ancilla_option_channel(self, kind, form, tmp_path):
        expected = tmp_path / "expected.json"
        assert main(["repr", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "sic-qubit", "--out", str(expected)]) == 0
        ancilla = self.FORMS[form]
        doc = ({"kind": "builtin", "name": "half_swap", "ancilla": ancilla}
               if kind == "builtin" else
               {"kind": "dilation", "U": _HALF_SWAP_U, "beta": ancilla})
        source, out = tmp_path / "ch.json", tmp_path / "s.json"
        source.write_text(json.dumps(doc))
        assert main(["repr", "--channel", str(source), "--kind", "sic-qubit",
                     "--out", str(out)]) == 0
        np.testing.assert_allclose(matrix_of(read_json(out)),
                                   matrix_of(read_json(expected)), atol=1e-14)


def _nan_corner(m):
    """`m` encoded with NaN as its [0, 0] entry."""
    m = np.array(m, dtype=complex)
    m[0, 0] = np.nan
    return encode_complex_matrix(m)


_NAN_DIAG = _nan_corner(np.diag([0.0, 1.0]))


class TestInvalidNumbers:
    """A NaN makes every `dev > tol` test false, so each validation asks
    `not dev <= tol`; a non-finite or non-state input exits 1 and writes
    no output file."""

    CHANNELS = {
        "kraus-nan": {"kind": "kraus", "kraus": [_NAN_DIAG]},
        "dilation-nan-unitary": {"kind": "dilation", "U": _nan_corner(np.eye(4)),
                                 "beta": encode_complex_matrix(np.diag([0.0, 1.0]))},
        "dilation-nan-ancilla": {"kind": "dilation",
                                 "U": encode_complex_matrix(np.eye(4)),
                                 "beta": _NAN_DIAG},
        "dilation-nan-ancilla-doc": {
            "kind": "dilation", "U": encode_complex_matrix(np.eye(4)),
            "beta": {"kind": "matrix", "matrix": _NAN_DIAG}},
    }

    @staticmethod
    def _run(tmp_path, option, doc, command="repr", extra=()):
        source, out = tmp_path / "in.json", tmp_path / "out.json"
        source.write_text(json.dumps(doc))
        code = main([command, option, str(source), "--kind", "dw-qubit",
                     *extra, "--out", str(out)])
        return code, out.exists()

    @pytest.mark.parametrize("name", list(CHANNELS))
    def test_channel_repr(self, name, tmp_path):
        assert self._run(tmp_path, "--channel", self.CHANNELS[name]) == (1, False)

    def test_kraus_petz_names_completeness(self, tmp_path, capsys):
        code, written = self._run(tmp_path, "--channel", self.CHANNELS["kraus-nan"],
                                  "petz", ("--angles", "0.4,1.1,0.3"))
        assert (code, written) == (1, False)
        assert "completeness" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", [_NAN_DIAG,
                                        encode_complex_matrix(np.diag([2.0, 1.0]))],
                             ids=["nan", "trace-3"])
    def test_matrix_prior_repr(self, matrix, tmp_path):
        doc = {"kind": "matrix", "matrix": matrix}
        assert self._run(tmp_path, "--prior", doc) == (1, False)


ANGLES = "0.4,1.1,0.3"


@pytest.fixture
def input_files(tmp_path):
    """Paths of one file of each input kind, as {name: str(path)}: the
    dw-qubit matrix of the Hadamard channel (s), a dw-qubit state vector
    (v), a dw-qubit frame (frame), a qubit Kraus channel (ch) and a qubit
    state (prior)."""
    files = {name: str(tmp_path / f"{name}.json")
             for name in ("s", "v", "frame", "ch", "prior")}
    assert main(["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
                 "--out", files["s"]]) == 0
    assert main(["repr", "--angles", ANGLES, "--kind", "dw-qubit",
                 "--out", files["v"]]) == 0
    assert main(["frame", "--kind", "dw-qubit", "--out", files["frame"]]) == 0
    with open(files["ch"], "w", encoding="utf-8") as fh:
        json.dump({"kind": "kraus", "kraus": [encode_complex_matrix(np.eye(2))]}, fh)
    with open(files["prior"], "w", encoding="utf-8") as fh:
        json.dump({"kind": "matrix", "matrix": encode_complex_matrix(np.eye(2) / 2)}, fh)
    return files


def _exit_code(argv):
    """main's exit code, argparse's usage errors (SystemExit) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _command(argv):
    """The subcommand of argv run without main's error handling, so that
    its typed errors propagate."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, DEFAULT_TOL if args.tol is None else args.tol)


_MATRIX_GRAPH = ["graph", "--matrix", "{s}"]
_MATRIX_PETZ = ["petz", "--matrix", "{s}", "--kind", "dw-qubit", "--angles", ANGLES]
_GATED = ["--kind", "dw-qubit", "--builtin", "hadamard"]


class TestIgnoredFlags:
    """Every input flag the command would ignore is a usage error (exit 2)
    that names it and writes nothing."""

    CASES = {
        "graph-bubbles-forward": ("--bubbles", ["graph", *_GATED, "--bubbles", "{v}"]),
        "graph-bubbles-retro": ("--bubbles", ["graph", *_GATED, "--angles", ANGLES,
                                              "--direction", "retro", "--bubbles", "{v}"]),
        "petz-matrix-channel": ("--channel", [*_MATRIX_PETZ, "--channel", "{ch}"]),
        "petz-matrix-builtin": ("--builtin", [*_MATRIX_PETZ, "--builtin", "hadamard"]),
        "petz-matrix-ancilla": ("--ancilla", [*_MATRIX_PETZ, "--ancilla", "1"]),
        "graph-matrix-frame": ("--frame", [*_MATRIX_GRAPH, "--frame", "{frame}"]),
        "graph-matrix-kind": ("--kind", [*_MATRIX_GRAPH, "--kind", "dw-qubit"]),
        "graph-matrix-channel": ("--channel", [*_MATRIX_GRAPH, "--channel", "{ch}"]),
        "graph-matrix-builtin": ("--builtin", [*_MATRIX_GRAPH, "--builtin", "hadamard"]),
        "graph-matrix-ancilla": ("--ancilla", [*_MATRIX_GRAPH, "--ancilla", "1"]),
        "graph-matrix-prior": ("--prior", [*_MATRIX_GRAPH, "--prior", "{prior}"]),
        "graph-matrix-angles": ("--angles", [*_MATRIX_GRAPH, "--angles", ANGLES]),
        "repr-channel-prior": ("--prior", ["repr", *_GATED, "--prior", "{prior}"]),
        "repr-channel-angles": ("--angles", ["repr", *_GATED, "--angles", ANGLES]),
        "kind-beside-frame": ("--kind", ["frame", "--frame", "{frame}",
                                         "--kind", "dw-qubit"]),
        "builtin-beside-channel": ("--builtin", ["repr", *_GATED, "--channel", "{ch}"]),
        "angles-beside-prior": ("--angles", ["repr", "--kind", "dw-qubit",
                                             "--prior", "{prior}", "--angles", ANGLES]),
        "ancilla-beside-channel": ("--ancilla", ["repr", "--kind", "dw-qubit",
                                                 "--channel", "{ch}", "--ancilla", "1"]),
        "ancilla-without-a-channel": ("--ancilla", ["repr", "--kind", "dw-qubit",
                                                    "--angles", ANGLES, "--ancilla", "1"]),
        # a flag is refused whatever its value: zero, or the default
        "graph-matrix-eps": ("--eps", [*_MATRIX_GRAPH, "--eps", "0"]),
        "graph-matrix-eps-default": ("--eps", [*_MATRIX_GRAPH, "--eps", "1e-8"]),
        "graph-matrix-label-style": ("--label-style", [*_MATRIX_GRAPH,
                                                       "--label-style", "name"]),
        "graph-matrix-tol": ("--tol", ["--tol", "1e-3", *_MATRIX_GRAPH]),
        "graph-forward-angles-eps": ("--angles", ["graph", *_GATED, "--angles",
                                                  "0.3,0.2,0.1", "--eps", "0.5"]),
        "graph-forward-eps": ("--eps", ["graph", *_GATED, "--eps", "0.5"]),
        "graph-forward-prior": ("--prior", ["graph", *_GATED, "--prior", "{prior}"]),
        # refused before the path is opened
        "graph-forward-missing-prior": ("--prior", ["graph", *_GATED, "--prior",
                                                    "{prior}.missing"]),
        "verify-tol": ("--tol", ["--tol", "1e-30", "verify", "--suite", "frames"]),
        "verify-tol-default": ("--tol", ["--tol", "1e-10", "verify", "--suite",
                                         "classical"]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_2_naming_the_flag(self, name, input_files, tmp_path, capsys):
        flag, argv = self.CASES[name]
        out = tmp_path / "out.txt"
        capsys.readouterr()
        code = _exit_code([a.format(**input_files) for a in argv] + ["--out", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestPetzMatrixIsAChannelMatrix:
    @pytest.mark.parametrize("bad", ["zero", "transposed"])
    def test_column_sums_off_one_exit_1(self, bad, tmp_path, capsys):
        s_path, bad_path = tmp_path / "s.json", tmp_path / "bad.json"
        assert main(["repr", "--builtin", "half_swap", "--ancilla", "1",
                     "--kind", "dw-qubit", "--out", str(s_path)]) == 0
        doc = read_json(s_path)
        s = matrix_of(doc)
        assert max_abs(s.sum(axis=0) - 1) < 1e-12
        # the transpose's columns sum to 0.5 and 1.5
        doc["entries"] = (np.zeros_like(s) if bad == "zero" else s.T).reshape(-1).tolist()
        bad_path.write_text(json.dumps(doc))
        out = tmp_path / "petz.json"
        argv = ["petz", "--matrix", str(bad_path), "--kind", "dw-qubit",
                "--angles", ANGLES, "--out", str(out)]
        with pytest.raises(errors.RepMismatch, match=r"\[a_out, a_in\]"):
            _command(argv)
        assert main(argv) == 1
        assert "[a_out, a_in]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["dw-qubit", "sic-qubit"])
    @pytest.mark.parametrize("name", ["transpose", "shear"])
    def test_not_completely_positive_exits_1(self, name, kind, tmp_path, capsys):
        # unit column sums, but a Choi matrix with a negative eigenvalue:
        # the matrix of no channel, which was recovered without the oracle
        s = {"transpose": 0.5 * np.array([[1, 1, 1, -1], [1, 1, -1, 1],
                                          [1, -1, 1, 1], [-1, 1, 1, 1]]),
             "shear": np.array([[1.2, 0, 0, 0], [-0.2, 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]])}[name]
        path, out = tmp_path / "s.json", tmp_path / "petz.json"
        path.write_text(json.dumps(qpr_object_dict(s, kind, "channel-matrix", {})))
        argv = ["petz", "--matrix", str(path), "--kind", kind,
                "--angles", "0.8,1.1,0.3", "--out", str(out)]
        with pytest.raises(errors.NotPSD):
            _command(argv)
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind, channel", [
        *((kind, builtin) for builtin in ("hadamard", "half_swap", "u_eg")
          for kind in ("dw-qubit", "sic-qubit")),
        ("dw-qubits:2", "dilation")])
    def test_repr_then_matrix_meets_the_channel(self, kind, channel, tmp_path):
        if channel == "dilation":
            # --builtin and --angles are qubit-only: a dilation and a prior file
            rng = np.random.default_rng(5)
            (tmp_path / "ch.json").write_text(json.dumps({
                "kind": "dilation", "U": encode_complex_matrix(hb.random_unitary(rng, 8)),
                "beta": encode_complex_matrix(np.diag([0.7, 0.3]))}))
            (tmp_path / "prior.json").write_text(json.dumps({
                "kind": "matrix",
                "matrix": encode_complex_matrix(hb.random_density(rng, 4))}))
            channel = ["--channel", str(tmp_path / "ch.json")]
            prior = ["--prior", str(tmp_path / "prior.json")]
        else:
            channel = ["--builtin", channel] + ([] if channel == "hadamard"
                                                else ["--ancilla", "plus"])
            prior = ["--angles", ANGLES]
        s_path = tmp_path / "s.json"
        outs = {name: tmp_path / f"{name}.json" for name in ("matrix", "channel")}
        assert main(["repr", *channel, "--kind", kind, "--out", str(s_path)]) == 0
        assert main(["petz", "--matrix", str(s_path), "--kind", kind, *prior,
                     "--out", str(outs["matrix"])]) == 0
        assert main(["petz", *channel, "--kind", kind, *prior,
                     "--out", str(outs["channel"])]) == 0
        docs = {name: read_json(path) for name, path in outs.items()}
        assert max_abs(matrix_of(docs["matrix"]) - matrix_of(docs["channel"])) <= ORACLE_TOL
        for doc in docs.values():
            assert doc["meta"]["oracle_checked"] is True
            assert doc["meta"]["oracle_deviation"] <= doc["meta"]["oracle_tol"]


class TestEmptyFlagValues:
    """A flag given an empty string is given: each flag was read by its
    value's truth, so each of these ran as if it were absent and exited 0.
    Now each is a usage error (exit 2) that writes nothing."""

    CASES = {
        # the gated recovery of the builtin
        "petz-matrix": ["petz", "--matrix", "", "--builtin", "hadamard",
                        "--kind", "dw-qubit", "--angles", ANGLES],
        # the forward graph of the builtin
        "graph-matrix": ["graph", "--matrix", "", "--builtin", "hadamard",
                         "--kind", "dw-qubit"],
        # the same bytes as without --bubbles
        "graph-bubbles": ["graph", "--matrix", "{s}", "--bubbles", ""],
        # an ancilla on a single-qubit gate, which any other value refuses
        "repr-ancilla": ["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
                         "--ancilla", ""],
        # the state vector of --angles
        "repr-channel": ["repr", "--channel", "", "--angles", ANGLES,
                         "--kind", "dw-qubit"],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_2_and_writes_nothing(self, name, input_files, tmp_path):
        out = tmp_path / "out.txt"
        argv = [a.format(**input_files) for a in self.CASES[name]]
        assert _exit_code(argv + ["--out", str(out)]) == 2
        assert not out.exists()


class TestTypedErrors:
    """Typed errors of the command line that the commands above do not
    reach, each with its exit code."""

    CASES = {
        "non-numeric-angle": (["repr", "--kind", "dw-qubit", "--angles", "a,b,c"],
                              None, errors.ParseError, 2),
        "state-missing-field": (["repr", "--kind", "dw-qubit", "--prior", "{doc}"],
                                {"kind": "matrix"}, errors.ParseError, 2),
        "state-unknown-kind": (["repr", "--kind", "dw-qubit", "--prior", "{doc}"],
                               {"kind": "ket", "ket": [1, 0]}, errors.ParseError, 2),
        "channel-unknown-kind": (["repr", "--kind", "dw-qubit", "--channel", "{doc}"],
                                 {"kind": "teleport"}, errors.ParseError, 2),
        "channel-builtin-list-name": (["repr", "--kind", "dw-qubit", "--channel", "{doc}"],
                                      {"kind": "builtin", "name": ["hadamard"]},
                                      errors.ParseError, 2),
        "channel-builtin-dict-name": (["repr", "--kind", "dw-qubit", "--channel", "{doc}"],
                                      {"kind": "builtin", "name": {"hadamard": 1}},
                                      errors.ParseError, 2),
        "no-frame": (["repr", "--builtin", "hadamard"], None, errors.ParseError, 2),
        "no-channel": (["petz", "--kind", "dw-qubit", "--angles", ANGLES],
                       None, errors.ParseError, 2),
        "matrix-of-another-frame": (["petz", "--matrix", "{s}", "--kind", "sic-qubit",
                                     "--angles", ANGLES], None, errors.QbretError, 1),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_error_and_exit_code(self, name, input_files, tmp_path):
        argv, doc, error, code = self.CASES[name]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [a.format(doc=str(path), **input_files) for a in argv]
        with pytest.raises(error) as info:
            _command(argv)
        # the plain QbretError of a mismatched representation, no subclass
        assert error is not errors.QbretError or type(info.value) is error
        assert main(argv) == code
