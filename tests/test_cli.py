import json

import numpy as np
import pytest
from jsonschema import validate as schema_validate

from relctrl import (
    DEFAULT_TOLERANCES,
    REPORT_SCHEMA,
    ArraySpec,
    analyze,
    cross_check,
    example_names,
)
import relctrl.cli
from relctrl.array_model import require_valid
from relctrl.cli import build_parser, main
from relctrl.specio import load_spec, save_spec


def write_example(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main(["examples", name, "--out", str(path)]) == 0
    return path


def test_examples_cover_all_names(tmp_path, capsys):
    for name in example_names():
        path = write_example(tmp_path, name)
        spec, _ = load_spec(path)
        assert spec.name == name
    capsys.readouterr()


def test_examples_watertanks_matrix(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks")
    doc = json.loads(path.read_text())
    assert doc["B"]["incidence"] == [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]
    capsys.readouterr()


def test_examples_counterexample_matrix(tmp_path, capsys):
    path = write_example(tmp_path, "counterexample-23")
    doc = json.loads(path.read_text())
    expected = [
        [0, 0, 0],
        [0, 0, -1],
        [1, 0, -1],
        [0, 0, 0],
        [0, 1, 0],
        [0, 0, 0],
        [-1, 0, 0],
        [0, 0, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, 1],
        [0, 0, 0],
    ]
    assert doc["B"]["incidence"] == [[float(x) for x in row] for row in expected]
    capsys.readouterr()


def test_examples_unknown_name(capsys):
    assert main(["examples", "nosuch"]) == 1
    err = capsys.readouterr().err
    assert "watertanks" in err and "oscillators-a" in err


def test_analyze_watertanks_text(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks")
    assert main(["analyze", str(path), "--pair", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "controllable: YES" in out
    assert "positively controllable: NO" in out
    assert "(1,2)-controllable: YES" in out
    assert "positive (1,2)-controllable: NO" in out


def test_analyze_oscillators_b(tmp_path, capsys):
    path = write_example(tmp_path, "oscillators-b")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "controllable: NO" in out
    # Disconnection appears exactly at the +-sqrt(1/2) pair.
    rows = [line for line in out.splitlines() if "NOT" in line]
    assert len(rows) == 2
    assert all("0.707106781" in row for row in rows)


def test_analyze_json_schema_and_determinism(tmp_path, capsys):
    path = write_example(tmp_path, "oscillators-a")
    capsys.readouterr()
    assert main(["analyze", str(path), "--pair", "1", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", str(path), "--pair", "1", "2", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    schema_validate(doc, REPORT_SCHEMA)
    assert doc["report_version"] == 2
    assert doc["verdicts"]["controllable"] is True
    assert doc["verdicts"]["pairwise"]["1-2"] is True
    assert len(doc["spectrum"]) == 10
    assert len(doc["graphs"]) == 30


def test_analyze_text_and_json_verdicts_agree(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks")
    assert main(["analyze", str(path), "--pair", "1", "2"]) == 0
    text = capsys.readouterr().out
    assert main(["analyze", str(path), "--pair", "1", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ("controllable: YES" in text) == doc["verdicts"]["controllable"]
    assert ("positively controllable: NO" in text) == (
        not doc["verdicts"]["positively_controllable"]
    )
    assert doc["verdicts"]["positive_pairwise"]["1-2"] == {
        "yes": False,
        "conditional": False,
    }


def test_analyze_dot_export(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks")
    dots = tmp_path / "dots"
    assert main(["analyze", str(path), "--dot", str(dots)]) == 0
    capsys.readouterr()
    names = sorted(f.name for f in dots.iterdir())
    assert names == [
        "watertanks_q_k1.dot",
        "watertanks_v_k1.dot",
        "watertanks_w_k1.dot",
    ]
    body = (dots / "watertanks_v_k1.dot").read_text()
    assert main(["analyze", str(path), "--dot", str(dots)]) == 0
    capsys.readouterr()
    assert (dots / "watertanks_v_k1.dot").read_text() == body


def test_analyze_rejects_bad_column(tmp_path, capsys):
    bad = {
        "n": 1,
        "q": 3,
        "p": 1,
        "A": [[0.0]],
        "B": {"incidence": [[1.0], [0.0], [0.0]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "sigma=1" in err


def test_analyze_rejects_unknown_key(tmp_path, capsys):
    doc = {
        "n": 1,
        "q": 2,
        "p": 1,
        "A": [[0.0]],
        "B": {"incidence": [[1.0], [-1.0]]},
        "extra": 1,
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert "extra" in capsys.readouterr().err


_GOOD = {"n": 1, "q": 2, "p": 1, "A": [[0.0]], "B": {"incidence": [[1.0], [-1.0]]}}


def _without(key):
    doc = dict(_GOOD)
    del doc[key]
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(_GOOD, n=True), "n must be an integer"),
        (dict(_GOOD, A=[[0.0], [0.0, 1.0]]), "A is not a rectangular numeric array"),
        (dict(_GOOD, A=[[[0.0]]]), "A must be a two-dimensional array"),
        ([_GOOD], "spec document must be a JSON object"),
        (_without("B"), "missing required key 'B'"),
        (dict(_GOOD, name=3), "name must be a string"),
        (dict(_GOOD, A=[[0.0, 0.0]]), "A has shape (1, 2), expected (1, 1)"),
        (dict(_GOOD, B=[[1.0], [-1.0]]), "B must be an object"),
        (dict(_GOOD, B={"incidence": [[1.0, 0.0], [-1.0, 0.0]]}),
         "B.incidence has shape (2, 2), expected (2, 1)"),
        (dict(_GOOD, B={"blocks": [[[1.0]], [[-1.0, 0.0]]]}), "B.blocks is not rectangular"),
        (dict(_GOOD, B={"blocks": [[[1.0]], [[-1.0]], [[0.0]]]}),
         "B.blocks has shape (3, 1, 1), expected (2, 1, 1)"),
        (dict(_GOOD, tolerances=[1e-9]), "tolerances must be an object"),
        (dict(_GOOD, tolerances={"rank": "1e-9"}), "tolerance 'rank' must be a number"),
    ],
    ids=[
        "bool-n", "ragged-A", "3d-A", "non-object-document", "missing-B", "non-string-name",
        "A-shape", "non-object-B", "incidence-shape", "ragged-blocks", "blocks-shape",
        "non-object-tolerances", "string-tolerance",
    ],
)
def test_analyze_rejects_a_malformed_spec_file(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _assert_input_error(["analyze", str(path)], capsys, message)


def test_analyze_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 1
    capsys.readouterr()


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_analyze_numerical_exit_code(tmp_path, capsys):
    doc = {
        "n": 2,
        "q": 2,
        "p": 1,
        "A": [[0.0, 0.0], [0.0, 1.5e-8]],
        "B": {"incidence": [[1.0], [0.0], [-1.0], [0.0]]},
    }
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--tol-eig", "1e-8"]) == 2
    assert "eigenvalue" in capsys.readouterr().err


def test_tolerance_precedence_flag_beats_file(tmp_path, capsys):
    doc = {
        "n": 2,
        "q": 2,
        "p": 1,
        "A": [[0.0, 0.0], [0.0, 1.5e-8]],
        "B": {"incidence": [[1.0], [0.0], [-1.0], [0.0]]},
        "tolerances": {"eig": 1e-8},
    }
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    # File tolerance alone trips the clustering guard; a coarser flag
    # merges the two eigenvalues and the analysis goes through.
    assert main(["analyze", str(path)]) == 2
    capsys.readouterr()
    assert main(["analyze", str(path), "--tol-eig", "1e-6"]) == 0
    capsys.readouterr()


def test_oracle_watertanks_agrees(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks")
    assert main(["oracle", str(path), "--pair", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "kalman_reduced" in out
    assert "brammer_positive" in out
    assert "DISAGREES" not in out
    assert "validated witness" in out


def test_oracle_counterexample_pairwise(tmp_path, capsys):
    path = write_example(tmp_path, "counterexample-23")
    assert main(["oracle", str(path), "--pair", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "pairwise_range_2_3" in out
    assert "range test no, analysis no" in out


def test_oracle_ring_reach_and_falsifier(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks-ring")
    assert main(["oracle", str(path), "--pair", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "no witness" in out
    reach = next(line for line in out.splitlines() if line.startswith("reach_simulator_1_2"))
    assert reach.split()[1] == "ok"


def test_oracle_honours_the_spec_files_tolerances(tmp_path, capsys):
    # A column-sum error of 1e-7 that the file's zero tolerance accepts
    # must reach the falsifier and the reach evidence, not only the verdict.
    path = write_example(tmp_path, "watertanks-ring")
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["B"]["incidence"][0][0] += 1e-7
    doc["tolerances"] = {"zero": 1e-6}
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path), "--pair", "1", "2", "--json"]) == 0
    verdicts = {v["name"]: v for v in json.loads(capsys.readouterr().out)}
    assert verdicts["polar_falsifier_1_2"]["witness"] is None
    assert verdicts["reach_simulator_1_2"]["agrees"] is True


def test_oracle_tol_cone_reaches_the_reach_hit_rule(tmp_path, capsys):
    # On oscillators-a (1,2) 3 of 20 targets lie within the default cone
    # rule; the worst residual, 0.88, lies within 0.5 (1 + sqrt(2)).
    path = write_example(tmp_path, "oscillators-a")
    capsys.readouterr()
    for flags, agrees in (([], None), (["--tol-cone", "0.5"], True)):
        assert main(["oracle", str(path), "--pair", "1", "2", "--json", *flags]) == 0
        verdicts = {v["name"]: v for v in json.loads(capsys.readouterr().out)}
        assert verdicts["reach_simulator_1_2"]["agrees"] is agrees, flags


def test_oracle_tol_eig_reaches_the_falsifier_horizon(tmp_path, capsys):
    # The rotation at frequency 5e-8 lies above the default clustering
    # tolerance 1e-8 (1 + 5e-8), so the horizon covers its period up to
    # the cap of 16 base horizons; under 1e-7 it is a zero frequency.
    A = np.array([[0.0, 5e-8], [-5e-8, 0.0]])
    B = np.kron([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 1.0, -1.0], [0.0, 0.0, -1.0, 1.0]], np.eye(2))
    path = tmp_path / "slow-rotation.json"
    save_spec(ArraySpec.from_incidence(A, B), path)
    for flags, horizon in (([], "64"), (["--tol-eig", "1e-7"], "4")):
        main(["oracle", str(path), "--pair", "1", "2", *flags])
        out = capsys.readouterr().out
        assert f"on horizon {horizon} " in out, flags


def test_a_witness_on_a_capped_horizon_does_not_refute_a_yes(tmp_path, capsys):
    # One-way path inputs on the same slow rotation: the falsifier finds a
    # witness on horizon 64, the cap of 16 base horizons, far short of the
    # rotation's period 1.3e8, so it proves nothing against a positive verdict.
    A = np.array([[0.0, 5e-8], [-5e-8, 0.0]])
    B = np.kron([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]], np.eye(2))
    path = tmp_path / "slow-rotation-path.json"
    save_spec(ArraySpec.from_incidence(A, B), path)
    capsys.readouterr()
    assert main(["oracle", str(path), "--pair", "1", "2"]) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines() if "polar_falsifier" in line]
    assert row.split()[1] == "?"
    assert "validated witness on horizon 64" in row and "cap of 16 base horizons" in row


def test_a_looser_tol_cone_does_not_loosen_the_falsifier_slack(tmp_path, capsys):
    # On oscillators-a (1,2) a candidate overshoots zero by 2.46e-6 on the
    # dense grid: inside a slack grown with the cone rule, so a looser
    # rule would validate a false witness against a correct analysis.
    path = write_example(tmp_path, "oscillators-a")
    for cone in ("1e-7", "1e-6"):
        assert main(["oracle", str(path), "--pair", "1", "2", "--tol-cone", cone]) == 0, cone
        assert "validated witness" not in capsys.readouterr().out, cone


def test_oracle_json_output(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks")
    capsys.readouterr()
    assert main(["oracle", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in doc}
    assert {"kalman_reduced", "brammer_positive"} <= names
    assert all(entry["agrees"] is not False for entry in doc)


def test_oracle_honours_tol_zero(tmp_path, capsys):
    # A column-sum error of 1e-7 is accepted under --tol-zero 1e-6, so
    # every oracle must run on the spec instead of failing validation, and
    # since the analysis and the oracles all work on B projected onto the
    # zero-sum subspace they must agree.
    path = write_example(tmp_path, "watertanks")
    doc = json.loads(path.read_text())
    doc["B"]["incidence"][0][0] += 1e-7
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze", str(path), "--tol-zero", "1e-6"]) == 0
    capsys.readouterr()
    code = main(
        ["oracle", str(path), "--tol-zero", "1e-6", "--pair", "1", "2"]
    )
    out, err = capsys.readouterr()
    assert code == 0, out + err
    for name in ("kalman_reduced", "brammer_positive", "pairwise_range_1_2",
                 "polar_falsifier_1_2"):
        assert name in out


def test_analyze_dot_uses_the_projected_spec(tmp_path, capsys, monkeypatch):
    # The dot files are drawn from the analysis' own graphs, which must
    # come from the same zero-sum B as its verdicts.
    import relctrl.cli as cli_module

    path = write_example(tmp_path, "watertanks")
    doc = json.loads(path.read_text())
    doc["B"]["incidence"][0][0] += 1e-7
    path.write_text(json.dumps(doc))
    seen = []
    write = cli_module._write_dot_files

    def recording(report, graphs, directory):
        seen.append((report, graphs))
        write(report, graphs, directory)

    monkeypatch.setattr(cli_module, "_write_dot_files", recording)
    argv = ["analyze", str(path), "--tol-zero", "1e-6", "--dot", str(tmp_path / "dots")]
    assert main(argv) == 0
    ((report, graphs),) = seen
    graphs = [G for kind in "VWQ" for G in graphs[kind]]
    assert len(graphs) == 3 * len(report.spectrum.components)
    for G in graphs:
        blocksums = G.M.reshape(G.q, G.blocksize, -1).sum(axis=0)
        assert np.abs(blocksums).max() <= 1e-15
    assert (tmp_path / "dots" / "watertanks_v_k1.dot").exists()


def test_analyze_dot_builds_each_graph_family_once(tmp_path, capsys, monkeypatch):
    import relctrl.controllability as controllability_module

    calls = dict.fromkeys(("v_graphs", "w_graphs", "q_graphs_and_index_sets"), 0)
    for name in calls:
        original = getattr(controllability_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(controllability_module, name, counting)
    path = write_example(tmp_path, "oscillators-a")
    argv = ["analyze", str(path), "--pair", "1", "2", "--dot", str(tmp_path / "dots")]
    assert main(argv) == 0
    assert calls == dict.fromkeys(calls, 1)
    assert any((tmp_path / "dots").iterdir())


def test_analyze_dot_skips_the_graphs_with_a_hyperedge(tmp_path, capsys):
    # Input 2 touches three systems in state 1 only: the graphs at its
    # eigenvalue (k = 1) hold a hyperedge and have no drawing; at k = 2 its
    # column is zero, and every graph is drawn.
    B = np.zeros((3, 2, 2))
    B[0, 0], B[1, 0] = 1.0, -1.0
    B[:, 1, 0] = [1.0, 1.0, -2.0]
    spec = ArraySpec(n=2, q=3, p=2, A=np.diag([-1.0, -2.0]), B=B, name="hyper")
    path = tmp_path / "hyper.json"
    save_spec(spec, path)
    assert main(["analyze", str(path), "--dot", str(tmp_path / "dots")]) == 0
    names = sorted(p.name for p in (tmp_path / "dots").iterdir())
    assert names == ["hyper_q_k2.dot", "hyper_v_k2.dot", "hyper_w_k2.dot"]
    assert "controllable: NO" in capsys.readouterr().out


def test_roundtrip_examples_reproduce_verdicts(tmp_path, capsys):
    expectations = {
        "watertanks": ("YES", "NO"),
        "watertanks-ring": ("YES", "YES"),
        "oscillators-a": ("YES", "YES"),
        "oscillators-b": ("NO", "NO"),
        "counterexample-23": ("NO", "NO"),
        "integrator-chain-ring": ("YES", "YES"),
    }
    for name, (ctrl, positive) in expectations.items():
        path = write_example(tmp_path, name)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"controllable: {ctrl}" in out
        assert f"positively controllable: {positive}" in out


def test_blocks_form_accepted(tmp_path, capsys):
    doc = {
        "n": 1,
        "q": 3,
        "p": 2,
        "A": [[0.0]],
        "B": {
            "blocks": [
                [[1.0], [0.0]],
                [[-1.0], [1.0]],
                [[0.0], [-1.0]],
            ]
        },
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(doc))
    spec, _ = load_spec(path)
    np.testing.assert_array_equal(
        spec.incidence, [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]
    )
    assert main(["analyze", str(path)]) == 0
    assert "controllable: YES" in capsys.readouterr().out


def test_b_requires_exactly_one_form(tmp_path, capsys):
    doc = {
        "n": 1,
        "q": 2,
        "p": 1,
        "A": [[0.0]],
        "B": {"incidence": [[1.0], [-1.0]], "blocks": [[[1.0]], [[-1.0]]]},
    }
    path = tmp_path / "both.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    capsys.readouterr()


def test_unknown_keys_rejected_in_nested_objects(tmp_path, capsys):
    base = {"n": 1, "q": 2, "p": 1, "A": [[0.0]]}
    bad_b = dict(base, B={"matrix": [[1.0], [-1.0]]})
    bad_tol = dict(
        base,
        B={"incidence": [[1.0], [-1.0]]},
        tolerances={"rank": 1e-9, "slack": 1.0},
    )
    for i, doc in enumerate((bad_b, bad_tol)):
        path = tmp_path / f"nested{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        capsys.readouterr()


def test_oracle_byte_stable_with_seed(tmp_path, capsys):
    # Two calls in a row in one process, on the one parser and the one
    # module state, print the same bytes: as text, and as JSON on every
    # example.
    for name in example_names():
        path = write_example(tmp_path, name)
        capsys.readouterr()
        for args in (
            ["oracle", str(path), "--pair", "1", "2"],
            ["oracle", str(path), "--json", "--pair", "1", "2", "--pair", "2", "3"],
        ):
            assert main(args) == 0, args
            first = capsys.readouterr().out
            assert main(args) == 0, args
            assert capsys.readouterr().out == first, args


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    path = write_example(tmp_path, "watertanks")
    built = []

    def counting():
        built.append(1)
        return build_parser()

    relctrl.cli._parser.cache_clear()
    monkeypatch.setattr(relctrl.cli, "build_parser", counting)
    for argv in (["oracle", str(path)], ["analyze", str(path)], ["oracle", str(path), "--pair"]):
        main(argv)
    capsys.readouterr()
    relctrl.cli._parser.cache_clear()
    assert built == [1]
    # build_parser itself still returns a parser of its own to extend.
    assert build_parser() is not build_parser()


def test_successive_main_calls_are_independent(tmp_path, capsys):
    # Each call on the shared parser parses as a fresh parser would, in
    # whatever order the calls come: no pair, flag or error carries over.
    path = str(write_example(tmp_path, "oscillators-b"))
    calls = [
        ["oracle", path, "--json", "--pair", "1", "2", "--pair", "2", "3"],
        ["oracle", path, "--pair", "3"],
        ["oracle", path, "--json"],
        ["oracle", path, "--json", "--tol-cone", "1e-6", "--tol-eig", "1e-7", "--pair", "2", "1"],
        ["analyze", path, "--json", "--pair", "3", "1"],
        ["analyze", path, "--json"],
    ]
    capsys.readouterr()
    seen = {}
    for order in (calls, calls[::-1], calls):
        for argv in order:
            got = (main(argv), *capsys.readouterr())
            assert seen.setdefault(tuple(argv), got) == got, argv
    codes, outs, errs = zip(*(seen[tuple(argv)] for argv in calls))
    assert codes == (0, 1, 0, 0, 0, 0)
    assert errs[1].count("error:") == 1 and outs[1] == ""
    names = [[row["name"] for row in json.loads(out)] for out in outs[2:4]]
    assert "polar_falsifier_1_2" in outs[0] and "polar_falsifier_2_3" in outs[0]
    assert not any(name.startswith("polar_falsifier") for name in names[0])
    assert [name for name in names[1] if name.startswith("polar")] == ["polar_falsifier_2_1"]
    assert list(json.loads(outs[4])["verdicts"]["pairwise"]) == ["3-1"]
    assert json.loads(outs[5])["verdicts"]["pairwise"] == {}
    for argv in calls[:1] + calls[2:]:
        shared = relctrl.cli._parser().parse_args(argv)
        assert vars(shared) == vars(build_parser().parse_args(argv)), argv
    assert relctrl.cli._parser().parse_args(["oracle", path]).pair == []


def test_main_runs_the_command_bound_at_call_time(tmp_path, capsys, monkeypatch):
    # The parser is built before the rebinding; the rebound command runs.
    path = write_example(tmp_path, "watertanks")
    assert main(["oracle", str(path)]) == 0
    capsys.readouterr()
    ran = []

    def traced(args):
        ran.append(args.pair)
        return 7

    monkeypatch.setattr(relctrl.cli, "cmd_oracle", traced)
    assert main(["oracle", str(path), "--pair", "1", "2"]) == 7
    assert ran == [[[1, 2]]]
    assert capsys.readouterr().out == ""


def test_usage_errors_exit_with_the_input_code(tmp_path, capsys):
    # argparse alone would exit 2, the code of a numerical failure.  The
    # retired --samples and --seed are unknown flags now.
    for name in ("oscillators-b", "watertanks-ring"):
        path = write_example(tmp_path, name)
        capsys.readouterr()
        for argv in (
            ["oracle", str(path), "--samples", "7"],
            ["oracle", str(path), "--seed", "3"],
            ["oracle"],
            ["analyze", str(path), "--pair", "1"],
        ):
            assert main(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == "" and "error:" in err
    # A directory where a file belongs, and a spec that is not UTF-8, are
    # input errors too: one error line, no traceback.
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "caf\xe9"}')
    for argv in (
        ["analyze", str(tmp_path)],
        ["oracle", str(tmp_path)],
        ["analyze", str(latin)],
        ["oracle", str(latin)],
        ["examples", "watertanks", "--out", str(tmp_path)],
    ):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err, argv
    assert main(["oracle", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--tol-cone" in usage and "--horizon" not in usage and "--steps" not in usage


def test_oracle_rejects_reach_flags_outside_input(tmp_path, capsys):
    # The retired reach flags are unknown input, so they are rejected before
    # any verdict: the same exit 1 whether or not a requested pair is positive.
    for name in ("watertanks-ring", "watertanks"):
        path = write_example(tmp_path, name)
        capsys.readouterr()
        for flags in (["--steps", "1"], ["--horizon", "0"], ["--horizon", "-1"]):
            for pair in ([], ["--pair", "1", "2"]):
                assert main(["oracle", str(path), *flags, *pair]) == 1, (name, flags, pair)
                out, err = capsys.readouterr()
                assert out == "" and "error:" in err


def test_oracle_runs_each_pair_once(tmp_path, capsys, monkeypatch):
    import relctrl.oracles as oracles_module

    path = write_example(tmp_path, "watertanks")
    capsys.readouterr()
    grids = []
    original = oracles_module.default_polar_grid

    def counting(spec, *args):
        grids.append(1)
        return original(spec, *args)

    monkeypatch.setattr(oracles_module, "default_polar_grid", counting)
    assert main(["oracle", str(path), "--pair", "1", "2", "--json"]) == 0
    once = capsys.readouterr().out
    assert main(["oracle", str(path), "--pair", "1", "2", "--pair", "1", "2", "--json"]) == 0
    assert capsys.readouterr().out == once
    grids.clear()
    assert main(["oracle", str(path), "--pair", "1", "2", "--pair", "2", "3"]) == 0
    assert len(grids) == 1
    capsys.readouterr()


def test_oracle_runs_the_kalman_test_and_build_big_once(tmp_path, capsys, monkeypatch):
    # cross_check validates the spec once, runs the reduction of
    # build_big on it once, factors the reduced Krylov matrix once, for
    # the Kalman verdict and every pair's range test, and hands the
    # reduced blocks it was built from to the Brammer cone test.
    import relctrl.oracles as oracles_module

    path = write_example(tmp_path, "watertanks")
    counts = {"_krylov_complement": 0, "_reduced": 0, "build_big": 0, "require_valid": 0}
    for name in counts:
        original = getattr(oracles_module, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(oracles_module, name, counting)
    assert main(["oracle", str(path), "--pair", "1", "2", "--pair", "2", "3"]) == 0
    assert counts == {"_krylov_complement": 1, "_reduced": 1, "build_big": 0, "require_valid": 1}
    capsys.readouterr()


def test_oracle_json_is_the_cross_check_list(tmp_path, capsys):
    # relctrl oracle adds nothing to cross_check but the rendering.
    pairs = [(1, 2), (2, 3)]
    for name in example_names():
        path = write_example(tmp_path, name)
        capsys.readouterr()
        code = main(["oracle", str(path), "--json", "--pair", "1", "2", "--pair", "2", "3"])
        doc = json.loads(capsys.readouterr().out)
        spec, file_tol = load_spec(path)
        tol = file_tol or DEFAULT_TOLERANCES
        spec = require_valid(spec, tol.zero)
        verdicts = cross_check(spec, analyze(spec, pairs, tol))
        assert code == (3 if any(v.agrees is False for v in verdicts) else 0)
        assert [(e["name"], e["agrees"], e["detail"]) for e in doc] == [
            (v.name, v.agrees, v.detail) for v in verdicts
        ]
        for entry, v in zip(doc, verdicts):
            if v.witness is None:
                assert entry["witness"] is None
            else:
                np.testing.assert_allclose(entry["witness"], v.witness, rtol=0, atol=1e-12)


def test_oracle_no_witness_detail_names_targets_and_horizon(tmp_path, capsys):
    path = write_example(tmp_path, "oscillators-a")
    capsys.readouterr()
    assert main(["oracle", str(path), "--pair", "1", "2", "--json"]) == 0
    doc = {v["name"]: v for v in json.loads(capsys.readouterr().out)}
    detail = doc["polar_falsifier_1_2"]["detail"]
    assert doc["polar_falsifier_1_2"]["agrees"] is None
    assert "no witness" in detail and "proves nothing" in detail
    assert "20 targets" in detail and "e_1 - e_2" in detail and "horizon 12.14" in detail


def test_oracle_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    import relctrl.oracles as oracles_module

    # A factorization that leaves one direction outside the range: the
    # Kalman test says not controllable, the analysis controllable.
    path = write_example(tmp_path, "watertanks")
    monkeypatch.setattr(
        oracles_module, "_krylov_complement", lambda A, Bred, tol_rank: (np.eye(1, 2), 1.0)
    )
    assert main(["oracle", str(path)]) == 3
    out = capsys.readouterr().out
    assert "DISAGREES" in out


def test_save_and_load_roundtrip(tmp_path, watertanks):
    path = tmp_path / "wt.json"
    save_spec(watertanks, path)
    loaded, tol = load_spec(path)
    assert tol is None
    np.testing.assert_array_equal(loaded.incidence, watertanks.incidence)
    np.testing.assert_array_equal(loaded.A, watertanks.A)
    assert loaded.name == watertanks.name


def test_save_and_load_roundtrip_without_a_name(tmp_path, watertanks):
    path = tmp_path / "unnamed.json"
    save_spec(ArraySpec(n=1, q=3, p=2, A=watertanks.A, B=watertanks.B), path)
    assert "name" not in json.loads(path.read_text())
    loaded, _ = load_spec(path)
    assert loaded.name == ""
    np.testing.assert_array_equal(loaded.incidence, watertanks.incidence)
    np.testing.assert_array_equal(loaded.A, watertanks.A)


def test_oracle_tol_eig_reaches_brammer_spectrum(tmp_path, capsys, monkeypatch):
    import relctrl.oracles as oracles_module

    # The --tol-eig factor reaches brammer_positive, which hands it to its
    # spectrum unscaled; distinct_eigenvalues scales it by the radius.
    path = write_example(tmp_path, "oscillators-a")
    seen = []
    original = oracles_module.distinct_eigenvalues

    def spy(A, tol_eig=DEFAULT_TOLERANCES.eig):
        seen.append(tol_eig)
        return original(A, tol_eig)

    monkeypatch.setattr(oracles_module, "distinct_eigenvalues", spy)
    assert main(["oracle", str(path)]) == 0
    assert seen == [DEFAULT_TOLERANCES.eig]
    seen.clear()
    assert main(["oracle", str(path), "--tol-eig", "1e-6"]) == 0
    assert seen == [1e-6]
    capsys.readouterr()


def _edited_watertanks(tmp_path, capsys, edit):
    path = write_example(tmp_path, "watertanks")
    capsys.readouterr()
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))   # writes NaN and Infinity as JSON allows
    return path


def _assert_input_error(argv, capsys, *words):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "Traceback" not in err
    assert all(word in err for word in words), err


def test_analyze_rejects_a_nan_tolerance_in_the_file(tmp_path, capsys):
    path = _edited_watertanks(tmp_path, capsys, lambda d: d.update(tolerances={"rank": np.nan}))
    _assert_input_error(["analyze", str(path)], capsys, "'rank'", "finite positive")


def test_analyze_rejects_a_nan_tolerance_flag(tmp_path, capsys):
    path = _edited_watertanks(tmp_path, capsys, lambda d: None)
    _assert_input_error(["analyze", str(path), "--tol-rank", "nan"], capsys, "'rank'")


def test_analyze_rejects_infinite_input_entries(tmp_path, capsys):
    def edit(doc):
        doc["B"]["incidence"][0][0], doc["B"]["incidence"][1][0] = np.inf, -np.inf

    path = _edited_watertanks(tmp_path, capsys, edit)
    _assert_input_error(["analyze", str(path)], capsys, "non-finite at B[1,1,1]")


def test_analyze_rejects_nan_dynamics(tmp_path, capsys):
    def edit(doc):
        doc["A"][0][0] = np.nan

    path = _edited_watertanks(tmp_path, capsys, edit)
    _assert_input_error(["analyze", str(path)], capsys, "non-finite at A[1,1]")


def test_tolerance_flags_must_be_finite_and_positive(tmp_path, capsys):
    path = _edited_watertanks(tmp_path, capsys, lambda d: None)
    for value in ("0", "-1", "inf"):
        _assert_input_error(["analyze", str(path), "--tol-rank", value], capsys, "'rank'")


def test_oracle_rejects_a_nan_cone_tolerance(tmp_path, capsys):
    path = _edited_watertanks(tmp_path, capsys, lambda d: None)
    _assert_input_error(["oracle", str(path), "--tol-cone", "nan"], capsys, "'cone'")
