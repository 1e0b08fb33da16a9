import json

import numpy as np
from jsonschema import validate as schema_validate

from relctrl import REPORT_SCHEMA, example_names
from relctrl.cli import main
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
    assert doc["report_version"] == 1
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
    assert main(["oracle", str(path), "--pair", "1", "2", "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert "kalman_reduced" in out
    assert "brammer_positive" in out
    assert "DISAGREES" not in out
    assert "validated witness" in out


def test_oracle_counterexample_pairwise(tmp_path, capsys):
    path = write_example(tmp_path, "counterexample-23")
    assert main(["oracle", str(path), "--pair", "2", "3", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "pairwise_range_2_3" in out
    assert "range test no, analysis no" in out


def test_oracle_ring_reach_and_falsifier(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks-ring")
    assert main(
        [
            "oracle",
            str(path),
            "--pair",
            "1",
            "2",
            "--seed",
            "7",
            "--samples",
            "30",
            "--horizon",
            "2",
            "--steps",
            "20",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "no witness" in out
    assert "reach_simulator_1_2" in out


def test_oracle_json_output(tmp_path, capsys):
    path = write_example(tmp_path, "watertanks")
    capsys.readouterr()
    assert main(["oracle", str(path), "--json", "--samples", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in doc}
    assert {"kalman_reduced", "brammer_positive"} <= names
    assert all(entry["agrees"] is not False for entry in doc)


def test_oracle_honours_tol_zero(tmp_path, capsys):
    # A column-sum error of 1e-7 is accepted under --tol-zero 1e-6, so
    # every oracle must run on the spec instead of failing validation.
    path = write_example(tmp_path, "watertanks")
    doc = json.loads(path.read_text())
    doc["B"]["incidence"][0][0] += 1e-7
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze", str(path), "--tol-zero", "1e-6"]) == 0
    capsys.readouterr()
    code = main(
        ["oracle", str(path), "--tol-zero", "1e-6", "--pair", "1", "2", "--samples", "5"]
    )
    out, err = capsys.readouterr()
    # Exit 3 is allowed: the analysis keeps the column-sum error in B, and
    # an exact oracle may disagree with it; what must not happen is a
    # validation or numerical failure.
    assert code in (0, 3), err
    for name in ("kalman_reduced", "brammer_positive", "pairwise_range_1_2",
                 "polar_falsifier_1_2"):
        assert name in out


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
    path = write_example(tmp_path, "watertanks")
    capsys.readouterr()
    args = ["oracle", str(path), "--pair", "1", "2", "--samples", "10", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_oracle_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    import relctrl.cli as cli_module

    path = write_example(tmp_path, "watertanks")
    monkeypatch.setattr(
        cli_module, "kalman_reduced", lambda spec, tol_rank, tol_zero: False
    )
    assert main(["oracle", str(path), "--samples", "2"]) == 3
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


def test_oracle_tol_eig_reaches_brammer_spectrum(tmp_path, capsys, monkeypatch):
    import relctrl.oracles as oracles_module
    from relctrl.spectral import default_eig_tol

    # A nonzero spectral radius makes the scaled tolerance differ from the factor.
    path = write_example(tmp_path, "oscillators-a")
    spec, _ = load_spec(path)
    seen = []
    original = oracles_module.distinct_eigenvalues

    def spy(A, tol_eig=None, **kwargs):
        seen.append(tol_eig)
        return original(A, tol_eig=tol_eig, **kwargs)

    monkeypatch.setattr(oracles_module, "distinct_eigenvalues", spy)
    assert main(["oracle", str(path), "--samples", "2"]) == 0
    assert seen == [default_eig_tol(spec.A)]
    seen.clear()
    assert main(["oracle", str(path), "--samples", "2", "--tol-eig", "1e-6"]) == 0
    assert seen == [default_eig_tol(spec.A, 1e-6)]
    capsys.readouterr()
