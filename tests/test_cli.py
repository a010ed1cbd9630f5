import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ctfidf.cli import _build_parser, main
from ctfidf.synth import generate_corpus, write_tsv

from conftest import BAD_VALUES, REPO_ROOT, merged, write_config


class TestRun:
    def test_success_exit_zero(self, base_config, tmp_path, capsys):
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "f1=" in out
        assert (Path(base_config["outputDir"]) / "report.json").exists()

    def test_config_error_exit_two(self, base_config, tmp_path, capsys):
        base_config["split"]["trainFraction"] = 1.5
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path)]) == 2
        assert "trainFraction" in capsys.readouterr().err

    def test_missing_dataset_exit_one(self, base_config, tmp_path, capsys):
        base_config["dataset"]["path"] = str(tmp_path / "absent.tsv")
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path)]) == 1

    def test_flag_overrides(self, base_config, tmp_path):
        path = write_config(tmp_path, base_config)
        out = tmp_path / "override_out"
        code = main(["run", "--config", str(path),
                     "--weighting", "tfidf", "--reduce", "none",
                     "--model", "dtree", "--seed", "42",
                     "--train-frac", "0.6", "--folds", "2",
                     "--positive-label", "ham", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["weighting"] == "tfidf"
        assert report["config"]["reduce"]["enabled"] is False
        assert report["config"]["model"]["kind"] == "dtree"
        assert report["config"]["split"]["seed"] == 42
        assert report["config"]["split"]["trainFraction"] == 0.6
        assert report["config"]["cvFolds"] == 2
        assert report["config"]["positiveLabel"] == "ham"

    def test_seed_flag_sets_every_seed(self, base_config, tmp_path):
        base_config["model"]["hyperparameters"] = {"seed": 5}
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path), "--seed", "9"]) == 0
        report = Path(base_config["outputDir"]) / "report.json"
        config = json.loads(report.read_text())["config"]
        assert config["split"]["seed"] == config["reduce"]["seed"] == 9
        assert config["model"]["hyperparameters"] == {"seed": 9}

    def test_seed_flag_needs_hyperparameters_object(self, base_config,
                                                    tmp_path, capsys):
        base_config["model"]["hyperparameters"] = [5]
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path), "--seed", "9"]) == 2
        assert "model.hyperparameters: must be an object" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("patch, field", BAD_VALUES)
    def test_bad_value_exit_two(self, base_config, tmp_path, capsys, patch,
                                field):
        cfg = merged(base_config, patch)
        cfg["dataset"]["path"] = str(tmp_path / "absent.tsv")  # would exit 1
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert f"{field}:" in capsys.readouterr().err

    def test_unknown_positive_label_fails_before_preprocessing(
            self, base_config, tmp_path, capsys, monkeypatch):
        def no_preprocessing(*args, **kwargs):
            raise AssertionError("preprocessing ran")

        monkeypatch.setattr("ctfidf.pipeline.preprocess_corpus",
                            no_preprocessing)
        base_config["positiveLabel"] = "Spam"
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "positiveLabel: 'Spam' not among labels ['ham', 'spam']" in err

    @pytest.mark.parametrize("patch, field, message", [
        pytest.param({"split": {"trainFraction": 0.9}}, "split.trainFraction",
                     "gives 4 training and 0 test record(s)", id="no-test"),
        pytest.param({"split": {"trainFraction": 0.1}}, "split.trainFraction",
                     "gives 0 training and 4 test record(s)", id="no-train"),
        pytest.param({"model": {"kind": "dtree"}, "cvFolds": 10}, "cvFolds",
                     "10 folds exceed the 3 training record(s)",
                     id="cv-folds"),
    ])
    def test_split_too_small_names_key(self, base_config, tmp_path, capsys,
                                       monkeypatch, patch, field, message):
        def no_preprocessing(*args, **kwargs):
            raise AssertionError("preprocessing ran")

        monkeypatch.setattr("ctfidf.pipeline.preprocess_corpus",
                            no_preprocessing)
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("ham\thello there friend\n"
                        "ham\tsee you at lunch today\n"
                        "spam\twin free prize now call\n"
                        "spam\tclaim your free cash prize\n", encoding="utf-8")
        cfg = merged(base_config, patch)
        cfg["dataset"]["path"] = str(tiny)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert f"{field}: {message}" in capsys.readouterr().err

    def test_folds_beyond_split_allowed_at_fixed_alpha(self, base_config,
                                                       tmp_path):
        cfg = merged(base_config, {
            "model": {"kind": "dtree", "hyperparameters": {"ccpAlpha": 0.01}},
            "reduce": {"enabled": False}, "split": {"trainFraction": 0.01},
            "cvFolds": 10})
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_cv_fold_without_positive_label(self, base_config, tmp_path,
                                                 seed):
        # 12 spam records over 10 stratified folds: some folds hold none
        data = tmp_path / "thin.tsv"
        write_tsv(str(data), generate_corpus(120, 12, seed=3))
        cfg = merged(base_config, {"dataset": {"path": str(data)},
                                   "reduce": {"enabled": False},
                                   "model": {"kind": "dtree"}, "cvFolds": 10})
        with pytest.warns(UserWarning, match="some folds will miss them"):
            code = main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--seed", str(seed)])
        assert code == 0

    @pytest.mark.parametrize("flag, value, field", [
        ("--train-frac", "1.5", "split.trainFraction"),
        ("--train-frac", "abc", "split.trainFraction"),
        ("--folds", "2.7", "cvFolds"),
        ("--k", "x", "reduce.k"),
        ("--seed", "-1", "reduce.seed"),
    ])
    def test_flag_value_gets_file_checks(self, base_config, tmp_path, capsys,
                                         flag, value, field):
        base_config["dataset"]["path"] = str(tmp_path / "absent.tsv")
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path), flag, value]) == 2
        assert f"{field}:" in capsys.readouterr().err

    def test_k_override(self, base_config, tmp_path):
        path = write_config(tmp_path, base_config)
        out = tmp_path / "kout"
        assert main(["run", "--config", str(path), "--k", "17",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["effectiveK"] == 17

    def test_removed_ctf_dense_flag_exit_two(self, base_config, tmp_path):
        path = write_config(tmp_path, base_config)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--ctf-dense"])
        assert exc.value.code == 2

    def test_removed_lenient_key_exit_two(self, base_config, tmp_path,
                                          capsys, monkeypatch):
        def no_ingest(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr("ctfidf.ingest.load_dataset", no_ingest)
        for patch, message in (
                ({"dataset": {"lenient": True}},
                 "dataset.lenient: unknown configuration key"),
                ({"reduce": {"workSize": 450}},
                 "reduce.workSize: unknown configuration key"),
                ({"minDocFreq": 1}, "minDocFreq: unknown configuration key"),
                ({"model": {"hyperparameters": {"C": 1.0}}},
                 "model.hyperparameters.C: not a svm hyperparameter")):
            path = write_config(tmp_path, merged(base_config, patch))
            assert main(["run", "--config", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_readme_lists_the_run_flags(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"Each `run` flag \(([^)]*)\)", readme).group(1)
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {flag for action in sub.choices["run"]._actions
                 for flag in action.option_strings if flag.startswith("--")}
        assert set(re.findall(r"`(--[\w-]+)`", listed)) == \
            flags - {"--help", "--config"}


class TestStem:
    def test_json_payload(self, capsys):
        assert main(["stem", "You have WON a guaranteed prize"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stems"] == ["won", "guarante", "prize"]


class TestExplainCli:
    def test_explain_flow(self, base_config, tmp_path, capsys):
        base_config["model"] = {"kind": "dtree"}
        base_config["reduce"] = {"enabled": False}
        base_config["cvFolds"] = 2
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()
        model = str(Path(base_config["outputDir"]) / "model.json")
        json_out = tmp_path / "rank.json"
        assert main(["explain", model, "--top", "3",
                     "--json", str(json_out)]) == 0
        doc = json.loads(json_out.read_text())
        assert list(doc) == ["ranking"]
        ranking = doc["ranking"]
        assert 0 < len(ranking) <= 3
        for entry in ranking:
            assert list(entry) == ["featureName", "importance"]
            assert isinstance(entry["featureName"], str)
            assert type(entry["importance"]) is float
        values = [entry["importance"] for entry in ranking]
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_svm_model_rejected(self, base_config, tmp_path, capsys):
        path = write_config(tmp_path, base_config)
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()
        model = str(Path(base_config["outputDir"]) / "model.json")
        assert main(["explain", model]) == 1

    def test_mismatched_artifacts_exit_one(self, base_config, tmp_path,
                                           capsys):
        base_config["model"] = {"kind": "dtree"}
        base_config["reduce"] = {"enabled": False}
        base_config["cvFolds"] = 2
        assert main(["run", "--config",
                     str(write_config(tmp_path, base_config))]) == 0
        capsys.readouterr()
        model = Path(base_config["outputDir"]) / "model.json"
        doc = json.loads(model.read_text())
        doc["featureSpace"] = "reduced"  # but references.factors is null
        model.write_text(json.dumps(doc))
        assert main(["explain", str(model)]) == 1
        assert re.match(r"error: featureSpace 'reduced' disagrees",
                        capsys.readouterr().err)

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc.update(kind="knn"), "model kind 'knn' is not one of"),
        (lambda doc: doc.pop("references"), "missing key 'references'"),
    ], ids=["kind-knn", "no-references"])
    def test_malformed_model_exit_one(self, base_config, tmp_path, capsys,
                                      edit, named):
        base_config["model"] = {"kind": "dtree",
                                "hyperparameters": {"ccpAlpha": 1e-3}}
        base_config["reduce"] = {"enabled": False}
        assert main(["run", "--config",
                     str(write_config(tmp_path, base_config))]) == 0
        capsys.readouterr()
        model = Path(base_config["outputDir"]) / "model.json"
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        assert main(["explain", str(model)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: {named}")

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.replace('"labelOrder":["ham","spam"]',
                                  '"labelOrder":["ham"]'),
        lambda text: re.sub(r'"weights":\[[^]]*\]', '"weights":"oops"', text),
        lambda text: text[:len(text) // 2],
    ], ids=["one-label", "weights-text", "truncated"])
    def test_malformed_svm_model_exit_one(self, base_config, tmp_path,
                                          capsys, corrupt):
        base_config["reduce"] = {"enabled": False}
        assert main(["run", "--config",
                     str(write_config(tmp_path, base_config))]) == 0
        capsys.readouterr()
        model = Path(base_config["outputDir"]) / "model.json"
        text = model.read_text()
        model.write_text(corrupt(text))
        assert model.read_text() != text
        assert main(["explain", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: malformed: ")
        assert err.count("\n") == 1


class TestCompareCli:
    def test_two_configs(self, base_config, tmp_path, capsys):
        a = write_config(tmp_path, base_config, "a.json")
        cfg2 = dict(base_config)
        cfg2["weighting"] = "tfidf"
        cfg2["outputDir"] = str(tmp_path / "out_b")
        b = write_config(tmp_path, cfg2, "b.json")
        json_out = tmp_path / "cmp.json"
        assert main(["compare", str(a), str(b), "--json", str(json_out)]) == 0
        rows = json.loads(json_out.read_text())
        assert len(rows) == 2

    def test_single_config_is_config_error(self, base_config, tmp_path,
                                            capsys):
        a = write_config(tmp_path, base_config)
        assert main(["compare", str(a)]) == 2


class TestSvdCheck:
    def test_pass_on_random_matrix(self, tmp_path, capsys):
        from scipy.io import mmwrite

        A = sp.random(80, 60, density=0.1,
                      random_state=np.random.RandomState(0), format="csr")
        A.data += 0.5
        path = tmp_path / "matrix.mtx"
        mmwrite(str(path), A)
        assert main(["svd-check", str(path), "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "dense oracle" in out

    def test_nan_entry_exit_one(self, tmp_path, capsys):
        path = tmp_path / "nan.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 3\n1 1 1.0\n2 3 nan\n3 2 2.0\n")
        assert main(["svd-check", str(path), "--k", "1"]) == 1
        assert capsys.readouterr().err == \
            "error: feature matrix holds nan at row 1, feature 2\n"

    def test_missing_banner_exit_one(self, tmp_path, capsys):
        path = tmp_path / "plain.mtx"
        path.write_text("3 3 1\n1 1 1.0\n")
        assert main(["svd-check", str(path), "--k", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("header, body, code", [
        ("array real general", "3 2\n1.0\n2.0\n3.0\n4.0\n5.0\n7.0\n", 0),
        ("coordinate pattern general", "3 3 4\n1 1\n2 2\n3 3\n1 3\n", 0),
        ("coordinate integer general", "3 3 4\n1 1 2\n2 2 3\n3 3 4\n1 3 1\n",
         0),
        ("coordinate real symmetric",
         "3 3 4\n1 1 2.0\n2 2 3.0\n3 3 4.0\n3 1 1.0\n", 0),
        ("coordinate complex general",
         "3 3 3\n1 1 1.0 2.0\n2 2 3.0 0.0\n3 3 0.0 4.0\n", 1),
        (None, "", 1),
    ], ids=["array", "pattern", "integer", "symmetric", "complex", "empty"])
    def test_each_field_one_line_or_pass(self, tmp_path, capsys, header,
                                         body, code):
        path = tmp_path / "m.mtx"
        banner = f"%%MatrixMarket matrix {header}\n" if header else ""
        path.write_text(banner + body)
        assert main(["svd-check", str(path), "--k", "1"]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith(f"error: {path}: ")
            assert err.count("\n") == 1
        else:
            assert out.endswith("PASS\n") and err == ""
