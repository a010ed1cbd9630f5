import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ctfidf import pipeline, preprocess
from ctfidf.evaluation import confusion
from ctfidf.exceptions import (
    ArtifactError,
    ConfigError,
    DimensionMismatchError,
    UnsupportedModelError,
)
from ctfidf.ingest import load_dataset, split
from ctfidf.irlba import load_factors, save_factors
from ctfidf.pipeline import (
    _EXPERIMENT,
    _HYPERPARAMETERS,
    ModelSpec,
    ReduceConfig,
    compare,
    comparison_table,
    config_from_dict,
    explain,
    load_artifacts,
    load_config,
    run_experiment,
)
from ctfidf.porter import porter_stem
from ctfidf.tree import train_dtree

from conftest import BAD_VALUES, merged, write_config


VOLATILE = ("trainTimeMs", "reduceTimeMs", "timestamp", "machine",
            "svdRestarts")

# one value of each JSON type; "array" is no field's type
SAMPLES = ("x", 7, 0.5, True, None, {}, [])
JSON_TYPE = {str: "string", int: "integer", float: "number", bool: "boolean",
             type(None): "null", dict: "object", list: "array"}


def admits(kind, sample):
    kinds = kind.split("|")
    t = JSON_TYPE[type(sample)]
    return t in kinds or (t == "integer" and "number" in kinds)


def schema_keys(table, where=()):
    """(dotted key path, JSON type) of every field and section."""
    for key, (_, kind, *_) in table.items():
        path = where + (key,)
        yield path, "object" if isinstance(kind, dict) else kind
        if isinstance(kind, dict):
            yield from schema_keys(kind, path)


def replaced(obj, table, path, value):
    """obj with the field at the JSON key path set to value."""
    attr, kind, *_ = table[path[0]]
    if len(path) > 1:
        value = replaced(getattr(obj, attr), kind, path[1:], value)
    return dataclasses.replace(obj, **{attr: value})


def scrub(report_dict):
    d = dict(report_dict)
    for key in VOLATILE:
        d.pop(key, None)
    return d


class TestConfig:
    def test_defaults_materialized(self, base_config, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config))
        snap = cfg.resolved()
        assert "minDocFreq" not in snap
        assert snap["split"]["stratified"] is True
        assert len(snap["preprocess"]["stopwordHash"]) == 64

    def test_invalid_train_fraction_names_field(self, base_config, tmp_path):
        base_config["split"]["trainFraction"] = 1.5
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, base_config))
        assert "trainFraction" in str(err.value)

    def test_unknown_key_rejected(self, base_config, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path,
                                     {**base_config, "weigthing": "tfidf"}))
        assert err.value.field == "weigthing"

    def test_ctf_dense_requires_ctfidf(self, base_config, tmp_path):
        # the ctfDense setting is removed: it is an unknown key under
        # either weighting
        for weighting in ("tfidf", "ctfidf"):
            cfg = {**base_config, "weighting": weighting, "ctfDense": True}
            with pytest.raises(ConfigError) as err:
                load_config(write_config(tmp_path, cfg))
            assert err.value.field == "ctfDense"

    def test_unknown_section_key_names_field(self, base_config):
        for section, key in (("dataset", "delimeter"),
                             ("dataset", "quoted"), ("dataset", "lenient"),
                             ("dataset", "keepEmpty"),
                             ("preprocess", "stopwords"),
                             ("preprocess", "stopwordList"),
                             ("preprocess", "removeNumbers"),
                             ("preprocess", "minTokenLength"), ("reduce", "K"),
                             ("model", "hyperparams"), ("split", "seeed")):
            cfg = json.loads(json.dumps(base_config))
            cfg.setdefault(section, {})[key] = 1
            with pytest.raises(ConfigError) as err:
                config_from_dict(cfg)
            assert err.value.field == f"{section}.{key}"
        # settings no run set, removed
        with pytest.raises(ConfigError) as err:
            config_from_dict({**base_config, "minDocFreq": 1})
        assert err.value.field == "minDocFreq"
        for kind, key in (("svm", "C"), ("svm", "tol"), ("svm", "maxIter"),
                          ("dtree", "maxDepth"), ("dtree", "minSamplesSplit")):
            with pytest.raises(ConfigError) as err:
                config_from_dict(merged(base_config, {"model": {
                    "kind": kind, "hyperparameters": {key: 2}}}))
            assert err.value.field == f"model.hyperparameters.{key}"

    def test_hyperparameters_checked_against_model_kind(self, base_config):
        for kind, good, typo in (("svm", {"seed": 5}, "c"),
                                 ("dtree", {"ccpAlpha": 0.5}, "C")):
            base_config["model"] = {"kind": kind,
                                    "hyperparameters": dict(good)}
            config_from_dict(base_config).validate()
            base_config["model"]["hyperparameters"][typo] = 10
            with pytest.raises(ConfigError) as err:
                config_from_dict(base_config).validate()
            assert err.value.field == f"model.hyperparameters.{typo}"
            assert kind in str(err.value)

    def test_stopword_list_is_read(self, base_config):
        # the list is the shipped one, pinned only by its hash
        base_config["preprocess"] = {"stopwordList": "snowball-english"}
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_config)
        assert err.value.field == "preprocess.stopwordList"
        base_config["preprocess"] = {"stopwordHash": "0" * 64}
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_config).validate()
        assert err.value.field == "preprocess"
        assert "stopword hash mismatch" in str(err.value)

    def test_every_key_rejects_other_json_types(self, base_config):
        checked = 0
        for path, kind in schema_keys(_EXPERIMENT):
            for sample in SAMPLES:
                if admits(kind, sample):
                    continue
                cfg = json.loads(json.dumps(base_config))
                target = cfg
                for section in path[:-1]:
                    target = target.setdefault(section, {})
                target[path[-1]] = sample
                with pytest.raises(ConfigError) as err:
                    config_from_dict(cfg)
                assert err.value.field == ".".join(path), (path, sample)
                checked += 1
        for kind, table in _HYPERPARAMETERS.items():
            for key, (_, json_type, *_) in table.items():
                for sample in SAMPLES:
                    if admits(json_type, sample):
                        continue
                    base_config["model"] = {"kind": kind,
                                            "hyperparameters": {key: sample}}
                    with pytest.raises(ConfigError) as err:
                        config_from_dict(base_config).validate()
                    assert err.value.field == f"model.hyperparameters.{key}"
                    checked += 1
        assert checked > 150

    def test_python_configs_get_the_json_checks(self, base_config):
        config = config_from_dict(base_config)
        checked = 0
        for path, kind in schema_keys(_EXPERIMENT):
            if len(path) == 1 and isinstance(_EXPERIMENT[path[0]][1], dict):
                continue  # a section is a dataclass in Python
            for sample in SAMPLES:
                if admits(kind, sample):
                    continue
                try:
                    bad = replaced(config, _EXPERIMENT, path, sample)
                except ValueError as exc:  # SplitSpec checks its fraction
                    assert path == ("split", "trainFraction"), path
                    assert "train_fraction" in str(exc)
                    continue
                with pytest.raises(ConfigError) as err:
                    bad.validate()
                assert err.value.field == ".".join(path), (path, sample)
                checked += 1
        for kind, table in _HYPERPARAMETERS.items():
            for key, (_, json_type, *_) in table.items():
                for sample in SAMPLES:
                    if admits(json_type, sample):
                        continue
                    bad = dataclasses.replace(config, model=ModelSpec(
                        kind=kind, hyperparameters={key: sample}))
                    with pytest.raises(ConfigError) as err:
                        bad.validate()
                    assert err.value.field == f"model.hyperparameters.{key}"
                    checked += 1
        assert checked > 120

    @pytest.mark.parametrize("reduce, field", [
        (ReduceConfig(enabled="no"), "reduce.enabled"),
        (ReduceConfig(k=np.int64(20)), "reduce.k")])
    def test_python_config_fails_before_ingest(self, base_config, tmp_path,
                                               reduce, field):
        base_config["dataset"]["path"] = str(tmp_path / "absent.tsv")
        config = dataclasses.replace(config_from_dict(base_config),
                                     reduce=reduce)
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.field == field
        assert not Path(config.output_dir).exists()

    @pytest.mark.parametrize("section", [
        key for key, (_, kind, *_) in _EXPERIMENT.items()
        if isinstance(kind, dict)])
    def test_python_section_must_be_its_dataclass(self, base_config, tmp_path,
                                                  section):
        base_config["dataset"]["path"] = str(tmp_path / "absent.tsv")
        config = config_from_dict(base_config)
        # the section's JSON form, which config_from_dict would accept
        config = dataclasses.replace(
            config, **{_EXPERIMENT[section][0]: config.resolved()[section]})
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.field == section
        assert not Path(config.output_dir).exists()

    @pytest.mark.parametrize("patch, field", BAD_VALUES)
    def test_bad_value_names_key_before_ingest(self, base_config, tmp_path,
                                               patch, field):
        cfg = merged(base_config, patch)
        # reading the dataset would raise FileNotFoundError
        cfg["dataset"]["path"] = str(tmp_path / "absent.tsv")
        with pytest.raises(ConfigError) as err:
            run_experiment(config_from_dict(cfg))
        assert err.value.field == field

    @pytest.mark.parametrize("kind", ["svm", "dtree"])
    def test_report_config_round_trips(self, base_config, kind):
        base_config["model"] = {"kind": kind}
        run_experiment(config_from_dict(base_config))
        report = json.loads((Path(base_config["outputDir"]) / "report.json")
                            .read_text())
        assert config_from_dict(report["config"]).resolved() == \
            report["config"]

    def test_bad_weighting(self, base_config):
        base_config["weighting"] = "bm25"
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_config)
        assert err.value.field == "weighting"

    def test_relative_dataset_path_resolved(self, base_config, tmp_path):
        src = Path(base_config["dataset"]["path"])
        local = tmp_path / "corpus.tsv"
        local.write_bytes(src.read_bytes())
        base_config["dataset"]["path"] = "corpus.tsv"
        cfg = load_config(write_config(tmp_path, base_config))
        assert Path(cfg.dataset.path).is_absolute()
        assert Path(cfg.dataset.path).exists()


class TestRunExperiment:
    def test_artifacts_written(self, base_config, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config))
        report = run_experiment(cfg)
        out = Path(cfg.output_dir)
        for name in ("report.json", "model.json", "vocab.json", "factors.bin"):
            assert (out / name).exists(), name
        # report.json alone holds the positive label
        model = json.loads((out / "model.json").read_text())
        assert "positiveLabel" not in model
        assert model["references"] == {"vocab": "vocab.json",
                                       "factors": "factors.bin"}
        assert 0.0 <= report.metric.f1 <= 1.0
        assert report.train_time_ms >= 0
        assert report.reduce_time_ms is not None

    def test_no_factors_without_reduce(self, base_config, tmp_path):
        base_config["reduce"] = {"enabled": False}
        base_config["outputDir"] = str(tmp_path / "plain")
        cfg = load_config(write_config(tmp_path, base_config))
        report = run_experiment(cfg)
        assert not (Path(cfg.output_dir) / "factors.bin").exists()
        assert report.reduce_time_ms is None

    def test_metrics_consistent_with_confusion(self, base_config, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config))
        report = run_experiment(cfg)
        d = report.to_dict()
        c = d["confusion"]
        tp, fp, fn, tn = c["tp"], c["fp"], c["fn"], c["tn"]
        assert tp + fp + fn + tn == d["testSize"]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        assert d["precision"] == pytest.approx(precision)
        assert d["recall"] == pytest.approx(recall)
        if precision + recall:
            assert d["f1"] == pytest.approx(
                2 * precision * recall / (precision + recall))

    def test_determinism_modulo_volatile_fields(self, base_config, tmp_path):
        cfg_path = write_config(tmp_path, base_config)
        a = run_experiment(load_config(cfg_path)).to_dict()
        base_config["outputDir"] = str(tmp_path / "out2")
        b = run_experiment(load_config(write_config(tmp_path, base_config,
                                                    "c2.json"))).to_dict()
        a["config"].pop("outputDir")
        b["config"].pop("outputDir")
        assert scrub(a) == scrub(b)

    def test_report_json_stable_bytes(self, base_config, tmp_path):
        cfg_path = write_config(tmp_path, base_config)
        run_experiment(load_config(cfg_path))
        first = json.loads((Path(base_config["outputDir"]) / "report.json")
                           .read_text())
        run_experiment(load_config(cfg_path))
        second = json.loads((Path(base_config["outputDir"]) / "report.json")
                            .read_text())
        assert scrub(first) == scrub(second)
        assert list(first) == list(second)  # stable field order

    def test_label_mapping_through_config(self, tmp_path):
        rows = [("ham", "hello there friend"), ("junk", "win cash prize"),
                ("smish", "click this link now"), ("ham", "see you at lunch"),
                ("junk", "free entry claim prize"), ("smish", "urgent reply"),
                ("ham", "movie tonight"), ("junk", "cash bonus offer")]
        data = tmp_path / "mixed.tsv"
        data.write_text("\n".join(f"{l}\t{t}" for l, t in rows) + "\n")
        cfg = config_from_dict({
            "dataset": {"path": str(data),
                        "labelMapping": {"junk": "spam", "smish": "spam"}},
            "reduce": {"enabled": False},
            "model": {"kind": "svm"},
            "split": {"trainFraction": 0.5, "seed": 0},
            "cvFolds": 2,
            "outputDir": str(tmp_path / "out"),
        })
        report = run_experiment(cfg)
        assert report.to_dict()["labelCounts"] == {"ham": 3, "spam": 5}

    def test_tree_cv_scores_the_positive_label(self, base_config,
                                              monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["positive_label"])
            return train_dtree(*args, **kwargs)

        monkeypatch.setattr("ctfidf.pipeline.train_dtree", spy)
        cfg = merged(base_config, {
            "dataset": {"labelMapping": {"spam": "Spam"}},
            "positiveLabel": "Spam", "reduce": {"enabled": False},
            "model": {"kind": "dtree"}})
        run_experiment(config_from_dict(cfg))
        assert seen == ["Spam"]  # not "ham", the last label in sorted order

    def test_vocab_json_pairs_weighting(self, base_config, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config))
        run_experiment(cfg)
        vocab = json.loads((Path(cfg.output_dir) / "vocab.json").read_text())
        assert len(vocab["terms"]) == len(vocab["docFreq"])
        assert vocab["weighting"]["scheme"] == "ctfidf"
        assert len(vocab["weighting"]["idf"]) == len(vocab["terms"])
        assert vocab["weighting"]["nDocs"] == vocab["nDocs"]

    def test_dataset_fingerprint_tracks_content(self, base_config, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config))
        r1 = run_experiment(cfg)
        import hashlib
        expect = hashlib.sha256(
            Path(base_config["dataset"]["path"]).read_bytes()).hexdigest()
        assert r1.dataset_fingerprint == expect


@pytest.mark.parametrize("patch", [
    pytest.param({"model": {"kind": kind, "hyperparameters": hp},
                  "weighting": scheme, "reduce": {"enabled": reduce, "k": 40}},
                 id=f"{kind}-{scheme}-{'reduced' if reduce else 'terms'}")
    for kind, hp in (("svm", {}), ("dtree", {"ccpAlpha": 1e-3}))
    for scheme in ("tfidf", "ctfidf") for reduce in (False, True)
] + [# a setting that treats short tokens differently at fit and reload
      # shows only where they carry the class signal
      pytest.param({"dataset": {"path": "short_token_tsv"}},
                   id="short-tokens")])
def test_artifacts_alone_reproduce_the_confusion(base_config, patch, request):
    corpus = patch.get("dataset", {}).get("path")  # a corpus fixture's name
    if corpus:
        patch = {**patch, "dataset": {
            "path": str(request.getfixturevalue(corpus))}}
    config = config_from_dict(merged(base_config, patch))
    run_experiment(config)
    out = Path(config.output_dir)
    _, test = split(load_dataset(config.dataset.path, config.dataset),
                    config.split)
    report = json.loads((out / "report.json").read_text())
    classifier = load_artifacts(out / "model.json")
    predicted = classifier.classify(test.texts())
    assert confusion(test.labels(), predicted,
                     config.positive_label).to_dict() == report["confusion"]
    assert classifier.classify([]) == []


def shorten(key):
    """An edit of a JSON artifact that drops the last entry of ``key``."""
    return lambda doc: doc.update({key: doc[key][:-1]})


def shorten_v(factors):
    return dataclasses.replace(factors, V=factors.V[:-1])


# (model kind, reduced, artifact, edit): each edit leaves artifacts that
# disagree with each other, as a hand edit or a mixed-up copy could
@pytest.mark.parametrize("kind, reduced, artifact, edit", [
    pytest.param("dtree", False, "model.json",
                 lambda doc: doc.update(featureSpace="reduced"),
                 id="reduced-without-factors"),
    pytest.param("dtree", True, "model.json",
                 lambda doc: doc.update(featureSpace="terms"),
                 id="terms-with-factors"),
    pytest.param("dtree", False, "vocab.json", shorten("terms"),
                 id="terms-short-of-idf"),
    pytest.param("svm", True, "factors.bin", shorten_v,
                 id="factors-short-of-vocabulary"),
    pytest.param("svm", False, "model.json", shorten("weights"),
                 id="svm-weights-short"),
])
def test_mismatched_artifacts_rejected(base_config, kind, reduced, artifact,
                                       edit):
    config = config_from_dict(merged(base_config, {
        "model": {"kind": kind}, "reduce": {"enabled": reduced}}))
    run_experiment(config)
    path = Path(config.output_dir) / artifact
    if artifact == "factors.bin":
        save_factors(str(path), edit(load_factors(str(path))))
    else:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatchError):
        load_artifacts(path.parent / "model.json").classify(
            ["free prize, reply now", "see you at lunch"])


# a term tree at a fixed ccpAlpha, as the sms_terms_tree benchmark fits
TERMS_TREE = {"model": {"kind": "dtree",
                        "hyperparameters": {"ccpAlpha": 1e-3}},
              "reduce": {"enabled": False}}


# (artifact, edit, what the error names after the file)
@pytest.mark.parametrize("artifact, edit, named", [
    pytest.param("model.json", lambda doc: doc.update(kind="knn"),
                 "model kind 'knn' is not one of ['dtree', 'svm']",
                 id="kind-knn"),
    pytest.param("model.json", lambda doc: doc.pop("references"),
                 "missing key 'references'", id="no-references"),
    pytest.param("model.json", lambda doc: doc.pop("featureSpace"),
                 "missing key 'featureSpace'", id="no-feature-space"),
    pytest.param("model.json", lambda doc: doc.pop("nodes"),
                 "missing key 'nodes'", id="no-nodes"),
    pytest.param("vocab.json", lambda doc: doc.pop("terms"),
                 "missing key 'terms'", id="no-terms"),
    pytest.param("vocab.json", lambda doc: doc["weighting"].pop("idf"),
                 "missing key 'idf'", id="no-idf"),
    pytest.param("model.json", lambda doc: doc.update(nodes=3),
                 "malformed: 'int' object is not iterable",
                 id="nodes-number"),
    pytest.param("vocab.json", lambda doc: doc.update(docFreq="oops"),
                 "malformed: ", id="doc-freq-text"),
])
def test_malformed_artifacts_rejected(base_config, artifact, edit, named):
    config = config_from_dict(merged(base_config, TERMS_TREE))
    run_experiment(config)
    path = Path(config.output_dir) / artifact
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=re.escape(f"{path}: {named}")):
        load_artifacts(path.parent / "model.json")


def test_cut_factors_rejected(base_config):
    config = config_from_dict(base_config)
    run_experiment(config)
    path = Path(config.output_dir) / "factors.bin"
    whole = path.read_bytes()
    for size in (0, 1, 5_000, len(whole) // 2, len(whole) - 1):
        path.write_bytes(whole[:size])
        with pytest.raises(ArtifactError,
                           match=re.escape(f"{path}: malformed: ")):
            load_artifacts(path.parent / "model.json")


class TestExplain:
    def make_tree_run(self, base_config, tmp_path, reduce_enabled=False):
        base_config["model"] = {"kind": "dtree"}
        base_config["reduce"] = {"enabled": reduce_enabled, "k": 20}
        base_config["cvFolds"] = 2
        base_config["outputDir"] = str(tmp_path / "treeout")
        cfg = load_config(write_config(tmp_path, base_config, "tree.json"))
        run_experiment(cfg)
        return Path(cfg.output_dir) / "model.json"

    def test_term_tree_ranking(self, base_config, tmp_path):
        model_path = self.make_tree_run(base_config, tmp_path)
        ranking = explain(model_path, top_n=5)
        assert 0 < len(ranking) <= 5
        names = [n for n, _ in ranking]
        assert all(isinstance(n, str) for n in names)
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)

    def test_top_zero_empty(self, base_config, tmp_path):
        model_path = self.make_tree_run(base_config, tmp_path)
        assert explain(model_path, top_n=0) == ()

    # each refusal reads model.json alone: the other files are gone
    def test_svm_unsupported(self, base_config, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config))
        run_experiment(cfg)
        for name in ("vocab.json", "factors.bin"):
            (Path(cfg.output_dir) / name).unlink()
        with pytest.raises(UnsupportedModelError, match="decision tree"):
            explain(Path(cfg.output_dir) / "model.json", top_n=5)

    def test_reduced_tree_unsupported(self, base_config, tmp_path):
        model_path = self.make_tree_run(base_config, tmp_path,
                                        reduce_enabled=True)
        for name in ("vocab.json", "factors.bin"):
            (model_path.parent / name).unlink()
        with pytest.raises(UnsupportedModelError, match="reduced"):
            explain(model_path, top_n=5)


class TestCompare:
    def test_requires_two_configs(self, base_config, tmp_path):
        path = write_config(tmp_path, base_config)
        with pytest.raises(ConfigError):
            compare([str(path)])

    def test_four_variant_table(self, base_config, tmp_path):
        paths = []
        for i, (scheme, reduced) in enumerate(
                [("tfidf", False), ("ctfidf", False),
                 ("tfidf", True), ("ctfidf", True)]):
            cfg = dict(base_config)
            cfg["weighting"] = scheme
            cfg["reduce"] = {"enabled": reduced, "k": 30}
            cfg["model"] = {"kind": "svm"}
            cfg["outputDir"] = str(tmp_path / f"v{i}")
            paths.append(str(write_config(tmp_path, cfg, f"v{i}.json")))
        rows = compare(paths)
        assert len(rows) == 4
        assert [r["weighting"] for r in rows] == ["tfidf", "ctfidf",
                                                  "tfidf", "ctfidf"]
        assert [r["reduction"] for r in rows] == ["none", "none",
                                                  "irlba", "irlba"]
        assert all(r["error"] is None for r in rows)
        table = comparison_table(rows)
        assert table.count("\n") == 5  # header + rule + 4 rows
        for col in ("precision", "recall", "f1", "train"):
            assert col in table.splitlines()[0]

    def test_failed_row_marked(self, base_config, tmp_path):
        good = write_config(tmp_path, base_config, "good.json")
        bad_cfg = dict(base_config)
        bad_cfg["dataset"] = {"path": str(tmp_path / "missing.tsv")}
        bad = write_config(tmp_path, bad_cfg, "bad.json")
        rows = compare([str(good), str(bad)])
        assert rows[0]["error"] is None
        assert rows[1]["error"]
        assert "FAILED" in comparison_table(rows)


def test_json_artifacts_are_one_line_of_their_payload(base_config,
                                                      monkeypatch):
    written = {}
    write = pipeline._write_json

    def spy(path, payload):
        written[path.name] = payload
        write(path, payload)

    monkeypatch.setattr(pipeline, "_write_json", spy)
    config = config_from_dict(base_config)
    run_experiment(config)
    assert sorted(written) == ["model.json", "report.json", "vocab.json"]
    for name, payload in written.items():
        text = (Path(config.output_dir) / name).read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n"), name
        assert json.loads(text) == payload, name


@pytest.mark.parametrize("reduced", [False, True])
def test_each_distinct_token_is_stemmed_once_per_run(base_config, reduced,
                                                     monkeypatch):
    """Evaluation reads the stems training decided from the classifier's
    memo; a loaded classifier starts with an empty one."""
    calls = []

    def counting_stem(token):
        calls.append(token)
        return porter_stem(token)

    monkeypatch.setattr(preprocess, "porter_stem", counting_stem)
    config = config_from_dict(merged(base_config,
                                     {"reduce": {"enabled": reduced}}))
    run_experiment(config)
    stopwords = preprocess.load_stopwords()
    texts = load_dataset(config.dataset.path, config.dataset).texts()
    distinct = {t for text in texts for t in preprocess.tokenize(text)
                if t not in stopwords}
    assert sorted(calls) == sorted(distinct)

    classifier = load_artifacts(Path(config.output_dir) / "model.json")
    assert classifier.stems == {}
    del calls[:]
    classifier.classify(texts[:5])
    classifier.classify(texts[:5])
    assert sorted(calls) == sorted({t for t in classifier.stems
                                    if t not in stopwords})
