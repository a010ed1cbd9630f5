"""Configuration-driven experiment runner.

One experiment is: load and label-normalize a dataset, split it, fit the
vocabulary / weighting / (optionally) the truncated SVD on the training
partition only, project both partitions, train a classifier under a
timer, and score the held-out test set. Everything lands in the output
directory: ``report.json``, ``model.json``, ``vocab.json``, and
``factors.bin`` when reduction ran.

Every random choice (split, SVD start vector, learner) derives from
seeds recorded in the config, so a rerun with the same config and data
reproduces every metric field byte for byte.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dfm, ingest, weighting
from .evaluation import EvalReport, confusion, metrics, time_train
from .exceptions import ConfigError, CtfidfError, UnsupportedModelError
from .irlba import IrlbaConfig, SvdFactors, irlba, project, save_factors
from .preprocess import PreprocessConfig, preprocess_corpus
from .svm import SvmModel, predict_svm, train_svm
from .tree import (
    DecisionTreeModel,
    FeatureImportanceReport,
    TreeParams,
    feature_importance,
    predict_dtree,
    train_dtree,
)

SCHEMA_VERSION = 1

# hyperparameters _train_model reads, per model kind
_HYPERPARAMETERS = {"svm": ("C", "tol", "maxIter", "seed"),
                   "dtree": ("maxDepth", "minSamplesSplit", "ccpAlpha",
                             "seed")}


@dataclass(frozen=True)
class DatasetConfig:
    path: str
    delimiter: str = "\t"
    label_column: int = 0
    text_column: int = 1
    has_header: bool = False
    label_mapping: dict = field(default_factory=dict)
    quoted: bool | None = None
    lenient: bool = False      # skip-and-log malformed rows instead of aborting
    keep_empty: bool = False   # retain records whose text trims to empty

    def load_format(self) -> ingest.LoadFormat:
        return ingest.LoadFormat(delimiter=self.delimiter,
                                 label_column=self.label_column,
                                 text_column=self.text_column,
                                 has_header=self.has_header,
                                 quoted=self.quoted)


@dataclass(frozen=True)
class ReduceConfig:
    enabled: bool = True
    k: int = 300
    tol: float = 1e-5
    work_size: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "svm"  # "svm" | "dtree"
    hyperparameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    weighting_scheme: str = "ctfidf"  # "tfidf" | "ctfidf"
    ctf_dense: bool = False
    min_doc_freq: int = 1
    reduce: ReduceConfig = field(default_factory=ReduceConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    split: ingest.SplitSpec = field(
        default_factory=lambda: ingest.SplitSpec(0.7, seed=0, stratified=True))
    cv_folds: int = 10
    positive_label: str = "spam"
    output_dir: str = "runs/experiment"
    project_scaled: bool = False

    def validate(self) -> None:
        if not self.dataset.path:
            raise ConfigError("dataset.path", "must be set")
        if self.weighting_scheme not in ("tfidf", "ctfidf"):
            raise ConfigError("weighting",
                              f"must be tfidf or ctfidf, got "
                              f"{self.weighting_scheme!r}")
        if self.ctf_dense and self.weighting_scheme != "ctfidf":
            raise ConfigError("ctf_dense", "only valid with ctfidf weighting")
        if self.model.kind not in _HYPERPARAMETERS:
            raise ConfigError("model.kind",
                              f"must be svm or dtree, got {self.model.kind!r}")
        _reject_unknown(self.model.hyperparameters,
                        _HYPERPARAMETERS[self.model.kind],
                        "model.hyperparameters",
                        f"not a {self.model.kind} hyperparameter")
        if not 0.0 < self.split.train_fraction < 1.0:
            raise ConfigError("split.train_fraction",
                              f"must be in (0, 1), got "
                              f"{self.split.train_fraction}")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds", f"must be >= 2, got {self.cv_folds}")
        if self.reduce.enabled:
            if self.reduce.k < 1:
                raise ConfigError("reduce.k", f"must be >= 1, got {self.reduce.k}")
            if self.reduce.tol <= 0:
                raise ConfigError("reduce.tol",
                                  f"must be positive, got {self.reduce.tol}")
        if self.min_doc_freq < 1:
            raise ConfigError("min_doc_freq",
                              f"must be >= 1, got {self.min_doc_freq}")
        try:
            self.preprocess.validate()
        except ValueError as exc:
            raise ConfigError("preprocess", str(exc)) from exc

    def resolved(self) -> dict:
        """Full snapshot with every default materialized, stable order."""
        return {
            "dataset": {"path": self.dataset.path,
                        "delimiter": self.dataset.delimiter,
                        "labelColumn": self.dataset.label_column,
                        "textColumn": self.dataset.text_column,
                        "hasHeader": self.dataset.has_header,
                        "labelMapping": dict(sorted(
                            self.dataset.label_mapping.items())),
                        "quoted": self.dataset.quoted,
                        "lenient": self.dataset.lenient,
                        "keepEmpty": self.dataset.keep_empty},
            "preprocess": {"stopwordList": self.preprocess.stopword_list,
                           "stopwordHash": self.preprocess.stopword_hash,
                           "removeNumbers": self.preprocess.remove_numbers,
                           "minTokenLength": self.preprocess.min_token_length},
            "weighting": self.weighting_scheme,
            "ctfDense": self.ctf_dense,
            "minDocFreq": self.min_doc_freq,
            "reduce": {"enabled": self.reduce.enabled, "k": self.reduce.k,
                       "tol": self.reduce.tol,
                       "workSize": self.reduce.work_size,
                       "seed": self.reduce.seed},
            "model": {"kind": self.model.kind,
                      "hyperparameters": dict(sorted(
                          self.model.hyperparameters.items()))},
            "split": {"trainFraction": self.split.train_fraction,
                      "seed": self.split.seed,
                      "stratified": self.split.stratified},
            "cvFolds": self.cv_folds,
            "positiveLabel": self.positive_label,
            "projectScaled": self.project_scaled,
            "outputDir": self.output_dir,
        }


def _reject_unknown(d: dict, known, where: str = "",
                    message: str = "unknown configuration key") -> None:
    """Raise ConfigError naming the first key of d that is not known."""
    extra = set(d) - set(known)
    if extra:
        name = sorted(extra)[0]
        raise ConfigError(f"{where}.{name}" if where else name, message)


def _section(d: dict, name: str, known) -> dict:
    """The object under d[name] ({} when absent), with only known keys."""
    sec = d.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(name, "must be an object")
    _reject_unknown(sec, known, name)
    return sec


def config_from_dict(d: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys at every level.

    Hyperparameter names depend on the model kind, and are checked by
    :meth:`ExperimentConfig.validate`.
    """
    _reject_unknown(d, ("dataset", "preprocess", "weighting", "ctfDense",
                        "minDocFreq", "reduce", "model", "split", "cvFolds",
                        "positiveLabel", "projectScaled", "outputDir"))
    ds = _section(d, "dataset", ("path", "delimiter", "labelColumn",
                                 "textColumn", "hasHeader", "labelMapping",
                                 "quoted", "lenient", "keepEmpty"))
    if "path" not in ds:
        raise ConfigError("dataset", "must be an object with a 'path'")
    path = Path(ds["path"])
    if not path.is_absolute():
        path = Path(base_dir) / path
    dataset = DatasetConfig(path=str(path),
                            delimiter=ds.get("delimiter", "\t"),
                            label_column=int(ds.get("labelColumn", 0)),
                            text_column=int(ds.get("textColumn", 1)),
                            has_header=bool(ds.get("hasHeader", False)),
                            label_mapping=dict(ds.get("labelMapping", {})),
                            quoted=ds.get("quoted"),
                            lenient=bool(ds.get("lenient", False)),
                            keep_empty=bool(ds.get("keepEmpty", False)))
    pp = _section(d, "preprocess",
                  ("stopwordList", "removeNumbers", "minTokenLength"))
    pre_kwargs = {}
    if "stopwordList" in pp:
        pre_kwargs["stopword_list"] = str(pp["stopwordList"])
    if "removeNumbers" in pp:
        pre_kwargs["remove_numbers"] = bool(pp["removeNumbers"])
    if "minTokenLength" in pp:
        pre_kwargs["min_token_length"] = int(pp["minTokenLength"])
    preprocess = PreprocessConfig(**pre_kwargs)
    rd = _section(d, "reduce", ("enabled", "k", "tol", "workSize", "seed"))
    reduce_cfg = ReduceConfig(enabled=bool(rd.get("enabled", True)),
                              k=int(rd.get("k", 300)),
                              tol=float(rd.get("tol", 1e-5)),
                              work_size=rd.get("workSize"),
                              seed=int(rd.get("seed", 0)))
    md = _section(d, "model", ("kind", "hyperparameters"))
    model = ModelSpec(kind=md.get("kind", "svm"),
                      hyperparameters=dict(md.get("hyperparameters", {})))
    spl = _section(d, "split", ("trainFraction", "seed", "stratified"))
    frac = float(spl.get("trainFraction", 0.7))
    if not 0.0 < frac < 1.0:
        raise ConfigError("split.trainFraction",
                          f"must be in (0, 1), got {frac}")
    split_spec = ingest.SplitSpec(train_fraction=frac,
                                  seed=int(spl.get("seed", 0)),
                                  stratified=bool(spl.get("stratified", True)))
    return ExperimentConfig(dataset=dataset, preprocess=preprocess,
                            weighting_scheme=d.get("weighting", "ctfidf"),
                            ctf_dense=bool(d.get("ctfDense", False)),
                            min_doc_freq=int(d.get("minDocFreq", 1)),
                            reduce=reduce_cfg, model=model, split=split_spec,
                            cv_folds=int(d.get("cvFolds", 10)),
                            positive_label=d.get("positiveLabel", "spam"),
                            output_dir=d.get("outputDir", "runs/experiment"),
                            project_scaled=bool(d.get("projectScaled", False)))


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return config_from_dict(raw, base_dir=path.parent)


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _model_seed(config: ExperimentConfig) -> int:
    return int(config.model.hyperparameters.get("seed", config.split.seed))


def _train_model(config: ExperimentConfig, X, y: list[str]):
    hp = config.model.hyperparameters
    seed = _model_seed(config)
    if config.model.kind == "svm":
        model = train_svm(X, y, C=float(hp.get("C", 1.0)),
                          tol=float(hp.get("tol", 1e-4)),
                          max_iter=int(hp.get("maxIter", 100_000)), seed=seed)
    else:
        params = TreeParams(max_depth=int(hp.get("maxDepth", 30)),
                            min_samples_split=int(hp.get("minSamplesSplit", 2)),
                            ccp_alpha=hp.get("ccpAlpha"))
        model = train_dtree(X, y, params, cv_folds=config.cv_folds, seed=seed)
    return model


@contextlib.contextmanager
def _stage(name: str):
    """Tag escaping pipeline errors with the stage they came from."""
    try:
        yield
    except (CtfidfError, OSError) as exc:
        if getattr(exc, "stage", None) is None:
            exc.stage = name
        raise


def run_experiment(config: ExperimentConfig) -> EvalReport:
    """Execute the full pipeline and write all artifacts to disk."""
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with _stage("ingest"):
        corpus = ingest.load_dataset(config.dataset.path,
                                     config.dataset.load_format(),
                                     keep_empty=config.dataset.keep_empty,
                                     lenient=config.dataset.lenient)
        if config.dataset.label_mapping:
            corpus = ingest.normalize_labels(corpus,
                                             config.dataset.label_mapping)
        train, test = ingest.split(corpus, config.split)

    with _stage("preprocess"):
        train_docs = preprocess_corpus(train.texts(), config.preprocess)
        test_docs = preprocess_corpus(test.texts(), config.preprocess)

    with _stage("dfm"):
        vocab = dfm.build_vocabulary(train_docs,
                                     min_doc_freq=config.min_doc_freq)
        X_train_counts = dfm.build_dfm(train_docs, vocab)
        X_test_counts = dfm.build_dfm(test_docs, vocab)

    with _stage("weighting"):
        scheme = weighting.Scheme(config.weighting_scheme)
        wmodel = weighting.fit_weighting(vocab, scheme)
        X_train = weighting.apply_weighting(X_train_counts, wmodel,
                                            dense_offset=config.ctf_dense)
        X_test = weighting.apply_weighting(X_test_counts, wmodel,
                                           dense_offset=config.ctf_dense)

    factors: SvdFactors | None = None
    reduce_ms: int | None = None
    effective_k: int | None = None
    with _stage("reduce"):
        if config.reduce.enabled:
            max_k = min(X_train.shape) - 1
            effective_k = min(config.reduce.k, max_k)
            cfg = IrlbaConfig(k=effective_k, work_size=config.reduce.work_size,
                              tol=config.reduce.tol, seed=config.reduce.seed)
            factors, reduce_ms = time_train(lambda: irlba(X_train, cfg))
            F_train = project(X_train, factors, scaled=config.project_scaled)
            F_test = project(X_test, factors, scaled=config.project_scaled)
        else:
            F_train, F_test = X_train, X_test

    with _stage("train"):
        y_train, y_test = train.labels(), test.labels()
        model, train_ms = time_train(
            lambda: _train_model(config, F_train, y_train))

    with _stage("evaluate"):
        if config.model.kind == "svm":
            y_pred = predict_svm(model, F_test)
        else:
            y_pred = predict_dtree(model, F_test)
        cm = confusion(y_test, y_pred, config.positive_label)
        frag = metrics(cm)

    fingerprint = _file_sha256(config.dataset.path)
    snapshot = config.resolved()
    extras = {
        "positiveLabel": config.positive_label,
        "labelCounts": dict(sorted(corpus.label_counts().items())),
        "trainSize": len(train), "testSize": len(test),
        "vocabularySize": len(vocab),
        "effectiveK": effective_k,
        "svdRestarts": factors.restarts if factors is not None else None,
        "machine": f"{platform.platform()} / {platform.processor() or 'unknown-cpu'}",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    report = EvalReport(schema_version=SCHEMA_VERSION, confusion_matrix=cm,
                        metric=frag, train_time_ms=train_ms,
                        reduce_time_ms=reduce_ms, config_snapshot=snapshot,
                        dataset_fingerprint=fingerprint, extras=extras)

    _write_json(out_dir / "report.json", report.to_dict())
    vocab_doc = {
        "terms": list(vocab.index_to_term),
        "docFreq": [int(c) for c in vocab.doc_freq],
        "nDocs": vocab.n_docs,
        "weighting": wmodel.to_dict(),
    }
    _write_json(out_dir / "vocab.json", vocab_doc)
    model_doc = model.to_dict()
    model_doc["featureSpace"] = "reduced" if config.reduce.enabled else "terms"
    model_doc["positiveLabel"] = config.positive_label
    model_doc["references"] = {
        "vocab": "vocab.json",
        "factors": "factors.bin" if factors is not None else None,
        "report": "report.json",
    }
    _write_json(out_dir / "model.json", model_doc)
    if factors is not None:
        save_factors(str(out_dir / "factors.bin"), factors)
    return report


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def explain(model_path: str | Path, top_n: int) -> FeatureImportanceReport:
    """Rank the stems a tree model splits on; refuses other model kinds."""
    model_path = Path(model_path)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    if doc.get("kind") != "dtree":
        raise UnsupportedModelError(
            f"explain requires a decision tree, got {doc.get('kind')!r}: "
            "linear SVM weights are not per-stem split decisions")
    if doc.get("featureSpace") != "terms":
        raise UnsupportedModelError(
            "explain requires a tree trained on named term features; this "
            "model was trained on reduced (anonymous) components")
    vocab_ref = doc.get("references", {}).get("vocab", "vocab.json")
    vocab_doc = json.loads((model_path.parent / vocab_ref)
                           .read_text(encoding="utf-8"))
    names = list(vocab_doc["terms"])
    model = DecisionTreeModel.from_dict(doc)
    report = feature_importance(model, names)
    if top_n <= 0:
        return FeatureImportanceReport(ranking=())
    return FeatureImportanceReport(ranking=report.ranking[:top_n])


def compare(config_paths: list[str]) -> list[dict]:
    """Run several experiment configs and tabulate their key metrics."""
    if len(config_paths) < 2:
        raise ConfigError("configs", "compare needs at least 2 config files")
    rows: list[dict] = []
    for path in config_paths:
        row: dict = {"config": str(path)}
        try:
            cfg = load_config(path)
            report = run_experiment(cfg)
            row.update({
                "weighting": cfg.weighting_scheme,
                "reduction": "irlba" if cfg.reduce.enabled else "none",
                "model": cfg.model.kind,
                "precision": report.metric.precision,
                "recall": report.metric.recall,
                "f1": report.metric.f1,
                "trainTimeMs": report.train_time_ms,
                "reduceTimeMs": report.reduce_time_ms,
                "error": None,
            })
        except (CtfidfError, OSError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def comparison_table(rows: list[dict]) -> str:
    header = f"{'model':<24}{'precision':>10}{'recall':>10}{'f1':>10}{'train':>12}"
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.get("error"):
            lines.append(f"{Path(row['config']).stem:<24}  FAILED: {row['error']}")
            continue
        name = f"{row['weighting']}+{row['reduction']}/{row['model']}"
        lines.append(f"{name:<24}{row['precision']:>10.4f}{row['recall']:>10.4f}"
                     f"{row['f1']:>10.4f}{row['trainTimeMs']:>10d}ms")
    return "\n".join(lines)
