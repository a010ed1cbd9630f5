"""Configuration-driven experiment runner.

One experiment is: load and label-normalize a dataset, split it, fit the
vocabulary / weighting / (optionally) the truncated SVD and a model on the
training partition only, and score the held-out set through the fitted
:class:`Classifier`, timing each stage. Output: ``report.json`` and the
classifier's ``vocab.json``, ``model.json`` and, when reduction ran,
``factors.bin``, which :func:`load_artifacts` reads back.

Every random choice (split, SVD start vector, learner) derives from
seeds recorded in the config, so a rerun with the same config and data
reproduces every metric field byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import json
import operator
import platform
import time
import typing
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dfm, ingest, weighting
from .evaluation import EvalReport, confusion, metrics
from .exceptions import (ArtifactError, ConfigError, CtfidfError,
                         DimensionMismatchError, UnsupportedModelError)
from .irlba import SvdFactors, irlba, load_factors, project, save_factors
from .preprocess import PreprocessConfig, preprocess_corpus
from .svm import SvmModel, predict_svm, train_svm
from .tree import (
    DecisionTreeModel,
    feature_importance,
    predict_dtree,
    train_dtree,
)


@dataclass(frozen=True, kw_only=True)
class DatasetConfig(ingest.LoadFormat):
    path: str
    label_mapping: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReduceConfig:
    enabled: bool = True
    k: int = 300
    tol: float = 1e-5
    seed: int = 0


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "svm"  # "svm" | "dtree"
    hyperparameters: dict = field(default_factory=dict)


# The config schema, one table per section, in report.json order:
#   JSON key -> (attribute, JSON type or the section's table[, bound])
# A JSON type may admit null ("number|null"); a bound is (operator, value).
# SplitSpec and PreprocessConfig check their own fields. Defaults live on
# the dataclasses only (the dataset's format on ingest.LoadFormat).
_DATASET = {
    "path": ("path", "string", "other than", ""),
    "delimiter": ("delimiter", "string"),
    "labelColumn": ("label_column", "integer", ">=", 0),
    "textColumn": ("text_column", "integer", ">=", 0),
    "hasHeader": ("has_header", "boolean"),
    "labelMapping": ("label_mapping", "object"),
}
_PREPROCESS = {
    "stopwordHash": ("stopword_hash", "string"),
}
_REDUCE = {
    "enabled": ("enabled", "boolean"),
    "k": ("k", "integer", ">=", 1),
    "tol": ("tol", "number", ">", 0),
    "seed": ("seed", "integer", ">=", 0),
}
# model kind -> its hyperparameters: JSON key -> (argument of train_svm or
# train_dtree, JSON type, bound); "seed" defaults to split.seed
_HYPERPARAMETERS = {
    "svm": {"seed": ("seed", "integer", ">=", 0)},
    "dtree": {"ccpAlpha": ("ccp_alpha", "number|null", ">=", 0),
              "seed": ("seed", "integer", ">=", 0)},
}
_MODEL = {"kind": ("kind", "string", "one of", tuple(_HYPERPARAMETERS)),
          "hyperparameters": ("hyperparameters", "object")}
_SPLIT = {
    "trainFraction": ("train_fraction", "number"),  # ranged by SplitSpec
    "seed": ("seed", "integer", ">=", 0),
    "stratified": ("stratified", "boolean"),
}
_EXPERIMENT = {
    "dataset": ("dataset", _DATASET),
    "preprocess": ("preprocess", _PREPROCESS),
    "weighting": ("weighting_scheme", "string",
                  "one of", tuple(s.value for s in weighting.Scheme)),
    "reduce": ("reduce", _REDUCE),
    "model": ("model", _MODEL),
    "split": ("split", _SPLIT),
    "cvFolds": ("cv_folds", "integer", ">=", 2),
    "positiveLabel": ("positive_label", "string"),
    "outputDir": ("output_dir", "string"),
}

# JSON type -> the Python types json.loads gives for it
_JSON_TYPES = {"string": (str,), "integer": (int,), "number": (int, float),
               "boolean": (bool,), "object": (dict,), "null": (type(None),)}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "other than": operator.ne,
           "one of": lambda value, allowed: value in allowed}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    weighting_scheme: str = "ctfidf"  # "tfidf" | "ctfidf"
    reduce: ReduceConfig = field(default_factory=ReduceConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    split: ingest.SplitSpec = field(
        default_factory=lambda: ingest.SplitSpec(0.7, seed=0, stratified=True))
    cv_folds: int = 10
    positive_label: str = "spam"
    output_dir: str = "runs/experiment"

    def validate(self) -> None:
        """Check :meth:`resolved` as :func:`config_from_dict` checks JSON;
        each error names the JSON key."""
        config_from_dict(self.resolved())

    def resolved(self) -> dict:
        """Full snapshot with every default materialized, stable order."""
        return _snapshot(self, _EXPERIMENT)


def _typed(value, name: str, kind: str, *bound):
    """value if its JSON type is one of kind's and it meets the bound
    (operator, limit); numbers come back as floats."""
    if not any(type(value) in _JSON_TYPES[t] for t in kind.split("|")):
        raise ConfigError(name, f"must be {kind.replace('|', ' or ')}, "
                                f"got {value!r}")
    if bound and value is not None and not _BOUNDS[bound[0]](value, bound[1]):
        raise ConfigError(name, f"must be {bound[0]} {bound[1]!r}, "
                                f"got {value!r}")
    if isinstance(value, dict):
        return dict(value)
    if kind.startswith("number") and value is not None:
        return float(value)
    return value


def _known(d, known, where: str = "",
           message: str = "unknown configuration key") -> dict:
    """d, if it is a JSON object with only known keys."""
    if type(d) is not dict:
        raise ConfigError(where or "config", "must be an object")
    extra = sorted(set(d) - set(known))
    if extra:
        name = f"{where}.{extra[0]}" if where else extra[0]
        raise ConfigError(name, message)
    return d


def _patched(obj, table: dict, d, where: str = ""):
    """obj with the fields that JSON object d sets, each type-checked."""
    for key, value in _known(d, table, where).items():
        attr, kind, *bound = table[key]
        name = f"{where}.{key}" if where else key
        value = (_patched(getattr(obj, attr), kind, value, name)
                 if isinstance(kind, dict)
                 else _typed(value, name, kind, *bound))
        try:
            obj = dataclasses.replace(obj, **{attr: value})
        except ValueError as exc:  # a dataclass checking its own field
            raise ConfigError(name, str(exc)) from exc
    return obj


def _snapshot(obj, table: dict) -> dict:
    out = {}
    for key, (attr, kind, *_) in table.items():
        value = getattr(obj, attr)
        if isinstance(kind, dict):
            section = typing.get_type_hints(type(obj))[attr]
            if not isinstance(value, section):
                raise ConfigError(key, f"must be a {section.__name__}")
            value = _snapshot(value, kind)
        elif isinstance(value, dict):
            value = dict(sorted(value.items()))
        out[key] = value
    return out


def _hyperparameters(model: ModelSpec) -> dict:
    """The model's hyperparameters by argument name, each one checked."""
    where, table = "model.hyperparameters", _HYPERPARAMETERS[model.kind]
    _known(model.hyperparameters, table, where,
           f"not a {model.kind} hyperparameter")
    return {table[key][0]: _typed(value, f"{where}.{key}", *table[key][1:])
            for key, value in model.hyperparameters.items()}


def config_from_dict(d: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    """Build a config from parsed JSON, checking every value it sets.

    An unknown key, a value of the wrong JSON type or out of range, a
    ``dataset.labelMapping`` value that is not a string, a hyperparameter
    the model kind lacks and a stopword hash other than the shipped list's
    each raise :class:`ConfigError` naming the key.
    :meth:`ExperimentConfig.validate` runs a config's own snapshot through
    here, so a config built in Python gets the same checks.
    """
    # an unset dataset.path stays "", which validate() rejects
    config = _patched(ExperimentConfig(DatasetConfig(path="")), _EXPERIMENT, d)
    for label, to in config.dataset.label_mapping.items():
        _typed(to, f"dataset.labelMapping.{label}", "string")
    _hyperparameters(config.model)
    try:
        config.preprocess.validate()
    except ValueError as exc:
        raise ConfigError("preprocess", str(exc)) from exc
    path = config.dataset.path
    if path and not Path(path).is_absolute():
        config = dataclasses.replace(config, dataset=dataclasses.replace(
            config.dataset, path=str(Path(base_dir) / path)))
    return config


def load_config(path: str | Path,
                overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file and check it with :func:`config_from_dict`.

    ``overrides`` maps dotted JSON keys to values that replace the file's
    before it is parsed. Text given for a field that is not a string is read
    as JSON, so it gets the same checks as a value in the file.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    for dotted, value in (overrides or {}).items():
        *sections, key = dotted.split(".")
        target, table, where = raw, _EXPERIMENT, ""
        for section in sections:
            target = _known(target, table, where).setdefault(section, {})
            table, where = table[section][1], f"{where}.{section}".lstrip(".")
        # hyperparameters are a plain object here, and none of them is text
        kind = table[key][1] if isinstance(table, dict) else "number"
        if isinstance(value, str) and "string" not in kind:
            with contextlib.suppress(json.JSONDecodeError):
                value = json.loads(value)
        known = table if isinstance(table, dict) else target
        _known(target, known, where)[key] = value
    return config_from_dict(raw, base_dir=path.parent)


def _train_model(config: ExperimentConfig, X, y: list[str]):
    hp = _hyperparameters(config.model)
    hp.setdefault("seed", config.split.seed)
    if config.model.kind == "svm":
        return train_svm(X, y, **hp)
    return train_dtree(X, y, cv_folds=config.cv_folds,
                       positive_label=config.positive_label, **hp)


@contextlib.contextmanager
def _stage(name: str, times: dict[str, int]):
    """Record the stage's wall-clock ms in ``times`` under its name, and tag
    escaping pipeline errors with the stage they came from."""
    t0 = time.perf_counter()
    try:
        yield
    except (CtfidfError, OSError) as exc:
        if getattr(exc, "stage", None) is None:
            exc.stage = name
        raise
    finally:
        times[name] = int(round((time.perf_counter() - t0) * 1000))


@dataclass(frozen=True)
class Classifier:
    """Raw text to labels through the stages fitted on the training split;
    ``factors`` is None for a model trained on term features.

    ``stems`` is the token -> stem memo that :meth:`classify` passes to
    :func:`preprocess_corpus`, so a token is stemmed once for the
    classifier's lifetime. ``run_experiment`` seeds it with the training
    split's tokens; a loaded classifier starts empty. It is never saved.
    """

    vocab: dfm.Vocabulary
    weights: weighting.WeightingModel
    factors: SvdFactors | None
    model: SvmModel | DecisionTreeModel
    stems: dict[str, str | None] = field(default_factory=dict,
                                         compare=False, repr=False)

    def classify(self, texts: list[str]) -> list[str]:
        """One label per text, in order."""
        X = weighting.apply_weighting(
            dfm.build_dfm(preprocess_corpus(texts, memo=self.stems),
                          self.vocab), self.weights)
        if self.factors is not None:
            X = project(X, self.factors)
        if isinstance(self.model, SvmModel):
            return predict_svm(self.model, X)
        return predict_dtree(self.model, X)

    def save(self, out_dir: Path) -> None:
        """Write ``vocab.json``, ``model.json`` and, with factors,
        ``factors.bin`` to ``out_dir``, for :func:`load_artifacts`."""
        _write_json(out_dir / "vocab.json", {
            "terms": list(self.vocab.index_to_term),
            "docFreq": [int(c) for c in self.vocab.doc_freq],
            "nDocs": self.vocab.n_docs, "weighting": self.weights.to_dict()})
        factors = "factors.bin" if self.factors is not None else None
        _write_json(out_dir / "model.json", {
            **self.model.to_dict(),
            "featureSpace": "reduced" if factors else "terms",
            "references": {"vocab": "vocab.json", "factors": factors}})
        if factors:
            save_factors(str(out_dir / factors), self.factors)


_MODEL_KINDS = {"svm": SvmModel, "dtree": DecisionTreeModel}


@contextlib.contextmanager
def _reading(path: Path):
    """Raise what reading the artifact at ``path`` finds wrong as an
    :class:`ArtifactError` that names the file: a missing key by name, and
    text that is not JSON, a cut or foreign ``factors.bin``, or a value of
    the wrong type or length by the reason."""
    try:
        yield
    except KeyError as exc:
        raise ArtifactError(f"{path}: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, IndexError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ArtifactError(f"{path}: malformed: {exc}") from exc


def _read_model(model_path: Path):
    """The model that ``model.json`` holds, with the paths of the vocabulary
    and (None without reduction) the factors it references."""
    with _reading(model_path):
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        refs = doc["references"]
        if doc["featureSpace"] != ("reduced" if refs["factors"] else "terms"):
            raise DimensionMismatchError(
                f"featureSpace {doc['featureSpace']!r} disagrees with "
                f"references.factors {refs['factors']!r}")
        if doc["kind"] not in _MODEL_KINDS:
            raise ArtifactError(f"{model_path}: model kind {doc['kind']!r} "
                                f"is not one of {sorted(_MODEL_KINDS)}")
        return (_MODEL_KINDS[doc["kind"]].from_dict(doc),
                model_path.parent / refs["vocab"],
                model_path.parent / refs["factors"] if refs["factors"]
                else None)


def _read_vocab(vocab_path: Path):
    """The vocabulary and the fitted weighting that ``vocab.json`` holds."""
    with _reading(vocab_path):
        doc = json.loads(vocab_path.read_text(encoding="utf-8"))
        terms = tuple(doc["terms"])
        vocab = dfm.Vocabulary({t: j for j, t in enumerate(terms)}, terms,
                               np.asarray(doc["docFreq"], dtype=np.int64),
                               doc["nDocs"])
        return vocab, weighting.WeightingModel.from_dict(doc["weighting"])


def load_artifacts(model_path: str | Path) -> Classifier:
    """The classifier saved with a ``model.json``, read back through the
    files its ``references`` name.

    A ``model.json`` or ``vocab.json`` that is not JSON, lacks a key or
    holds a value of the wrong type or length, a ``kind`` that names no
    model, or a ``factors.bin`` that is cut short or not one, raises
    :class:`ArtifactError` naming the file and the key, kind or reason. A
    ``featureSpace`` that disagrees with ``references.factors`` raises
    :class:`DimensionMismatchError`; sizes are checked where they are used.
    """
    model, vocab_path, factors_path = _read_model(Path(model_path))
    vocab, weights = _read_vocab(vocab_path)
    with _reading(factors_path):
        factors = load_factors(str(factors_path)) if factors_path else None
    return Classifier(vocab, weights, factors, model)


def run_experiment(config: ExperimentConfig) -> EvalReport:
    """Execute the full pipeline and write all artifacts to disk."""
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    times: dict[str, int] = {}  # stage -> wall-clock ms

    with _stage("ingest", times):
        corpus = ingest.load_dataset(config.dataset.path, config.dataset)
        if config.dataset.label_mapping:
            corpus = ingest.normalize_labels(corpus,
                                             config.dataset.label_mapping)
        if config.positive_label not in corpus.label_set:
            raise ConfigError("positiveLabel",
                              f"{config.positive_label!r} not among labels "
                              f"{sorted(corpus.label_set)}")
        train, test = ingest.split(corpus, config.split)
        if not len(train) or not len(test):
            raise ConfigError("split.trainFraction",
                              f"gives {len(train)} training and {len(test)} "
                              f"test record(s); both need at least one")
        if (config.model.kind == "dtree" and config.cv_folds > len(train)
                and config.model.hyperparameters.get("ccpAlpha") is None):
            raise ConfigError("cvFolds",
                              f"{config.cv_folds} folds exceed the "
                              f"{len(train)} training record(s)")

    stems: dict[str, str | None] = {}  # the classifier's memo, seeded here
    with _stage("preprocess", times):
        train_docs = preprocess_corpus(train.texts(), memo=stems)

    with _stage("dfm", times):
        vocab = dfm.build_vocabulary(train_docs)
        X_train_counts = dfm.build_dfm(train_docs, vocab)
        del train_docs  # the memo outlives them; the stem tuples need not

    with _stage("weighting", times):
        scheme = weighting.Scheme(config.weighting_scheme)
        wmodel = weighting.fit_weighting(vocab, scheme)
        X_train = weighting.apply_weighting(X_train_counts, wmodel)
        del X_train_counts

    factors: SvdFactors | None = None
    effective_k: int | None = None
    with _stage("reduce", times):
        F_train = X_train
        if config.reduce.enabled:
            max_k = min(X_train.shape) - 1
            effective_k = min(config.reduce.k, max_k)
            try:
                factors = irlba(X_train, effective_k, tol=config.reduce.tol,
                                seed=config.reduce.seed)
            except ConfigError as exc:  # irlba names its own arguments
                raise ConfigError(f"reduce.{exc.field}",
                                  exc.message) from exc
            F_train = project(X_train, factors)
            # nothing downstream reads the training side's U
            factors = dataclasses.replace(factors, U=None)

    with _stage("train", times):
        y_train, y_test = train.labels(), test.labels()
        classifier = Classifier(vocab, wmodel, factors,
                                _train_model(config, F_train, y_train),
                                stems=stems)

    with _stage("evaluate", times):
        y_pred = classifier.classify(test.texts())
        cm = confusion(y_test, y_pred, config.positive_label)
        frag = metrics(cm)

    snapshot = config.resolved()
    extras = {
        "labelCounts": dict(sorted(corpus.label_counts().items())),
        "trainSize": len(train), "testSize": len(test),
        "vocabularySize": len(vocab),
        "effectiveK": effective_k,
        "svdRestarts": factors.restarts if factors is not None else None,
        "svdResidual": factors.residual if factors is not None else None,
        "machine": f"{platform.platform()} / {platform.processor() or 'unknown-cpu'}",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    report = EvalReport(confusion_matrix=cm, metric=frag,
                        train_time_ms=times["train"],
                        reduce_time_ms=(times["reduce"] if config.reduce.enabled
                                        else None),
                        config_snapshot=snapshot,
                        dataset_fingerprint=corpus.sha256, extras=extras)

    _write_json(out_dir / "report.json", report.to_dict())
    classifier.save(out_dir)
    return report


def _write_json(path: Path, payload: dict) -> None:
    """One line through the C encoder; ``python -m json.tool`` indents it."""
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n",
                    encoding="utf-8")


def explain(model_path: str | Path,
            top_n: int) -> tuple[tuple[str, float], ...]:
    """The ``top_n`` stems a tree model splits on, as (stem, importance)
    pairs ranked by :func:`~ctfidf.tree.feature_importance`; refuses an SVM
    or a reduced model from ``model.json`` alone, before reading the rest."""
    model, vocab_path, factors_path = _read_model(Path(model_path))
    if not isinstance(model, DecisionTreeModel):
        raise UnsupportedModelError(
            "explain requires a decision tree, got a linear SVM: its "
            "weights are not per-stem split decisions")
    if factors_path:
        raise UnsupportedModelError(
            "explain requires a tree trained on named term features; this "
            "model was trained on reduced (anonymous) components")
    vocab, _ = _read_vocab(vocab_path)
    ranking = feature_importance(model, list(vocab.index_to_term))
    return ranking[:max(top_n, 0)]


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
