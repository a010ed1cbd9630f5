import json
from pathlib import Path

import numpy as np
import pytest

from ctfidf.synth import generate_corpus, write_tsv

TESTS_DIR = Path(__file__).parent
REPO_ROOT = TESTS_DIR.parent
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def synth_tsv(tmp_path_factory):
    """A deterministic 600-message synthetic corpus on disk."""
    path = tmp_path_factory.mktemp("synth") / "synth.tsv"
    write_tsv(str(path), generate_corpus(400, 200, seed=11))
    return path


# both classes draw their long words from one pool; the class signal is in
# short tokens that are not stopwords, and in plurals that stem to them
_SHARED_WORDS = ["call", "home", "today", "phone", "message", "week", "time",
                 "free", "night", "later", "reply", "number", "back", "text",
                 "need", "love"]
_SHORT_TOKENS = {"spam": ["tv", "tvs", "ur", "urs", "4u", "50", "87", "99"],
                 "ham": ["ok", "oks", "pm", "pms", "ya", "gd", "lol", "xx"]}


@pytest.fixture(scope="session")
def short_token_tsv(tmp_path_factory):
    """A deterministic 400-message corpus whose classes overlap, with the
    class signal carried by short tokens (tv, ur, 4u, 2-digit codes)."""
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(400):
        label = "spam" if rng.random() < 0.4 else "ham"
        other = "ham" if label == "spam" else "spam"
        words = [_SHARED_WORDS[j] for j in
                 rng.integers(len(_SHARED_WORDS), size=rng.integers(4, 10))]
        for _ in range(rng.integers(2, 5)):
            pool = _SHORT_TOKENS[label if rng.random() < 0.8 else other]
            words.insert(int(rng.integers(len(words) + 1)),
                         pool[int(rng.integers(len(pool)))])
        rows.append((label, " ".join(words)))
    path = tmp_path_factory.mktemp("short") / "short.tsv"
    write_tsv(str(path), rows)
    return path


@pytest.fixture()
def base_config(synth_tsv, tmp_path):
    return {
        "dataset": {"path": str(synth_tsv)},
        "weighting": "ctfidf",
        "reduce": {"enabled": True, "k": 40},
        "model": {"kind": "svm"},
        "split": {"trainFraction": 0.7, "seed": 3},
        "cvFolds": 3,
        "positiveLabel": "spam",
        "outputDir": str(tmp_path / "out"),
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


# (config patch, the dotted JSON key its ConfigError names): values of the
# wrong JSON type or out of range, and values removed keys once took, each
# rejected before the dataset is read
BAD_VALUES = [
    ({"dataset": {"hasHeader": "false"}}, "dataset.hasHeader"),
    ({"dataset": {"labelMapping": {"spam": 1}}}, "dataset.labelMapping.spam"),
    ({"split": {"stratified": "no"}}, "split.stratified"),
    ({"split": {"seed": -1}}, "split.seed"),
    ({"cvFolds": 2.7}, "cvFolds"),
    ({"cvFolds": 1}, "cvFolds"),
    ({"minDocFreq": 1}, "minDocFreq"),  # removed
    ({"reduce": {"k": "x"}}, "reduce.k"),
    ({"reduce": {"tol": 0}}, "reduce.tol"),
    ({"reduce": {"seed": -1}}, "reduce.seed"),
    ({"preprocess": {"stopwordHash": "0" * 64}}, "preprocess"),
    # the svm's C, tol and maxIter and the tree's maxDepth and
    # minSamplesSplit are removed
    ({"model": {"hyperparameters": {"C": 1.0}}}, "model.hyperparameters.C"),
    ({"model": {"hyperparameters": {"C": 0.1}}}, "model.hyperparameters.C"),
    ({"model": {"hyperparameters": {"tol": 1e-4}}},
     "model.hyperparameters.tol"),
    ({"model": {"hyperparameters": {"maxIter": 100}}},
     "model.hyperparameters.maxIter"),
    ({"model": {"hyperparameters": {"seed": -1}}},
     "model.hyperparameters.seed"),
    ({"model": {"kind": "dtree", "hyperparameters": {"maxDepth": 30}}},
     "model.hyperparameters.maxDepth"),
    ({"model": {"kind": "dtree", "hyperparameters": {"minSamplesSplit": 2}}},
     "model.hyperparameters.minSamplesSplit"),
    ({"model": {"kind": "dtree", "hyperparameters": {"ccpAlpha": -0.1}}},
     "model.hyperparameters.ccpAlpha"),
    ({"dataset": {"labelColumn": -1}}, "dataset.labelColumn"),
    ({"dataset": {"textColumn": -2}}, "dataset.textColumn"),
]


def merged(cfg, patch):
    """A copy of cfg with the objects of patch merged in, key by key."""
    out = json.loads(json.dumps(cfg))
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = merged(out[key], value)
        out[key] = value
    return out
