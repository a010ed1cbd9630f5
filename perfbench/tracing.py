"""Spans and counters around the calls into each ``ctfidf`` module.

The tracer replaces public functions with timing wrappers in the module
namespaces that ``run_experiment`` and the stream path look them up in;
nothing under ``src/`` changes. A span is (name, start, end, parent index);
spans stay in memory and are written out as JSON when the run ends.
Counters are read from the values the wrapped calls return, after the
round, so that counting adds no time to any span.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import Counter

# by module object: the package re-exports a function named ``irlba``
(dfm, evaluation, ingest, irlba, pipeline, preprocess, svm, tree,
 weighting) = (importlib.import_module(f"ctfidf.{m}") for m in (
    "dfm", "evaluation", "ingest", "irlba", "pipeline", "preprocess", "svm",
    "tree", "weighting"))

FIT_ROOT = "pipeline.run_experiment"
STREAM_ROOT = "stream.classify"

# (module, attribute, span name); one wrapper serves every namespace that
# binds the same function, so pipeline's imported names are covered too
_WRAPPED = (
    (pipeline, "run_experiment", FIT_ROOT),
    (ingest, "load_dataset", "ingest.load_dataset"),
    (ingest, "split", "ingest.split"),
    (preprocess, "preprocess_corpus", "preprocess.preprocess_corpus"),
    (dfm, "build_vocabulary", "dfm.build_vocabulary"),
    (dfm, "build_dfm", "dfm.build_dfm"),
    (weighting, "fit_weighting", "weighting.fit_weighting"),
    (weighting, "apply_weighting", "weighting.apply_weighting"),
    (irlba, "irlba", "irlba.irlba"),
    (irlba, "project", "irlba.project"),
    (irlba, "save_factors", "pipeline.write"),
    (irlba, "load_factors", "irlba.load_factors"),
    (svm, "train_svm", "svm.train_svm"),
    (svm, "predict_svm", "svm.predict_svm"),
    (tree, "train_dtree", "tree.train_dtree"),
    (tree, "predict_dtree", "tree.predict_dtree"),
    (evaluation, "confusion", "evaluation.confusion"),
    (evaluation, "metrics", "evaluation.metrics"),
    # private, but it is where report.json, model.json and vocab.json land
    (pipeline, "_write_json", "pipeline.write"),
)
_COUNTED = ((irlba, "spmv"), (irlba, "spmv_t"))

# span name -> per-layer metric, by the root the span runs under
_FIT_METRIC = {
    "ingest.load_dataset": "ingest.load_s",
    "ingest.split": "ingest.split_s",
    "preprocess.preprocess_corpus": "preprocess.fit_s",
    "dfm.build_vocabulary": "dfm.fit_s",
    "dfm.build_dfm": "dfm.fit_s",
    "weighting.fit_weighting": "weighting.fit_s",
    "weighting.apply_weighting": "weighting.fit_s",
    "irlba.irlba": "irlba.fit_s",
    "irlba.project": "irlba.project_s",
    "svm.train_svm": "svm.fit_s",
    "svm.predict_svm": "svm.predict_s",
    "tree.train_dtree": "tree.fit_s",
    "tree.predict_dtree": "tree.predict_s",
    "evaluation.confusion": "evaluation.score_s",
    "evaluation.metrics": "evaluation.score_s",
    "pipeline.write": "pipeline.write_s",
}
_STREAM_METRIC = {
    "preprocess.preprocess_corpus": "preprocess.stream_s",
    "dfm.build_dfm": "dfm.stream_s",
    "weighting.apply_weighting": "weighting.stream_s",
    "irlba.project": "irlba.stream_s",
    "irlba.load_factors": "irlba.load_s",
    "svm.predict_svm": "svm.stream_s",
    "tree.predict_dtree": "tree.stream_s",
    "pipeline.load": "pipeline.load_s",
}
TIMES = sorted(set(_FIT_METRIC.values()) | set(_STREAM_METRIC.values())
               | {"pipeline.self_s"})
COUNTS = ("preprocess.tokens", "preprocess.distinct_tokens", "dfm.terms",
          "dfm.train_nnz", "irlba.restarts", "irlba.matvecs", "svm.passes",
          "tree.nodes", "tree.depth")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self._stack: list[int] = []
        self._calls: Counter[str] = Counter()
        self._returns: list[tuple[int, tuple, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._rounds: list[dict] = []
        self._round_start = 0
        self._stopwords = preprocess.load_stopwords()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._returns.append((idx, args, result))
            return result
        return wrapper

    def _counted(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self._calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever ``ctfidf`` binds it."""
        modules = {m for m, _, _ in _WRAPPED}
        for module, attr, name in _WRAPPED:
            original = getattr(module, attr)
            wrapped = self._timed(original, name)
            for ns in modules:
                if getattr(ns, attr, None) is original:
                    self._saved.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
        for module, attr in _COUNTED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._counted(original, attr))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def _root(self, idx: int) -> str:
        while self.spans[idx][3] is not None:
            idx = self.spans[idx][3]
        return self.spans[idx][0]

    def end_round(self) -> None:
        """Fold the spans and returns of the round just run into metrics."""
        times = dict.fromkeys(TIMES, 0.0)
        counts = dict.fromkeys(COUNTS, 0)
        first = self._round_start
        for idx in range(first, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            root = self._root(idx)
            table = _FIT_METRIC if root == FIT_ROOT else _STREAM_METRIC
            metric = table.get(name)
            direct = parent is not None and self.spans[parent][0] == root
            if metric and direct:
                times[metric] += end - start
            if name == FIT_ROOT:
                children = sum(s[2] - s[1] for s in self.spans[idx + 1:]
                               if s[3] == idx)
                times["pipeline.self_s"] += (end - start) - children
        counts["irlba.matvecs"] = self._calls["spmv"] + self._calls["spmv_t"]
        tokens: set[str] = set()
        train_matrix_seen = False
        for idx, args, result in self._returns:
            name = self.spans[idx][0]
            if self._root(idx) != FIT_ROOT:
                continue
            if name == "preprocess.preprocess_corpus":
                counts["preprocess.tokens"] += sum(len(d.stems)
                                                   for d in result)
                for text in args[0]:
                    tokens.update(preprocess.remove_stopwords(
                        preprocess.tokenize(text), self._stopwords))
            elif name == "dfm.build_vocabulary":
                counts["dfm.terms"] = len(result)
            elif name == "dfm.build_dfm" and not train_matrix_seen:
                counts["dfm.train_nnz"] = int(result.nnz)
                train_matrix_seen = True
            elif name == "irlba.irlba":
                counts["irlba.restarts"] = result.restarts
            elif name == "svm.train_svm":
                counts["svm.passes"] = result.passes
            elif name == "tree.train_dtree":
                counts["tree.nodes"] = len(result.nodes)
                counts["tree.depth"] = tree_depth(result.nodes)
        counts["preprocess.distinct_tokens"] = len(tokens)
        self._rounds.append({"times": times, "counts": counts})
        self._returns.clear()
        self._calls.clear()
        self._round_start = len(self.spans)

    def metrics(self) -> dict:
        """Median time per layer over the rounds; counts of the last round."""
        out = {name: statistics.median(r["times"][name] for r in self._rounds)
               for name in TIMES}
        out.update(self._rounds[-1]["counts"])
        return out

    def counts_repeat(self) -> bool:
        return all(r["counts"] == self._rounds[0]["counts"]
                   for r in self._rounds)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(("name", "start", "end", "parent"),
                                          s)) for s in self.spans],
                       "rounds": self._rounds}, fh)


def tree_depth(nodes) -> int:
    """Edges on the longest root-to-leaf path of a node list."""
    depth, stack = 0, [(0, 0)]
    while stack:
        i, d = stack.pop()
        depth = max(depth, d)
        if nodes[i].left is not None:
            stack.extend(((nodes[i].left, d + 1), (nodes[i].right, d + 1)))
    return depth
