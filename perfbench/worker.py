"""One workload process: set up, then fit-and-classify rounds.

Set-up imports ``ctfidf`` with numpy and scipy, generates the workload's
corpus and stream, and writes the corpus file. Each round then runs
``run_experiment`` on that file and classifies the whole stream from the
artifacts the round wrote, through the public API only. A round is the
unit of work: the worker starts another only while one more fits in the
run's seconds, so every run attempts whole rounds.

Prints one JSON line with the per-round measurements; ``run.py`` checks
the outputs and reduces them to the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import corpus
from tracing import (Tracer, dfm, irlba, pipeline, preprocess, svm, tree,
                     weighting)
from workloads import WORKLOADS

BATCH = 1000          # stream messages per classify call
ARTIFACTS = ("report.json", "model.json", "vocab.json", "factors.bin")


class Artifacts:
    """What the stream needs, read back from an experiment's output dir."""

    def __init__(self, out_dir: Path, span):
        with span("pipeline.load"):
            model_doc = json.loads((out_dir / "model.json").read_text("utf-8"))
            vocab_doc = json.loads((out_dir / "vocab.json").read_text("utf-8"))
            terms = tuple(vocab_doc["terms"])
            self.vocab = dfm.Vocabulary(
                term_to_index={t: j for j, t in enumerate(terms)},
                index_to_term=terms,
                doc_freq=np.asarray(vocab_doc["docFreq"], dtype=np.int64),
                n_docs=int(vocab_doc["nDocs"]))
            self.weights = weighting.WeightingModel.from_dict(
                vocab_doc["weighting"])
            self.kind = model_doc["kind"]
            if self.kind == "svm":
                self.model = svm.SvmModel.from_dict(model_doc)
            else:
                self.model = tree.DecisionTreeModel.from_dict(model_doc)
            self.label_order = list(model_doc["labelOrder"])
        factors = model_doc["references"]["factors"]
        self.factors = (irlba.load_factors(str(out_dir / factors))
                        if factors else None)

    def classify(self, texts: list[str]) -> list[str]:
        docs = preprocess.preprocess_corpus(texts)
        X = weighting.apply_weighting(dfm.build_dfm(docs, self.vocab),
                                      self.weights)
        if self.factors is not None:
            X = irlba.project(X, self.factors)
        if self.kind == "svm":
            return svm.predict_svm(self.model, X)
        return tree.predict_dtree(self.model, X)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_round(config, out_dir: Path, stream: list[str], span) -> dict:
    batches = [stream[i:i + BATCH] for i in range(0, len(stream), BATCH)]
    result = {"attempted": 1 + len(batches), "failed": 0}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        report = pipeline.run_experiment(config)
    except Exception:
        traceback.print_exc()
        result["failed"] = result["attempted"]
        return result
    result["experiment_s"] = time.perf_counter() - t0
    result["experiment_cpu_s"] = time.process_time() - c0
    result["f1"] = report.metric.f1
    written = [out_dir / name for name in ARTIFACTS
               if (out_dir / name).exists()]
    result["artifact_bytes"] = sum(p.stat().st_size for p in written)
    result["sha256"] = {p.name: _sha256(p) for p in written
                        if p.name != "report.json"}

    labels: Counter[str] = Counter()
    classified = 0
    t0 = time.perf_counter()
    with span("stream.classify"):
        art = Artifacts(out_dir, span)
        for batch in batches:
            try:
                labels.update(art.classify(batch))
            except Exception:
                traceback.print_exc()
                result["failed"] += 1
                continue
            classified += len(batch)
    result["stream_s"] = time.perf_counter() - t0
    result["stream_classified"] = classified
    result["stream_labels"] = dict(labels)
    result["label_order"] = art.label_order
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() just before this process spawned")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    run_dir = Path(args.dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    lang, rows = corpus.corpus(wl.shape, args.seed)
    dataset = run_dir / "corpus.tsv"
    corpus.write_tsv(str(dataset), rows)
    stream = corpus.stream_texts(lang)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    out_dir = run_dir / "out"
    config = pipeline.config_from_dict(wl.config(str(dataset), str(out_dir)))
    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        tracer.install()
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(config, out_dir, stream, span))
        rounds[-1]["round_s"] = time.perf_counter() - t0
        if len(rounds) == 1:
            # later rounds can raise the peak through heap fragmentation
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.end_round()
        longest = max(r["round_s"] for r in rounds)
        if time.perf_counter() - start + longest > args.seconds:
            break
    out = {"setup_s": setup_s, "rounds": rounds, "peak_rss_mb": peak_kb / 1024}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["counts_repeat"] = tracer.counts_repeat()
        tracer.dump(str(run_dir.parent / f"trace-{wl.name}-{args.seed}.json"))
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
