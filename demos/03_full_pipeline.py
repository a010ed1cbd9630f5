"""End-to-end experiment on a synthetic corpus, all four variants.

Mirrors the benchmark table layout: {tfidf, ctfidf} x {plain, reduced}
for one classifier, reporting precision/recall/F1 and training time,
then reloads one run's classifier from its artifacts to label new text.
Swap in a real dataset path to reproduce published numbers (see README).
"""

import tempfile
from pathlib import Path

from ctfidf.ingest import SplitSpec
from ctfidf.pipeline import (
    DatasetConfig,
    ExperimentConfig,
    ModelSpec,
    ReduceConfig,
    load_artifacts,
    run_experiment,
)
from ctfidf.synth import generate_corpus, write_tsv

with tempfile.TemporaryDirectory(prefix="ctfidf_demo_") as tmp:
    workdir = Path(tmp)
    data = workdir / "synthetic.tsv"
    write_tsv(str(data), generate_corpus(n_ham=800, n_spam=400, seed=42))
    print(f"synthetic corpus: {data.name} (1200 messages)\n")

    rows = []
    for scheme in ("tfidf", "ctfidf"):
        for reduced in (False, True):
            cfg = ExperimentConfig(
                dataset=DatasetConfig(path=str(data)),
                weighting_scheme=scheme,
                reduce=ReduceConfig(enabled=reduced, k=60, seed=0),
                model=ModelSpec(kind="svm"),
                split=SplitSpec(0.7, seed=0, stratified=True),
                cv_folds=5,
                positive_label="spam",
                output_dir=str(workdir / f"{scheme}_{'irlba' if reduced else 'plain'}"),
            )
            report = run_experiment(cfg)
            rows.append((f"{scheme}{' (irlba)' if reduced else ''}",
                         report.metric, report.train_time_ms,
                         report.reduce_time_ms))

    print(f"{'variant':<18}{'precision':>10}{'recall':>10}{'f1':>10}"
          f"{'train':>9}{'reduce':>9}")
    for name, m, train_ms, reduce_ms in rows:
        reduce_str = f"{reduce_ms}ms" if reduce_ms is not None else "-"
        print(f"{name:<18}{m.precision:>10.4f}{m.recall:>10.4f}{m.f1:>10.4f}"
              f"{train_ms:>7}ms{reduce_str:>9}")

    # a saved run labels new text from its artifacts alone
    classifier = load_artifacts(workdir / "ctfidf_irlba" / "model.json")
    texts = ["WINNER! Claim your free prize now", "see you at lunch tomorrow"]
    print("\nctfidf_irlba/ reloaded from its artifacts:")
    for text, label in zip(texts, classifier.classify(texts)):
        print(f"  {label:<5} {text}")

    # the directory goes when the demo exits, so name what each run wrote
    print("\nartifacts of each run (removed when the demo exits):")
    for run in sorted(p for p in workdir.iterdir() if p.is_dir()):
        print(f"  {run.name}/: "
              + ", ".join(sorted(f.name for f in run.iterdir())))
