"""Which stems drive the spam decision? Train a tree on term features.

Interpretability needs named features, so the tree is trained on the
non-reduced weighted matrix; reduced components are anonymous directions
and the explain surface refuses them.
"""

import tempfile
from pathlib import Path

from ctfidf.ingest import SplitSpec
from ctfidf.pipeline import (
    DatasetConfig,
    ExperimentConfig,
    ModelSpec,
    ReduceConfig,
    explain,
    run_experiment,
)
from ctfidf.synth import generate_corpus, write_tsv

with tempfile.TemporaryDirectory(prefix="ctfidf_explain_") as tmp:
    workdir = Path(tmp)
    data = workdir / "synthetic.tsv"
    write_tsv(str(data), generate_corpus(n_ham=700, n_spam=350, seed=5))

    cfg = ExperimentConfig(
        dataset=DatasetConfig(path=str(data)),
        weighting_scheme="ctfidf",
        reduce=ReduceConfig(enabled=False),
        model=ModelSpec(kind="dtree"),
        split=SplitSpec(0.7, seed=1, stratified=True),
        cv_folds=5,
        positive_label="spam",
        output_dir=str(workdir / "tree_run"),
    )
    report = run_experiment(cfg)
    print(f"tree on named stem features: F1 = {report.metric.f1:.4f} "
          f"(positive = spam)\n")

    ranking = explain(workdir / "tree_run" / "model.json", top_n=10)
    print("stems ranked by impurity-decrease importance:")
    for name, importance in ranking:
        bar = "#" * int(60 * importance)
        print(f"  {name:<14}{importance:>8.4f}  {bar}")

    print("\nstems near the top of the tree separate spam from ham; on real")
    print("SMS data these come out as the familiar promotional vocabulary.")
