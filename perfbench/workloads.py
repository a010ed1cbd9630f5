"""The benchmark's workloads: corpus family, weighting, reduction, learner.

Each workload drives a different set of solver code paths, so that a change
to one kernel shows on the workload that runs it and is predicted to leave
the others alone (see README.md for the layer map).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import corpus

K = 300               # IRLBA rank, the paper's setting
TERMS_TREE_ALPHA = 1e-3  # fixed ccpAlpha of sms_terms_tree (README.md)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: corpus.Shape
    weighting: str        # "tfidf" | "ctfidf"
    reduce: bool          # IRLBA k=K before the learner
    model: str            # "svm" | "dtree"
    f1_floor: float       # held-out F1 below this fails the run
    hyperparameters: dict = field(default_factory=dict)

    def config(self, dataset: str, output_dir: str) -> dict:
        """The experiment config, in the JSON form ``ctfidf run`` reads."""
        return {
            "dataset": {"path": dataset},
            "weighting": self.weighting,
            "reduce": {"enabled": self.reduce, "k": K},
            "model": {"kind": self.model,
                      "hyperparameters": dict(self.hyperparameters)},
            "split": {"trainFraction": 0.7, "seed": 0},
            "cvFolds": 10,
            "positiveLabel": "spam",
            "outputDir": output_dir,
        }


WORKLOADS = {w.name: w for w in (
    Workload("sms_irlba_svm", corpus.SMS, "ctfidf", True, "svm",
             f1_floor=0.95),
    Workload("sms_irlba_tree", corpus.SMS, "ctfidf", True, "dtree",
             f1_floor=0.93),
    Workload("sms_terms_tree", corpus.SMS, "ctfidf", False, "dtree",
             f1_floor=0.88,
             hyperparameters={"ccpAlpha": TERMS_TREE_ALPHA}),
    Workload("bulk_terms_svm", corpus.BULK, "tfidf", False, "svm",
             f1_floor=0.90),
)}
