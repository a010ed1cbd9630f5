"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1-5 reproduce published benchmark numbers and need the public
datasets on disk (they skip with instructions otherwise):

* SMS Spam Collection (UCI): place the raw tab-delimited file at
  ``data/SMSSpamCollection``.
* SMS phishing corpus (Mendeley, 5,971 messages): place the CSV at
  ``data/Dataset_5971.csv``.

``CTFIDF_DATA_DIR`` overrides the data directory. Criteria 6-10 are
dataset-independent and always run.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ctfidf.dfm import build_dfm, build_vocabulary
from ctfidf.evaluation import ConfusionMatrix, confusion, metrics
from ctfidf.ingest import LoadFormat, load_dataset, normalize_labels
from ctfidf.irlba import irlba
from ctfidf.pipeline import (
    DatasetConfig,
    ExperimentConfig,
    ModelSpec,
    ReduceConfig,
    run_experiment,
)
from ctfidf.porter import porter_stem
from ctfidf.preprocess import ProcessedDoc
from ctfidf.ingest import SplitSpec
from ctfidf.synth import generate_corpus, write_tsv
from ctfidf.weighting import Scheme, apply_weighting, fit_weighting

DATA_DIR = Path(os.environ.get("CTFIDF_DATA_DIR",
                               Path(__file__).parent.parent / "data"))
SEEDS = (0, 1, 2, 3, 4)

# Published tables report precision/recall pairs that are only consistent
# with the majority (ham) class as positive, so criteria 1-3 score ham;
# spam-positive numbers are printed alongside for reference.
PAPER_POSITIVE = "ham"


def _find(*names):
    for name in names:
        p = DATA_DIR / name
        if p.exists():
            return p
    return None


def sms_spam_path():
    return _find("SMSSpamCollection", "SMSSpamCollection.txt",
                 "smsspamcollection/SMSSpamCollection", "sms_spam.tsv")


def phishing_path():
    return _find("Dataset_5971.csv", "sms_phishing.csv")


def _skip_dataset(which, path_hint):
    pytest.skip(f"{which} dataset not present; place it at {path_hint} "
                f"(or set CTFIDF_DATA_DIR). See README for sources.")


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _phishing_mapping(path):
    """Case-tolerant mapping onto {ham, spam} built from observed labels."""
    corpus = load_dataset(str(path), LoadFormat(delimiter=",", label_column=0,
                                                text_column=1, has_header=True))
    mapping = {}
    for lab in corpus.label_set:
        low = lab.lower()
        if low in ("spam", "smishing"):
            mapping[lab] = "spam"
        elif low in ("ham", "legit", "legitimate"):
            mapping[lab] = "ham"
    return corpus, mapping


def _experiment(path, *, delimiter="\t", has_header=False, mapping=None,
                scheme="ctfidf", kind="svm", seed=0, reduced=True,
                out_dir=None, folds=10):
    return ExperimentConfig(
        dataset=DatasetConfig(path=str(path), delimiter=delimiter,
                              label_column=0, text_column=1,
                              has_header=has_header,
                              label_mapping=mapping or {}),
        weighting_scheme=scheme,
        reduce=ReduceConfig(enabled=reduced, k=300, tol=1e-5, seed=seed),
        model=ModelSpec(kind=kind),
        split=SplitSpec(0.7, seed=seed, stratified=True),
        cv_folds=folds,
        positive_label=PAPER_POSITIVE,
        output_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


class TestCriterion1SvmCtfIdfIrlba:
    def test_sms_spam_svm_f1(self, workdir):
        path = sms_spam_path()
        if path is None:
            _skip_dataset("SMS Spam Collection", "data/SMSSpamCollection")
        corpus = load_dataset(str(path), LoadFormat())
        assert len(corpus) == 5574, "expected the 5,574-message collection"
        f1s, spam_f1s, times = [], [], []
        for seed in SEEDS:
            t0 = time.perf_counter()
            cfg = _experiment(path, kind="svm", seed=seed,
                              out_dir=workdir / f"c1_{seed}")
            report = run_experiment(cfg)
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            f1s.append(report.metric.f1)
            cm = report.confusion_matrix
            spam_cm = ConfusionMatrix(tp=cm.tn, fp=cm.fn, fn=cm.fp,
                                      tn=cm.tp, positive_label="spam")
            spam_f1s.append(metrics(spam_cm).f1)
        ok = min(f1s) >= 0.97 - 0.02 and max(times) < 120.0
        _report(1, ok,
                f"SVM ctfidf+irlba(300) ham-F1 per seed "
                f"{[f'{v:.4f}' for v in f1s]} (floor 0.95, paper 0.9873); "
                f"spam-F1 {[f'{v:.4f}' for v in spam_f1s]}; "
                f"slowest run {max(times):.0f}s (< 120s)")


class TestCriterion2TreeCtfIdfIrlba:
    def test_sms_spam_tree_f1(self, workdir):
        path = sms_spam_path()
        if path is None:
            _skip_dataset("SMS Spam Collection", "data/SMSSpamCollection")
        f1s = []
        for seed in SEEDS:
            cfg = _experiment(path, kind="dtree", seed=seed,
                              out_dir=workdir / f"c2_{seed}")
            report = run_experiment(cfg)
            f1s.append(report.metric.f1)
        ok = min(f1s) >= 0.95 - 0.02
        _report(2, ok,
                f"tree ctfidf+irlba(300) ham-F1 per seed "
                f"{[f'{v:.4f}' for v in f1s]} (floor 0.93, paper 0.9700)")


class TestCriterion3PhishingSvm:
    def test_phishing_svm_f1(self, workdir):
        path = phishing_path()
        if path is None:
            _skip_dataset("SMS phishing", "data/Dataset_5971.csv")
        corpus, mapping = _phishing_mapping(path)
        assert len(corpus) == 5971, "expected the 5,971-message collection"
        merged = normalize_labels(corpus, mapping)
        counts = merged.label_counts()
        assert counts == {"ham": 4844, "spam": 1127}, counts
        f1s = []
        for seed in SEEDS:
            cfg = _experiment(path, delimiter=",", has_header=True,
                              mapping=mapping, kind="svm", seed=seed,
                              out_dir=workdir / f"c3_{seed}")
            report = run_experiment(cfg)
            f1s.append(report.metric.f1)
        ok = min(f1s) >= 0.96 - 0.025
        _report(3, ok,
                f"phishing SVM ctfidf+irlba ham-F1 per seed "
                f"{[f'{v:.4f}' for v in f1s]} (floor 0.935, paper 0.9840)")


class TestCriterion4Speedup:
    def test_tree_training_speedup(self, workdir):
        path = sms_spam_path()
        if path is None:
            _skip_dataset("SMS Spam Collection", "data/SMSSpamCollection")
        full_cfg = _experiment(path, kind="dtree", seed=0, reduced=False,
                               out_dir=workdir / "c4_full")
        reduced_cfg = _experiment(path, kind="dtree", seed=0, reduced=True,
                                  out_dir=workdir / "c4_reduced")
        full = run_experiment(full_cfg)
        reduced = run_experiment(reduced_cfg)
        ratio = full.train_time_ms / max(reduced.train_time_ms, 1)
        ok = ratio >= 5.0
        _report(4, ok,
                f"tree training {full.train_time_ms}ms on full DFM vs "
                f"{reduced.train_time_ms}ms reduced -> {ratio:.1f}x "
                f"(need >= 5x; paper ~45x)")


class TestCriterion5OrderingClaim:
    def test_ctfidf_at_least_ties_tfidf(self, workdir):
        spam = sms_spam_path()
        phish = phishing_path()
        if spam is None or phish is None:
            _skip_dataset("SMS Spam Collection + SMS phishing",
                          "data/SMSSpamCollection and data/Dataset_5971.csv")
        _, mapping = _phishing_mapping(phish)
        datasets = {
            "spam": dict(path=spam, delimiter="\t", has_header=False,
                         mapping=None),
            "phishing": dict(path=phish, delimiter=",", has_header=True,
                             mapping=mapping),
        }
        wins, lines = 0, []
        for ds_name, ds in datasets.items():
            for kind in ("svm", "dtree"):
                scores = {}
                for scheme in ("ctfidf", "tfidf"):
                    cfg = _experiment(ds["path"], delimiter=ds["delimiter"],
                                      has_header=ds["has_header"],
                                      mapping=ds["mapping"], scheme=scheme,
                                      kind=kind, seed=0,
                                      out_dir=workdir / f"c5_{ds_name}_{kind}_{scheme}")
                    scores[scheme] = run_experiment(cfg).metric.f1
                win = scores["ctfidf"] >= scores["tfidf"]
                wins += win
                lines.append(f"{ds_name}/{kind}: ctfidf {scores['ctfidf']:.4f} "
                             f"vs tfidf {scores['tfidf']:.4f}"
                             f" {'>=' if win else '<'}")
        ok = wins >= 3
        _report(5, ok, f"ctfidf >= tfidf in {wins}/4 configs ({'; '.join(lines)})")


class TestCriterion6IrlbaOracleSuite:
    def test_fifty_random_matrices(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst_rel, worst_orth, worst_res = 0.0, 0.0, 0.0
        n_matrices = 0
        for trial in range(50):
            k = (1, 5, 10, 50)[trial % 4]
            lo = 120 if k == 50 else 60
            m = int(rng.integers(lo, 301))
            n = int(rng.integers(lo, 301))
            density = float(rng.uniform(0.05 if k == 50 else 0.01, 0.2))
            A = sp.random(m, n, density=density,
                          random_state=np.random.RandomState(trial),
                          format="csr")
            A.data += 0.1
            tol = 1e-8
            f = irlba(A, k, tol=tol, seed=trial)
            dense = np.linalg.svd(A.toarray(), compute_uv=False)[:k]
            assert dense[-1] > 0, f"trial {trial}: oracle rank < k"
            rel = float((np.abs(f.s - dense) / dense).max())
            orth = max(float(np.abs(f.U.T @ f.U - np.eye(k)).max()),
                       float(np.abs(f.V.T @ f.V - np.eye(k)).max()))
            res = max(
                float(np.linalg.norm(A @ f.V - f.U * f.s, axis=0).max()),
                float(np.linalg.norm(A.T @ f.U - f.V * f.s, axis=0).max()))
            worst_rel = max(worst_rel, rel)
            worst_orth = max(worst_orth, orth)
            worst_res = max(worst_res, res / (tol * f.s[0]))
            assert rel <= 1e-6, f"trial {trial} (k={k}): rel err {rel:.2e}"
            assert orth <= 1e-8, f"trial {trial}: orthonormality {orth:.2e}"
            assert res <= tol * f.s[0], f"trial {trial}: residual {res:.2e}"
            n_matrices += 1
        elapsed = time.perf_counter() - t0
        ok = n_matrices == 50 and elapsed < 60.0
        _report(6, ok,
                f"50 matrices, k in (1,5,10,50): worst rel sval err "
                f"{worst_rel:.1e} (<=1e-6), worst orthonormality "
                f"{worst_orth:.1e} (<=1e-8), worst residual/(tol*s1) "
                f"{worst_res:.2f} (<=1), {elapsed:.1f}s (< 60s)")


class TestCriterion7WeightingSuite:
    def test_weighting_properties(self):
        docs = [ProcessedDoc(tuple(s)) for s in
                [["a", "b", "a"], ["b", "c"], ["a", "c", "c", "d"], ["d"],
                 ["b", "b", "e"], ["e", "a"]]]
        vocab = build_vocabulary(docs)
        counts = build_dfm(docs, vocab)
        ctf_model = fit_weighting(vocab, Scheme.CTF_IDF)
        classic_model = fit_weighting(vocab, Scheme.TFIDF_CLASSIC)
        ctf = apply_weighting(counts, ctf_model).toarray()
        mask = counts.toarray() > 0

        positivity = bool((ctf[mask] > 0).all())
        rank_agree = bool((np.argsort(ctf_model.idf)
                           == np.argsort(classic_model.idf)).all())
        tf = counts.toarray().astype(float)
        tf = tf / np.maximum(tf.max(axis=1, keepdims=True), 1e-300)
        eq3 = tf * ctf_model.idf
        offs = np.broadcast_to(ctf_model.idf / ctf_model.n_docs, ctf.shape)
        offset_identity = bool(
            np.allclose((ctf - eq3)[mask], offs[mask], atol=1e-12))

        two_docs = [ProcessedDoc(("t",)), ProcessedDoc(("t",))]
        v2 = build_vocabulary(two_docs)
        c2 = build_dfm(two_docs, v2)
        out = apply_weighting(c2, fit_weighting(v2, Scheme.CTF_IDF)).toarray()
        hand = abs(out[0, 0] - 1.322061) <= 1e-6

        ok = positivity and rank_agree and offset_identity and hand
        _report(7, ok,
                f"positivity={positivity}, rank agreement={rank_agree}, "
                f"offset identity={offset_identity}, hand value "
                f"{out[0, 0]:.6f} vs 1.322061 ({hand})")


class TestCriterion8Porter:
    def test_reference_vocabulary(self):
        pairs_file = Path(__file__).parent / "data" / "porter_pairs.tsv"
        pairs = [line.split("\t") for line in
                 pairs_file.read_text(encoding="utf-8").splitlines()]
        disagreements = sum(porter_stem(w) != s for w, s in pairs)
        ok = disagreements == 0 and len(pairs) > 20000
        _report(8, ok,
                f"{len(pairs)} reference input/output pairs, "
                f"{disagreements} disagreements (need 0)")


class TestCriterion9MetricIdentities:
    def test_swap_and_table_consistency(self):
        y_true = ["s"] * 60 + ["h"] * 40
        rng = np.random.default_rng(0)
        y_pred = [lab if rng.random() < 0.8 else
                  ("h" if lab == "s" else "s") for lab in y_true]
        a = confusion(y_true, y_pred, "s")
        b = confusion(y_true, y_pred, "h")
        swap_ok = ((a.tp, a.fp, a.fn, a.tn) == (b.tn, b.fn, b.fp, b.tp)
                   and abs(metrics(a).balanced_accuracy
                           - metrics(b).balanced_accuracy) < 1e-12)

        # integer confusion matrix with precision exactly 0.9783 and
        # recall exactly 0.9965
        tp = 9783 * 1993
        fp = 1993 * (10000 - 9783)
        fn = 9783 * 2000 - tp
        frag = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=10**6,
                                       positive_label="s"))
        table_ok = (abs(frag.precision - 0.9783) < 1e-12
                    and abs(frag.recall - 0.9965) < 1e-12
                    and abs(frag.f1 - 0.9873) <= 1e-4)
        ok = swap_ok and table_ok
        _report(9, ok,
                f"label-swap symmetry={swap_ok}; precision 0.9783 + recall "
                f"0.9965 -> F1 {frag.f1:.6f} (0.9873 +- 1e-4: {table_ok})")


class TestCriterion10Determinism:
    def test_repeat_run_identical_metrics(self, workdir):
        data = workdir / "synth.tsv"
        write_tsv(str(data), generate_corpus(300, 150, seed=7))
        reports = []
        for i in range(2):
            cfg = ExperimentConfig(
                dataset=DatasetConfig(path=str(data)),
                weighting_scheme="ctfidf",
                reduce=ReduceConfig(enabled=True, k=40, seed=5),
                model=ModelSpec(kind="svm"),
                split=SplitSpec(0.7, seed=5, stratified=True),
                cv_folds=3,
                positive_label="spam",
                output_dir=str(workdir / f"c10_{i}"))
            reports.append(run_experiment(cfg))
        a, b = reports
        same_metrics = (a.metric == b.metric)
        same_confusion = (a.confusion_matrix == b.confusion_matrix)
        same_fingerprint = (a.dataset_fingerprint == b.dataset_fingerprint)
        ok = same_metrics and same_confusion and same_fingerprint
        _report(10, ok,
                f"repeated run: metrics equal={same_metrics}, confusion "
                f"equal={same_confusion}, fingerprint equal={same_fingerprint}")
