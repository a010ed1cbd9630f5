"""Output checks, computed apart from the program.

From the saved artifacts alone this module rebuilds the held-out
predictions with its own numpy code: term counts, tf max-normalisation,
the idf formulas and the ctfidf offset, ``X @ V``, the linear decision
(zero goes positive) and tree traversal (a value equal to the threshold
goes left). It recounts the confusion matrix and F1 and requires them to
equal ``report.json``. On IRLBA workloads it checks ``V`` and ``s``
against its own weighted training matrix and ``scipy.sparse.linalg.svds``;
on tree workloads it checks the class-count invariants of the saved tree.
Tokenising and stemming, and the train/test split, come from ``ctfidf``:
the checks are about the numeric pipeline that follows.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from ctfidf.ingest import LabeledCorpus, RawRecord, SplitSpec, split
from ctfidf.preprocess import preprocess_corpus

ORTHO_TOL = 1e-8       # max |V^T V - I|
SVDS_RTOL = 1e-6       # leading singular values against svds
SVDS_K = 10
ROUNDING = 1e-12       # of s_1^2, added to the residual bound


def f1_score(y_true: list[str], y_pred: list[str], positive: str) -> tuple:
    """(tp, fp, fn, tn, f1) with ``positive`` as the positive class."""
    tp = sum(t == positive and p == positive for t, p in zip(y_true, y_pred))
    fp = sum(t != positive and p == positive for t, p in zip(y_true, y_pred))
    fn = sum(t == positive and p != positive for t, p in zip(y_true, y_pred))
    tn = len(y_true) - tp - fp - fn
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return tp, fp, fn, tn, f1


def counts(docs, term_index: dict[str, int]) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for i, doc in enumerate(docs):
        for term, c in Counter(doc.stems).items():
            j = term_index.get(term)
            if j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(float(c))
    X = sp.csr_matrix((vals, (rows, cols)),
                      shape=(len(docs), len(term_index)))
    X.sort_indices()
    return X


def idf(scheme: str, doc_freq: np.ndarray, n_docs: int) -> np.ndarray:
    ratio = n_docs / doc_freq.astype(np.float64)
    return np.arcsinh(ratio) if scheme == "ctfidf" else np.log(ratio)


def weigh(C: sp.csr_matrix, scheme: str, idf_: np.ndarray,
          n_docs: int) -> sp.csr_matrix:
    """tf = count / row max; weight = tf * idf (+ idf / N where occupied)."""
    X = C.copy()
    per_row = np.diff(X.indptr)
    row_max = np.zeros(X.shape[0])
    occupied = per_row > 0
    row_max[occupied] = np.maximum.reduceat(X.data, X.indptr[:-1][occupied])
    inv = np.divide(1.0, row_max, out=np.zeros_like(row_max),
                    where=row_max > 0)
    X.data = X.data * np.repeat(inv, per_row)
    X.data = X.data * idf_[X.indices]
    if scheme == "ctfidf":
        X.data = X.data + (idf_ / n_docs)[X.indices]
    return X


def tree_leaves(nodes: list[dict], Z) -> np.ndarray:
    """Leaf index of every row; ``x <= threshold`` goes left."""
    leaf = np.zeros(Z.shape[0], dtype=np.int64)
    stack = [(0, np.arange(Z.shape[0]))]
    while stack:
        i, rows = stack.pop()
        node = nodes[i]
        if node["leftChild"] is None:
            leaf[rows] = i
            continue
        col = Z[rows, node["featureIndex"]]
        col = col.toarray().ravel() if sp.issparse(col) else col
        left = col <= node["threshold"]
        stack.append((node["leftChild"], rows[left]))
        stack.append((node["rightChild"], rows[~left]))
    return leaf


def naive_bayes_f1(C_train, y_train, C_test, y_test, positive: str) -> float:
    """Multinomial naive Bayes with add-one smoothing, as an F1 baseline."""
    labels = sorted(set(y_train))
    ytr = np.array(y_train)
    scores = []
    for lab in labels:
        rows = ytr == lab
        tc = np.asarray(C_train[rows].sum(axis=0)).ravel() + 1.0
        scores.append(np.log(rows.mean()) + C_test @ np.log(tc / tc.sum()))
    pred = [labels[j] for j in np.argmax(np.vstack(scores), axis=0)]
    return f1_score(y_test, pred, positive)[4]


def verify(wl, dataset: Path, out_dir: Path,
           rounds: list[dict]) -> tuple[list[str], dict]:
    """Problems found (empty when every check passes) and diagnostics."""
    problems: list[str] = []
    done = [r for r in rounds if "experiment_s" in r]
    if not done:
        return problems, {}
    for r in done[1:]:
        if r["sha256"] != done[0]["sha256"] or r["f1"] != done[0]["f1"]:
            problems.append("artifacts differ between rounds")
    for r in done:
        labels = r["stream_labels"]
        if (sum(labels.values()) != r["stream_classified"]
                or not set(labels) <= set(r["label_order"])):
            problems.append(f"stream labels {labels} are not one of "
                            f"{r['label_order']} for each of "
                            f"{r['stream_classified']} messages")

    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    model = json.loads((out_dir / "model.json").read_text("utf-8"))
    vocab = json.loads((out_dir / "vocab.json").read_text("utf-8"))
    cfg = report["config"]
    positive = cfg["positiveLabel"]

    records = []
    with open(dataset, encoding="utf-8") as fh:
        for line in fh:
            label, text = line.rstrip("\n").split("\t", 1)
            records.append(RawRecord(label, text))
    train, test = split(LabeledCorpus.from_records(records),
                        SplitSpec(cfg["split"]["trainFraction"],
                                  seed=cfg["split"]["seed"],
                                  stratified=cfg["split"]["stratified"]))
    terms = vocab["terms"]
    index = {t: j for j, t in enumerate(terms)}
    C_train = counts(preprocess_corpus(train.texts()), index)
    C_test = counts(preprocess_corpus(test.texts()), index)
    n_docs = vocab["nDocs"]
    df = np.asarray(vocab["docFreq"], dtype=np.int64)
    if not np.array_equal(df, np.asarray((C_train > 0).sum(axis=0)).ravel()):
        problems.append("vocab.json docFreq differs from the training counts")
    scheme = vocab["weighting"]["scheme"]
    my_idf = idf(scheme, df, n_docs)
    if not np.allclose(my_idf, vocab["weighting"]["idf"], rtol=1e-15, atol=0):
        problems.append("saved idf differs from the idf formula")
    A = weigh(C_train, scheme, my_idf, n_docs)
    B = weigh(C_test, scheme, my_idf, n_docs)

    info = {"terms": len(terms), "train_nnz": int(C_train.nnz),
            "nb_f1": naive_bayes_f1(C_train, train.labels(), C_test,
                                    test.labels(), positive)}
    if model["featureSpace"] == "reduced":
        with np.load(out_dir / model["references"]["factors"]) as z:
            V, s = z["V"], z["s"]
        problems += _check_factors(A, V, s, cfg["reduce"]["tol"])
        Z_train, Z_test = A @ V, B @ V
    else:
        Z_train, Z_test = A, B

    neg, pos = model["labelOrder"][0], model["labelOrder"][-1]
    if model["kind"] == "svm":
        score = np.asarray(Z_test @ np.asarray(model["weights"])).ravel()
        pred = [pos if v >= 0.0 else neg for v in score + model["bias"]]
    else:
        nodes = model["nodes"]
        problems += _check_tree(nodes, Z_train, train.labels(),
                                model["labelOrder"])
        info["tree_nodes"] = len(nodes)
        pred = [nodes[i]["predictedLabel"] for i in tree_leaves(nodes, Z_test)]
    tp, fp, fn, tn, f1 = f1_score(test.labels(), pred, positive)
    saved = report["confusion"]
    if (tp, fp, fn, tn) != (saved["tp"], saved["fp"], saved["fn"],
                            saved["tn"]):
        problems.append(f"recomputed confusion {(tp, fp, fn, tn)} differs "
                        f"from report.json {saved}")
    if not np.isclose(f1, report["f1"], rtol=1e-12, atol=0):
        problems.append(f"recomputed F1 {f1} differs from {report['f1']}")
    if report["f1"] < wl.f1_floor:
        problems.append(f"F1 {report['f1']:.4f} below the floor "
                        f"{wl.f1_floor}")
    info["f1"] = report["f1"]
    return problems, info


def _check_factors(A, V: np.ndarray, s: np.ndarray, tol: float) -> list[str]:
    problems = []
    ortho = float(np.abs(V.T @ V - np.eye(V.shape[1])).max())
    if ortho > ORTHO_TOL:
        problems.append(f"V not orthonormal: max |V^T V - I| = {ortho:.2e}")
    AV = A @ V
    resid = np.linalg.norm(A.T @ AV - V * s**2, axis=0)
    bound = s * tol * s[0] + ROUNDING * s[0] ** 2
    if np.any(resid > bound):
        i = int(np.argmax(resid / bound))
        problems.append(f"||A^T A v_{i} - s_{i}^2 v_{i}|| = {resid[i]:.3e} "
                        f"exceeds {bound[i]:.3e}")
    ref = np.sort(svds(A, k=SVDS_K, random_state=0,
                       return_singular_vectors=False))[::-1]
    rel = np.abs(s[:SVDS_K] - ref) / ref
    if np.any(rel > SVDS_RTOL):
        problems.append(f"leading singular values differ from svds by "
                        f"{rel.max():.2e} relative")
    return problems


def _check_tree(nodes: list[dict], Z_train, y_train: list[str],
                label_order: list[str]) -> list[str]:
    problems = []
    for i, node in enumerate(nodes):
        if node["leftChild"] is None:
            continue
        kids = (np.asarray(nodes[node["leftChild"]]["classCounts"])
                + np.asarray(nodes[node["rightChild"]]["classCounts"]))
        if not np.array_equal(kids, node["classCounts"]):
            problems.append(f"node {i} class counts {node['classCounts']} "
                            f"are not the sum of its children's")
    y_idx = np.array([label_order.index(y) for y in y_train])
    leaf = tree_leaves(nodes, Z_train)
    for i, node in enumerate(nodes):
        if node["leftChild"] is None:
            got = np.bincount(y_idx[leaf == i], minlength=len(label_order))
            if not np.array_equal(got, node["classCounts"]):
                problems.append(f"training rows reach leaf {i} with counts "
                                f"{got.tolist()}, saved {node['classCounts']}")
    return problems
