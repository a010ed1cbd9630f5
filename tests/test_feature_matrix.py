"""The feature-matrix contract: every public entry that takes a matrix
converts and checks it through ``as_feature_matrix`` alone, so each one
accepts and rejects the same inputs the same way."""

import importlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

from ctfidf import svm, tree, weighting
from ctfidf.exceptions import (
    DimensionMismatchError,
    NonFiniteValueError,
    as_feature_matrix,
)
from ctfidf.irlba import SvdFactors
from ctfidf.pipeline import config_from_dict, run_experiment
from ctfidf.weighting import Scheme, WeightingModel

from conftest import merged

# by module object: the package re-exports a function named ``irlba``
irlba = importlib.import_module("ctfidf.irlba")

# small counts, about a third of them zero; an int and a float64 copy hold
# the same numbers
COUNTS = np.random.default_rng(4).integers(0, 4, size=(12, 6)) * \
    (np.random.default_rng(5).random((12, 6)) < 0.7)
D = COUNTS.astype(np.float64)
Y = ["a", "b"] * 6
SVM_MODEL = svm.train_svm(D, Y, seed=1)
TREE_MODEL = tree.train_dtree(D, Y, ccp_alpha=0.0)
FACTORS = irlba.irlba(D, 2, tol=1e-10, seed=0)
WEIGHTS = WeightingModel(Scheme.CTF_IDF, np.linspace(0.5, 2.0, 6), 12)

ENTRIES = {
    "train_svm": lambda X: svm.train_svm(X, Y, seed=1),
    "decision_scores": lambda X: svm.decision_scores(SVM_MODEL, X),
    "train_dtree": lambda X: tree.train_dtree(X, Y, ccp_alpha=0.0),
    "predict_dtree": lambda X: tree.predict_dtree(TREE_MODEL, X),
    "irlba": lambda X: irlba.irlba(X, 2, tol=1e-10, seed=0),
    "project": lambda X: irlba.project(X, FACTORS),
    "apply_weighting": lambda X: weighting.apply_weighting(X, WEIGHTS),
}
FORMS = {"dense": np.asarray, "csr": sp.csr_matrix, "csc": sp.csc_matrix}


def plain(out):
    """An entry's result as plain, exactly comparable values."""
    if isinstance(out, SvdFactors):
        return out.s.tolist(), out.V.tolist()
    if hasattr(out, "to_dict"):
        return json.dumps(out.to_dict(), sort_keys=True)
    if sp.issparse(out):
        return out.toarray().tolist(), out.indices.tolist()
    return np.asarray(out).tolist()


@pytest.fixture(params=sorted(ENTRIES))
def entry(request):
    return ENTRIES[request.param]


def test_nested_list_matches_array(entry):
    assert plain(entry(D.tolist())) == plain(entry(D))


@pytest.mark.parametrize("X", [D[0], D[None]], ids=["1-d", "3-d"])
def test_other_shapes_raise(entry, X):
    with pytest.raises(DimensionMismatchError, match="must be 2-d"):
        entry(X)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", sorted(FORMS))
def test_non_finite_names_row_and_feature(entry, form, value):
    X = D.copy()
    X[5, 3] = value
    with pytest.raises(NonFiniteValueError,
                       match="at row 5, feature 3") as err:
        entry(FORMS[form](X))
    assert (err.value.row, err.value.feature) == (5, 3)


@pytest.mark.parametrize("form", sorted(FORMS) + ["object"])
def test_int_and_object_match_float(entry, form):
    make = FORMS.get(form, lambda a: a.astype(object))
    assert plain(entry(make(COUNTS))) == plain(entry(make(D)))


def non_canonical_csr():
    """D as CSR holding each value as two halves, each row's columns in
    descending order, and a stored zero in row 0."""
    data, indices, indptr = [0.0], [int(np.flatnonzero(D[0] == 0)[0])], [0]
    for row in D:
        for c in np.flatnonzero(row)[::-1]:
            data += [row[c] / 2.0] * 2
            indices += [c, c]
        indptr.append(len(data))
    return sp.csr_matrix((data, indices, indptr), shape=D.shape)


@pytest.mark.parametrize("make", [
    lambda: D.copy(), lambda: COUNTS.copy(), lambda: sp.csc_matrix(D),
    lambda: sp.csr_matrix(COUNTS), non_canonical_csr,
], ids=["dense", "int", "csc", "int-csr", "non-canonical-csr"])
def test_caller_matrix_unchanged(entry, make):
    X, before = make(), make()
    entry(X)
    if sp.issparse(X):
        assert X.format == before.format and X.dtype == before.dtype
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(X, part), getattr(before, part))
    else:
        assert X.dtype == before.dtype and np.array_equal(X, before)


def test_non_canonical_csr_is_the_dense_matrix():
    X = non_canonical_csr()
    assert not X.has_canonical_format
    assert X.nnz == 2 * np.count_nonzero(D) + 1
    out = as_feature_matrix(X)
    assert out is not X and out.has_canonical_format
    assert np.array_equal(out.toarray(), D) and out.nnz == np.count_nonzero(D)


@pytest.mark.parametrize("patch", [
    {"model": {"kind": "svm"}},
    {"model": {"kind": "svm"}, "reduce": {"enabled": False}},
    {"model": {"kind": "dtree", "hyperparameters": {"ccpAlpha": 0.0}}},
], ids=["irlba-svm", "terms-svm", "irlba-tree"])
def test_pipeline_matrices_pass_through_unchanged(base_config, tmp_path,
                                                  monkeypatch, patch):
    """The weighted CSR and its dense projection are already in the form
    the kernels read, so the conversion hands back the same objects."""
    calls = []

    def spy(X, *args, **kwargs):
        out = as_feature_matrix(X, *args, **kwargs)
        calls.append((X, out))
        return out

    for module in (irlba, svm, tree, weighting):
        monkeypatch.setattr(module, "as_feature_matrix", spy)
    run_experiment(config_from_dict(merged(base_config, patch), tmp_path))
    assert len(calls) >= 4
    assert all(out is X for X, out in calls)
