"""CART decision tree with cost-complexity pruning chosen by cross-validation.

Splits minimize weighted Gini impurity over every (feature, threshold)
pair, thresholds being midpoints between consecutive distinct sorted
values. A value equal to the threshold goes left. Ties between
equally-good splits resolve to the lowest feature index, then the lowest
threshold, so training is deterministic.

Dense arrays and sparse matrices share one split kernel. Each fit sorts
the stored values once, by (feature, value): a dense array stores every
cell, a sparse matrix only its nonzeros, and a feature's unstored rows
count as one zero-valued entry. Children and cross-validation folds take
their entries by a stable row filter, so nothing is sorted again, and
both storage forms grow bit-identical trees. Split search therefore costs
time in proportion to the stored values of a node rather than to its
rows times the feature count, which is why a sparse term matrix is cheap
to fit.

The complexity parameter is selected from a fixed grid by stratified
k-fold cross-validation maximizing mean F1, using one weakest-link
pruning path per grown tree so each fold grows only a single tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .evaluation import confusion, kfold_indices, metrics
from .exceptions import DimensionMismatchError, SingleClassError

CCP_ALPHA_GRID = (0.0, 1e-4, 1e-3, 1e-2, 1e-1)


@dataclass
class TreeNode:
    """One node; ``left``/``right`` are node-array indices or None."""

    feature: int | None
    threshold: float | None
    impurity: float
    class_counts: np.ndarray
    left: int | None
    right: int | None
    predicted_label: str

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 30
    min_samples_split: int = 2
    ccp_alpha: float | None = None  # None selects from CCP_ALPHA_GRID by CV


@dataclass
class DecisionTreeModel:
    nodes: list[TreeNode]
    params: TreeParams
    label_order: list[str]
    chosen_alpha: float = 0.0
    cv_mean_f1: dict[float, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": "dtree",
            "labelOrder": list(self.label_order),
            "params": {"maxDepth": self.params.max_depth,
                       "minSamplesSplit": self.params.min_samples_split,
                       "ccpAlpha": self.chosen_alpha},
            "nodes": [{"featureIndex": n.feature, "threshold": n.threshold,
                       "impurity": n.impurity,
                       "classCounts": [int(c) for c in n.class_counts],
                       "leftChild": n.left, "rightChild": n.right,
                       "predictedLabel": n.predicted_label}
                      for n in self.nodes],
            "cvMeanF1": [{"ccpAlpha": a, "meanF1": f}
                         for a, f in self.cv_mean_f1.items()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTreeModel":
        p = d["params"]
        nodes = [TreeNode(feature=nd["featureIndex"], threshold=nd["threshold"],
                          impurity=nd["impurity"],
                          class_counts=np.asarray(nd["classCounts"], dtype=np.int64),
                          left=nd["leftChild"], right=nd["rightChild"],
                          predicted_label=nd["predictedLabel"])
                 for nd in d["nodes"]]
        return cls(nodes=nodes,
                   params=TreeParams(p["maxDepth"], p["minSamplesSplit"],
                                     p["ccpAlpha"]),
                   label_order=list(d["labelOrder"]),
                   chosen_alpha=p["ccpAlpha"] or 0.0,
                   cv_mean_f1={e["ccpAlpha"]: e["meanF1"]
                               for e in d.get("cvMeanF1", [])})


# Stored values scored at once: bounds the kernel's scratch memory, not
# the result.
_SCORE_CAP = 1 << 16


def _as_columns(X):
    """X as a float64 2-d array, or a canonical CSC copy without stored zeros.

    The copy leaves the caller's matrix as it was.
    """
    if sp.issparse(X):
        Xc = sp.csc_matrix(X, dtype=np.float64, copy=True)
        Xc.sum_duplicates()
        Xc.eliminate_zeros()
        return Xc
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("feature matrix must be 2-d")
    return X


def _column(X, j: int, rows: np.ndarray) -> np.ndarray:
    """Values of feature ``j`` at ``rows`` of an :func:`_as_columns` matrix."""
    if sp.issparse(X):
        col = np.zeros(X.shape[0])
        lo, hi = X.indptr[j], X.indptr[j + 1]
        col[X.indices[lo:hi]] = X.data[lo:hi]
        return col[rows]
    return X[rows, j]


def _sorted_entries(X):
    """(feature, value, row) arrays of every stored value of an
    :func:`_as_columns` matrix, sorted by (feature, value).

    A dense array stores every cell, a CSC matrix only its nonzeros.
    """
    if sp.issparse(X):
        per_feature, val, row = np.diff(X.indptr), X.data, X.indices
    else:
        n, n_features = X.shape
        per_feature = np.full(n_features, n)
        val = X.T.ravel()
        row = np.tile(np.arange(n, dtype=np.int32), n_features)
    feat = np.repeat(np.arange(X.shape[1], dtype=np.int32), per_feature)
    order = np.lexsort((val, feat))
    return feat[order], val[order], row[order]


def _gini(counts: np.ndarray, n: int) -> float:
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.dot(p, p))


def _best_split(entries, y_idx: np.ndarray, total: np.ndarray,
                parent_gini: float):
    """Best (gain, feature, threshold) over a node's sorted entries.

    ``entries`` are the (feature, value, row) arrays of the node's stored
    values in (feature, value) order, ``y_idx`` the class of every row and
    ``total`` the node's class counts. The node's rows that a feature does
    not store are zeros: they enter as one zero-valued entry, weighted by
    their class counts, between the feature's negative and positive values.
    Candidates are the boundaries between distinct values of one feature;
    the first maximum in (feature, value) order wins. Features are scored
    in groups of about ``_SCORE_CAP`` stored values.
    """
    feat, val, row = entries
    nn = int(total.sum())
    n_classes = total.shape[0]
    # where each feature's entries start, then the end
    bounds = np.r_[np.flatnonzero(np.diff(feat, prepend=-1)), feat.shape[0]]
    best = (0.0, -1, 0.0)
    lo = 0
    while lo < bounds.shape[0] - 1:
        hi = np.searchsorted(bounds, bounds[lo] + _SCORE_CAP, side="right")
        hi = max(lo + 1, int(hi) - 1)
        group = hi - lo
        v = val[bounds[lo]:bounds[hi]]
        c = y_idx[row[bounds[lo]:bounds[hi]]]
        seg = np.repeat(np.arange(group), np.diff(bounds[lo:hi + 1]))
        stored = np.bincount(seg * n_classes + c, minlength=group * n_classes)
        missing = total - stored.reshape(group, n_classes)
        zeros = np.flatnonzero(missing.sum(axis=1) > 0)
        at = (bounds[lo + zeros] - bounds[lo]
              + np.bincount(seg[v < 0], minlength=group)[zeros])
        v = np.insert(v, at, 0.0)
        seg = np.insert(seg, at, zeros)
        cut = np.flatnonzero((seg[:-1] == seg[1:]) & (v[:-1] < v[1:]))
        left_n = np.zeros(cut.shape[0])
        sum_sq_l = np.zeros(cut.shape[0])
        sum_sq_r = np.zeros(cut.shape[0])
        for k in range(n_classes):
            weight = np.insert((c == k).astype(np.float64), at,
                               missing[zeros, k])
            # every feature's entries weigh total[k] in all, so subtracting
            # that of the features before restarts the count per feature
            lc = np.cumsum(weight)[cut] - seg[cut] * total[k]
            left_n += lc
            sum_sq_l += lc * lc
            sum_sq_r += (total[k] - lc) * (total[k] - lc)
        right_n = nn - left_n
        gini_l = 1.0 - sum_sq_l / (left_n * left_n)
        gini_r = 1.0 - sum_sq_r / (right_n * right_n)
        gain = parent_gini - (left_n * gini_l + right_n * gini_r) / nn
        if cut.shape[0]:
            t = int(np.argmax(gain))
            if gain[t] > best[0]:
                i = cut[t]
                best = (float(gain[t]), int(feat[bounds[lo + seg[i]]]),
                        float((v[i] + v[i + 1]) / 2.0))
        lo = hi
    return best


def _grow(X, entries, rows: np.ndarray, y_idx: np.ndarray,
          labels: list[str], params: TreeParams) -> list[TreeNode]:
    """Grow a tree on ``rows`` of X, whose sorted entries are ``entries``."""
    nodes = [_make_node(y_idx, rows, labels)]
    # stack of (node_slot, row_indices, (feature, value, row) entries, depth)
    stack = [(0, rows, entries, 0)]
    goes_left = np.zeros(X.shape[0], dtype=bool)
    while stack:
        slot, rows, entries, depth = stack.pop()
        node = nodes[slot]
        if (depth >= params.max_depth
                or rows.shape[0] < max(2, params.min_samples_split)
                or node.impurity == 0.0):
            continue
        gain, j, thr = _best_split(entries, y_idx,
                                   node.class_counts.astype(np.float64),
                                   node.impurity)
        if j < 0 or gain <= 0.0:
            continue
        mask = _column(X, j, rows) <= thr
        left_rows, right_rows = rows[mask], rows[~mask]
        if left_rows.shape[0] == 0 or right_rows.shape[0] == 0:
            continue
        goes_left[rows] = mask
        keep = goes_left[entries[2]]  # by the row of each entry
        node.feature = int(j)
        node.threshold = float(thr)
        node.left = len(nodes)
        nodes.append(_make_node(y_idx, left_rows, labels))
        node.right = len(nodes)
        nodes.append(_make_node(y_idx, right_rows, labels))
        stack.append((node.left, left_rows,
                      tuple(a[keep] for a in entries), depth + 1))
        stack.append((node.right, right_rows,
                      tuple(a[~keep] for a in entries), depth + 1))
    return nodes


def _make_node(y_idx: np.ndarray, rows: np.ndarray,
               labels: list[str]) -> TreeNode:
    counts = np.bincount(y_idx[rows], minlength=len(labels))
    return TreeNode(feature=None, threshold=None,
                    impurity=_gini(counts, rows.shape[0]),
                    class_counts=counts, left=None, right=None,
                    predicted_label=labels[int(np.argmax(counts))])


def _pruning_path(nodes: list[TreeNode]) -> list[tuple[float, frozenset[int]]]:
    """Weakest-link sequence: (effective alpha, nodes collapsed so far).

    Node cost is the sample-weighted Gini, matching the growth criterion.
    Leaf counts and subtree costs are maintained incrementally through
    parent pointers, and every node achieving the current minimum link
    strength collapses in the same step.
    """
    n = len(nodes)
    n_total = int(nodes[0].class_counts.sum())
    r_node = np.array([int(nd.class_counts.sum()) / n_total * nd.impurity
                       for nd in nodes])
    parent = np.full(n, -1, dtype=np.int64)
    for i, nd in enumerate(nodes):
        if not nd.is_leaf:
            parent[nd.left] = i
            parent[nd.right] = i
    n_leaves = np.ones(n, dtype=np.int64)
    cost = r_node.copy()
    for i in range(n - 1, -1, -1):  # children always follow their parent
        nd = nodes[i]
        if not nd.is_leaf:
            n_leaves[i] = n_leaves[nd.left] + n_leaves[nd.right]
            cost[i] = cost[nd.left] + cost[nd.right]

    alive = {i for i, nd in enumerate(nodes) if not nd.is_leaf}
    removed = np.zeros(n, dtype=bool)
    collapsed: set[int] = set()
    path: list[tuple[float, frozenset[int]]] = []

    while alive:
        g = {i: (r_node[i] - cost[i]) / (n_leaves[i] - 1) for i in alive}
        g_min = min(g.values())
        for i in sorted(i for i, v in g.items() if v <= g_min):
            if removed[i] or i in collapsed:
                continue
            stack = [nodes[i].left, nodes[i].right]
            while stack:
                t = stack.pop()
                removed[t] = True
                alive.discard(t)
                if not nodes[t].is_leaf:
                    stack.extend((nodes[t].left, nodes[t].right))
            collapsed.add(i)
            alive.discard(i)
            d_leaves = 1 - n_leaves[i]
            d_cost = r_node[i] - cost[i]
            n_leaves[i] = 1
            cost[i] = r_node[i]
            p = parent[i]
            while p != -1:
                n_leaves[p] += d_leaves
                cost[p] += d_cost
                p = parent[p]
        path.append((max(float(g_min), 0.0), frozenset(collapsed)))
    return path


def _collapse(nodes: list[TreeNode], cut: frozenset[int]) -> list[TreeNode]:
    """Materialize a pruned tree, re-indexing surviving nodes."""
    out: list[TreeNode] = []

    def copy(i: int) -> int:
        n = nodes[i]
        slot = len(out)
        if n.is_leaf or i in cut:
            out.append(TreeNode(None, None, n.impurity,
                                n.class_counts.copy(), None, None,
                                n.predicted_label))
            return slot
        out.append(TreeNode(n.feature, n.threshold, n.impurity,
                            n.class_counts.copy(), None, None,
                            n.predicted_label))
        out[slot].left = copy(n.left)
        out[slot].right = copy(n.right)
        return slot

    copy(0)
    return out


def _tree_at_alpha(nodes: list[TreeNode],
                   path: list[tuple[float, frozenset[int]]],
                   alpha: float) -> list[TreeNode]:
    cut: frozenset[int] = frozenset()
    for a_eff, cum in path:
        if a_eff <= alpha:
            cut = cum
        else:
            break
    return _collapse(nodes, cut)


def _predict_nodes(nodes: list[TreeNode], X, rows: np.ndarray) -> list[str]:
    """Labels of ``rows`` of an :func:`_as_columns` matrix, in order."""
    out = np.empty(rows.shape[0], dtype=object)
    stack = [(0, np.arange(rows.shape[0]))]
    while stack:
        slot, pos = stack.pop()
        if pos.shape[0] == 0:
            continue
        node = nodes[slot]
        if node.is_leaf:
            out[pos] = node.predicted_label
            continue
        mask = _column(X, node.feature, rows[pos]) <= node.threshold
        stack.append((node.left, pos[mask]))
        stack.append((node.right, pos[~mask]))
    return list(out)


def train_dtree(X, y: list[str], params: TreeParams | None = None,
                cv_folds: int = 10, seed: int = 0) -> DecisionTreeModel:
    """Fit a CART classifier, tuning the pruning strength by CV.

    With ``params.ccp_alpha`` set the CV search is skipped and the tree
    is grown and pruned at that value directly.
    """
    params = params or TreeParams()
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassError(f"need >= 2 classes, got {labels}")
    if X.shape[0] != len(y):
        raise DimensionMismatchError(
            f"X has {X.shape[0]} rows, y has {len(y)} labels")
    if cv_folds < 2:
        raise ValueError(f"cv_folds must be >= 2, got {cv_folds}")
    lab_to_idx = {lab: i for i, lab in enumerate(labels)}
    y_idx = np.asarray([lab_to_idx[lab] for lab in y], dtype=np.int64)
    X = _as_columns(X)
    entries = _sorted_entries(X)
    positive = labels[-1]

    cv_scores: dict[float, float] = {}
    if params.ccp_alpha is None:
        fold_f1 = {a: [] for a in CCP_ALPHA_GRID}
        folds = kfold_indices(len(y), cv_folds, seed, stratify_labels=y)
        all_idx = np.arange(len(y))
        for test_idx in folds:
            test_mask = np.zeros(len(y), dtype=bool)
            test_mask[test_idx] = True
            tr = all_idx[~test_mask]
            te = all_idx[test_mask]
            # a stable filter keeps the root's (feature, value) order
            in_fold = ~test_mask[entries[2]]
            grown = _grow(X, tuple(a[in_fold] for a in entries), tr, y_idx,
                          labels, params)
            path = _pruning_path(grown)
            y_te = [y[i] for i in te]
            for a in CCP_ALPHA_GRID:
                pruned = _tree_at_alpha(grown, path, a)
                pred = _predict_nodes(pruned, X, te)
                frag = metrics(confusion(y_te, pred, positive))
                fold_f1[a].append(frag.f1)
        cv_scores = {a: float(np.mean(v)) for a, v in fold_f1.items()}
        best_alpha = max(CCP_ALPHA_GRID, key=lambda a: (cv_scores[a], -a))
    else:
        best_alpha = params.ccp_alpha

    grown = _grow(X, entries, np.arange(len(y)), y_idx, labels, params)
    path = _pruning_path(grown)
    final = _tree_at_alpha(grown, path, best_alpha)
    return DecisionTreeModel(nodes=final, params=params, label_order=labels,
                             chosen_alpha=best_alpha, cv_mean_f1=cv_scores)


def predict_dtree(model: DecisionTreeModel, X) -> list[str]:
    """Root-to-leaf traversal; a value equal to the threshold goes left."""
    X = _as_columns(X)
    feat_needed = max((n.feature for n in model.nodes
                       if n.feature is not None), default=-1)
    if feat_needed >= X.shape[1]:
        raise DimensionMismatchError(
            f"model splits on feature {feat_needed}, X has only "
            f"{X.shape[1]} columns")
    return _predict_nodes(model.nodes, X, np.arange(X.shape[0]))


@dataclass(frozen=True)
class FeatureImportanceReport:
    """Features that appear in splits, ranked by normalized importance."""

    ranking: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {"ranking": [{"featureName": n, "importance": v}
                            for n, v in self.ranking]}


def feature_importance(model: DecisionTreeModel,
                       names: list[str]) -> FeatureImportanceReport:
    """Sample-fraction-weighted impurity decrease per split feature.

    Importances are normalized to sum to 1; a stump yields an empty
    ranking. Ties order lexicographically by feature name.
    """
    n_features = len(names)
    nodes = model.nodes
    n_total = int(nodes[0].class_counts.sum())
    raw = np.zeros(n_features)
    for node in nodes:
        if node.is_leaf:
            continue
        if node.feature >= n_features:
            raise DimensionMismatchError(
                f"model splits on feature {node.feature}, only "
                f"{n_features} names given")
        left = nodes[node.left]
        right = nodes[node.right]
        nn = int(node.class_counts.sum())
        nl = int(left.class_counts.sum())
        nr = int(right.class_counts.sum())
        decrease = node.impurity - (nl * left.impurity
                                    + nr * right.impurity) / nn
        raw[node.feature] += (nn / n_total) * decrease
    total = raw.sum()
    if total <= 0:
        return FeatureImportanceReport(ranking=())
    norm = raw / total
    order = sorted(np.flatnonzero(norm > 0),
                   key=lambda j: (-norm[j], names[j]))
    return FeatureImportanceReport(
        ranking=tuple((names[j], float(norm[j])) for j in order))
