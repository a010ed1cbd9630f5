"""CART decision tree with cost-complexity pruning chosen by cross-validation.

Splits minimize weighted Gini impurity over every (feature, threshold)
pair, thresholds being midpoints between consecutive distinct sorted
values. A value equal to the threshold goes left. Ties between
equally-good splits resolve to the lowest feature index, then the lowest
threshold, so training is deterministic. Feature values must be finite:
both entries pass X through :func:`~ctfidf.exceptions.as_feature_matrix`,
which also gives sparse input as canonical CSC without stored zeros.

Dense arrays and sparse matrices share one split kernel. Each fit sorts
the stored values once, by (feature, value): a dense array stores every
cell, and is sorted one column at a time into float64 values and int32
rows; a sparse matrix stores only its nonzeros. A node's entries are
those values, their rows and their rows' classes, with the features that
store any and where each one's values end; as in SLIQ's attribute lists
(Mehta, Agrawal & Rissanen, 1996), each entry carries its class, so a
split search gathers nothing. Children and cross-validation folds take
their entries by a stable row filter, so nothing is sorted again, and
both storage forms grow bit-identical trees. A split gathers its smaller
child into new arrays and compacts the larger child into the node's own
arrays (shrinking them when it drops many entries), so it holds one
node's entries and the smaller child's, not a node beside both children.
A feature whose stored values miss some of a node's rows gets, while the
node is scored, one zero-valued entry for those rows; a dense feature
never does. Split search therefore costs time in proportion to the
stored values of a node rather than to its rows times the feature count,
which is why a sparse term matrix is cheap to fit. Cuts that cannot win
are not scored: those inside a run of distinct values that all belong to
one class. Class counts are taken at the scored cuts only, by binary
search among a class's entries where cuts are few and by a running sum
where they are many (see :func:`_best_split`).

The complexity parameter is selected from a fixed grid by stratified
k-fold cross-validation maximizing mean F1. Each fold grows a single
tree. For each grid value one bottom-up pass over its nodes finds the
smallest subtree minimizing cost plus alpha times the leaf count
(Breiman et al., 1984, ch. 10), and the fold predicts on that subtree,
copied into a pruned node list just as the final model is. The final fit
knows its alpha, so it does not search nodes whose split pruning would
cut for certain (see :func:`_grow`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .evaluation import confusion, kfold_indices, metrics
from .exceptions import (
    DimensionMismatchError,
    SingleClassError,
    UnknownPositiveLabelError,
    as_feature_matrix,
)

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
    # Gini decrease the split was grown for; 0 on leaves, and not saved
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class DecisionTreeModel:
    """A pruned tree, the growth limits it was fitted with, and the alpha
    it was pruned at: given, or chosen by CV from ``cv_mean_f1``."""

    nodes: list[TreeNode]
    label_order: list[str]
    max_depth: int
    chosen_alpha: float
    cv_mean_f1: dict[float, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": "dtree",
            "labelOrder": list(self.label_order),
            "params": {"maxDepth": self.max_depth,
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
        return cls(nodes=nodes, label_order=list(d["labelOrder"]),
                   max_depth=p["maxDepth"], chosen_alpha=p["ccpAlpha"],
                   cv_mean_f1={e["ccpAlpha"]: e["meanF1"]
                               for e in d.get("cvMeanF1", [])})


# Stored values scored at once: bounds the kernel's scratch memory, not
# the result.
_SCORE_CAP = 1 << 16
# A binary search per cut costs about as much as this many entries of a
# running sum: a scoring group with fewer cuts per entry counts by position.
_POSITION_COST = 8
# A row filter that drops at most one entry in this many copies the rest
# by a boolean mask.
_FEW_DROPPED = 64
# Entries a gather by row or by position takes at a time: np.take widens
# its index to intp, 8 bytes an entry, and a block bounds that copy. Each
# block is taken with mode="clip" (every index is in range), which lets
# np.take write to ``out`` directly, where "raise" would buffer it.
_TAKE_BLOCK = 1 << 16


def _column(X, j: int, rows: np.ndarray) -> np.ndarray:
    """Values of feature ``j`` at ``rows`` of a float64 array or CSC matrix."""
    if sp.issparse(X):
        col = np.zeros(X.shape[0])
        lo, hi = X.indptr[j], X.indptr[j + 1]
        col[X.indices[lo:hi]] = X.data[lo:hi]
        return col[rows]
    return X[rows, j]


def _sorted_entries(X):
    """(feature, end, value, row) entries of a float64 array or CSC matrix.

    ``value`` and ``row`` hold every stored value sorted by (feature,
    value); ``feature`` lists, in order, the features that store any, and
    ``end`` where each one's values end. A dense array stores every cell,
    a CSC matrix only its nonzeros.
    """
    if sp.issparse(X):
        count = np.diff(X.indptr)
        feat = np.repeat(np.arange(X.shape[1], dtype=np.int32), count)
        order = np.lexsort((X.data, feat))
        stored = np.flatnonzero(count)
        return (stored, X.indptr[1:][stored], X.data[order],
                X.indices[order])
    n, n_features = X.shape
    val = np.empty(n * n_features)
    row = np.empty(n * n_features, dtype=np.int32)
    for j in range(n_features):  # one column's sort order at a time
        col = np.ascontiguousarray(X[:, j])
        # need not be stable: the order within a run of equal values moves
        # no count, and a cut next to such a run is always scored
        order = np.argsort(col)
        at = slice(j * n, (j + 1) * n)
        np.take(col, order, out=val[at])
        row[at] = order
    return (np.arange(n_features), n * np.arange(1, n_features + 1), val,
            row)


def _subset(entries, keep: np.ndarray):
    """The entries where ``keep`` holds, in new arrays, still in (feature,
    value) order, with every per-entry array (value, row and any class)
    filtered alike. A split gathers its smaller child here; the larger
    reuses its parent's arrays (:func:`_compact`)."""
    kept = np.count_nonzero(keep)
    out = [np.empty(kept, dtype=a.dtype) for a in entries[2:]]
    return (*_filter(entries, keep, out), *out)


def _compact(entries, keep: np.ndarray):
    """As :func:`_subset`, but the kept entries overwrite the front of the
    entries' own per-entry arrays, so the entries given are spent.

    When the arrays own their memory and the filter drops more than one
    entry in ``_FEW_DROPPED``, each is then shrunk in place to the kept
    length, which hands the rest of its memory back; no view of them may
    be alive. Otherwise the kept entries are views of the arrays' fronts:
    a small shrink would hand back little, and many of them, one for each
    node of a chain that sheds a few rows per split, fragment the heap
    so that the process keeps more memory than it frees.
    """
    out = entries[2:]
    feat_end = _filter(entries, keep, out)
    n, kept = keep.shape[0], np.count_nonzero(keep)
    if (n - kept) * _FEW_DROPPED <= n or out[0].base is not None:
        return (*feat_end, *(a[:kept] for a in out))
    for a in out:
        a.resize(kept, refcheck=False)
    return (*feat_end, *out)


def _filter(entries, keep: np.ndarray, out) -> tuple:
    """Write the per-entry arrays of the entries where ``keep`` holds to
    the front of ``out``, which may be the entries' own arrays, and return
    the kept features and their ends.

    It copies ``_TAKE_BLOCK`` entries at a time, so that no temporary is
    larger than a block. A kept entry never moves to a later position, so
    a block overwrites only entries already read. When at most one entry
    in ``_FEW_DROPPED`` is dropped, as in a node that sheds a few rows, a
    boolean mask copies a block fastest, and each feature's end moves back
    by the dropped entries before it. Otherwise a gather by index is
    faster, since a mask's branches would mispredict; it lists a block's
    kept positions, 8 bytes each, and a feature's end is the kept entries
    of the blocks before it plus those before it in its own block.
    """
    feat, end, *per_entry = entries
    n = keep.shape[0]
    few = (n - np.count_nonzero(keep)) * _FEW_DROPPED <= n
    new_end = (end - np.searchsorted(np.flatnonzero(~keep), end) if few
               else np.empty(end.shape[0], dtype=np.intp))
    done = 0  # kept entries before the block
    e = 0  # first end not yet moved
    for lo in range(0, n, _TAKE_BLOCK):
        block = slice(lo, lo + _TAKE_BLOCK)
        if few:
            for a, o in zip(per_entry, out):
                part = a[block][keep[block]]
                o[done:done + part.shape[0]] = part
            done += part.shape[0]
            continue
        at = np.flatnonzero(keep[block])
        e_hi = np.searchsorted(end, lo + _TAKE_BLOCK, side="right")
        new_end[e:e_hi] = done + np.searchsorted(at, end[e:e_hi] - lo)
        for a, o in zip(per_entry, out):
            # where the two overlap, np.take reads the block first
            np.take(a[block], at, out=o[done:done + at.shape[0]],
                    mode="clip")
        done += at.shape[0]
        e = e_hi
    stored = np.diff(new_end, prepend=0) > 0
    return feat[stored], new_end[stored]


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` for an int32 ``index`` of rows, ``_TAKE_BLOCK``
    entries at a time."""
    out = np.empty(index.shape[0], dtype=table.dtype)
    for lo in range(0, index.shape[0], _TAKE_BLOCK):
        block = slice(lo, lo + _TAKE_BLOCK)
        np.take(table, index[block], out=out[block], mode="clip")
    return out


def _gini(counts: np.ndarray, n: int) -> float:
    p = counts / n
    return float(1.0 - np.dot(p, p))


def _best_split(entries, total: np.ndarray, parent_gini: float):
    """Best (gain, feature, threshold) over a node's sorted entries.

    ``entries`` are the node's (feature, end, value, row, class) arrays,
    as :func:`_grow` holds them, and ``total`` the node's class counts.
    Candidates are the boundaries between distinct values of one feature;
    the first maximum in (feature, value) order wins. Features are scored
    in groups of about ``_SCORE_CAP`` stored values.

    A feature that stores fewer values than the node has rows gets one
    zero entry between its negative and positive values, weighted by the
    class counts of the rows it does not store; a feature that stores
    every row, as every dense one does, gets none.

    A cut between two stored entries of one class, each the only entry
    with its value, is not scored. Along a stretch of such entries the
    cut moves rows of that class from right to left, one at a time, while
    the other classes' counts on each side stay fixed. With ``u`` rows on
    the left, ``d`` of them of other classes and ``q`` the sum of those
    classes' squared counts there, the left side's weighted Gini is
    ``u * gini_l = 2 * d - (d * d + q) / u``, concave in ``u``, and
    strictly so when ``d > 0``; the right side's is likewise. The node
    holds another class on one side or the other, so the weighted Gini is
    strictly concave along the stretch, and in exact arithmetic every cut
    inside it scores worse than one of the stretch's two ends. Those ends
    are scored, or are a feature's empty split, worth 0. A zero entry
    stands for rows of any class, so it ends a stretch.

    Class counts are taken at the scored cuts only. Each class but the
    node's largest is counted, and the largest is what remains of the
    left side's rows. A group with few cuts for its length counts the
    class's stored entries by binary search among their positions
    (:func:`_count_by_position`); one with many takes a running sum over
    them (:func:`_count_running`). The zero entries at or before a cut add
    their class counts. All counts are integers, exact in float64, so each
    scored cut's gain is the same float whichever cuts are skipped and
    whichever way they are counted.
    """
    feat, end, val, _, cls = entries
    nn = float(total.sum())
    n_classes = total.shape[0]
    largest = int(np.argmax(total))
    counted = [k for k in range(n_classes) if k != largest]
    bounds = np.concatenate(([0], end))
    no_zeros = (np.zeros(0, dtype=np.intp), np.zeros((n_classes + 1, 1)))
    best = (0.0, -1, 0.0)
    lo = 0
    while lo < feat.shape[0]:
        hi = np.searchsorted(bounds, bounds[lo] + _SCORE_CAP, side="right")
        hi = max(lo + 1, int(hi) - 1)
        s, e = bounds[lo], bounds[hi]
        local = bounds[lo:hi + 1] - s
        v = val[s:e]
        c = cls[s:e]
        short = np.flatnonzero(local[1:] - local[:-1] < nn)
        zero_at, zero_cum = no_zeros
        if short.shape[0]:
            v, c, local, zero_at, zero_cum = _with_zero_entries(
                v, c, local, short, total)
        step = v[:-1] < v[1:]
        last = local[1:-1] - 1  # each feature's last entry but the group's
        step[last] = False
        # a cut between two one-entry value runs of the same class lies
        # inside a same-class stretch
        run_end = step.copy()
        run_end[last] = True
        inside = c[:-1] == c[1:]
        inside[1:] &= run_end[:-1]
        inside[:-1] &= run_end[1:]
        cut = np.flatnonzero(step & ~inside)
        if cut.shape[0] == 0:
            lo = hi
            continue
        seg = np.searchsorted(local[1:], cut, side="right")  # cut's feature
        # the zero entries at or before each cut add their counts (cut + 1
        # counted each once); every feature's entries weigh total[k] (nn in
        # all), so subtracting that of the features before restarts each
        # count
        zeros = np.searchsorted(zero_at, cut, side="right")
        left_n = cut + 1.0 + zero_cum[-1][zeros] - seg * nn
        count = (_count_by_position if cut.shape[0] * _POSITION_COST
                 < c.shape[0] else _count_running)
        left = [None] * n_classes
        for k in counted:
            left[k] = count(c == k, cut) + zero_cum[k][zeros] - seg * total[k]
        left[largest] = left_n - sum(left[k] for k in counted)
        sum_sq_l = sum(lc * lc for lc in left)
        sum_sq_r = sum((tk - lc) * (tk - lc) for tk, lc in zip(total, left))
        right_n = nn - left_n
        gini_l = 1.0 - sum_sq_l / (left_n * left_n)
        gini_r = 1.0 - sum_sq_r / (right_n * right_n)
        gain = parent_gini - (left_n * gini_l + right_n * gini_r) / nn
        t = int(np.argmax(gain))
        if gain[t] > best[0]:
            i = cut[t]
            best = (float(gain[t]), int(feat[lo + seg[t]]),
                    float((v[i] + v[i + 1]) / 2.0))
        lo = hi
    return best


def _count_by_position(is_k: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """How many entries where ``is_k`` holds lie at or before each cut,
    found among their positions; for cuts that are few."""
    return np.searchsorted(np.flatnonzero(is_k), cut, side="right")


def _count_running(is_k: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """As :func:`_count_by_position`, from a running sum; for dense cuts."""
    return np.cumsum(is_k, dtype=np.int32)[cut]


def _with_zero_entries(v, c, local, short, total):
    """A scoring group's values, classes and feature bounds with one zero
    entry added to each feature in ``short``, the features that do not
    store every row; the zero entries' positions; and their running
    counts, one column before each zero entry and one after the last: a
    row for each class, and a last row of their weights less one each.

    A zero entry has class -1, so it matches no stored entry's class.
    """
    n_classes = total.shape[0]
    group = local.shape[0] - 1
    seg = np.repeat(np.arange(group), np.diff(local))
    stored = np.bincount(seg * n_classes + c, minlength=group * n_classes)
    missing = total - stored.reshape(group, n_classes)[short]
    # after each feature's negative values; each earlier zero shifts it
    zero_at = (local[short] + np.bincount(seg[v < 0], minlength=group)[short]
               + np.arange(short.shape[0]))
    is_stored = np.ones(v.shape[0] + short.shape[0], dtype=bool)
    is_stored[zero_at] = False
    v_all = np.zeros(is_stored.shape[0])
    v_all[is_stored] = v
    c_all = np.full(is_stored.shape[0], -1, dtype=c.dtype)
    c_all[is_stored] = c
    shift = np.zeros(group + 1, dtype=local.dtype)
    shift[short + 1] = 1
    local = local + np.cumsum(shift)
    zero_cum = np.zeros((n_classes + 1, short.shape[0] + 1))
    np.cumsum(missing.T, axis=1, out=zero_cum[:-1, 1:])
    np.cumsum(missing.sum(axis=1) - 1.0, out=zero_cum[-1, 1:])
    return v_all, c_all, local, zero_at, zero_cum


def _grow(X, entries, rows: np.ndarray, y_idx: np.ndarray,
          labels: list[str], max_depth: int,
          alpha: float = 0.0) -> list[TreeNode]:
    """Grow a tree on ``rows`` of X, whose sorted entries are ``entries``.

    Each entry gets its row's class here, from ``y_idx``, and children take
    it along. The caller's entries carry none: the whole fit's entries stay
    alive through cross-validation, where classes would raise the memory
    peak.

    The entries given are spent: each split's larger child reuses its
    parent's arrays (:func:`_compact`), the root's first. So a caller
    passes entries it no longer needs: a fold's root is already a copy,
    and the final fit is the presort's last use.

    A node whose cost ``R(t) = n_t / N * gini(t)`` is at most ``alpha / 2``
    stays a leaf without a split search, as a pure node (a one-row node
    among them) does at any alpha.
    As a leaf it costs ``R(t) + alpha``, at most ``1.5 * alpha``; a subtree
    below it of two leaves or more costs at least ``2 * alpha``. So pruning
    at ``alpha`` (:func:`_pruned`) would cut the subtree, with ``alpha / 2``
    to spare for rounding, and the pruned tree is the same.
    """
    nodes = [_make_node(y_idx, rows, labels)]
    n_root = rows.shape[0]
    entries = (*entries, _take(y_idx, entries[3]))
    # stack of (node_slot, row_indices, sorted entries, depth)
    stack = [(0, rows, entries, 0)]
    goes_left = np.zeros(X.shape[0], dtype=bool)
    while stack:
        slot, rows, entries, depth = stack.pop()
        node = nodes[slot]
        if (depth >= max_depth
                or rows.shape[0] / n_root * node.impurity <= alpha / 2):
            continue
        gain, j, thr = _best_split(entries,
                                   node.class_counts.astype(np.float64),
                                   node.impurity)
        if j < 0 or gain <= 0.0:
            continue
        mask = _column(X, j, rows) <= thr
        left_rows, right_rows = rows[mask], rows[~mask]
        if left_rows.shape[0] == 0 or right_rows.shape[0] == 0:
            continue
        goes_left[rows] = mask
        keep = _take(goes_left, entries[3])  # by each entry's row
        # the smaller child is gathered, then the larger takes the node's
        # arrays
        if 2 * np.count_nonzero(keep) > keep.shape[0]:
            right = _subset(entries, ~keep)
            left = _compact(entries, keep)
        else:
            left = _subset(entries, keep)
            right = _compact(entries, ~keep)
        node.feature = int(j)
        node.threshold = float(thr)
        node.gain = gain
        node.left = len(nodes)
        nodes.append(_make_node(y_idx, left_rows, labels))
        node.right = len(nodes)
        nodes.append(_make_node(y_idx, right_rows, labels))
        stack.append((node.left, left_rows, left, depth + 1))
        stack.append((node.right, right_rows, right, depth + 1))
    return nodes


def _make_node(y_idx: np.ndarray, rows: np.ndarray,
               labels: list[str]) -> TreeNode:
    counts = np.bincount(y_idx[rows], minlength=len(labels))
    return TreeNode(feature=None, threshold=None,
                    impurity=_gini(counts, rows.shape[0]),
                    class_counts=counts, left=None, right=None,
                    predicted_label=labels[int(np.argmax(counts))])


def _pruned(nodes: list[TreeNode], alpha: float) -> frozenset[int]:
    """Internal nodes to treat as leaves for the smallest subtree minimizing
    R(T) + alpha * |leaves(T)|; nodes below such a node may be listed too.

    R is the sample-weighted Gini, matching the growth criterion. One pass
    from the last node back, since children always follow their parent:
    a node becomes a leaf when its own cost is no more than the best cost
    of its two subtrees, so a tie prunes.

    Costs are kept relative to each node's own R, and a split's children
    weigh R(node) less the node's weight times the ``gain`` it was grown
    for. Pruning thus reads a split's worth from the same float as growth:
    a split grown on a positive gain, even a rounding-size one where the
    exact gain is 0, is never pruned at alpha = 0.
    """
    n_total = int(nodes[0].class_counts.sum())
    # best cost of each node's subtree less the node's own R
    extra = [alpha] * len(nodes)
    cut = set()
    for i in range(len(nodes) - 1, -1, -1):
        nd = nodes[i]
        if not nd.is_leaf:
            below = (extra[nd.left] + extra[nd.right]
                     - int(nd.class_counts.sum()) / n_total * nd.gain)
            if alpha <= below:
                cut.add(i)
            else:
                extra[i] = below
    return frozenset(cut)


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
                            n.predicted_label, n.gain))
        out[slot].left = copy(n.left)
        out[slot].right = copy(n.right)
        return slot

    copy(0)
    return out


def _predict_nodes(nodes: list[TreeNode], X, rows: np.ndarray) -> list[str]:
    """Labels of ``rows`` of a float64 array or CSC matrix, in order."""
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


def train_dtree(X, y: list[str], *, max_depth: int = 30,
                ccp_alpha: float | None = None,
                cv_folds: int = 10, seed: int = 0,
                positive_label: str | None = None) -> DecisionTreeModel:
    """Fit a CART classifier, tuning the pruning strength by CV.

    With ``ccp_alpha`` None, it is chosen from ``CCP_ALPHA_GRID`` by
    ``cv_folds``-fold cross-validation split by ``seed``; each fold's F1
    treats ``positive_label`` (by default the last label in sorted order)
    as the positive class. With ``ccp_alpha`` set the CV search is skipped
    and the tree is grown and pruned at that value directly.
    """
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassError(f"need >= 2 classes, got {labels}")
    X = as_feature_matrix(X, "csc")
    if X.shape[0] != len(y):
        raise DimensionMismatchError(
            f"X has {X.shape[0]} rows, y has {len(y)} labels")
    if cv_folds < 2:
        raise ValueError(f"cv_folds must be >= 2, got {cv_folds}")
    positive = labels[-1] if positive_label is None else positive_label
    if positive not in labels:
        raise UnknownPositiveLabelError(
            f"{positive!r} not among labels {labels}")
    lab_to_idx = {lab: i for i, lab in enumerate(labels)}
    # the smallest signed dtype, as each sorted entry carries its class and
    # a zero entry has class -1
    y_idx = np.asarray([lab_to_idx[lab] for lab in y],
                       dtype=np.min_scalar_type(-len(labels)))
    entries = _sorted_entries(X)

    cv_scores: dict[float, float] = {}
    if ccp_alpha is None:
        fold_f1 = {a: [] for a in CCP_ALPHA_GRID}
        folds = kfold_indices(y, cv_folds, seed)
        for test_idx in folds:
            test_mask = np.zeros(len(y), dtype=bool)
            test_mask[test_idx] = True
            tr = np.flatnonzero(~test_mask)
            # a stable filter keeps the root's (feature, value) order
            grown = _grow(X, _subset(entries, _take(~test_mask, entries[3])),
                          tr, y_idx, labels, max_depth)
            y_te = [y[i] for i in test_idx]
            for a in CCP_ALPHA_GRID:
                pruned = _collapse(grown, _pruned(grown, a))
                pred = _predict_nodes(pruned, X, test_idx)
                # with no true or predicted positive F1 is 0, as metrics()
                # defines it, but confusion() would reject the label
                fold_f1[a].append(metrics(confusion(y_te, pred, positive)).f1
                                  if positive in y_te or positive in pred
                                  else 0.0)
        cv_scores = {a: float(np.mean(v)) for a, v in fold_f1.items()}
        best_alpha = max(CCP_ALPHA_GRID, key=lambda a: (cv_scores[a], -a))
    else:
        best_alpha = ccp_alpha

    grown = _grow(X, entries, np.arange(len(y)), y_idx, labels, max_depth,
                  best_alpha)
    final = _collapse(grown, _pruned(grown, best_alpha))
    return DecisionTreeModel(nodes=final, label_order=labels,
                             max_depth=max_depth, chosen_alpha=best_alpha,
                             cv_mean_f1=cv_scores)


def predict_dtree(model: DecisionTreeModel, X) -> list[str]:
    """Root-to-leaf traversal; a value equal to the threshold goes left."""
    X = as_feature_matrix(X, "csc")
    feat_needed = max((n.feature for n in model.nodes
                       if n.feature is not None), default=-1)
    if feat_needed >= X.shape[1]:
        raise DimensionMismatchError(
            f"model splits on feature {feat_needed}, X has only "
            f"{X.shape[1]} columns")
    return _predict_nodes(model.nodes, X, np.arange(X.shape[0]))


def feature_importance(model: DecisionTreeModel,
                       names: list[str]) -> tuple[tuple[str, float], ...]:
    """Sample-fraction-weighted impurity decrease per split feature, as
    ``((name, importance), ...)`` for the features that appear in splits.

    Importances are normalized to sum to 1 and ranked from the largest; a
    stump yields an empty ranking. Ties order lexicographically by feature
    name.
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
        return ()
    norm = raw / total
    order = sorted(np.flatnonzero(norm > 0),
                   key=lambda j: (-norm[j], names[j]))
    return tuple((names[j], float(norm[j])) for j in order)
