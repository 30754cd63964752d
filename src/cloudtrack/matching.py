"""Exact maximum-weight bipartite matching over an explicit edge mask.

Both callers match a few dozen rows against a few dozen columns, and a
gate leaves almost every edge alone in its row and its column.  Such an
edge is a component of its own, so it is taken (or, when it cannot help,
left) in one vectorised step.  The rows and columns that share an edge
with another go through successive shortest augmenting paths: a
min-cost flow whose Dijkstra runs over columns with reduced costs, the
same shortest-augmenting-path family as Crouse's rectangular assignment
("On implementing 2D rectangular assignment algorithms", IEEE TAES
2016).  Each augmentation adds one edge along the cheapest path, so
after k of them the matching is the best one of size k; path costs never
fall, so stopping at the first path that gains nothing gives the best
matching of any size, and running until no path is left gives the best
one among the largest.
"""

from __future__ import annotations

import numpy as np


def match(weight, mask, *, max_cardinality: bool = False) -> tuple:
    """A best matching that uses only mask's edges, as (rows, cols).

    weight and mask are n x m; weight off the mask is ignored, whatever
    it holds.  With max_cardinality False the matching has the greatest
    total weight, so an edge of weight zero or less is never needed.
    With max_cardinality True it has the most edges, and then the
    greatest total weight among those.  rows and cols are int arrays,
    ascending in rows.
    """
    weight = np.asarray(weight, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if weight.ndim != 2 or weight.shape != mask.shape:
        raise ValueError(
            f"weight {weight.shape} and mask {mask.shape} must be one n x m shape"
        )
    rows, cols = np.nonzero(mask)
    gain = weight[rows, cols]
    if not np.isfinite(gain).all():
        raise ValueError("non-finite weight on an edge")
    if len(set(rows.tolist())) == len(rows) and len(set(cols.tolist())) == len(cols):
        # the common case: every edge is alone in its row and its column
        if max_cardinality:
            return rows, cols
        take = gain > 0.0
        return rows[take], cols[take]
    n, m = mask.shape
    lone = (np.bincount(rows, minlength=n)[rows] == 1) & (
        np.bincount(cols, minlength=m)[cols] == 1
    )
    take = lone if max_cardinality else lone & (gain > 0.0)
    # every edge of a contested row or column is itself contested
    sub_rows = np.unique(rows[~lone])
    sub_cols = np.unique(cols[~lone])
    block = np.ix_(sub_rows, sub_cols)
    r, c = _augment(-weight[block], mask[block], max_cardinality)
    rows = np.concatenate([rows[take], sub_rows[r]])
    cols = np.concatenate([cols[take], sub_cols[c]])
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def _augment(cost, mask, max_cardinality):
    """Least-cost matching by successive shortest augmenting paths.

    Every row and column of the block has an edge.  Reduced costs use
    column potentials p and the sink's potential p_sink; a free row's
    potential stays zero and a matched row's is fixed by its tight edge.
    """
    n, m = cost.shape
    row_col = np.full(n, -1)
    col_row = np.full(m, -1)
    free_cost = np.where(mask, cost, np.inf)
    p = free_cost.min(axis=0)
    p_sink = p.min()
    for _ in range(min(n, m)):
        reduced = free_cost - p
        free = np.flatnonzero(row_col < 0)
        # columns reached straight from a free row
        best = reduced[free].argmin(axis=0)
        label = reduced[free[best], np.arange(m)]
        via = free[best]
        done = np.zeros(m, dtype=bool)
        settled = np.zeros(m)
        sink, end = np.inf, -1
        while True:
            j = int(label.argmin())
            lj = label[j]
            if not lj < sink:
                break
            label[j] = np.inf
            done[j] = True
            settled[j] = lj
            i = col_row[j]
            if i < 0:
                if lj + p[j] - p_sink < sink:
                    sink, end = lj + p[j] - p_sink, j
                continue
            # row i, reached through its own tight edge, relaxes its columns
            step = reduced[i] + (lj - reduced[i, j])
            better = (step < label) & ~done
            np.copyto(label, step, where=better)
            np.copyto(via, i, where=better)
        if end < 0 or not (max_cardinality or sink + p_sink < 0.0):
            break
        j = end
        while j >= 0:
            i = via[j]
            col_row[j] = i
            row_col[i], j = j, row_col[i]
        p += np.where(done, settled, sink)
        p_sink += sink
    rows = np.flatnonzero(row_col >= 0)
    return rows, row_col[rows]
