"""Reference computations the benchmark checks the program's outputs against.

Each is written here from the method's definition, not from the program's
code, so a fault in the program does not also appear in its check.
"""

from __future__ import annotations

import math

import numpy as np

HARDNESS_CLAMP = 1e-12


def hardness(query_x, query_y, support_x, support_y, way, pre_weights, pre_bias) -> np.ndarray:
    """Per-query log-odds hardness log((1 - s) / s).

    s is the true class's share of a softmax over the cosines between the
    query's rectified pre-trained logits and each class's rectified mean
    support logits; a zero-norm vector has cosine 0 with everything, and s is
    clamped to [1e-12, 1 - 1e-12].
    """
    query_logits = np.maximum(query_x @ pre_weights.T + pre_bias, 0.0)
    support_logits = support_x @ pre_weights.T + pre_bias
    profiles = np.maximum(
        np.stack([support_logits[support_y == k].mean(axis=0) for k in range(way)]), 0.0
    )
    norms = np.outer(np.linalg.norm(query_logits, axis=1), np.linalg.norm(profiles, axis=1))
    dots = query_logits @ profiles.T
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)
    e = np.exp(cos - cos.max(axis=1, keepdims=True))
    s = e[np.arange(len(query_y)), query_y] / e.sum(axis=1)
    s = np.clip(s, HARDNESS_CLAMP, 1.0 - HARDNESS_CLAMP)
    return np.log((1.0 - s) / s)


def d_separated(parents: dict, children: dict, xs, ys, zs) -> bool:
    """Bayes-ball reachability: True when no active trail links xs to ys given zs.

    ``parents``/``children`` map every node to its neighbours. A trail enters
    a node either from a child (moving up) or from a parent (moving down). A
    node outside zs passes a ball arriving from below in every direction and
    one arriving from above on to its children; a node with itself or a
    descendant in zs (an ancestor of zs) bounces a ball arriving from above
    back to its parents.
    """
    zs = set(zs)
    ys = set(ys)
    anc_z = set(zs)
    stack = list(zs)
    while stack:
        for p in parents[stack.pop()]:
            if p not in anc_z:
                anc_z.add(p)
                stack.append(p)
    visited = set()
    frontier = [(x, True) for x in xs]  # (node, arrived from a child)
    while frontier:
        node, from_child = frontier.pop()
        if (node, from_child) in visited:
            continue
        visited.add((node, from_child))
        if node not in zs and node in ys:
            return False
        if from_child:
            if node not in zs:
                frontier.extend((p, True) for p in parents[node])
                frontier.extend((c, False) for c in children[node])
        else:
            if node not in zs:
                frontier.extend((c, False) for c in children[node])
            if node in anc_z:
                frontier.extend((p, True) for p in parents[node])
    return True


def mean_ci(values) -> tuple[float, float]:
    """Mean and normal-theory 95% half-width 1.96 * sd / sqrt(n)."""
    a = np.asarray(values, dtype=np.float64)
    half = 1.96 * float(np.std(a, ddof=1)) / math.sqrt(a.size) if a.size > 1 else math.inf
    return float(a.mean()), half
