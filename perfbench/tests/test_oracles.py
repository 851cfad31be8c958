"""The benchmark's own oracles, checked against brute force and hand-worked cases.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import itertools
import math

import numpy as np
import pytest

import oracles


def _graph(n, edges):
    parents = {i: [] for i in range(n)}
    children = {i: [] for i in range(n)}
    for a, b in edges:
        parents[b].append(a)
        children[a].append(b)
    return parents, children


def _descendants(children, node):
    out, stack = {node}, [node]
    while stack:
        for c in children[stack.pop()]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _brute_d_separated(n, edges, x, y, zs):
    """No simple path from x to y is active: every collider on it has itself or a
    descendant in zs, and no other interior node is in zs."""
    parents, children = _graph(n, edges)
    edge_set = set(edges)

    def active(path):
        for prev, node, nxt in zip(path, path[1:], path[2:]):
            if (prev, node) in edge_set and (nxt, node) in edge_set:
                if not _descendants(children, node) & zs:
                    return False
            elif node in zs:
                return False
        return True

    def paths(path):
        if path[-1] == y:
            yield path
            return
        for nxt in parents[path[-1]] + children[path[-1]]:
            if nxt not in path:
                yield from paths(path + [nxt])

    return not any(active(p) for p in paths([x]))


def _random_dag(rng, n):
    order = rng.permutation(n)
    return [
        (int(order[i]), int(order[j]))
        for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]


def test_bayes_ball_matches_path_enumeration_on_small_dags():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(3, 7))
        edges = _random_dag(rng, n)
        parents, children = _graph(n, edges)
        for x, y in itertools.permutations(range(n), 2):
            rest = [v for v in range(n) if v not in (x, y)]
            for size in range(len(rest) + 1):
                for zs in itertools.combinations(rest, size):
                    want = _brute_d_separated(n, edges, x, y, set(zs))
                    assert oracles.d_separated(parents, children, [x], [y], zs) == want, (edges, x, y, zs)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "edges, zs, separated",
    [
        ([(0, 1), (1, 2)], [], False),  # chain, open
        ([(0, 1), (1, 2)], [1], True),  # chain, blocked at the middle
        ([(1, 0), (1, 2)], [1], True),  # fork, blocked at the cause
        ([(0, 1), (2, 1)], [], True),  # collider, blocked
        ([(0, 1), (2, 1)], [1], False),  # collider opened by conditioning on it
        ([(0, 1), (2, 1), (1, 3)], [3], False),  # ... or on a descendant
    ],
)
def test_bayes_ball_textbook_cases(edges, zs, separated):
    parents, children = _graph(4, edges)
    assert oracles.d_separated(parents, children, [0], [2], zs) == separated


def test_hardness_hand_worked_case():
    # Identity pre-trained classifier, so logits are the features. Query 0 is
    # [1, 0] of class 0: cosines with the profiles [1, 0] and [0, 1] are 1 and
    # 0, s = e / (e + 1) and log((1 - s) / s) = -1. Query 1 is [-1, -2]; it
    # rectifies to 0, every cosine is 0, s = 1/2 and the hardness is 0.
    # Query 2 is [0, 3] of class 0: cosines 0 and 1, hardness +1.
    support_x = np.array([[2.0, 0.0], [0.0, 5.0]])
    support_y = np.array([0, 1])
    query_x = np.array([[1.0, 0.0], [-1.0, -2.0], [0.0, 3.0]])
    query_y = np.array([0, 1, 0])
    got = oracles.hardness(query_x, query_y, support_x, support_y, 2, np.eye(2), np.zeros(2))
    np.testing.assert_allclose(got, [-1.0, 0.0, 1.0], rtol=0, atol=1e-15)


def test_hardness_averages_support_logits_and_clamps():
    # Class 0's profile is the mean of its two support logits, [1, 1, 0]; the
    # query [1, 1, 0] has cosine 1 with it and 0 with class 1's [0, 0, 1], so
    # s = e / (e + 1) for the true class 0 and the hardness is -1. The clamp
    # caps the hardness of a certain query near -27.6.
    support_x = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    support_y = np.array([0, 0, 1])
    weights = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    query_x = np.array([[1.0, 1.0, 0.0]])
    got = oracles.hardness(query_x, np.array([0]), support_x, support_y, 2, weights, np.zeros(3))
    assert got[0] == pytest.approx(-1.0, abs=1e-15)
    s = 1.0 - oracles.HARDNESS_CLAMP
    assert math.log((1.0 - s) / s) < -27.0
