"""Graph surgery, d-separation against a path-enumeration oracle, and the
rewrite-condition / instrument / adjustment-set checks."""

import itertools

import numpy as np
import pytest

from ifsl.causal_graph import (
    BUILTIN_GRAPHS,
    Dag,
    ancestors,
    backdoor_admissible,
    builtin_graph,
    d_separated,
    descendants,
    fsl_graph,
    fsl_sampling_graph,
    graph_from_json,
    graph_to_json,
    is_instrumental,
    manipulate,
    msl_sampling_graph,
    rule_condition,
)


# --- independent oracle ----------------------------------------------------------
#
# Blocking decided per path: a non-collider blocks when conditioned on, a
# collider blocks unless it (or one of its descendants) is conditioned on.
# Deliberately brute force; correctness is obvious, speed is not the point.


def _simple_paths(edges, start, goal):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def extend(path):
        last = path[-1]
        if last == goal:
            yield list(path)
            return
        for nxt in adj.get(last, ()):
            if nxt not in path:
                path.append(nxt)
                yield from extend(path)
                path.pop()

    yield from extend([start])


def _path_active(g, path, zs):
    zs = set(zs)
    desc = {n: descendants(g, [n], inclusive=True) for n in g.nodes}
    for i in range(1, len(path) - 1):
        prev, node, nxt = path[i - 1], path[i], path[i + 1]
        into_prev = (prev, node) in g.edges
        into_next = (nxt, node) in g.edges
        if into_prev and into_next:  # collider
            if not (desc[node] & zs):
                return False
        else:
            if node in zs:
                return False
    return True


def oracle_d_separated(g, xs, ys, zs):
    for x in xs:
        for y in ys:
            for path in _simple_paths(g.edges, x, y):
                if _path_active(g, path, zs):
                    return False
    return True


def _random_instance(rng):
    n = int(rng.integers(3, 6))
    names = list("ABCDE"[:n])
    order = rng.permutation(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                edges.append((names[order[i]], names[order[j]]))
    g = Dag.from_edges(names, edges)
    pool = rng.permutation(names)
    x, y = [pool[0]], [pool[1]]
    rest = pool[2:]
    z = [v for v in rest if rng.random() < 0.5]
    return g, x, y, z


def test_d_separation_matches_path_enumeration_oracle():
    rng = np.random.default_rng(2024)
    mismatches = []
    for trial in range(500):
        g, x, y, z = _random_instance(rng)
        got = d_separated(g, x, y, z)
        want = oracle_d_separated(g, x, y, z)
        if got != want:
            mismatches.append((trial, sorted(g.edges), x, y, z, got, want))
        # symmetry in the two endpoint sets
        assert d_separated(g, y, x, z) == got
    assert not mismatches, mismatches[:3]


# --- worked examples ----------------------------------------------------------------


def test_chain_blocked_by_middle_node():
    g = Dag.from_edges("ABC", [("A", "B"), ("B", "C")])
    assert not d_separated(g, "A", "C")
    assert d_separated(g, "A", "C", "B")


def test_collider_open_only_when_conditioned():
    g = Dag.from_edges("ABCD", [("A", "B"), ("C", "B"), ("B", "D")])
    assert d_separated(g, "A", "C")
    assert not d_separated(g, "A", "C", "B")
    # conditioning on a collider's descendant also opens the path
    assert not d_separated(g, "A", "C", "D")


def test_fork_blocked_by_common_cause():
    g = Dag.from_edges("ABC", [("B", "A"), ("B", "C")])
    assert not d_separated(g, "A", "C")
    assert d_separated(g, "A", "C", "B")


def test_d_separated_empty_sides_and_disjointness():
    g = fsl_graph()
    assert d_separated(g, [], ["Y"], [])
    assert d_separated(g, ["X"], [], [])
    with pytest.raises(ValueError, match="pairwise disjoint"):
        d_separated(g, ["X"], ["Y"], ["X"])
    with pytest.raises(ValueError, match="unknown nodes"):
        d_separated(g, ["Q"], ["Y"])


def test_feature_label_dependence_in_builtin_graph():
    g = fsl_graph()
    assert not d_separated(g, "X", "Y")
    # the pre-training variable leaves X and Y dependent even after cutting
    # the direct and mediated causal routes
    cut = manipulate(g, cut_outgoing=["X"])
    assert not d_separated(cut, "X", "Y")
    assert d_separated(cut, "X", "Y", "D")


# --- ancestry and surgery -------------------------------------------------------------


def test_ancestors_descendants():
    g = fsl_graph()
    assert ancestors(g, ["Y"]) == {"D", "X", "C"}
    assert ancestors(g, ["Y"], inclusive=True) == {"D", "X", "C", "Y"}
    assert descendants(g, ["D"]) == {"X", "C", "Y"}
    assert descendants(g, ["Y"]) == frozenset()


def test_manipulate_edge_level():
    g = fsl_graph()
    no_in = manipulate(g, cut_incoming=["X"])
    assert ("D", "X") not in no_in.edges
    assert ("X", "Y") in no_in.edges and ("D", "C") in no_in.edges
    no_out = manipulate(g, cut_outgoing=["X"])
    assert ("X", "Y") not in no_out.edges and ("X", "C") not in no_out.edges
    assert ("D", "X") in no_out.edges
    assert manipulate(g).edges == g.edges


def test_manipulate_only_removes_edges():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g, x, y, z = _random_instance(rng)
        cut = manipulate(g, cut_incoming=x, cut_outgoing=y)
        assert cut.nodes == g.nodes
        assert cut.edges <= g.edges  # Dag construction re-checks acyclicity


# --- rewrite conditions ---------------------------------------------------------------


def test_rule1_drop_observation():
    g = fsl_graph()
    # X and Y stay dependent, so observing X cannot be dropped
    assert not rule_condition(g, 1, x=[], y=["Y"], z=["X"], w=[])
    # but D is irrelevant to Y once X and C are held fixed
    assert rule_condition(g, 1, x=[], y=["Y"], z=["D"], w=["X", "C"])


def test_rule2_exchange_intervention_for_observation():
    g = fsl_graph()
    # cutting the feature's outgoing edges, D screens X off from Y:
    # intervening and conditioning on X coincide given D
    assert rule_condition(g, 2, x=[], y=["Y"], z=["X"], w=["D"])
    # without holding D the backdoor through D -> C stays open
    assert not rule_condition(g, 2, x=[], y=["Y"], z=["X"], w=[])


def test_rule3_drop_intervention():
    g = fsl_graph()
    # the label has no causal route into the feature
    assert rule_condition(g, 3, x=[], y=["X"], z=["Y"], w=[])
    # the feature does cause the label
    assert not rule_condition(g, 3, x=[], y=["Y"], z=["X"], w=[])


def test_rule3_context_set_changes_cut():
    # A -> B -> W and A -> Y: with W in the context, A is an ancestor of a
    # context node, so its incoming edges are kept; conditioning then leaves
    # the A -> Y edge, and the condition fails
    g = Dag.from_edges("ABWY", [("A", "B"), ("B", "W"), ("A", "Y")])
    assert not rule_condition(g, 3, x=[], y=["Y"], z=["A"], w=["W"])
    # without the context node the cut isolates A from Y upstream
    assert not rule_condition(g, 3, x=[], y=["Y"], z=["A"], w=[])
    g2 = Dag.from_edges("ABWY", [("A", "B"), ("B", "W"), ("Y", "A")])
    assert rule_condition(g2, 3, x=[], y=["Y"], z=["A"], w=[])


def test_rule_condition_vacuous_and_validation():
    g = fsl_graph()
    assert rule_condition(g, 1, x=["X"], y=[], z=["Y"])
    assert rule_condition(g, 2, x=["X"], y=["Y"], z=[])
    with pytest.raises(ValueError, match="rule must be"):
        rule_condition(g, 4, x=[], y=["Y"], z=["X"])
    with pytest.raises(ValueError, match="pairwise disjoint"):
        rule_condition(g, 1, x=["X"], y=["X"], z=["Y"])


# --- instruments and adjustment sets ---------------------------------------------------


def test_instrument_verdicts_on_builtin_graphs():
    assert is_instrumental(msl_sampling_graph(), "I", "X", "Y")
    assert not is_instrumental(fsl_sampling_graph(), "I", "X", "Y")


def test_instrument_requires_relevance():
    g = Dag.from_edges("IXY", [("X", "Y")])
    # I has no edges at all: exclusion holds but relevance fails
    assert not is_instrumental(g, "I", "X", "Y")
    with pytest.raises(ValueError, match="distinct"):
        is_instrumental(g, "X", "X", "Y")


def test_backdoor_set_verdicts():
    g = fsl_graph()
    assert backdoor_admissible(g, ["D"], "X", "Y")
    assert not backdoor_admissible(g, [], "X", "Y")
    # descendants of the treatment are never admissible
    assert not backdoor_admissible(g, ["C"], "X", "Y")
    with pytest.raises(ValueError, match="may not contain"):
        backdoor_admissible(g, ["X"], "X", "Y")
    with pytest.raises(ValueError, match="distinct"):
        backdoor_admissible(g, [], "X", "X")


def test_backdoor_on_instrument_graphs():
    # the sample-ID node is not on a backdoor path, so {D} still suffices
    assert backdoor_admissible(msl_sampling_graph(), ["D"], "X", "Y")
    assert backdoor_admissible(fsl_sampling_graph(), ["D"], "X", "Y")


# --- construction and serialization ----------------------------------------------------


def test_dag_rejects_cycles_and_bad_edges():
    with pytest.raises(ValueError, match="cycle"):
        Dag.from_edges("AB", [("A", "B"), ("B", "A")])
    with pytest.raises(ValueError, match="self-loop"):
        Dag.from_edges("AB", [("A", "A")])
    with pytest.raises(ValueError, match="not in the node set"):
        Dag.from_edges("AB", [("A", "C")])


def test_builtin_graph_lookup():
    assert set(BUILTIN_GRAPHS) == {"fsl", "msl-sampling", "fsl-sampling"}
    g = builtin_graph("fsl")
    assert g.edges == fsl_graph().edges
    with pytest.raises(ValueError, match="unknown graph"):
        builtin_graph("loopy")


def test_graph_json_round_trip():
    for name in BUILTIN_GRAPHS:
        g = builtin_graph(name)
        back = graph_from_json(graph_to_json(g))
        assert back.nodes == g.nodes
        assert back.edges == g.edges
    # output is canonical: same graph, same text
    assert graph_to_json(fsl_graph()) == graph_to_json(builtin_graph("fsl"))


def test_graph_from_json_rejects_malformed():
    with pytest.raises(ValueError, match="malformed"):
        graph_from_json("{not json")
    with pytest.raises(ValueError, match="malformed"):
        graph_from_json('{"nodes": ["A"]}')
    with pytest.raises(ValueError, match="parent, child"):
        graph_from_json('{"nodes": ["A", "B"], "edges": [["A", "B", "C"]]}')
    # strings are not split into characters, and names are strings
    for doc in (
        '{"nodes": "DXY", "edges": [["D", "X"]]}',
        '{"nodes": ["D", "X", "Y"], "edges": ["DX", "XY"]}',
        '{"nodes": ["X", 1], "edges": []}',
        '{"nodes": null, "edges": []}',
        '{"nodes": [["X"]], "edges": []}',
        '{"nodes": ["X", "Y"], "edges": [["X", 2]]}',
        '{"nodes": ["X", "Y"], "edges": null}',
        '["X", "Y"]',
    ):
        with pytest.raises(ValueError, match="malformed graph document"):
            graph_from_json(doc)


def test_oracle_agrees_on_every_builtin_query():
    # exhaustive sweep of singleton X, Y with every conditioning subset
    for name in BUILTIN_GRAPHS:
        g = builtin_graph(name)
        nodes = sorted(g.nodes)
        for x, y in itertools.permutations(nodes, 2):
            rest = [n for n in nodes if n not in (x, y)]
            for r in range(len(rest) + 1):
                for zs in itertools.combinations(rest, r):
                    assert d_separated(g, [x], [y], list(zs)) == oracle_d_separated(
                        g, [x], [y], list(zs)
                    ), (name, x, y, zs)
