"""Directed acyclic causal graphs: d-separation, graph surgery, do-calculus
rule conditions, instrumental-variable and backdoor criteria.

Nodes are strings. d-separation uses the moralized-ancestral-graph reduction;
the test suite cross-checks it against literal path enumeration.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable


def _as_node_set(nodes) -> frozenset[str]:
    if nodes is None:
        return frozenset()
    if isinstance(nodes, str):
        return frozenset([nodes])
    return frozenset(str(n) for n in nodes)


@dataclass(frozen=True)
class Dag:
    """Immutable DAG over string nodes."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(str(n) for n in self.nodes))
        object.__setattr__(
            self, "edges", frozenset((str(a), str(b)) for a, b in self.edges)
        )
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge {a}->{b} uses a node not in the node set")
            if a == b:
                raise ValueError(f"self-loop on {a}")
        self._check_acyclic()

    def _check_acyclic(self):
        indeg = {n: 0 for n in self.nodes}
        children = {n: [] for n in self.nodes}
        for a, b in self.edges:
            indeg[b] += 1
            children[a].append(b)
        queue = deque(n for n, d in indeg.items() if d == 0)
        seen = 0
        while queue:
            n = queue.popleft()
            seen += 1
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen != len(self.nodes):
            raise ValueError("graph contains a directed cycle")

    @classmethod
    def from_edges(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Dag":
        return cls(frozenset(nodes), frozenset(tuple(e) for e in edges))

    def parents(self, node: str) -> frozenset[str]:
        return frozenset(a for a, b in self.edges if b == node)

    def children(self, node: str) -> frozenset[str]:
        return frozenset(b for a, b in self.edges if a == node)

    def require(self, nodes) -> frozenset[str]:
        ns = _as_node_set(nodes)
        missing = ns - self.nodes
        if missing:
            raise ValueError(f"unknown nodes {sorted(missing)}")
        return ns


def _closure(g: Dag, seeds: frozenset[str], step) -> frozenset[str]:
    out = set(seeds)
    frontier = deque(seeds)
    while frontier:
        n = frontier.popleft()
        for nxt in step(n):
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return frozenset(out)


def ancestors(g: Dag, nodes, inclusive: bool = False) -> frozenset[str]:
    """Strict ancestors of the given nodes (include them with ``inclusive``)."""
    seeds = g.require(nodes)
    closed = _closure(g, seeds, g.parents)
    return closed if inclusive else closed - seeds


def descendants(g: Dag, nodes, inclusive: bool = False) -> frozenset[str]:
    seeds = g.require(nodes)
    closed = _closure(g, seeds, g.children)
    return closed if inclusive else closed - seeds


def manipulate(g: Dag, cut_incoming=(), cut_outgoing=()) -> Dag:
    """Graph surgery: drop edges into ``cut_incoming`` and out of ``cut_outgoing``."""
    into = g.require(cut_incoming)
    outof = g.require(cut_outgoing)
    kept = frozenset(
        (a, b) for a, b in g.edges if b not in into and a not in outof
    )
    return Dag(g.nodes, kept)


def d_separated(g: Dag, xs, ys, zs=()) -> bool:
    """True when every path between xs and ys is blocked given zs.

    Uses the ancestral-moral-graph reduction: restrict to ancestors of
    xs, ys, zs; marry co-parents; drop zs; then xs and ys are d-separated
    exactly when they are disconnected.
    """
    X = g.require(xs)
    Y = g.require(ys)
    Z = g.require(zs)
    if X & Y or X & Z or Y & Z:
        raise ValueError("node sets must be pairwise disjoint")
    if not X or not Y:
        return True
    keep = ancestors(g, X | Y | Z, inclusive=True)
    undirected: dict[str, set[str]] = {n: set() for n in keep}
    sub_edges = [(a, b) for a, b in g.edges if a in keep and b in keep]
    for a, b in sub_edges:
        undirected[a].add(b)
        undirected[b].add(a)
    # moralize: connect every pair of parents that share a child
    parents_of: dict[str, list[str]] = {n: [] for n in keep}
    for a, b in sub_edges:
        parents_of[b].append(a)
    for child, ps in parents_of.items():
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                undirected[ps[i]].add(ps[j])
                undirected[ps[j]].add(ps[i])
    blocked = Z
    frontier = deque(X - blocked)
    reached = set(frontier)
    while frontier:
        n = frontier.popleft()
        if n in Y:
            return False
        for nxt in undirected[n]:
            if nxt not in reached and nxt not in blocked:
                reached.add(nxt)
                frontier.append(nxt)
    return True


def rule_condition(g: Dag, rule: int, x, y, z, w=()) -> bool:
    """Graphical condition licensing a do-calculus rewrite.

    With intervention set X, outcome set Y, moved set Z, and context W:

    1. drop an observation:    (Y ⫫ Z | X, W) in the graph with edges into X cut
    2. exchange do/observe:    (Y ⫫ Z | X, W) with edges into X and out of Z cut
    3. drop an intervention:   (Y ⫫ Z | X, W) with edges into X and into Z(W)
       cut, where Z(W) are the Z-nodes that are not ancestors of any W-node
       once edges into X are already cut
    """
    if rule not in (1, 2, 3):
        raise ValueError(f"rule must be 1, 2, or 3, got {rule}")
    X = g.require(x)
    Y = g.require(y)
    Z = g.require(z)
    W = g.require(w)
    sets = [X, Y, Z, W]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                raise ValueError("X, Y, Z, W must be pairwise disjoint")
    if not Y or not Z:
        return True
    g_x = manipulate(g, cut_incoming=X)
    if rule == 1:
        return d_separated(g_x, Y, Z, X | W)
    if rule == 2:
        return d_separated(manipulate(g_x, cut_outgoing=Z), Y, Z, X | W)
    w_ancestors = ancestors(g_x, W, inclusive=True) if W else frozenset()
    z_upper = frozenset(n for n in Z if n not in w_ancestors)
    return d_separated(manipulate(g_x, cut_incoming=z_upper), Y, Z, X | W)


def is_instrumental(g: Dag, instrument: str, treatment: str, outcome: str) -> bool:
    """Instrument test: unrelated to the outcome once edges into the treatment
    are cut, yet dependent on the treatment in the original graph."""
    names = [instrument, treatment, outcome]
    if len(set(names)) != 3:
        raise ValueError("instrument, treatment, outcome must be distinct")
    for n in names:
        g.require(n)
    g_cut = manipulate(g, cut_incoming=[treatment])
    excluded = d_separated(g_cut, [instrument], [outcome])
    relevant = not d_separated(g, [instrument], [treatment])
    return excluded and relevant


def backdoor_admissible(g: Dag, zs, treatment: str, outcome: str) -> bool:
    """Backdoor criterion: no Z-node descends from the treatment, and Z blocks
    every treatment-outcome path in the graph with the treatment's outgoing
    edges removed."""
    Z = g.require(zs)
    g.require(treatment)
    g.require(outcome)
    if treatment == outcome:
        raise ValueError("treatment and outcome must be distinct")
    if treatment in Z or outcome in Z:
        raise ValueError("the adjustment set may not contain treatment or outcome")
    if Z & descendants(g, [treatment]):
        return False
    g_cut = manipulate(g, cut_outgoing=[treatment])
    return d_separated(g_cut, [treatment], [outcome], Z)


# --- built-in graphs ----------------------------------------------------------

_BASE_EDGES = [("D", "X"), ("D", "C"), ("X", "C"), ("X", "Y"), ("C", "Y")]


def fsl_graph() -> Dag:
    """Few-shot SCM: pre-trained knowledge D confounds feature X and label Y
    through the transformed representation C."""
    return Dag.from_edges("DXCY", _BASE_EDGES)


def msl_sampling_graph() -> Dag:
    """Many-shot variant: the sample ID I drives the feature (I -> X), making
    I an instrument for the X -> Y effect."""
    return Dag.from_edges("IDXCY", _BASE_EDGES + [("I", "X")])


def fsl_sampling_graph() -> Dag:
    """Few-shot variant: the feature determines the sample ID (X -> I), so I
    fails the instrument test."""
    return Dag.from_edges("IDXCY", _BASE_EDGES + [("X", "I")])


BUILTIN_GRAPHS = {
    "fsl": fsl_graph,
    "msl-sampling": msl_sampling_graph,
    "fsl-sampling": fsl_sampling_graph,
}


def builtin_graph(name: str) -> Dag:
    try:
        return BUILTIN_GRAPHS[name]()
    except KeyError:
        raise ValueError(
            f"unknown graph {name!r}, expected one of {sorted(BUILTIN_GRAPHS)}"
        ) from None


def graph_to_json(g: Dag) -> str:
    doc = {
        "nodes": sorted(g.nodes),
        "edges": sorted([a, b] for a, b in g.edges),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _is_name_list(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def graph_from_json(text: str) -> Dag:
    """The graph of a ``{"nodes": [names], "edges": [[parent, child], ...]}`` document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ValueError("malformed graph document: need an object with nodes and edges")
    nodes, edges = doc["nodes"], doc["edges"]
    if not _is_name_list(nodes):
        raise ValueError("malformed graph document: nodes must be a list of names")
    if not isinstance(edges, list) or not all(_is_name_list(e) and len(e) == 2 for e in edges):
        raise ValueError(
            "malformed graph document: each edge must be a [parent, child] pair of names"
        )
    return Dag.from_edges(nodes, edges)
