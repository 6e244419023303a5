"""Test oracle: generic Dinic maximum flow over adjacency lists.

This is the solver the ordering check ran in d >= 2 before
`causal_lab.maxflow.dinic_max_flow` took over the three-layer cone
graph.  It handles any directed graph, with float, integer or Fraction
capacities, and is kept here verbatim to check the bipartite solver's
leftover and cut side against.

Capacities may be floats or exact rationals; the algorithm only adds,
subtracts and compares them, so `fractions.Fraction` networks solve
exactly.  Returns the flow value and the source side of a minimum cut
(residual reachability after termination).
"""
from __future__ import annotations

from collections import deque
from typing import Sequence


def dinic_max_flow(num_nodes: int, edges: Sequence[tuple[int, int, object]],
                   source: int, sink: int):
    """Max flow for directed `edges` of (u, v, capacity).

    Returns (flow_value, edge_flows, source_side) where edge_flows aligns
    with the input edge order and source_side is the set of nodes reachable
    from the source in the final residual graph.
    """
    to: list[int] = []
    cap: list = []
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v, c in edges:
        if c < 0:
            raise ValueError("negative capacity")
        adj[u].append(len(to)); to.append(v); cap.append(c)
        adj[v].append(len(to)); to.append(u); cap.append(c * 0)

    total = cap[0] * 0 if cap else 0  # zero of the capacity type
    level = [0] * num_nodes
    it = [0] * num_nodes

    def bfs() -> bool:
        for i in range(num_nodes):
            level[i] = -1
        level[source] = 0
        dq = deque([source])
        while dq:
            u = dq.popleft()
            for eid in adj[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        return level[sink] >= 0

    def dfs(u, pushed):
        if u == sink:
            return pushed
        while it[u] < len(adj[u]):
            eid = adj[u][it[u]]
            v = to[eid]
            if cap[eid] > 0 and level[v] == level[u] + 1:
                d = dfs(v, min(pushed, cap[eid]))
                if d > 0:
                    cap[eid] -= d
                    cap[eid ^ 1] += d
                    return d
            it[u] += 1
        return pushed * 0

    # an upper bound on any augmenting-path bottleneck, in the capacity type
    bottleneck_bound = sum(c for _, _, c in edges) + 1
    flow = total
    while bfs():
        it = [0] * num_nodes
        while True:
            pushed = dfs(source, bottleneck_bound)
            if pushed <= 0:
                break
            flow = flow + pushed

    # residual reachability gives the source side of a minimum cut
    seen = [False] * num_nodes
    seen[source] = True
    dq = deque([source])
    while dq:
        u = dq.popleft()
        for eid in adj[u]:
            v = to[eid]
            if cap[eid] > 0 and not seen[v]:
                seen[v] = True
                dq.append(v)
    source_side = {i for i, s in enumerate(seen) if s}

    edge_flows = [cap[2 * i + 1] for i in range(len(edges))]
    return flow, edge_flows, source_side


def solve_cone_graph(supply, heads, indptr, room):
    """The bipartite problem of `causal_lab.maxflow.dinic_max_flow`, posed
    to the generic oracle as the ordering check used to pose it: source
    arcs of the supplies, middle arcs of a capacity above the total
    supply, sink arcs of the rooms.  Returns (leftover, cut_left)."""
    nl, nr = len(supply), len(room)
    n = nl + nr + 2
    src, snk = 0, n - 1
    total = sum(supply)
    big = total + 1  # middle arcs may never enter a minimum cut
    edges = [(src, 1 + i, c) for i, c in enumerate(supply)]
    for i in range(nl):
        edges.extend((1 + i, 1 + nl + j, big)
                     for j in heads[indptr[i]:indptr[i + 1]])
    edges.extend((1 + nl + j, snk, c) for j, c in enumerate(room))
    flow, _, side = dinic_max_flow(n, edges, src, snk)
    return total - flow, [i for i in range(nl) if 1 + i in side]
