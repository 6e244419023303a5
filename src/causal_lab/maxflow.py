"""Maximum flow on the three-layer cone graph: source -> mu atoms -> nu
atoms -> sink.

The graph comes as the CSR arrays of `transport.build_flow_network`: the
arcs of source atom i are heads[indptr[i]:indptr[i + 1]].  The supply of
each source atom and the room of each target atom arrive as exact
integers, lifted from the weights by `transport`; the middle arcs have no
capacity limit.  So the solver keeps one integer flow per arc and nothing
else: no reverse arcs, no source or sink arcs and no stand-in for an
infinite capacity.

A greedy fill in source order comes first.  When no source that still
holds supply after it has an arc, as the drained sources of a failing
check, the flow is maximum and those sources are the cut, so the solver
returns at once, without the search structures below.  Otherwise Dinic
phases (Dinic 1970; the layered multi-source search of Hopcroft and Karp
1973) finish the flow: a breadth-first search from every source with
supply left goes forward along any arc and backward along arcs that
carry flow, and stops at the first layer that holds a target with room;
an iterative blocking flow with current-arc pointers then saturates that
layered graph.  The search that finds no such target marks the source
side of a minimum cut.
"""
from __future__ import annotations

from typing import Sequence


def dinic_max_flow(supply: Sequence[int], heads: Sequence[int],
                   indptr: Sequence[int],
                   room: Sequence[int]) -> tuple[int, list[int]]:
    """Maximum flow from the sources' `supply` into the targets' `room`.

    Source i may send to the targets heads[indptr[i]:indptr[i + 1]], each
    arc without a capacity limit.  Returns (leftover, cut_left): the
    supply no flow can place, and in ascending order the sources that the
    residual graph reaches from supply left over.  That set is the same
    for every maximum flow, so it names one minimum cut whatever order
    the flow was found in.
    """
    supply = list(supply)
    room = list(room)
    nl, m = len(supply), len(room)
    flow = [0] * len(heads)

    # greedy fill: each source in turn fills its targets in arc order
    for i in range(nl):
        s = supply[i]
        e = indptr[i]
        end = indptr[i + 1]
        while s and e < end:
            j = heads[e]
            r = room[j]
            if r:
                d = s if s < r else r
                flow[e] = d
                room[j] = r - d
                s -= d
            e += 1
        supply[i] = s
    left = [i for i in range(nl) if supply[i]]
    if not left:
        return 0, []
    # supply left only on sources without arcs: the search would mark
    # just those, so they are the cut
    if all(indptr[i] == indptr[i + 1] for i in left):
        return sum(supply), left

    # each arc's source, and the arcs into each target
    tails = [0] * len(heads)
    into: list[list[int]] = [[] for _ in range(m)]
    for i in range(nl):
        for e in range(indptr[i], indptr[i + 1]):
            tails[e] = i
            into[heads[e]].append(e)

    while True:
        # levels: sources even, targets odd, -1 for unreached (or dead)
        level_l = [-1] * nl
        level_r = [-1] * m
        roots = [i for i in range(nl) if supply[i]]
        for i in roots:
            level_l[i] = 0
        frontier = roots
        depth = 0
        found = False
        while frontier:
            reached = []
            for i in frontier:
                for j in heads[indptr[i]:indptr[i + 1]]:
                    if level_r[j] < 0:
                        level_r[j] = depth + 1
                        reached.append(j)
                        if room[j]:
                            found = True
            if found:
                break
            depth += 2
            frontier = []
            for j in reached:
                for e in into[j]:
                    if flow[e]:
                        i = tails[e]
                        if level_l[i] < 0:
                            level_l[i] = depth
                            frontier.append(i)
        if not found:
            return sum(supply), [i for i in range(nl) if level_l[i] >= 0]
        _blocking_flow(supply, heads, indptr, room, flow, tails, into,
                       level_l, level_r, roots, depth + 1)


def _blocking_flow(supply, heads, indptr, room, flow, tails, into,
                   level_l, level_r, roots, last) -> None:
    """Saturate the layered graph whose targets with room sit at `last`.

    A path alternates forward arcs (any) and backward arcs (carrying
    flow), one level down each step.  Current-arc pointers only move
    forward; a node whose arcs run out gets level -1, which every later
    step skips.  After each augmentation the search starts again at its
    root, along the pointers.
    """
    ptr_l = list(indptr[:-1])
    ptr_r = [0] * len(room)
    for root in roots:
        path: list[int] = []  # arcs; even positions forward, odd backward
        while supply[root] and level_l[root] == 0:
            if len(path) % 2 == 0:
                # at a source: advance to a forward arc one level down
                u = tails[path[-1]] if path else root
                want = level_l[u] + 1
                e, end = ptr_l[u], indptr[u + 1]
                while e < end and level_r[heads[e]] != want:
                    e += 1
                ptr_l[u] = e
                if e < end:
                    path.append(e)
                else:
                    level_l[u] = -1
                    if path:
                        path.pop()
                continue
            j = heads[path[-1]]
            if level_r[j] == last:
                if room[j]:
                    d = min(supply[root], room[j],
                            *(flow[e] for e in path[1::2]))
                    for e in path[::2]:
                        flow[e] += d
                    for e in path[1::2]:
                        flow[e] -= d
                    supply[root] -= d
                    room[j] -= d
                    path.clear()
                else:
                    level_r[j] = -1
                    path.pop()
                continue
            # at a target below `last`: back along an arc carrying flow
            arcs = into[j]
            want = level_r[j] + 1
            q, end = ptr_r[j], len(arcs)
            while q < end and not (flow[arcs[q]]
                                   and level_l[tails[arcs[q]]] == want):
                q += 1
            ptr_r[j] = q
            if q < end:
                path.append(arcs[q])
            else:
                level_r[j] = -1
                path.pop()
