"""Online cycle elimination for identity-annotated constraint edges.

BANSHEE's headline scaling trick (Fähndrich, Foster, Su & Aiken,
"Partial online cycle elimination in inclusion constraint graphs"):
variables on a cycle of inclusion edges have equal solutions and can be
merged into a single representative, shrinking the ``n`` the cubic
closure runs over.  For *annotated* constraints the sound case is the
cycle all of whose edges carry the identity annotation: ``id ∘ id = id``
means every lower bound circulates unchanged, so the members' solutions
coincide exactly.  A cycle with any non-identity edge must **not** be
collapsed — a bound crossing such an edge re-enters the cycle with a
different annotation, and the members' annotation sets genuinely differ.

Detection is *partial online*, as in the paper: when an identity
var→var edge ``src → dst`` is inserted, a bounded reverse DFS from
``src`` over identity predecessor edges looks for ``dst``; a hit means
``dst → … → src → dst`` is an identity cycle and the nodes on the found
path are merged.  The bound keeps the per-edge overhead constant; cycles
the sample misses are still solved correctly, just without the merge.

The union-find here is deliberately *rank-free*: the representative of
a merge is always the member with the lexicographically smallest name.
That makes the choice a pure function of the merged set — independent of
merge order, of interleaving with checkpoints, and of how much of an SCC
each bounded search happened to find — which is what keeps solved forms
comparable across a run and its dump/load/resume replay.  Identity SCCs
in real constraint graphs are small (loop headers, copy chains), so the
asymptotic loss against union-by-rank is irrelevant; path compression
still applies (the solver disables it while a retraction epoch is open,
because compressed pointers cannot be unwound by the undo log).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

#: Nodes a single reverse-path sample may visit before giving up.  Large
#: enough that the search is complete on the small identity SCCs real
#: programs produce; small enough to bound the per-edge insertion cost.
DEFAULT_SEARCH_BOUND = 64


class UnionFind:
    """Union-find over hashable nodes with min-name representative choice.

    Only nodes that have been merged appear in ``parent``; every other
    node is implicitly its own root, so ``find`` on an untouched node is
    a single dict miss.  ``union`` links two *roots*; the caller decides
    which survives (the solver picks the smallest name, see module
    docstring).  ``undo_union`` unlinks a loser again — valid only in
    LIFO order with no intervening path compression, which the solver
    guarantees by disabling compression while a journal epoch is open.
    """

    __slots__ = ("parent", "find_calls")

    def __init__(self) -> None:
        self.parent: dict[Hashable, Hashable] = {}
        self.find_calls = 0

    def find(self, node: Hashable, compress: bool = True) -> Hashable:
        self.find_calls += 1
        parent = self.parent
        root = parent.get(node)
        if root is None:
            return node
        path = []
        while True:
            nxt = parent.get(root)
            if nxt is None:
                break
            path.append(root)
            root = nxt
        if compress:
            for step in path:
                parent[step] = root
            parent[node] = root
        return root

    def union(self, winner: Hashable, loser: Hashable) -> None:
        """Link root ``loser`` under root ``winner``."""
        self.parent[loser] = winner

    def undo_union(self, loser: Hashable) -> None:
        self.parent.pop(loser, None)

    def members(self, root: Hashable) -> list[Hashable]:
        """All merged-away nodes whose current representative is ``root``.

        The scan is over merged nodes only (``parent``'s keys), which
        stays small in practice; the incremental engine calls this on
        the rare demotion path, never per fact.
        """
        return [n for n in self.parent if self.find(n, False) == root]

    def release(self, nodes: Iterable[Hashable]) -> None:
        """Detach ``nodes`` from the forest entirely.

        Used by incremental *demotion*: when a retraction breaks an
        identity cycle, the whole merged class is dissolved and its
        members become their own representatives again before the
        class's constraints are re-asserted.  Callers must release a
        class in full (every member of :meth:`members` plus nothing
        else), since parent pointers never cross class boundaries.
        """
        for node in nodes:
            self.parent.pop(node, None)


def find_identity_cycle(
    pred: dict,
    find: Callable,
    is_identity: Callable,
    src: Hashable,
    dst: Hashable,
    bound: int = DEFAULT_SEARCH_BOUND,
) -> list | None:
    """Reverse-path sample: does ``dst`` reach ``src`` over identity edges?

    Called just after the identity edge ``src → dst`` was inserted; a
    path ``dst ⟵ … ⟵ src`` in ``pred`` (i.e. ``dst → … → src`` forward)
    closes an identity cycle through the new edge.  ``pred`` maps a node
    to a dict keyed by ``(predecessor, annotation)``; predecessors are
    canonicalized through ``find`` on the fly, so stale keys left behind
    by earlier merges cost nothing but a lookup.

    Returns the cycle's nodes (each a current union-find root, all
    distinct) or ``None`` if no cycle was found within ``bound`` node
    visits.
    """
    if src == dst:
        return None
    stack = [src]
    parent_map = {src: None}
    visits = 0
    while stack:
        node = stack.pop()
        visits += 1
        if visits > bound:
            return None
        bucket = pred.get(node)
        if not bucket:
            continue
        for p, ann in bucket:
            if not is_identity(ann):
                continue
            p = find(p)
            if p == node or p in parent_map:
                continue
            if p == dst:
                # Reconstruct dst ⟵ node ⟵ … ⟵ src.
                path = [dst]
                cur = node
                while cur is not None:
                    path.append(cur)
                    cur = parent_map[cur]
                return path
            parent_map[p] = node
            stack.append(p)
    return None


def strong_components(edges: Iterable[tuple[Hashable, Hashable]]) -> Iterator[list]:
    """The strongly connected components of more than one node.

    The graph is given by its ``(src, dst)`` edges.  Both solver cores
    run it over their identity edges, to quotient the cycles the bounded
    online search missed, and the model checker's ``--collapse-cycles``
    pre-pass over the ε-edges of the CFG.  Tarjan's algorithm,
    iteratively, over the nodes numbered as they first appear.
    """
    ids: dict[Hashable, int] = {}
    nodes: list[Hashable] = []
    succ: list[list[int]] = []
    for src, dst in edges:
        s = ids.get(src)
        if s is None:
            s = ids[src] = len(nodes)
            nodes.append(src)
            succ.append([])
        d = ids.get(dst)
        if d is None:
            d = ids[dst] = len(nodes)
            nodes.append(dst)
            succ.append([])
        if d != s:
            succ[s].append(d)
    n = len(nodes)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    for start in range(n):
        if index[start] >= 0 or not succ[start]:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        walk = [(start, iter(succ[start]))]
        while walk:
            node, out = walk[-1]
            for nxt in out:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    walk.append((nxt, iter(succ[nxt])))
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                walk.pop()
                if walk:
                    caller = walk[-1][0]
                    if low[node] < low[caller]:
                        low[caller] = low[node]
                if low[node] == index[node]:
                    member = stack.pop()
                    on_stack[member] = False
                    if member != node:
                        component = [nodes[member]]
                        while member != node:
                            member = stack.pop()
                            on_stack[member] = False
                            component.append(nodes[member])
                        yield component
