"""The dependency DAG over directories (paper §2.5).

``new`` *depends on* ``old`` when ``old``'s scope feeds ``new``'s query
result.  Two edge kinds exist:

* **hierarchical** — every directory depends on its parent (under the
  covers, the child's effective query is ``<query> AND <parent>``);
* **reference** — a query that names another directory's path depends on
  that directory, wherever it sits in the tree.

Dependencies are transitive; cycles are rejected at the moment a query
would create one ("we do not allow cycles to exist in this graph for
obvious reasons").  When a directory's provided scope changes, every
directory reachable along dependency edges must be re-evaluated — in
topological order, so each is evaluated exactly once with its inputs
already settled.  The root (UID 0) depends on nothing and precedes
everything, exactly as the paper requires.

Nodes are directory UIDs from the global map, so renames never disturb the
graph.  Nothing here is persisted: both edge kinds follow from records kept
anyway (each directory's parent, each query's directory references), so
:meth:`DependencyGraph.derive` rebuilds the graph on reload.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.errors import DependencyCycle
from repro.obs.trace import NULL_TRACER

ROOT_UID = 0

HIERARCHY = "hierarchy"
REFERENCE = "reference"


class DependencyGraph:
    """Directed graph: provider → dependent, with labelled edge kinds.

    A directory's hierarchy parent and the directories its query
    references are kept apart, so one provider can be both (a query may
    name the directory's own parent) and a plain directory costs one
    parent entry: the reference and dependent sets exist only where
    they are non-empty.
    """

    def __init__(self):
        #: node uid → its hierarchy parent (None for the root, or once
        #: the parent is removed); the keys are the graph's nodes
        self._parent: Dict[int, Optional[int]] = {ROOT_UID: None}
        #: dependent uid → the provider uids its query references
        self._refs: Dict[int, Set[int]] = {}
        #: provider uid → the uids depending on it by either edge kind
        self._dependents: Dict[int, Set[int]] = {}
        #: observability hook (re-wired by HacFileSystem after every
        #: (re)construction, since the graph is rebuilt on reload/restore)
        self.tracer = NULL_TRACER

    @classmethod
    def derive(cls, parents: Dict[int, int],
               references: Dict[int, Iterable[int]]) -> "DependencyGraph":
        """The graph of a persisted world: a node and a hierarchy edge per
        ``child → parent`` entry of *parents* (a tree rooted at UID 0, so
        no cycle check), then each dependent's reference edges exactly as
        :meth:`set_reference_edges` adds them — dangling UIDs skipped."""
        graph = cls()
        graph._parent.update(parents)
        for uid, parent in parents.items():
            graph._dependents.setdefault(parent, set()).add(uid)
        for uid in sorted(references):
            graph.set_reference_edges(uid, references[uid])
        return graph

    # ------------------------------------------------------------------
    # node / edge maintenance
    # ------------------------------------------------------------------

    def add_node(self, uid: int) -> None:
        if uid in self._parent:
            raise ValueError(f"node {uid} already in dependency graph")
        self._parent[uid] = None

    def remove_node(self, uid: int) -> None:
        """Drop a directory: its edges go with it; queries that referenced it
        now have a dangling reference (resolved as empty by the evaluator)."""
        if uid == ROOT_UID:
            raise ValueError("cannot remove the root")
        providers = self._refs.pop(uid, set())
        parent = self._parent.pop(uid, None)
        if parent is not None:
            providers.add(parent)
        for provider in providers:
            self._dependents[provider].discard(uid)
        for dependent in self._dependents.pop(uid, ()):
            if self._parent.get(dependent) == uid:
                self._parent[dependent] = None
            self._drop_ref(dependent, uid)

    def __contains__(self, uid: int) -> bool:
        return uid in self._parent

    def nodes(self) -> List[int]:
        return list(self._parent)

    def set_hierarchy_edge(self, child: int, parent: int) -> None:
        """(Re)attach *child* under *parent*; replaces any previous one.
        A reference edge to the same provider survives independently."""
        if parent == child:
            raise DependencyCycle(str(child), [child, child])
        self._check_no_path(child, parent)
        old = self._parent[child]
        if old is not None and old not in self._refs.get(child, ()):
            self._dependents[old].discard(child)
        self._parent[child] = parent
        self._dependents.setdefault(parent, set()).add(child)

    def set_reference_edges(self, dependent: int, providers: Iterable[int]) -> None:
        """Replace *dependent*'s reference edges with the given provider set
        (called whenever its query changes)."""
        parent = self._parent[dependent]
        wanted = set(providers)
        wanted.discard(ROOT_UID)  # everything depends on root implicitly
        current = self._refs.get(dependent, set())
        for provider in wanted - current:
            if provider == dependent:
                raise DependencyCycle(str(dependent), [dependent, dependent])
            if provider not in self._parent:
                continue  # dangling reference: tolerated, resolves empty
            self._check_no_path(dependent, provider)
        for provider in current - wanted:
            if provider != parent:
                self._dependents[provider].discard(dependent)
        live = {p for p in wanted if p in self._parent}
        for provider in live - current:
            self._dependents.setdefault(provider, set()).add(dependent)
        if live:
            self._refs[dependent] = live
        else:
            self._refs.pop(dependent, None)

    def _drop_ref(self, dependent: int, provider: int) -> None:
        refs = self._refs.get(dependent)
        if refs is not None:
            refs.discard(provider)
            if not refs:
                del self._refs[dependent]

    def _check_no_path(self, src: int, dst: int) -> None:
        """Adding dst→src requires no existing path src→dst (else a cycle)."""
        if src == dst:
            raise DependencyCycle(str(src), [src, src])
        seen = {src}
        frontier = deque([src])
        while frontier:
            cur = frontier.popleft()
            for dependent in self._dependents.get(cur, ()):
                if dependent == dst:
                    raise DependencyCycle(
                        str(dst), self._find_path(src, dst) + [src])
                if dependent not in seen:
                    seen.add(dependent)
                    frontier.append(dependent)

    def _find_path(self, src: int, dst: int) -> List[int]:
        """A dependency path src ⇝ dst, for cycle diagnostics."""
        parent: Dict[int, int] = {}
        frontier = deque([src])
        while frontier:
            cur = frontier.popleft()
            for dependent in self._dependents.get(cur, ()):
                if dependent not in parent:
                    parent[dependent] = cur
                    if dependent == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    frontier.append(dependent)
        return [src, dst]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def providers_of(self, uid: int) -> Dict[int, str]:
        out = {p: REFERENCE for p in self._refs.get(uid, ())}
        parent = self._parent.get(uid)
        if parent is not None:
            out[parent] = HIERARCHY
        return out

    def dependents_of(self, uid: int) -> Set[int]:
        return set(self._dependents.get(uid, ()))

    def hierarchy_parent(self, uid: int) -> Optional[int]:
        return self._parent.get(uid)

    # ------------------------------------------------------------------
    # evaluation order
    # ------------------------------------------------------------------

    def affected_order(self, start: int, include_start: bool = False) -> List[int]:
        """Every transitive dependent of *start*, in topological order.

        The order is computed by Kahn's algorithm restricted to the affected
        subgraph, so each affected directory appears after all of its
        affected providers — the paper's requirement for correct
        re-evaluation.
        """
        affected: Set[int] = set()
        frontier = deque([start])
        while frontier:
            cur = frontier.popleft()
            for dependent in self._dependents.get(cur, ()):
                if dependent not in affected:
                    affected.add(dependent)
                    frontier.append(dependent)
        if include_start:
            affected.add(start)
        if self.tracer.enabled:
            self.tracer.event("dep.affected", start=start,
                              affected=len(affected))
        return self._topo_sort(affected)

    def full_order(self) -> List[int]:
        """Topological order of the whole graph (global re-evaluation)."""
        if self.tracer.enabled:
            self.tracer.event("dep.full_order", nodes=len(self._parent))
        return self._topo_sort(set(self._parent))

    def topo_order(self, nodes: Iterable[int]) -> List[int]:
        """Topological order restricted to *nodes* (unknown uids ignored)."""
        return self._topo_sort({n for n in nodes if n in self._parent})

    def _topo_sort(self, nodes: Set[int]) -> List[int]:
        # a dependent sits once in each of its providers' sets, so counting
        # from the provider side gives each node's in-degree within *nodes*
        indeg = {n: 0 for n in nodes}
        for n in nodes:
            for dependent in self._dependents.get(n, ()):
                if dependent in indeg:
                    indeg[dependent] += 1
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: List[int] = []
        while ready:
            cur = ready.popleft()
            order.append(cur)
            for dependent in sorted(self._dependents.get(cur, ())):
                if dependent in indeg and dependent in nodes:
                    indeg[dependent] -= 1
                    if indeg[dependent] == 0:
                        ready.append(dependent)
        if len(order) != len(nodes):
            leftovers = sorted(nodes - set(order))
            raise DependencyCycle(str(leftovers[0]), leftovers)
        return order
