"""Attribute graphs: deterministic augmentation of partial ASTs.

Every nonterminal AST node owns an inherited and a synthesized attribute node,
every terminal a single joint node, and every context variable one source
node. Edges are a pure function of the tree, so the graph can be grown
incrementally during decoding or built in one shot from a complete tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .grammar import Kind
from .syntax import PartialAst, Walk

CHILD = "Child"
PARENT = "Parent"
NEXT_SIBLING = "NextSibling"
NEXT_USE = "NextUse"
NEXT_TOKEN = "NextToken"
INH_TO_SYN = "InhToSyn"
NEXT_EXP = "NextExp"

PAPER_EDGE_TYPES = (CHILD, PARENT, NEXT_SIBLING, NEXT_USE, NEXT_TOKEN, INH_TO_SYN)
ALL_EDGE_TYPES = PAPER_EDGE_TYPES + (NEXT_EXP,)
ETYPE_CODE = {t: k for k, t in enumerate(ALL_EDGE_TYPES)}


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class AttrNode:
    aid: int
    flavor: str  # inh | syn | joint | ctx
    origin: int | str  # AST node id, or context variable name
    label: str


class Edge(NamedTuple):
    src: int
    etype: str
    tgt: int
    label: tuple[int, int] | None = None  # (production id, child index), Child only


@dataclass
class AttributeGraph:
    """The edges are four index arrays in target order, as the builder emits
    them: every edge points forward (src < tgt) and tgt never decreases."""

    nodes: list[AttrNode]  # a batch lists each component's own records in turn
    src: np.ndarray  # (E,) int64
    tgt: np.ndarray  # (E,) int64
    etype: np.ndarray  # (E,) int64 index into ALL_EDGE_TYPES
    label: np.ndarray  # (E, 2) int64 production id and child index, -1 without
    components: list[dict]  # offset, n, root_inh, ctx{name: aid}

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as records: a read-only view of the arrays."""
        labels = [None if pid < 0 else (pid, i) for pid, i in self.label.tolist()]
        etypes = [ALL_EDGE_TYPES[k] for k in self.etype.tolist()]
        return tuple(map(Edge, self.src.tolist(), etypes, self.tgt.tolist(), labels))

    @property
    def schedule(self) -> list[list[int]]:
        """Each propagation_schedule round's nodes by ascending id (a view)."""
        rounds = propagation_schedule(self.src, self.tgt, len(self.nodes))
        return [[a for a, r in enumerate(rounds) if r == k] for k in range(max(rounds, default=-1) + 1)]

    def sources(self) -> list[int]:
        with_in = set(self.tgt.tolist())
        return [a for a in range(len(self.nodes)) if a not in with_in]


class GraphBuilder(Walk):
    """Grows the attribute graph of a (partial) tree under a decoder edge set.

    The builder is the tree's generation-order walk: each step `settle`
    passes becomes one attribute node, the synthesized ones only when an
    edge type needs them, and appends its in-edges to five int `columns`:
    source, target, ETYPE_CODE type, production id and child index (-1
    without a label), so the edges stay in target order. Edge sources come
    from state kept along the walk: the last joint node (NextToken),
    `last_use` (NextUse) and the last decision node (NextExp). Child,
    NextSibling, Parent and InhToSyn edges come from the parent's list of
    children. NextExp edges are built exactly when NEXT_EXP is in the edge
    set. `key` is the node that scores the decision at `site`; `last_use`
    maps each variable to its context node (if any) until its first use,
    then to the joint node of its latest use.
    """

    def __init__(self, tree: PartialAst, ctx_vars, edge_set=PAPER_EDGE_TYPES,
                 labels: bool = True):
        self.ctx_vars = list(ctx_vars)
        self.edge_set = frozenset(edge_set)
        self.labels = labels
        self.include_syn = bool(self.edge_set & {PARENT, NEXT_SIBLING, INH_TO_SYN})
        self.nodes: list[AttrNode] = []
        self.columns: list[list[int]] = [[], [], [], [], []]
        self.aid_of: dict[tuple, int] = {}
        self._add_node("inh", tree.root, tree.grammar.start)  # the walk starts in the root
        for name in self.ctx_vars:
            self._add_node("ctx", name, name)
        self.last_use = {name: self.aid_of[("ctx", name)] for name in self.ctx_vars}
        self._last_token = None
        self._last_decision = self.aid_of[("inh", tree.root)]
        super().__init__(tree)

    def copy(self) -> "GraphBuilder":
        b = super().copy()
        b.nodes = list(self.nodes)
        b.columns = [list(c) for c in self.columns]
        b.aid_of = dict(self.aid_of)
        b.last_use = dict(self.last_use)
        return b

    def settle(self):
        """Resume the walk up to the next open site, adding every attribute
        node it passed, in generation order. Returns the AttrNodes created by
        this call; their in-edges are the tail of the columns."""
        return [self._emit(flavor, node, kind) for flavor, node, kind in super().settle()
                if flavor != "syn" or self.include_syn]

    @property
    def key(self):
        """The node that scores the decision at `site`: the site's inherited
        node, or for a terminal slot its parent's; None once complete."""
        if self.site is None:
            return None
        node = self.tree.nodes[self.site]
        slot = self.tree.grammar.symbols[node.label].kind is not Kind.NONTERMINAL
        return self.aid_of[("inh", node.parent if slot else node.nid)]

    # -- node/edge creation ------------------------------------------------

    def _add_node(self, flavor, origin, label):
        aid = len(self.nodes)
        self.nodes.append(AttrNode(aid, flavor, origin, label))
        self.aid_of[(flavor, origin)] = aid
        return aid

    def _src(self, nid):
        """The attribute node that stands for a finished AST node as an edge
        source: its synthesized node, or a terminal's joint node."""
        kind = self.tree.grammar.symbols[self.tree.nodes[nid].label].kind
        return self.aid_of[("syn" if kind is Kind.NONTERMINAL else "joint", nid)]

    def _edge(self, src, etype, tgt, pid=-1, child=-1):
        s, t, e, p, c = self.columns
        s.append(src), t.append(tgt), e.append(ETYPE_CODE[etype]), p.append(pid), c.append(child)

    def _emit(self, flavor, node, kind):
        """Add one attribute node of `node` with all its in-edges."""
        label = node.binding if flavor == "joint" and kind is not Kind.FIXED else node.label
        tgt = self._add_node(flavor, node.nid, label)
        wanted, edge = self.edge_set, self._edge
        if flavor == "syn":
            if PARENT in wanted:
                for c in node.children:
                    edge(self._src(c), PARENT, tgt)
            if INH_TO_SYN in wanted:
                edge(self.aid_of[("inh", node.nid)], INH_TO_SYN, tgt)
        else:
            parent = self.tree.nodes[node.parent]
            i = parent.children.index(node.nid)
            if CHILD in wanted:
                lab = (parent.prod_id, i) if self.labels else (-1, -1)
                edge(self.aid_of[("inh", parent.nid)], CHILD, tgt, *lab)
            if flavor == "joint":
                if NEXT_TOKEN in wanted and self._last_token is not None:
                    edge(self._last_token, NEXT_TOKEN, tgt)
                self._last_token = tgt
                if kind is Kind.VARIABLE:
                    if NEXT_USE in wanted and node.binding in self.last_use:
                        edge(self.last_use[node.binding], NEXT_USE, tgt)
                    self.last_use[node.binding] = tgt
            if NEXT_SIBLING in wanted and i > 0:
                edge(self._src(parent.children[i - 1]), NEXT_SIBLING, tgt)
            if NEXT_EXP in wanted and kind is not Kind.FIXED:  # a decision node
                edge(self._last_decision, NEXT_EXP, tgt)
                self._last_decision = tgt
        return self.nodes[tgt]

    # -- finished graph ----------------------------------------------------

    def graph(self) -> AttributeGraph:
        ctx = {name: self.aid_of[("ctx", name)] for name in self.ctx_vars}
        comp = {"offset": 0, "n": len(self.nodes), "root_inh": 0, "ctx": ctx}
        cols = np.array(self.columns, np.int64)
        return AttributeGraph(list(self.nodes), cols[0], cols[1], cols[2], cols[3:].T, [comp])


def augment_full_tree(t: PartialAst, ctx_vars, edge_set=PAPER_EDGE_TYPES,
                      labels: bool = True) -> AttributeGraph:
    """One-shot augmentation of a complete tree."""
    b = GraphBuilder(t, ctx_vars, edge_set=edge_set, labels=labels)
    if b.site is not None:
        raise GraphError("tree is not complete")
    return b.graph()


# ---------------------------------------------------------------------------
# Schedules and batching

def propagation_schedule(src, tgt, n: int) -> list[int]:
    """The round of each of n nodes under longest-path layering, in one
    forward pass over the edge arrays (src, tgt) in target order: a node's
    round is one more than its latest predecessor's, 0 without any."""
    rounds = [0] * n
    last = 0
    for s, t in zip(src.tolist(), tgt.tolist()):
        if not s < t >= last:
            raise GraphError(f"edge {s} -> {t} does not point forward in target order")
        last = t
        if rounds[s] >= rounds[t]:
            rounds[t] = rounds[s] + 1
    return rounds


def batch_graphs(graphs: list[AttributeGraph]) -> AttributeGraph:
    """Merge graphs into one disconnected graph: the edge arrays concatenated
    with node offsets."""
    offsets = [0, *accumulate(len(gr.nodes) for gr in graphs)]
    components = [{"offset": c["offset"] + off, "n": c["n"], "root_inh": c["root_inh"] + off,
                   "ctx": {k: v + off for k, v in c["ctx"].items()}}
                  for gr, off in zip(graphs, offsets) for c in gr.components]
    shift = np.repeat(offsets[:-1], [len(gr.src) for gr in graphs])
    return AttributeGraph(
        list(chain.from_iterable(gr.nodes for gr in graphs)),
        np.concatenate([gr.src for gr in graphs]) + shift,
        np.concatenate([gr.tgt for gr in graphs]) + shift,
        np.concatenate([gr.etype for gr in graphs]),
        np.concatenate([gr.label for gr in graphs]), components)


# ---------------------------------------------------------------------------
# Export

_DOT_STYLE = {
    CHILD: 'color="red"',
    PARENT: 'color="green"',
    NEXT_SIBLING: 'color="black"',
    NEXT_USE: 'color="orange"',
    NEXT_TOKEN: 'color="blue"',
    INH_TO_SYN: 'color="gray" style="dashed"',
    NEXT_EXP: 'color="purple" style="dotted"',
}


def _dot_string(text: str) -> str:
    """`text` as one DOT quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(gr: AttributeGraph) -> str:
    lines = ["digraph attrgraph {"]
    for nd in gr.nodes:
        lines.append(f"  n{nd.aid} [label={_dot_string(f'{nd.aid}:{nd.flavor}:{nd.label}')}];")
    for e in sorted(gr.edges, key=lambda e: ETYPE_CODE[e.etype]):
        label = e.etype if e.label is None else f"{e.etype}{e.label}"
        lines.append(f"  n{e.src} -> n{e.tgt} [{_DOT_STYLE[e.etype]} label={_dot_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

