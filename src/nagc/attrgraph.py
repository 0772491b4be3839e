"""Attribute graphs: deterministic augmentation of partial ASTs.

Every nonterminal AST node owns an inherited and a synthesized attribute node,
every terminal a single joint node, and every context variable one source
node. Edges are a pure function of the tree, so the graph can be grown
incrementally during decoding or built in one shot from a complete tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import Kind
from .syntax import PartialAst, last_sibling, last_token, last_use

CHILD = "Child"
PARENT = "Parent"
NEXT_SIBLING = "NextSibling"
NEXT_USE = "NextUse"
NEXT_TOKEN = "NextToken"
INH_TO_SYN = "InhToSyn"
NEXT_EXP = "NextExp"

PAPER_EDGE_TYPES = (CHILD, PARENT, NEXT_SIBLING, NEXT_USE, NEXT_TOKEN, INH_TO_SYN)
ALL_EDGE_TYPES = PAPER_EDGE_TYPES + (NEXT_EXP,)


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class AttrNode:
    aid: int
    flavor: str  # inh | syn | joint | ctx
    origin: int | str  # AST node id, or context variable name
    label: str


@dataclass(frozen=True)
class Edge:
    src: int
    etype: str
    tgt: int
    label: tuple[int, int] | None = None  # (production id, child index), Child only


@dataclass
class AttributeGraph:
    nodes: list[AttrNode]
    edges: list[Edge]
    schedule: list[list[int]]
    components: list[dict]  # offset, n, root_inh, ctx{name: aid}, inh/syn/joint{nid: aid}

    def in_edges(self, aid: int) -> list[Edge]:
        return [e for e in self.edges if e.tgt == aid]

    def sources(self) -> list[int]:
        with_in = {e.tgt for e in self.edges}
        return [n.aid for n in self.nodes if n.aid not in with_in]


def emission_order(a: PartialAst, include_syn: bool = True):
    """Attribute refs in generation order; stops at the first open site.

    The prefix grows monotonically as the tree is expanded, and on a complete
    tree it covers every attribute node, so incremental decoding and one-shot
    augmentation assign identical ids.
    """
    out: list[tuple[str, int]] = []
    blocked = [False]

    def walk(nid):
        if blocked[0]:
            return
        node = a.nodes[nid]
        kind = a.grammar.symbols[node.label].kind
        if kind is Kind.NONTERMINAL:
            out.append(("inh", nid))
            if node.prod_id is None:
                blocked[0] = True
                return
            for c in node.children:
                walk(c)
                if blocked[0]:
                    return
            if include_syn:
                out.append(("syn", nid))
        elif kind is Kind.FIXED:
            out.append(("joint", nid))
        elif node.binding is None:
            blocked[0] = True
        else:
            out.append(("joint", nid))

    walk(a.root)
    return out


class GraphBuilder:
    """Grows the attribute graph of a (partial) tree under a decoder edge set."""

    def __init__(self, tree: PartialAst, ctx_vars, edge_set=PAPER_EDGE_TYPES,
                 labels: bool = True, next_exp: bool = False):
        self.tree = tree
        self.ctx_vars = list(ctx_vars)
        self.edge_set = frozenset(edge_set) | ({NEXT_EXP} if next_exp else frozenset())
        self.labels = labels
        self.next_exp = next_exp
        self.include_syn = bool(
            self.edge_set & {PARENT, NEXT_SIBLING, INH_TO_SYN}
        )
        self.nodes: list[AttrNode] = []
        self.edges: list[Edge] = []
        self.aid_of: dict[tuple, int] = {}
        self._done = 0  # emitted refs already materialized (excluding ctx nodes)
        self._add_node(("inh", tree.root), tree.grammar.start)
        for name in self.ctx_vars:
            self._add_node(("ctx", name), name)
        self._done = 1  # root inh counts as emitted

    def copy(self) -> "GraphBuilder":
        """Independent builder over an independent tree copy (beam branching)."""
        b = GraphBuilder.__new__(GraphBuilder)
        b.tree = self.tree.copy()
        b.ctx_vars = list(self.ctx_vars)
        b.edge_set = self.edge_set
        b.labels = self.labels
        b.next_exp = self.next_exp
        b.include_syn = self.include_syn
        b.nodes = list(self.nodes)
        b.edges = list(self.edges)
        b.aid_of = dict(self.aid_of)
        b._done = self._done
        return b

    # -- node/edge creation ------------------------------------------------

    def _add_node(self, ref, label):
        aid = len(self.nodes)
        flavor = ref[0]
        self.nodes.append(AttrNode(aid, flavor, ref[1], label))
        self.aid_of[ref] = aid
        return aid

    def _label_for(self, ref):
        flavor, nid = ref
        node = self.tree.nodes[nid]
        sym = self.tree.grammar.symbols[node.label]
        if flavor in ("inh", "syn") or sym.kind is Kind.FIXED:
            return node.label
        return node.binding

    def settle(self):
        """Materialize every newly computable attribute node, in order.

        Returns the list of (aid, ref) pairs created by this call.
        """
        order = emission_order(self.tree, self.include_syn)
        created = []
        for ref in order[self._done:]:
            aid = self._add_node(ref, self._label_for(ref))
            self.edges.extend(compute_edges(self, ref))
            created.append((aid, ref))
        self._done = len(order)
        return created

    # -- finished graph ----------------------------------------------------

    def graph(self) -> AttributeGraph:
        comp = {
            "offset": 0,
            "n": len(self.nodes),
            "root_inh": 0,
            "ctx": {name: self.aid_of[("ctx", name)] for name in self.ctx_vars},
            "inh": {r[1]: a for r, a in self.aid_of.items() if r[0] == "inh"},
            "syn": {r[1]: a for r, a in self.aid_of.items() if r[0] == "syn"},
            "joint": {r[1]: a for r, a in self.aid_of.items() if r[0] == "joint"},
        }
        gr = AttributeGraph(list(self.nodes), list(self.edges), [], [comp])
        gr.schedule = propagation_schedule(gr)
        return gr


def _attr_of(tree, builder, nid):
    """The attribute node that represents nid as an edge source."""
    kind = tree.grammar.symbols[tree.nodes[nid].label].kind
    if kind is Kind.NONTERMINAL:
        return builder.aid_of.get(("syn", nid))
    return builder.aid_of.get(("joint", nid))


def _is_decision_ref(tree, ref):
    flavor, nid = ref
    kind = tree.grammar.symbols[tree.nodes[nid].label].kind
    if flavor == "inh":
        return kind is Kind.NONTERMINAL
    if flavor == "joint":
        return kind in (Kind.VARIABLE, Kind.LITERAL)
    return False


def compute_edges(builder: GraphBuilder, ref) -> list[Edge]:
    """All in-edges of one attribute node, per the deterministic edge rules.

    The root inherited node and context nodes are encoder-initialized and must
    not be passed.
    """
    tree = builder.tree
    flavor, nid = ref
    if ref == ("inh", tree.root):
        raise GraphError("root inherited node has no computed edges")
    if flavor == "ctx":
        raise GraphError("context nodes have no in-edges")
    if nid >= len(tree.nodes):
        raise GraphError(f"unknown AST node {nid}")
    node = tree.nodes[nid]
    sym = tree.grammar.symbols[node.label]
    tgt = builder.aid_of[ref]
    wanted = builder.edge_set
    edges: list[Edge] = []

    if flavor in ("inh", "joint"):
        if CHILD in wanted:
            parent = tree.nodes[node.parent]
            lab = None
            if builder.labels:
                lab = (parent.prod_id, parent.children.index(nid))
            edges.append(Edge(builder.aid_of[("inh", node.parent)], CHILD, tgt, lab))
        if flavor == "joint":
            if NEXT_TOKEN in wanted:
                tok = last_token(tree, nid)
                if tok is not None:
                    edges.append(Edge(_attr_of(tree, builder, tok), NEXT_TOKEN, tgt))
            if NEXT_USE in wanted and sym.kind is Kind.VARIABLE:
                use = last_use(tree, nid, builder.ctx_vars)
                if use is not None:
                    src = (
                        builder.aid_of[("ctx", use[1])]
                        if use[0] == "ctx"
                        else builder.aid_of[("joint", use[1])]
                    )
                    edges.append(Edge(src, NEXT_USE, tgt))
        if NEXT_SIBLING in wanted:
            sib = last_sibling(tree, nid)
            if sib is not None:
                edges.append(Edge(_attr_of(tree, builder, sib), NEXT_SIBLING, tgt))
    else:  # synthesized
        if PARENT in wanted:
            for c in node.children:
                edges.append(Edge(_attr_of(tree, builder, c), PARENT, tgt))
        if INH_TO_SYN in wanted:
            edges.append(Edge(builder.aid_of[("inh", nid)], INH_TO_SYN, tgt))

    if builder.next_exp and _is_decision_ref(tree, ref):
        order = emission_order(tree, builder.include_syn)
        pos = order.index(ref)
        for prev in reversed(order[:pos]):
            if _is_decision_ref(tree, prev):
                edges.append(Edge(builder.aid_of[prev], NEXT_EXP, tgt))
                break
    return edges


def augment_full_tree(t: PartialAst, ctx_vars, edge_set=PAPER_EDGE_TYPES,
                      labels: bool = True, next_exp: bool = False) -> AttributeGraph:
    """One-shot augmentation of a complete tree."""
    if not t.is_complete():
        raise GraphError("tree is not complete")
    b = GraphBuilder(t, ctx_vars, edge_set=edge_set, labels=labels, next_exp=next_exp)
    b.settle()
    return b.graph()


# ---------------------------------------------------------------------------
# Schedules and batching

def propagation_schedule(gr: AttributeGraph) -> list[list[int]]:
    """Kahn layering: round r holds nodes whose predecessors all lie in
    rounds < r. Ties broken by ascending node id."""
    n = len(gr.nodes)
    indeg = [0] * n
    out: dict[int, list[int]] = {}
    for e in gr.edges:
        indeg[e.tgt] += 1
        out.setdefault(e.src, []).append(e.tgt)
    current = sorted(a for a in range(n) if indeg[a] == 0)
    rounds = []
    seen = 0
    while current:
        rounds.append(current)
        seen += len(current)
        nxt = set()
        for a in current:
            for b in out.get(a, ()):
                indeg[b] -= 1
                if indeg[b] == 0:
                    nxt.add(b)
        current = sorted(nxt)
    if seen != n:
        raise GraphError("cycle detected in attribute graph")
    return rounds


def batch_graphs(graphs: list[AttributeGraph]) -> AttributeGraph:
    """Merge graphs into one disconnected graph; rounds merged index-wise."""
    nodes: list[AttrNode] = []
    edges: list[Edge] = []
    components = []
    schedule: list[list[int]] = []
    offset = 0
    for gr in graphs:
        for nd in gr.nodes:
            nodes.append(AttrNode(nd.aid + offset, nd.flavor, nd.origin, nd.label))
        for e in gr.edges:
            edges.append(Edge(e.src + offset, e.etype, e.tgt + offset, e.label))
        for r, rnd in enumerate(gr.schedule):
            if r >= len(schedule):
                schedule.append([])
            schedule[r].extend(a + offset for a in rnd)
        for comp in gr.components:
            components.append(
                {
                    "offset": comp["offset"] + offset,
                    "n": comp["n"],
                    "root_inh": comp["root_inh"] + offset,
                    "ctx": {k: v + offset for k, v in comp["ctx"].items()},
                    "inh": {k: v + offset for k, v in comp["inh"].items()},
                    "syn": {k: v + offset for k, v in comp["syn"].items()},
                    "joint": {k: v + offset for k, v in comp["joint"].items()},
                }
            )
        offset += len(gr.nodes)
    return AttributeGraph(nodes, edges, schedule, components)


def unbatch_graphs(gr: AttributeGraph) -> list[AttributeGraph]:
    out = []
    for comp in gr.components:
        lo, hi = comp["offset"], comp["offset"] + comp["n"]
        d = -lo
        nodes = [
            AttrNode(n.aid + d, n.flavor, n.origin, n.label)
            for n in gr.nodes
            if lo <= n.aid < hi
        ]
        edges = [
            Edge(e.src + d, e.etype, e.tgt + d, e.label)
            for e in gr.edges
            if lo <= e.tgt < hi
        ]
        schedule = []
        for rnd in gr.schedule:
            own = [a + d for a in rnd if lo <= a < hi]
            if own:
                schedule.append(own)
        shifted = {
            "offset": 0,
            "n": comp["n"],
            "root_inh": comp["root_inh"] + d,
            "ctx": {k: v + d for k, v in comp["ctx"].items()},
            "inh": {k: v + d for k, v in comp["inh"].items()},
            "syn": {k: v + d for k, v in comp["syn"].items()},
            "joint": {k: v + d for k, v in comp["joint"].items()},
        }
        out.append(AttributeGraph(nodes, edges, schedule, [shifted]))
    return out


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


def export_dot(gr: AttributeGraph) -> str:
    lines = ["digraph attrgraph {"]
    for nd in gr.nodes:
        lines.append(f'  n{nd.aid} [label="{nd.aid}:{nd.flavor}:{nd.label}"];')
    for etype in ALL_EDGE_TYPES:
        group = [e for e in gr.edges if e.etype == etype]
        for e in group:
            attrs = _DOT_STYLE[etype] + f' label="{etype}"'
            if e.label is not None:
                attrs = _DOT_STYLE[etype] + f' label="{etype}{e.label}"'
            lines.append(f"  n{e.src} -> n{e.tgt} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_edges(gr: AttributeGraph) -> str:
    """Line-oriented debug dump: `src etype tgt [label]`."""
    lines = []
    for e in gr.edges:
        line = f"{e.src} {e.etype} {e.tgt}"
        if e.label is not None:
            line += f" {e.label[0]},{e.label[1]}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
