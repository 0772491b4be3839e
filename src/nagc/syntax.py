"""Partial ASTs: grammar-driven expansion, frontier order and decision sequences.

A PartialAst is updated in place by apply_production/bind_terminal; beam search
branches by copying first, so no tree is ever shared between hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grammar import Grammar, Kind, Production


class SyntaxError_(Exception):
    pass


@dataclass
class AstNode:
    nid: int
    label: str
    parent: int | None
    children: list[int] = field(default_factory=list)
    binding: str | None = None
    prod_id: int | None = None  # production applied at this node, if any


class PartialAst:
    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.nodes: list[AstNode] = [AstNode(0, grammar.start, None)]
        self.root = 0
        self.history: list[tuple] = []

    # -- construction ------------------------------------------------------

    def copy(self) -> "PartialAst":
        t = PartialAst.__new__(PartialAst)
        t.grammar = self.grammar
        t.root = self.root
        t.nodes = [
            AstNode(n.nid, n.label, n.parent, list(n.children), n.binding, n.prod_id)
            for n in self.nodes
        ]
        t.history = list(self.history)
        return t

    def node(self, nid: int) -> AstNode:
        if not 0 <= nid < len(self.nodes):
            raise SyntaxError_(f"unknown node {nid}")
        return self.nodes[nid]

    def is_unexpanded_nonterminal(self, nid: int) -> bool:
        n = self.nodes[nid]
        return self.grammar.symbols[n.label].kind is Kind.NONTERMINAL and n.prod_id is None

    def is_unbound_terminal(self, nid: int) -> bool:
        n = self.nodes[nid]
        kind = self.grammar.symbols[n.label].kind
        return kind in (Kind.VARIABLE, Kind.LITERAL) and n.binding is None

    def is_complete(self) -> bool:
        return next_expansion_site(self) is None

    # -- traversal ---------------------------------------------------------

    def preorder(self):
        stack = [self.root]
        while stack:
            nid = stack.pop()
            yield nid
            stack.extend(reversed(self.nodes[nid].children))

    def leaves(self):
        """Leaf node ids in left-to-right order (terminals and unexpanded nts)."""
        return [nid for nid in self.preorder() if not self.nodes[nid].children]


def new_partial_ast(g: Grammar) -> PartialAst:
    return PartialAst(g)


def next_expansion_site(a: PartialAst):
    """Left-most, bottom-most open site: an unexpanded nonterminal or an
    unbound variable/literal slot; None when the tree is complete."""
    for nid in a.preorder():
        if a.is_unexpanded_nonterminal(nid) or a.is_unbound_terminal(nid):
            return nid
    return None


def apply_production(a: PartialAst, v: int, p: Production) -> PartialAst:
    node = a.node(v)
    if node.prod_id is not None:
        raise SyntaxError_(f"node {v} already expanded")
    if a.grammar.symbols[node.label].kind is not Kind.NONTERMINAL:
        raise SyntaxError_(f"node {v} is not a nonterminal")
    if p.lhs != node.label:
        raise SyntaxError_(f"lhs mismatch: {p.lhs} vs node label {node.label}")
    node.prod_id = p.pid
    for sym in p.rhs:
        child = AstNode(len(a.nodes), sym, v)
        a.nodes.append(child)
        node.children.append(child.nid)
    a.history.append(("P", v, p.pid))
    return a


def bind_terminal(a: PartialAst, v: int, spelling: str) -> PartialAst:
    node = a.node(v)
    sym = a.grammar.symbols[node.label]
    if sym.kind not in (Kind.VARIABLE, Kind.LITERAL):
        raise SyntaxError_(f"node {v} ({node.label}) is not bindable")
    if node.binding is not None:
        raise SyntaxError_(f"node {v} already bound")
    node.binding = spelling
    if sym.kind is Kind.VARIABLE:
        a.history.append(("V", v, spelling))
    else:
        a.history.append(("L", v, sym.lit_class, spelling))
    return a


def trees_equal(a: PartialAst, b: PartialAst) -> bool:
    if len(a.nodes) != len(b.nodes):
        return False
    return all(
        (x.label, x.parent, x.children, x.binding, x.prod_id)
        == (y.label, y.parent, y.children, y.binding, y.prod_id)
        for x, y in zip(a.nodes, b.nodes)
    )


# ---------------------------------------------------------------------------
# Serialization

class MalformedSequenceError(Exception):
    pass


def serialize_tokens(t: PartialAst) -> list[str]:
    """Left-to-right terminal spellings of a complete tree."""
    if not t.is_complete():
        raise SyntaxError_("tree is not complete")
    out = []
    for nid in t.leaves():
        n = t.nodes[nid]
        sym = t.grammar.symbols[n.label]
        out.append(n.label if sym.kind is Kind.FIXED else n.binding)
    return out


def serialize_decisions(t: PartialAst) -> str:
    """Whitespace-separated decision records: P<id>, V<name>, L<class>:<spelling>."""
    parts = []
    for dec in t.history:
        if dec[0] == "P":
            parts.append(f"P{dec[2]}")
        elif dec[0] == "V":
            parts.append(f"V{dec[2]}")
        else:
            parts.append(f"L{dec[2]}:{dec[3]}")
    return " ".join(parts)


def deserialize_decisions(seq: str, g: Grammar) -> PartialAst:
    records = seq.split()
    if not records:
        raise MalformedSequenceError("empty decision sequence")
    a = new_partial_ast(g)
    for i, rec in enumerate(records):
        site = next_expansion_site(a)
        if site is None:
            raise MalformedSequenceError(f"record {i}: tree already complete")
        if rec.startswith("P"):
            try:
                pid = int(rec[1:])
            except ValueError:
                raise MalformedSequenceError(f"record {i}: bad production id {rec!r}") from None
            if not 0 <= pid < len(g.productions):
                raise MalformedSequenceError(f"record {i}: production {pid} out of range")
            if not a.is_unexpanded_nonterminal(site):
                raise MalformedSequenceError(f"record {i}: site is not a nonterminal")
            try:
                apply_production(a, site, g.productions[pid])
            except SyntaxError_ as e:
                raise MalformedSequenceError(f"record {i}: {e}") from None
        elif rec.startswith("V"):
            if not a.is_unbound_terminal(site):
                raise MalformedSequenceError(f"record {i}: site is not bindable")
            if g.symbols[a.nodes[site].label].kind is not Kind.VARIABLE:
                raise MalformedSequenceError(f"record {i}: site is not a variable slot")
            bind_terminal(a, site, rec[1:])
        elif rec.startswith("L"):
            cls, sep, spelling = rec[1:].partition(":")
            if not sep:
                raise MalformedSequenceError(f"record {i}: bad literal record {rec!r}")
            if not a.is_unbound_terminal(site):
                raise MalformedSequenceError(f"record {i}: site is not bindable")
            sym = g.symbols[a.nodes[site].label]
            if sym.kind is not Kind.LITERAL or sym.lit_class != cls:
                raise MalformedSequenceError(f"record {i}: literal class mismatch")
            bind_terminal(a, site, spelling)
        else:
            raise MalformedSequenceError(f"record {i}: unknown record {rec!r}")
    if not a.is_complete():
        raise MalformedSequenceError("decision sequence leaves the tree incomplete")
    return a
