"""Partial ASTs: grammar-driven expansion, the generation-order walk and
decision sequences.

A decision (apply_production/bind_terminal) updates a PartialAst's node list
in place, but never changes an AstNode: it puts a new node at the site and
appends any new children. So a copy is a new list of the same nodes, and
beam hypotheses share every node that their decisions left alone (path
copying). Read nodes through `tree.nodes[nid]`; an AstNode held across a
decision may be stale.
"""

from __future__ import annotations

import re
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
        t.nodes = list(self.nodes)
        t.history = list(self.history)
        return t

    def node(self, nid: int) -> AstNode:
        if not 0 <= nid < len(self.nodes):
            raise SyntaxError_(f"unknown node {nid}")
        return self.nodes[nid]

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


def apply_production(a: PartialAst, v: int, p: Production) -> PartialAst:
    node = a.node(v)
    if node.prod_id is not None:
        raise SyntaxError_(f"node {v} already expanded")
    if a.grammar.symbols[node.label].kind is not Kind.NONTERMINAL:
        raise SyntaxError_(f"node {v} is not a nonterminal")
    if p.lhs != node.label:
        raise SyntaxError_(f"lhs mismatch: {p.lhs} vs node label {node.label}")
    first = len(a.nodes)
    a.nodes[v] = AstNode(v, node.label, node.parent, list(range(first, first + len(p.rhs))),
                         prod_id=p.pid)
    a.nodes += [AstNode(first + i, sym, v) for i, sym in enumerate(p.rhs)]
    a.history.append(("P", v, p.pid))
    return a


def bind_terminal(a: PartialAst, v: int, spelling: str) -> PartialAst:
    node = a.node(v)
    sym = a.grammar.symbols[node.label]
    if sym.kind not in (Kind.VARIABLE, Kind.LITERAL):
        raise SyntaxError_(f"node {v} ({node.label}) is not bindable")
    if node.binding is not None:
        raise SyntaxError_(f"node {v} already bound")
    a.nodes[v] = AstNode(v, node.label, node.parent, binding=spelling)
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
# Generation order

# phases of an AST node on the walk stack: not yet visited; entered, its
# children come once it is expanded; its children are done
_ENTER, _EXPAND, _EXIT = range(3)


class Walk:
    """The generation order of a partial AST: a depth-first walk, started
    inside the root, that keeps its stack between calls and stops at each
    open site. `site` is the left-most, bottom-most open node (an unexpanded
    nonterminal or an unbound variable/literal slot), None once complete.
    """

    def __init__(self, tree: PartialAst):
        self.tree = tree
        self._stack = [(tree.root, _EXPAND)]
        self.settle()

    def copy(self) -> "Walk":
        """An independent walk over an independent tree copy (beam branching)."""
        w = object.__new__(type(self))
        w.__dict__.update(self.__dict__)
        w.tree = self.tree.copy()
        w._stack = list(self._stack)
        return w

    def settle(self) -> list:
        """Resume the walk up to the next open site and set `site`. Returns
        the (flavor, node, kind) of each step passed, in order: "inh" entering
        a nonterminal, "syn" leaving one, "joint" passing a filled terminal."""
        tree, stack, passed = self.tree, self._stack, []
        while stack:
            nid, phase = stack[-1]
            node = tree.nodes[nid]
            kind = tree.grammar.symbols[node.label].kind
            if phase == _ENTER and kind is Kind.NONTERMINAL:
                stack[-1] = (nid, _EXPAND)
                passed.append(("inh", node, kind))
            elif phase == _EXPAND:
                if node.prod_id is None:
                    break
                stack[-1] = (nid, _EXIT)
                stack.extend((c, _ENTER) for c in reversed(node.children))
            elif phase == _EXIT:
                stack.pop()
                passed.append(("syn", node, kind))
            elif kind is Kind.FIXED or node.binding is not None:
                stack.pop()
                passed.append(("joint", node, kind))
            else:
                break
        self.site = stack[-1][0] if stack else None
        return passed

    def decide(self, kind: str, arg):
        """Make decision `kind` ("P" production id, "V" variable, "L" literal
        spelling) at `site` and settle; returns what `settle` returns."""
        if kind == "P":
            apply_production(self.tree, self.site, self.tree.grammar.productions[arg])
        else:
            bind_terminal(self.tree, self.site, arg)
        return self.settle()


# ---------------------------------------------------------------------------
# Serialization

class MalformedSequenceError(Exception):
    pass


def serialize_tokens(t: PartialAst) -> list[str]:
    """Left-to-right terminal spellings of a complete tree."""
    if Walk(t).site is not None:
        raise SyntaxError_("tree is not complete")
    out = []
    for nid in t.leaves():
        n = t.nodes[nid]
        sym = t.grammar.symbols[n.label]
        out.append(n.label if sym.kind is Kind.FIXED else n.binding)
    return out


_SPACE_RE = re.compile(r"\s")


def record(kind: str, *args: str) -> str:
    """One decision record: P<id>, V<name> or L<class>:<spelling>."""
    return kind + ":".join(args)


def recordable(spelling: str) -> bool:
    """Whether a variable or literal spelling fits in a record: records are
    whitespace-separated, so a spelling that holds whitespace does not."""
    return _SPACE_RE.search(spelling) is None


def serialize_decisions(t: PartialAst) -> str:
    """Whitespace-separated decision records of t's history."""
    return " ".join(record(dec[0], *map(str, dec[2:])) for dec in t.history)


def read_decisions(seq: str, walk: Walk):
    """Each record of a decision string as the (kind, arg) that `walk.decide`
    takes, checked against the walk's site (a production of its nonterminal,
    a variable slot, a literal slot of the record's class); the caller makes
    each decision before the next is read. Raises MalformedSequenceError."""
    records = seq.split()
    if not records:
        raise MalformedSequenceError("empty decision sequence")
    g = walk.tree.grammar
    for i, rec in enumerate(records):
        if walk.site is None:
            raise MalformedSequenceError(f"record {i}: tree already complete")
        label = walk.tree.nodes[walk.site].label
        sym, kind, text = g.symbols[label], rec[0], rec[1:]
        if kind == "P":
            try:
                arg = int(text)
            except ValueError:
                arg = -1
            fits = 0 <= arg < len(g.productions) and g.productions[arg].lhs == label
        elif kind == "V":
            arg, fits = text, sym.kind is Kind.VARIABLE
        else:
            cls, sep, arg = text.partition(":")
            fits = kind == "L" and sep and sym.kind is Kind.LITERAL and sym.lit_class == cls
        if not fits:
            raise MalformedSequenceError(f"record {i}: {rec!r} is no decision at a {label} site")
        yield kind, arg
    if walk.site is not None:
        raise MalformedSequenceError("decision sequence leaves the tree incomplete")


def deserialize_decisions(seq: str, g: Grammar) -> PartialAst:
    walk = Walk(new_partial_ast(g))
    for kind, arg in read_decisions(seq, walk):
        walk.decide(kind, arg)
    return walk.tree
