"""Surface syntax for MiniExpr program files.

Covers tokenizing, parsing the small statement language (declarations,
assignments, if/while) into parse nodes, reading an expression node's grammar
decisions, precedence-aware rendering production by production, and building
the program graph used by the graph context encoder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .grammar import LITERAL_CLASSES, TYPES, Grammar, Kind, TypeCheckError, builtin_grammar, production_type
from .syntax import PartialAst, record, recordable

HOLE_TOKEN = "?HOLE?"

_TOKEN_RE = re.compile(
    r'"[^"\n]*"'
    r"|\?HOLE\?"
    r"|<=|>=|==|!=|&&|\|\|"
    r"|\d+"
    r"|[A-Za-z_]\w*"
    r"|[-+*%<>!=(){}\[\];:,.]"
)


class LangError(Exception):
    pass


MAX_NESTING = 100  # levels of sub-expressions and blocks the parser enters

_KEYWORDS = frozenset(("var", "if", "else", "while", "true", "false"))
_IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")


def is_identifier(name: str) -> bool:
    r"""Whether name can name a variable: `[A-Za-z_]\w*` and not a keyword."""
    return _IDENTIFIER_RE.fullmatch(name) is not None and name not in _KEYWORDS


def literal_class(tok: str) -> str | None:
    """The literal class a token spells ("int", "string" or "bool"), or None."""
    if tok.isdigit():
        return "int"
    if tok.startswith('"'):
        return "string"
    return "bool" if tok == "true" or tok == "false" else None


def tokenize(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    # the tokens spell the text without its whitespace unless a gap between
    # them holds more than whitespace or a token (a spaced string literal)
    # holds some; then the first gap that is not whitespace words the error
    if "".join(tokens) != "".join(text.split()):
        for gap in _TOKEN_RE.split(text):
            if gap.strip():
                raise LangError(f"cannot tokenize {gap.strip()!r}")
    return tokens


# ---------------------------------------------------------------------------
# Parse nodes

@dataclass(slots=True)
class Node:
    """One parse node. An expression's form is the grammar form it builds (a
    key of `Grammar.by_form`), a statement's its label: ("decl",),
    ("assign",), ("if",) or ("while",). parts are its sub-nodes in source
    order, span its (start, end) token range, and spelling the one token of a
    variable, literal or hole leaf."""

    form: tuple
    parts: list
    span: tuple
    spelling: str | None = None


_HOLE_FORM = (HOLE_TOKEN,)  # no grammar production builds a hole


@dataclass
class ExprSite:
    """A top-level expression occurrence eligible for extraction."""

    expr: object
    start: int
    end: int
    hole_type: str
    scope: dict  # name -> type, visible at the site


_PREC = {
    "||": 1, "&&": 2, "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "%": 6,
}
_UNARY_PREC = 7
_POSTFIX_PREC = 8
_ATOM_PREC = 9


def _postfix_rules(g: Grammar) -> dict:
    """The grammar's postfix productions, `Expr "[" ...` and `Expr "." Name
    ...`, by the tokens that pick one after its operand: ("[",) or (".",
    name). Each maps to its form and the rest of its rhs, in order: None for
    an operand, the token itself for a fixed one."""
    rules = {}
    for form, p in g.by_form.items():
        if form[0] == "." or form[0] == "[":
            key = form[:2] if form[0] == "." else form[:1]
            rest = p.rhs[1 + len(key):]  # after the operand and the key
            rules[key] = form, tuple(None if g.symbols[s].kind is Kind.NONTERMINAL else s for s in rest)
    return rules


_POSTFIX = _postfix_rules(builtin_grammar())


class Parser:
    def __init__(self, tokens: list[str]):
        self.toks = [*tokens, None]  # None past the end: a peek needs no bounds check
        self.pos = 0
        self.sites: list[ExprSite] = []
        self.scope: dict[str, str] = {}  # name -> type, visible here; a block works on a copy
        self.depth = 0
        self.peak = 0  # the deepest level reached by the left chain being parsed
        self.decls: dict[str, int] = {}  # declared name -> its first name token
        self.var_tokens: list[int] = []  # tokens that name a variable, in order

    # -- token helpers -----------------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        if t is None:
            raise LangError("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, tok):
        t = self.toks[self.pos]
        if t != tok:
            self.next()  # words the end of input
            raise LangError(f"expected {tok!r}, got {t!r} at token {self.pos - 1}")
        self.pos += 1

    def nested(self, parse, *args):
        """parse(*args) one nesting level deeper. Parentheses, `!`, index and
        call arguments, the right operand of a binary operator and if/while
        blocks each open a level, and so does each operator or postfix that
        extends a left chain (`chained`); past MAX_NESTING levels the input
        is refused, long before the interpreter's recursion limit."""
        if self.depth == MAX_NESTING:
            raise LangError(f"nested deeper than {MAX_NESTING}")
        self.depth += 1
        if self.depth > self.peak:
            self.peak = self.depth
        out = parse(*args)
        self.depth -= 1
        return out

    def chained(self):
        """An operator or postfix after a left chain's first nests the chain
        parsed so far, down to its deepest level, one level deeper."""
        self.peak += 1
        if self.peak > MAX_NESTING:
            raise LangError(f"nested deeper than {MAX_NESTING}")

    # -- statements --------------------------------------------------------

    def parse_program(self) -> list:
        stmts = []
        while self.peek() is not None:
            stmts.append(self.parse_stmt())
        return stmts

    def parse_block(self) -> list:
        self.expect("{")
        outer, self.scope = self.scope, dict(self.scope)
        stmts = []
        while self.peek() != "}":
            stmts.append(self.parse_stmt())
        self.expect("}")
        self.scope = outer
        return stmts

    def parse_stmt(self):
        start, toks = self.pos, self.toks
        t = toks[start]
        if t == "var":
            self.pos += 1
            name_index = self.pos
            name = self.next()
            if not is_identifier(name):
                raise LangError(f"declared name {name!r} is not an identifier")
            self.decls.setdefault(name, name_index)
            self.var_tokens.append(name_index)
            self.expect(":")
            ty = self.next()
            if ty not in LITERAL_CLASSES:
                raise LangError(f"unknown type {ty!r}")
            if toks[self.pos] == "[":
                self.pos += 1
                self.expect("]")
                ty += "[]"
                if ty not in TYPES:
                    raise LangError(f"unknown type {ty!r}")
            parts = []
            if toks[self.pos] == "=":
                self.pos += 1
                parts.append(self.record_site(ty))
            self.expect(";")
            self.scope[name] = ty
            return Node(("decl",), parts, (start, self.pos))
        if t == "if" or t == "while":
            self.pos += 1
            self.expect("(")
            parts = [self.record_site("bool")]
            self.expect(")")
            parts += self.nested(self.parse_block)
            if t == "if" and toks[self.pos] == "else":
                self.pos += 1
                parts += self.nested(self.parse_block)
            return Node((t,), parts, (start, self.pos))
        # assignment
        name = self.next()
        ty = self.scope.get(name)
        if ty is None:
            raise LangError(f"assignment to undeclared variable {name!r}")
        self.var_tokens.append(start)
        self.expect("=")
        expr = self.record_site(ty)
        self.expect(";")
        return Node(("assign",), [expr], (start, self.pos))

    def record_site(self, hole_type):
        scope = dict(self.scope)
        start = self.pos
        expr = self.parse_expr()
        if expr.form != _HOLE_FORM:
            self.sites.append(ExprSite(expr, start, self.pos, hole_type, scope))
        return expr

    # -- expressions (precedence climbing) ---------------------------------

    def parse_expr(self, min_prec=1):
        start, toks, outer = self.pos, self.toks, self.peak
        self.peak = self.depth  # this chain's own; the enclosing one's again on return
        first = left = self.parse_unary()
        while True:
            op = toks[self.pos]
            prec = _PREC.get(op)
            if prec is None or prec < min_prec:
                if outer > self.peak:
                    self.peak = outer
                return left
            if left is not first:
                self.chained()
            self.pos += 1
            right = self.nested(self.parse_expr, prec + 1)
            left = Node((op,), [left, right], (start, self.pos))

    def parse_unary(self):
        start = self.pos
        if self.toks[start] == "!":
            self.pos += 1
            operand = self.nested(self.parse_unary)
            return Node(("!",), [operand], (start, self.pos))
        return self.parse_postfix()

    def parse_postfix(self):
        start, toks = self.pos, self.toks
        first = e = self.parse_primary()
        while True:
            t = toks[self.pos]
            if t != "." and t != "[":
                return e
            if e is not first:
                self.chained()
            self.pos += 1
            key = (t, self.next()) if t == "." else (t,)
            rule = _POSTFIX.get(key)
            if rule is None:
                raise LangError(f"unknown method {key[1]!r}")
            form, rest = rule
            parts = [e]
            for tok in rest:
                if tok is None:
                    parts.append(self.nested(self.parse_expr))
                else:
                    self.expect(tok)
            e = Node(form, parts, (start, self.pos))

    def parse_primary(self):
        start = self.pos
        t = self.next()
        if t == "(":
            e = self.nested(self.parse_expr)
            self.expect(")")
            return e
        if t == HOLE_TOKEN:
            return Node(_HOLE_FORM, [], (start, self.pos), t)
        cls = literal_class(t)
        if cls is not None:
            return Node((Kind.LITERAL, cls), [], (start, self.pos), t)
        if is_identifier(t):
            self.var_tokens.append(start)
            return Node((Kind.VARIABLE, None), [], (start, self.pos), t)
        raise LangError(f"unexpected token {t!r} at {self.pos - 1}")


def parse_program(tokens: list[str]):
    """Returns (statement nodes, expression sites)."""
    p = Parser(tokens)
    stmts = p.parse_program()
    return stmts, p.sites


def parse_expression(tokens: list[str]):
    p = Parser(tokens)
    e = p.parse_expr()
    if p.peek() is not None:
        raise LangError(f"trailing tokens after expression: {p.peek()!r}")
    return e


# ---------------------------------------------------------------------------
# Parse nodes -> decisions

def expr_decisions(e: Node, g: Grammar, scope: dict) -> tuple[str, str]:
    """The decision records that derive expression node e, in generation
    order (each node's production, then a leaf's variable or literal, then
    its parts in source order), and e's type: a variable's from scope (name
    -> type, visible at e's site), a literal's its class, any other node's by
    its production's typing rule. Raises LangError for a form the grammar has
    no production for, for a spelling no record can hold, for a variable that
    scope does not hold and for operands no typing rule covers."""
    out, by_form = [], g.by_form

    def walk(n):
        p = by_form.get(n.form)
        if p is None:
            raise LangError(f"grammar has no production for {n.form!r}")
        out.append(record("P", str(p.pid)))
        if n.spelling is None:
            return production_type(g, p.pid, tuple([walk(part) for part in n.parts]))
        if not recordable(n.spelling):
            raise LangError(f"spelling {n.spelling!r} holds whitespace")
        kind, cls = n.form  # a variable or literal leaf's form
        if kind is Kind.LITERAL:
            out.append(record("L", cls, n.spelling))
            return cls
        ty = scope.get(n.spelling)
        if ty is None:
            raise LangError(f"variable {n.spelling!r} is not in scope")
        out.append(record("V", n.spelling))
        return ty

    try:
        ty = walk(e)
    except TypeCheckError as err:
        raise LangError(f"ill-typed expression: {err}") from None
    return " ".join(out), ty


# ---------------------------------------------------------------------------
# Rendering

def render_production(g: Grammar, pid: int, slots: list) -> tuple[list[str], int]:
    """Surface tokens and precedence of production pid over its slots, in rhs
    order: each a rendered sub-expression (tokens, precedence), or the
    spelling of the variable or literal that is a production's whole rhs. The
    fixed tokens come from the rhs. A slot at either end of the form is
    parenthesised when it binds more loosely than the form, the right operand
    of a binary form also when it binds as tightly; slots enclosed by fixed
    tokens never are."""
    rhs, fixed = g.productions[pid].rhs, g.fixed_tokens[pid]
    if not fixed:  # a lone slot, as in Expr -> Var
        (slot,) = slots
        return ([slot], _ATOM_PREC) if isinstance(slot, str) else slot
    binary = len(rhs) == 3 and fixed == (rhs[1],)
    prec = _PREC[fixed[0]] if binary else _UNARY_PREC if rhs[0] == fixed[0] else _POSTFIX_PREC
    toks, k = [], 0
    for i, s in enumerate(rhs):
        if s in fixed:
            toks.append(s)
            continue
        sub, sub_prec = slots[k]
        k += 1
        last = i == len(rhs) - 1
        if (i == 0 or last) and (sub_prec < prec or binary and last and sub_prec == prec):
            sub = ["(", *sub, ")"]
        toks += sub
    return toks, prec


def render_tree_tokens(tree: PartialAst) -> list[str]:
    """Surface tokens (with disambiguating parentheses) of a complete tree."""
    g = tree.grammar

    def walk(node):
        kids = [tree.nodes[c] for c in node.children]
        slots = [walk(k) if g.symbols[k.label].kind is Kind.NONTERMINAL else k.binding
                 for k in kids if g.symbols[k.label].kind is not Kind.FIXED]
        return render_production(g, node.prod_id, slots)

    return walk(tree.nodes[tree.root])[0]


# ---------------------------------------------------------------------------
# Program graphs for the context encoder

def _graph_label(form: tuple) -> str:
    """A program graph's label of an internal node of this form: its tokens
    joined, a method call's its name alone (".Substring", not ".Substring(,)")."""
    return "".join(form[:2] if form[0] == "." else form)


# Labels of the program graph's internal nodes that are not surface tokens, in
# the order of their rows in a graph encoder's node embedding: the statements',
# then the postfix productions' in grammar order.
INTERNAL_LABELS = (
    "program", "decl", "assign", "if", "while",
    *(_graph_label(form) for form, _ in _POSTFIX.values()),
)


# The program graph's edge types; an edge's etype indexes this tuple.
PROGRAM_EDGE_TYPES = ("Child", "NextToken", "LastUse")


@dataclass
class ProgramGraph:
    """Node i < len(tokens) is token i; the internal nodes follow. The edges
    are int64 (src, tgt, etype) arrays sorted by etype, each type's edges in
    the order they were built. LastUse edges join only tokens that name a
    variable."""

    labels: list[str]  # per node
    src: np.ndarray
    tgt: np.ndarray
    etype: np.ndarray
    hole_node: int | None
    decl_nodes: dict[str, int]  # variable name -> its first declaration's name token


def program_graph(tokens: list[str]) -> ProgramGraph:
    """Graph over the program text: one node per token, one internal node per
    statement and per expression that is not a single token. Child edges join
    each internal node to its parts and loose tokens in span order, NextToken
    edges each token to the next, and LastUse edges each token that names a
    declared variable (a declared name, an assignment target or a variable
    operand, never a member or type name) to the next naming the same
    variable (names in sorted order)."""
    p = Parser(tokens)
    stmts = p.parse_program()
    labels = list(tokens)
    child_src: list[int] = []
    child_tgt: list[int] = []

    def build(node):
        if node.spelling is not None:  # a leaf is its own token
            return node.span[0]
        labels.append(_graph_label(node.form))
        me = len(labels) - 1
        kids = [build(part) for part in node.parts]
        pos, hi = node.span
        for part, kid in zip(node.parts, kids):
            child_tgt.extend(range(pos, part.span[0]))
            child_tgt.append(kid)
            pos = part.span[1]
        child_tgt.extend(range(pos, hi))
        child_src.extend([me] * (len(child_tgt) - len(child_src)))  # the targets just added
        return me

    labels.append("program")
    root = len(labels) - 1
    for s in stmts:
        child_tgt.append(build(s))
        child_src.append(root)

    occurrences = {name: [] for name in sorted(p.decls)}
    for i in p.var_tokens:
        if tokens[i] in occurrences:
            occurrences[tokens[i]].append(i)
    n = len(tokens)
    edges = [  # (src, tgt) of each type, in PROGRAM_EDGE_TYPES order
        (child_src, child_tgt),
        (np.arange(n - 1), np.arange(1, n)),
        ([i for occ in occurrences.values() for i in occ[:-1]],
         [i for occ in occurrences.values() for i in occ[1:]]),
    ]
    src, tgt = (np.concatenate([np.asarray(e[k], dtype=np.int64) for e in edges]) for k in (0, 1))
    etype = np.repeat(np.arange(len(edges)), [len(e[0]) for e in edges])
    hole = tokens.index(HOLE_TOKEN) if HOLE_TOKEN in tokens else None
    return ProgramGraph(labels, src, tgt, etype, hole, p.decls)
