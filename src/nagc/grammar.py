"""MiniExpr grammar: symbols, productions, literal vocabularies and type rules.

Grammars are immutable after construction and safe to share between threads;
their per-production indexes are built on first use, and two threads that race
to build one build equal copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

TYPES = ("int", "bool", "string", "int[]")
LITERAL_CLASSES = ("int", "string", "bool")

UNK_LITERAL = {
    "int": "<UNK:int>",
    "string": "<UNK:string>",
    "bool": "<UNK:bool>",
}


class Kind(Enum):
    NONTERMINAL = "nonterminal"
    FIXED = "fixed"
    VARIABLE = "variable"
    LITERAL = "literal"


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: Kind
    lit_class: str | None = None  # only for Kind.LITERAL


@dataclass(frozen=True)
class Production:
    pid: int
    lhs: str
    rhs: tuple[str, ...]


class GrammarError(Exception):
    pass


@dataclass(frozen=True)
class Grammar:
    symbols: dict[str, Symbol]
    productions: tuple[Production, ...]
    start: str
    literal_vocab: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        lhss = {p.lhs for p in self.productions}
        if self.start not in lhss:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        for name, sym in self.symbols.items():
            if sym.kind is Kind.NONTERMINAL and name not in lhss:
                raise GrammarError(f"nonterminal {name!r} has no production")
        for p in self.productions:
            if self.symbols[p.lhs].kind is not Kind.NONTERMINAL:
                raise GrammarError(f"lhs {p.lhs!r} is not a nonterminal")
            if not p.rhs:
                raise GrammarError(f"production {p.pid} has empty rhs")
        for cls, vocab in self.literal_vocab.items():
            if len(set(vocab)) != len(vocab):
                raise GrammarError(f"duplicate literal spelling in class {cls}")
            if vocab.count(UNK_LITERAL[cls]) != 1:
                raise GrammarError(f"class {cls} must contain UNK exactly once")

    def sym(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise GrammarError(f"unknown symbol {name!r}") from None

    def by_lhs(self, nt: str) -> list[Production]:
        return [p for p in self.productions if p.lhs == nt]

    @cached_property
    def fixed_tokens(self) -> tuple[tuple[str, ...], ...]:
        """Each production's fixed tokens in rhs order, indexed by pid."""
        return tuple(
            tuple(s for s in p.rhs if self.symbols[s].kind is Kind.FIXED) for p in self.productions
        )

    def form(self, p: Production) -> tuple:
        """What a production builds: a lone variable or literal slot is its
        `(kind, literal class)`, any other production its rhs's fixed tokens."""
        sym = self.symbols[p.rhs[0]]
        if len(p.rhs) == 1 and sym.kind in (Kind.VARIABLE, Kind.LITERAL):
            return (sym.kind, sym.lit_class)
        return self.fixed_tokens[p.pid]

    @cached_property
    def by_form(self) -> dict[tuple, Production]:
        return {self.form(p): p for p in self.productions}

    def with_literal_vocab(self, vocab: dict[str, tuple[str, ...]]) -> "Grammar":
        fixed = {}
        for cls in LITERAL_CLASSES:
            entries = list(vocab.get(cls, ()))
            if UNK_LITERAL[cls] not in entries:
                entries.append(UNK_LITERAL[cls])
            fixed[cls] = tuple(entries)
        return replace(self, literal_vocab=fixed)


BUILTIN_GRAMMAR_TEXT = """\
@start Expr
@variable Var
@literal int IntLit
@literal string StrLit
@literal bool BoolLit
Expr -> Var
Expr -> IntLit
Expr -> StrLit
Expr -> BoolLit
Expr -> Expr "+" Expr
Expr -> Expr "-" Expr
Expr -> Expr "*" Expr
Expr -> Expr "%" Expr
Expr -> Expr "<" Expr
Expr -> Expr ">" Expr
Expr -> Expr "<=" Expr
Expr -> Expr ">=" Expr
Expr -> Expr "==" Expr
Expr -> Expr "!=" Expr
Expr -> Expr "&&" Expr
Expr -> Expr "||" Expr
Expr -> "!" Expr
Expr -> Expr "." "Length"
Expr -> Expr "[" Expr "]"
Expr -> Expr "." "StartsWith" "(" Expr ")"
Expr -> Expr "." "Contains" "(" Expr ")"
Expr -> Expr "." "Substring" "(" Expr "," Expr ")"
Expr -> Expr "." "IndexOf" "(" Expr ")"
"""


def builtin_grammar() -> Grammar:
    """The canonical MiniExpr grammar (23 productions, start Expr)."""
    return load_grammar(BUILTIN_GRAMMAR_TEXT)


# ---------------------------------------------------------------------------
# Grammar text format

class GrammarParseError(GrammarError):
    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


def load_grammar(text: str) -> Grammar:
    """Parse the line-oriented grammar format.

    One production per line, `Lhs -> Sym1 "tok" Sym2`; quoted symbols are
    fixed terminals. Headers: `@start N`, `@variable Name`,
    `@literal <class> Name`, `@literals <class>: a, b, c`.
    """
    rules: list[tuple[str, tuple[str, ...], int]] = []
    declared: dict[str, Symbol] = {}
    vocab: dict[str, list[str]] = {}
    start = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@start"):
            start = line.split(maxsplit=1)[1].strip()
        elif line.startswith("@variable"):
            name = line.split(maxsplit=1)[1].strip()
            declared[name] = Symbol(name, Kind.VARIABLE)
        elif line.startswith("@literals"):
            head, _, items = line.partition(":")
            parts = head.split()
            if len(parts) != 2 or parts[1] not in LITERAL_CLASSES:
                raise GrammarParseError("bad @literals header", lineno)
            vocab[parts[1]] = [s.strip() for s in items.split(",") if s.strip()]
        elif line.startswith("@literal"):
            parts = line.split()
            if len(parts) != 3 or parts[1] not in LITERAL_CLASSES:
                raise GrammarParseError("bad @literal declaration", lineno)
            declared[parts[2]] = Symbol(parts[2], Kind.LITERAL, parts[1])
        elif "->" in line:
            lhs, _, rhs_text = line.partition("->")
            lhs = lhs.strip()
            if not lhs:
                raise GrammarParseError("missing lhs", lineno)
            rhs = tuple(_rhs_tokens(rhs_text, lineno))
            if not rhs:
                raise GrammarParseError("empty rhs", lineno)
            rules.append((lhs, rhs, lineno))
        else:
            raise GrammarParseError(f"cannot parse {line!r}", lineno)
    if not rules:
        raise GrammarParseError("no productions")

    symbols: dict[str, Symbol] = {}
    # first-appearance order, so symbol (and label) ids never depend on the hash seed
    for lhs in dict.fromkeys(lhs for lhs, _, _ in rules):
        symbols[lhs] = Symbol(lhs, Kind.NONTERMINAL)
    symbols.update(declared)
    prods = []
    for pid, (lhs, rhs, lineno) in enumerate(rules):
        for s in rhs:
            if s.startswith('"'):
                continue
            if s not in symbols:
                raise GrammarParseError(f"undeclared symbol {s!r}", lineno)
        clean = tuple(s[1:-1] if s.startswith('"') else s for s in rhs)
        for s in clean:
            if s not in symbols:
                symbols[s] = Symbol(s, Kind.FIXED)
        prods.append(Production(pid, lhs, clean))
    g = Grammar(symbols=symbols, productions=tuple(prods), start=start or rules[0][0])
    return g.with_literal_vocab(vocab)


def _rhs_tokens(text: str, lineno: int):
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise GrammarParseError("unterminated quote", lineno)
            yield text[i : j + 1]
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace():
                j += 1
            yield text[i:j]
            i = j


def serialize_grammar(g: Grammar) -> str:
    lines = [f"@start {g.start}"]
    for name in sorted(g.symbols):
        sym = g.symbols[name]
        if sym.kind is Kind.VARIABLE:
            lines.append(f"@variable {name}")
        elif sym.kind is Kind.LITERAL:
            lines.append(f"@literal {sym.lit_class} {name}")
    for cls in LITERAL_CLASSES:
        vocab = g.literal_vocab.get(cls)
        if vocab:
            lines.append(f"@literals {cls}: " + ", ".join(vocab))
    for p in g.productions:
        rhs = " ".join(
            f'"{s}"' if g.symbols[s].kind is Kind.FIXED else s for s in p.rhs
        )
        lines.append(f"{p.lhs} -> {rhs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Production masks

def production_mask(g: Grammar, nt: str) -> np.ndarray:
    """Vector over all productions: 0 where lhs == nt, -inf elsewhere."""
    sym = g.sym(nt)
    if sym.kind is not Kind.NONTERMINAL:
        raise GrammarError(f"{nt!r} is not a nonterminal")
    mask = np.full(len(g.productions), -np.inf, dtype=np.float64)
    for p in g.productions:
        if p.lhs == nt:
            mask[p.pid] = 0.0
    return mask


# ---------------------------------------------------------------------------
# Type system

class TypeEnv:
    """Immutable map from variable name to MiniExpr type."""

    def __init__(self, bindings: dict[str, str] | None = None):
        bindings = dict(bindings or {})
        for name, ty in bindings.items():
            if ty not in TYPES:
                raise GrammarError(f"unknown type {ty!r} for {name!r}")
        self._map = bindings

    def lookup(self, name):
        return self._map.get(name)

    def __contains__(self, name):
        return name in self._map

    def __len__(self):
        return len(self._map)


class TypeCheckError(Exception):
    """kind: unbound-variable, operand-mismatch, unk-literal, no-rule or too-deep."""

    def __init__(self, kind, msg):
        self.kind = kind
        super().__init__(msg)


# Typing rules by a production's fixed tokens: argument types -> result type.
# The corpus generator draws each result type's expressions in this order.
TYPING = {
    ("+",): {("int", "int"): "int", ("string", "string"): "string"},
    ("-",): {("int", "int"): "int"},
    ("*",): {("int", "int"): "int"},
    ("%",): {("int", "int"): "int"},
    ("<",): {("int", "int"): "bool"},
    (">",): {("int", "int"): "bool"},
    ("<=",): {("int", "int"): "bool"},
    (">=",): {("int", "int"): "bool"},
    ("==",): {(t, t): "bool" for t in TYPES},
    ("!=",): {(t, t): "bool" for t in TYPES},
    ("&&",): {("bool", "bool"): "bool"},
    ("||",): {("bool", "bool"): "bool"},
    ("!",): {("bool",): "bool"},
    ("[", "]"): {("int[]", "int"): "int"},
    (".", "Length"): {("int[]",): "int", ("string",): "int"},
    (".", "StartsWith", "(", ")"): {("string", "string"): "bool"},
    (".", "Contains", "(", ")"): {("string", "string"): "bool"},
    (".", "Substring", "(", ",", ")"): {("string", "int", "int"): "string"},
    (".", "IndexOf", "(", ")"): {("string", "string"): "int"},
}


def type_check(expr, env: TypeEnv, *, allow_unk: bool = False) -> str:
    """Type of a complete expression tree under the MiniExpr rules.

    Raises TypeCheckError on ill-typed trees and on trees too deep to check;
    an UNK literal is flagged with its own error kind so callers can report
    it separately.
    """
    try:
        return _check(expr.grammar, expr, expr.nodes[expr.root], env, allow_unk)
    except RecursionError:
        raise TypeCheckError("too-deep", "expression nested too deeply") from None


def _check(g, tree, node, env, allow_unk):
    sym = g.symbols[node.label]
    if sym.kind is Kind.VARIABLE:
        ty = env.lookup(node.binding)
        if ty is None:
            raise TypeCheckError("unbound-variable", f"unbound variable {node.binding!r}")
        return ty
    if sym.kind is Kind.LITERAL:
        if node.binding == UNK_LITERAL[sym.lit_class] and not allow_unk:
            raise TypeCheckError("unk-literal", f"UNK literal of class {sym.lit_class}")
        return sym.lit_class  # each literal class is named after its type
    if sym.kind is Kind.FIXED:
        raise TypeCheckError("no-rule", f"fixed terminal {node.label!r} has no type")

    kids = [tree.nodes[c] for c in node.children]
    sub = tuple([
        _check(g, tree, k, env, allow_unk) for k in kids if g.symbols[k.label].kind is not Kind.FIXED
    ])
    return production_type(g, node.prod_id, sub)


def production_type(g: Grammar, pid: int, args: tuple) -> str:
    """The type production pid builds from slots of types args, in rhs order:
    a lone slot's own, any other production's by its typing rule. Raises
    TypeCheckError when no rule covers the production or its arguments."""
    fixed = g.fixed_tokens[pid]
    if not fixed and len(args) == 1:
        return args[0]
    rule = TYPING.get(fixed)
    if rule is None:
        raise TypeCheckError("no-rule", f"no type rule for production {pid}")
    ty = rule.get(args)
    if ty is None:
        raise TypeCheckError("operand-mismatch", f"{' '.join(fixed)} applied to {list(args)}")
    return ty
