import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import node_tree

from nagc import grammar as G
from nagc import lang as L
from nagc.grammar import (
    Kind,
    GrammarParseError,
    TypeCheckError,
    TypeEnv,
    builtin_grammar,
    load_grammar,
    production_mask,
    serialize_grammar,
    type_check,
)
from nagc.syntax import apply_production, bind_terminal, new_partial_ast


def test_builtin_has_23_productions(g):
    assert len(g.productions) == 23
    assert g.start == "Expr"
    assert all(p.pid == i for i, p in enumerate(g.productions))


def test_builtin_production_shapes(g):
    # every production either rewrites to a single terminal class or mixes
    # Expr children with fixed tokens
    for p in g.productions:
        assert p.lhs == "Expr"
        kinds = [g.symbols[s].kind for s in p.rhs]
        if len(p.rhs) == 1:
            assert kinds[0] in (Kind.VARIABLE, Kind.LITERAL)
        else:
            assert Kind.FIXED in kinds


def test_serialize_round_trip(g):
    text = serialize_grammar(g)
    g2 = load_grammar(text)
    assert g == g2


def test_load_grammar_reports_line_numbers():
    bad = "@start S\nS -> T |\n"
    with pytest.raises(GrammarParseError) as err:
        load_grammar(bad)
    assert "2" in str(err.value)


def test_load_grammar_unknown_symbol():
    with pytest.raises(GrammarParseError):
        load_grammar("@start S\nS -> Undefined\n")


ORDER_GRAMMAR = """@start Stmt
Stmt -> Expr ";"
Op -> "+"
Expr -> Atom Op Atom
Atom -> "x"
Op -> "-"
"""


def test_nonterminal_order_ignores_hash_seed():
    # symbol order fixes the label ids and embedding rows of a model, so it
    # must be the same in every process: the order of first appearance
    script = (
        "import sys; from nagc.grammar import load_grammar, Kind; "
        "g = load_grammar(sys.stdin.read()); "
        "print(' '.join(n for n, s in g.symbols.items() if s.kind is Kind.NONTERMINAL)); "
        "print(' '.join(g.symbols))"
    )
    src = os.path.dirname(os.path.dirname(G.__file__))
    outs = set()
    for seed in ("0", "1", "2", "3", "6", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], input=ORDER_GRAMMAR, env=env,
                             capture_output=True, text=True, check=True)
        outs.add(run.stdout)
    assert len(outs) == 1, outs
    assert outs.pop().splitlines()[0] == "Stmt Op Expr Atom"


def test_literal_vocab_always_carries_unk(g):
    g2 = g.with_literal_vocab({"int": ("0", "1")})
    assert G.UNK_LITERAL["int"] in g2.literal_vocab["int"]
    assert G.UNK_LITERAL["string"] in g2.literal_vocab["string"]


def test_production_mask_support(g):
    mask = production_mask(g, "Expr")
    assert mask.shape == (23,)
    assert np.all(mask == 0.0)  # single-nonterminal grammar: all valid


def test_production_mask_rejects_terminals(g):
    with pytest.raises(G.GrammarError):
        production_mask(g, "Var")


def _tree(g, text):
    return node_tree(L.parse_expression(L.tokenize(text)), g)


@pytest.mark.parametrize(
    "text,env,expected",
    [
        ("i + j", {"i": "int", "j": "int"}, "int"),
        ('s + "x"', {"s": "string"}, "string"),
        ("i < j", {"i": "int", "j": "int"}, "bool"),
        ("b && ! b", {"b": "bool"}, "bool"),
        ("s . Length", {"s": "string"}, "int"),
        ("arr . Length", {"arr": "int[]"}, "int"),
        ("arr [ i ]", {"arr": "int[]", "i": "int"}, "int"),
        ('s . StartsWith ( "a" )', {"s": "string"}, "bool"),
        ("s . Substring ( 0 , 2 )", {"s": "string"}, "string"),
        ('s . IndexOf ( "a" )', {"s": "string"}, "int"),
        ("s == s", {"s": "string"}, "bool"),
        ("i % 2 == 0", {"i": "int"}, "bool"),
    ],
)
def test_type_check_positive(g, text, env, expected):
    assert type_check(_tree(g, text), TypeEnv(env)) == expected


@pytest.mark.parametrize(
    "text,env,kind",
    [
        ("i + j", {"i": "int"}, "unbound-variable"),
        ('i + "x"', {"i": "int"}, "operand-mismatch"),
        ("i && j", {"i": "int", "j": "int"}, "operand-mismatch"),
        ("s == i", {"s": "string", "i": "int"}, "operand-mismatch"),
        ("i . Length", {"i": "int"}, "operand-mismatch"),
        ("s [ i ]", {"s": "string", "i": "int"}, "operand-mismatch"),
    ],
)
def test_type_check_negative(g, text, env, kind):
    with pytest.raises(TypeCheckError) as err:
        type_check(_tree(g, text), TypeEnv(env))
    assert err.value.kind == kind


def test_unk_literal_rejected_unless_allowed(g):
    from nagc.syntax import deserialize_decisions

    tree = deserialize_decisions("P1 Lint:<UNK:int>", g)
    with pytest.raises(TypeCheckError) as err:
        type_check(tree, TypeEnv({}))
    assert err.value.kind == "unk-literal"
    assert type_check(tree, TypeEnv({}), allow_unk=True) == "int"


def test_type_env_is_immutable():
    bindings = {"i": "int"}
    env = TypeEnv(bindings)
    bindings["j"] = "bool"  # the env keeps its own copy
    assert "j" not in env
    assert env.lookup("i") == "int" and len(env) == 1


# The MiniExpr typing rules, by compound production: argument types -> result.
# Every other tuple of argument types is an operand mismatch.
_EQ = {(t, t): "bool" for t in ("int", "bool", "string", "int[]")}
TYPING_SPEC = {
    "Expr + Expr": {("int", "int"): "int", ("string", "string"): "string"},
    "Expr - Expr": {("int", "int"): "int"},
    "Expr * Expr": {("int", "int"): "int"},
    "Expr % Expr": {("int", "int"): "int"},
    "Expr < Expr": {("int", "int"): "bool"},
    "Expr > Expr": {("int", "int"): "bool"},
    "Expr <= Expr": {("int", "int"): "bool"},
    "Expr >= Expr": {("int", "int"): "bool"},
    "Expr == Expr": _EQ,
    "Expr != Expr": _EQ,
    "Expr && Expr": {("bool", "bool"): "bool"},
    "Expr || Expr": {("bool", "bool"): "bool"},
    "! Expr": {("bool",): "bool"},
    "Expr . Length": {("string",): "int", ("int[]",): "int"},
    "Expr [ Expr ]": {("int[]", "int"): "int"},
    "Expr . StartsWith ( Expr )": {("string", "string"): "bool"},
    "Expr . Contains ( Expr )": {("string", "string"): "bool"},
    "Expr . Substring ( Expr , Expr )": {("string", "int", "int"): "string"},
    "Expr . IndexOf ( Expr )": {("string", "string"): "int"},
}


def test_type_check_matches_spec_for_every_argument_tuple(g):
    var_prod = g.by_form[(Kind.VARIABLE, None)]
    compound = {" ".join(p.rhs): p for p in g.productions if len(p.rhs) > 1}
    assert set(compound) == set(TYPING_SPEC)
    checked = 0
    for rhs, p in compound.items():
        arity = sum(s == "Expr" for s in p.rhs)
        for args in itertools.product(G.TYPES, repeat=arity):
            tree = new_partial_ast(g)
            apply_production(tree, tree.root, p)
            slots = [c for c in tree.nodes[tree.root].children if tree.nodes[c].label == "Expr"]
            for i, site in enumerate(slots):
                apply_production(tree, site, var_prod)
                bind_terminal(tree, tree.nodes[site].children[0], f"v{i}")
            env = TypeEnv({f"v{i}": t for i, t in enumerate(args)})
            expected = TYPING_SPEC[rhs].get(args)
            if expected is None:
                with pytest.raises(TypeCheckError) as err:
                    type_check(tree, env)
                assert err.value.kind == "operand-mismatch", (rhs, args)
            else:
                assert type_check(tree, env) == expected, (rhs, args)
            checked += 1
    assert checked == 16 * 4**2 + 2 * 4 + 4**3  # binary, unary, Substring
