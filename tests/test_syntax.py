from collections import Counter

import numpy as np
import pytest

from conftest import random_tree
from nagc import lang as L
from nagc import syntax as S
from nagc.attrgraph import NEXT_SIBLING, NEXT_TOKEN, NEXT_USE, GraphBuilder
from nagc.grammar import Kind
from nagc.syntax import (
    MalformedSequenceError,
    SyntaxError_,
    apply_production,
    bind_terminal,
    deserialize_decisions,
    new_partial_ast,
    next_expansion_site,
    serialize_decisions,
    serialize_tokens,
    trees_equal,
)


def _tree(g, text):
    return L.expr_to_tree(L.parse_expression(L.tokenize(text)), g)


def test_frontier_order_is_leftmost(g):
    t = new_partial_ast(g)
    assert next_expansion_site(t) == 0
    apply_production(t, 0, g.productions[5])  # Expr - Expr
    # left Expr child first, not the right one
    site = next_expansion_site(t)
    assert t.nodes[site].label == "Expr"
    assert site == t.nodes[0].children[0]


def test_apply_production_errors(g):
    t = new_partial_ast(g)
    apply_production(t, 0, g.productions[0])
    with pytest.raises(SyntaxError_):
        apply_production(t, 0, g.productions[0])  # already expanded
    var_leaf = t.nodes[0].children[0]
    with pytest.raises(SyntaxError_):
        apply_production(t, var_leaf, g.productions[0])  # not a nonterminal


def test_bind_terminal_errors(g):
    t = new_partial_ast(g)
    apply_production(t, 0, g.productions[0])
    leaf = t.nodes[0].children[0]
    bind_terminal(t, leaf, "i")
    with pytest.raises(SyntaxError_):
        bind_terminal(t, leaf, "j")
    with pytest.raises(SyntaxError_):
        bind_terminal(t, 0, "i")


def test_decision_round_trip(g):
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = random_tree(g, rng, ["x"])
        seq = serialize_decisions(t)
        assert trees_equal(t, deserialize_decisions(seq, g))


def test_decision_record_format(g):
    t = _tree(g, "i - j")
    assert serialize_decisions(t) == "P5 P0 Vi P0 Vj"


def test_serialize_tokens(g):
    assert serialize_tokens(_tree(g, "i - j")) == ["i", "-", "j"]
    assert serialize_tokens(_tree(g, 's . Substring ( 0 , i )')) == [
        "s", ".", "Substring", "(", "0", ",", "i", ")"
    ]


@pytest.mark.parametrize(
    "seq",
    [
        "",
        "P99",
        "Pnope",
        "Vx",  # site is a nonterminal, not a variable slot
        "P5 P0 Vi P0",  # incomplete
        "P0 Vi P0 Vj",  # continues past completion
        "P0 Lint:3",  # literal record at a variable slot
        "Q1",
    ],
)
def test_deserialize_rejects_malformed(g, seq):
    with pytest.raises(MalformedSequenceError):
        deserialize_decisions(seq, g)


# Positional relations on a complete tree, computed by brute force from its
# leaves and lists of children, against the edges the GraphBuilder emits for
# them. Edges are compared as (source ref, target ref) pairs, a ref being an
# (attribute flavor, AST node id or context variable) key of `aid_of`.

def _kind(t, nid):
    return t.grammar.symbols[t.nodes[nid].label].kind


def _brute_edges(t, ctx, etype):
    leaves = t.leaves()  # every leaf of a complete tree is a terminal
    out = []
    if etype == NEXT_TOKEN:
        out = [(("joint", a), ("joint", b)) for a, b in zip(leaves, leaves[1:])]
    elif etype == NEXT_USE:
        for i, v in enumerate(leaves):
            name = t.nodes[v].binding
            if _kind(t, v) is not Kind.VARIABLE:
                continue
            prev = [u for u in leaves[:i] if _kind(t, u) is Kind.VARIABLE and t.nodes[u].binding == name]
            if prev:
                out.append((("joint", prev[-1]), ("joint", v)))
            elif name in ctx:
                out.append((("ctx", name), ("joint", v)))
    else:
        def ref(nid, nt_flavor):
            return (nt_flavor if _kind(t, nid) is Kind.NONTERMINAL else "joint", nid)

        for node in t.nodes:
            for a, b in zip(node.children, node.children[1:]):
                out.append((ref(a, "syn"), ref(b, "inh")))
    return Counter(out)


def _builder_edges(t, ctx, etype):
    b = GraphBuilder(t, ctx)
    ref = {aid: key for key, aid in b.aid_of.items()}
    return Counter((ref[e.src], ref[e.tgt]) for e in b.edges if e.etype == etype)


def _check_random_trees(g, etype, seed):
    rng = np.random.default_rng(seed)
    scopes = (["i"], ["i", "j", "k"], ["i", "j", "s", "b", "arr"])
    for k in range(200):
        scope = scopes[k % len(scopes)]
        ctx = scope[: 1 + k % len(scope)]  # some variables outside the context
        t = random_tree(g, rng, scope)
        assert _builder_edges(t, ctx, etype) == _brute_edges(t, ctx, etype)


def test_last_token_matches_brute_force(g):
    _check_random_trees(g, NEXT_TOKEN, seed=6)


def test_last_use_chain(g):
    t = _tree(g, "i - i")
    first, second = [n for n in t.leaves() if t.nodes[n].binding == "i"]
    chain = Counter({(("joint", first), ("joint", second)): 1})
    assert _builder_edges(t, ["i"], NEXT_USE) == chain + Counter({(("ctx", "i"), ("joint", first)): 1})
    assert _builder_edges(t, [], NEXT_USE) == chain
    _check_random_trees(g, NEXT_USE, seed=7)


def test_last_sibling(g):
    t = _tree(g, "i - j")
    kids = t.nodes[0].children
    assert _builder_edges(t, [], NEXT_SIBLING) == Counter(
        {(("syn", kids[0]), ("joint", kids[1])): 1, (("joint", kids[1]), ("inh", kids[2])): 1}
    )
    _check_random_trees(g, NEXT_SIBLING, seed=8)


def test_copy_isolates_mutation(g):
    t = new_partial_ast(g)
    apply_production(t, 0, g.productions[5])
    c = t.copy()
    apply_production(c, next_expansion_site(c), g.productions[0])
    assert len(c.nodes) == len(t.nodes) + 1
    assert len(c.history) == len(t.history) + 1
