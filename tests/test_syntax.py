from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from conftest import frontier_site, make_sample, node_tree, random_tree
from test_attrgraph import DECODER_EDGES
from nagc import lang as L
from nagc import model as M
from nagc import syntax as S
from nagc.attrgraph import (
    CHILD, INH_TO_SYN, NEXT_EXP, NEXT_SIBLING, NEXT_TOKEN, NEXT_USE, PAPER_EDGE_TYPES, PARENT,
    GraphBuilder,
)
from nagc.grammar import Kind
from nagc.syntax import (
    MalformedSequenceError,
    SyntaxError_,
    Walk,
    apply_production,
    bind_terminal,
    deserialize_decisions,
    new_partial_ast,
    serialize_decisions,
    serialize_tokens,
    trees_equal,
)


def _tree(g, text):
    return node_tree(L.parse_expression(L.tokenize(text)), g)


def test_frontier_order_is_leftmost(g):
    t = new_partial_ast(g)
    assert Walk(t).site == 0
    apply_production(t, 0, g.productions[5])  # Expr - Expr
    # left Expr child first, not the right one
    site = Walk(t).site
    assert t.nodes[site].label == "Expr"
    assert site == t.nodes[0].children[0]


def test_walk_site_matches_preorder_oracle(g):
    # on every prefix of random derivations, a fresh walk's site is the
    # oracle's; deserialization applies each record at the oracle's site
    # (random_tree builds in oracle order, so the histories must agree)
    rng = np.random.default_rng(7)
    for _ in range(200):
        full = random_tree(g, rng, ["i", "s"])
        t = new_partial_ast(g)
        for dec in full.history:
            assert Walk(t).site == frontier_site(t) == dec[1]
            if dec[0] == "P":
                apply_production(t, dec[1], g.productions[dec[2]])
            else:
                bind_terminal(t, dec[1], dec[-1])
        assert Walk(t).site is frontier_site(t) is None
        assert deserialize_decisions(serialize_decisions(full), g).history == full.history


def test_deep_chain_round_trips_without_recursion(g):
    # 4998 nested `!` over one variable: 5000 decisions, far deeper than
    # the interpreter's recursion limit
    seq = "P16 " * 4998 + "P0 Vb"
    t = deserialize_decisions(seq, g)
    assert len(t.history) == 5000 and serialize_decisions(t) == seq
    assert serialize_tokens(t) == ["!"] * 4998 + ["b"]
    m = M.Model(g, hidden=8, emb_dim=4, edge_emb=4)
    pr = M.prep_sample(m, make_sample(t, {"b": "bool"}, ["var", "b", ":", "bool", ";"], []))
    assert trees_equal(pr.tree, t) and len(pr.plan) == 5000 and pr.n_tokens == 4999


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
        "P0 P0",  # production record at a variable slot
        "P1 Lint",  # literal record without a class separator
        "P1 Lstring:x",  # literal of another class
        "Q1",
    ],
)
def test_deserialize_rejects_malformed(g, seq):
    with pytest.raises(MalformedSequenceError):
        deserialize_decisions(seq, g)


# Positional relations on a complete tree, computed by brute force from its
# leaves and lists of children, against the edges the GraphBuilder emits for
# them. Edges are compared as (source ref, target ref) pairs, a ref being an
# (attribute flavor, AST node id or context variable) key of `aid_of`; Child
# edges carry their (production id, child index) label as a third entry.

def _kind(t, nid):
    return t.grammar.symbols[t.nodes[nid].label].kind


def _ref(t, nid, nt_flavor):
    return (nt_flavor if _kind(t, nid) is Kind.NONTERMINAL else "joint", nid)


def _preorder(t, nid=None):
    nid = t.root if nid is None else nid
    out = [nid]
    for c in t.nodes[nid].children:
        out += _preorder(t, c)
    return out


def _brute_edges(t, ctx, etype, labels=True):
    leaves = t.leaves()  # every leaf of a complete tree is a terminal
    nts = [n.nid for n in t.nodes if _kind(t, n.nid) is Kind.NONTERMINAL]
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
    elif etype == NEXT_SIBLING:
        for node in t.nodes:
            for a, b in zip(node.children, node.children[1:]):
                out.append((_ref(t, a, "syn"), _ref(t, b, "inh")))
    elif etype == CHILD:
        for n in nts:
            pid = t.nodes[n].prod_id
            for i, c in enumerate(t.nodes[n].children):
                out.append((("inh", n), _ref(t, c, "inh"), (pid, i) if labels else None))
    elif etype == PARENT:
        out = [(_ref(t, c, "syn"), ("syn", n)) for n in nts for c in t.nodes[n].children]
    elif etype == INH_TO_SYN:
        out = [(("inh", n), ("syn", n)) for n in nts]
    elif etype == NEXT_EXP:  # decision nodes chained in generation order
        decisions = [_ref(t, n, "inh") for n in _preorder(t) if _kind(t, n) is not Kind.FIXED]
        out = list(zip(decisions, decisions[1:]))
    return Counter(out)


def _builder_edges(t, ctx, etype, edge_set=PAPER_EDGE_TYPES, labels=True):
    b = GraphBuilder(t, ctx, edge_set=edge_set, labels=labels)
    ref = {aid: key for key, aid in b.aid_of.items()}
    return Counter((ref[e.src], ref[e.tgt]) + ((e.label,) if etype == CHILD else ())
                   for e in b.graph().edges if e.etype == etype)


def _check_random_trees(g, etype, seed, edge_sets=((PAPER_EDGE_TYPES, True),)):
    rng = np.random.default_rng(seed)
    scopes = (["i"], ["i", "j", "k"], ["i", "j", "s", "b", "arr"])
    for k in range(200):
        scope = scopes[k % len(scopes)]
        ctx = scope[: 1 + k % len(scope)]  # some variables outside the context
        t = random_tree(g, rng, scope)
        for edge_set, labels in edge_sets:
            want = _brute_edges(t, ctx, etype, labels) if etype in edge_set else Counter()
            assert _builder_edges(t, ctx, etype, edge_set, labels) == want, (edge_set, labels)


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


@pytest.mark.parametrize("etype", [CHILD, PARENT, INH_TO_SYN, NEXT_EXP])
def test_structural_edges_match_brute_force(g, etype):
    # under the Tree, ASN, Syn and NAG edge sets; a type outside the set
    # must emit no edge at all
    _check_random_trees(g, etype, seed=9, edge_sets=DECODER_EDGES)


def test_copy_isolates_mutation(g):
    t = new_partial_ast(g)
    apply_production(t, 0, g.productions[5])
    c = t.copy()
    apply_production(c, Walk(c).site, g.productions[0])
    assert len(c.nodes) == len(t.nodes) + 1
    assert len(c.history) == len(t.history) + 1
    # path copying, along every decision of random trees: a copy holds its
    # original's very nodes; a decision on it replaces the site's node and
    # appends the new ones, and the original keeps its nodes and history
    rng = np.random.default_rng(12)
    for _ in range(30):
        walk = Walk(new_partial_ast(g))
        for kind, *_, arg in random_tree(g, rng, ["i", "j"]).history:
            tree, site = walk.tree, walk.site
            before = [astuple(n) for n in tree.nodes], serialize_decisions(tree)
            walk = walk.copy()
            assert len(walk.tree.nodes) == len(tree.nodes)
            assert all(a is b for a, b in zip(walk.tree.nodes, tree.nodes))
            walk.decide(kind, arg)
            assert [nid for nid, n in enumerate(tree.nodes) if walk.tree.nodes[nid] is not n] == [site]
            added = [n.nid for n in walk.tree.nodes[len(tree.nodes):]]
            assert added == (walk.tree.nodes[site].children if kind == "P" else [])
            assert ([astuple(n) for n in tree.nodes], serialize_decisions(tree)) == before
