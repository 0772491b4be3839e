import re
from collections import Counter

import numpy as np
import pytest

from conftest import frontier_site, node_tree, random_tree
from nagc import attrgraph as A
from nagc import lang as L
from nagc.attrgraph import (
    ALL_EDGE_TYPES,
    CHILD,
    INH_TO_SYN,
    NEXT_EXP,
    NEXT_SIBLING,
    NEXT_TOKEN,
    NEXT_USE,
    PAPER_EDGE_TYPES,
    PARENT,
    GraphBuilder,
    GraphError,
    augment_full_tree,
    batch_graphs,
    export_dot,
    propagation_schedule,
)
from nagc.grammar import Kind
from nagc.syntax import new_partial_ast, trees_equal


def _tree(g, text):
    return node_tree(L.parse_expression(L.tokenize(text)), g)


def _sub_fixture(g):
    return _tree(g, "i - j"), ["i", "j"]


EXPECTED_SUB_EDGES = {
    (0, CHILD, 3, (5, 0)),
    (0, CHILD, 6, (5, 1)),
    (0, CHILD, 7, (5, 2)),
    (3, CHILD, 4, (0, 0)),
    (7, CHILD, 8, (0, 0)),
    (4, NEXT_TOKEN, 6, None),
    (6, NEXT_TOKEN, 8, None),
    (1, NEXT_USE, 4, None),
    (2, NEXT_USE, 8, None),
    (5, NEXT_SIBLING, 6, None),
    (6, NEXT_SIBLING, 7, None),
    (4, PARENT, 5, None),
    (8, PARENT, 9, None),
    (5, PARENT, 10, None),
    (6, PARENT, 10, None),
    (9, PARENT, 10, None),
    (0, INH_TO_SYN, 10, None),
    (3, INH_TO_SYN, 5, None),
    (7, INH_TO_SYN, 9, None),
}


def test_subtraction_fixture_nodes_and_edges(g):
    tree, ctx = _sub_fixture(g)
    gr = augment_full_tree(tree, ctx)
    assert len(gr.nodes) == 11
    got = {(e.src, e.etype, e.tgt, e.label) for e in gr.edges}
    assert got == EXPECTED_SUB_EDGES


def test_node_ids_follow_generation_order(g):
    tree, ctx = _sub_fixture(g)
    gr = augment_full_tree(tree, ctx)
    flavors = [(n.aid, n.flavor) for n in gr.nodes]
    assert flavors[0] == (0, "inh")  # root inherited
    assert flavors[1] == (1, "ctx") and flavors[2] == (2, "ctx")
    assert flavors[10] == (10, "syn")  # root synthesized, last


# edge set and child labels of the Tree, ASN, Syn and NAG decoder configs
DECODER_EDGES = [((CHILD,), False), ((CHILD,), True), ((CHILD, NEXT_EXP), False),
                 (PAPER_EDGE_TYPES, True)]


def _brute_key_and_last_use(t, b, ctx):
    # the rules recomputed from the partial tree alone: the key is the site's
    # inherited node, or its parent's at a terminal slot; a variable's node is
    # its context node until its first use, then the joint node of its latest
    # use in generation (pre)order
    aid = {(n.flavor, n.origin): n.aid for n in b.nodes}
    site = frontier_site(t)
    key = None
    if site is not None:
        slot = t.grammar.symbols[t.nodes[site].label].kind is not Kind.NONTERMINAL
        key = aid[("inh", t.nodes[site].parent if slot else site)]
    last_use = {name: aid[("ctx", name)] for name in ctx}
    for nid in t.preorder():
        node = t.nodes[nid]
        if t.grammar.symbols[node.label].kind is Kind.VARIABLE and node.binding is not None:
            last_use[node.binding] = aid[("joint", nid)]
    return key, last_use


def test_builder_settled_per_decision_matches_one_shot(g):
    # the walk resumed after every decision ends where one-shot augmentation
    # does; its site is always the preorder oracle's, and its key and
    # last_use always follow the rules recomputed from the partial tree
    rng = np.random.default_rng(1)
    scopes = (["i"], ["i", "j"], ["i", "j", "s", "b", "arr"])
    for k in range(1000):
        scope = scopes[k % len(scopes)]
        ctx = scope if k % 4 else scope[:1]  # some variables outside the context
        full = random_tree(g, rng, scope)
        for edge_set, labels in DECODER_EDGES:
            t = new_partial_ast(g)
            b = GraphBuilder(t, ctx, edge_set=edge_set, labels=labels)
            for dec in full.history:
                assert b.site == frontier_site(t) == dec[1]
                assert (b.key, b.last_use) == _brute_key_and_last_use(t, b, ctx)
                n_nodes, n_edges = len(b.nodes), len(b.columns[1])
                created = b.decide(dec[0], dec[-1])
                assert created == b.nodes[n_nodes:]
                # the columns' tail holds the created nodes' in-edges: its
                # targets are exactly their aids, in creation order
                assert len({len(c) for c in b.columns}) == 1
                tail = b.columns[1][n_edges:]
                assert list(dict.fromkeys(tail)) == [n.aid for n in created]
                assert tail == sorted(tail)
            assert b.site is None
            assert (b.key, b.last_use) == _brute_key_and_last_use(t, b, ctx)
            assert trees_equal(t, full)
            one = GraphBuilder(full, ctx, edge_set=edge_set, labels=labels)
            assert list(b.aid_of.items()) == list(one.aid_of.items())
            _assert_graphs_equal(b.graph(), augment_full_tree(full, ctx, edge_set=edge_set,
                                                              labels=labels))


def _assert_graphs_equal(a, b):
    assert a.nodes == b.nodes
    for field in ("src", "tgt", "etype", "label"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), field
    assert a.schedule == b.schedule
    assert a.components == b.components


def test_edges_are_pure_function_of_tree(g):
    tree, ctx = _sub_fixture(g)
    b1 = GraphBuilder(tree, ctx)
    b1.settle()
    b2 = GraphBuilder(tree, ctx)
    b2.settle()
    assert b1.graph().edges == b2.graph().edges
    assert [n.label for n in b1.nodes] == [n.label for n in b2.nodes]


def test_restricted_edge_sets_drop_synthesized_nodes(g):
    tree, ctx = _sub_fixture(g)
    gr = augment_full_tree(tree, ctx, edge_set=(CHILD,), labels=False)
    assert all(n.flavor != "syn" for n in gr.nodes)
    assert {e.etype for e in gr.edges} == {CHILD}
    assert all(e.label is None for e in gr.edges)


def test_next_exp_chains_decisions(g):
    tree, ctx = _sub_fixture(g)
    gr = augment_full_tree(tree, ctx, edge_set=(CHILD, NEXT_EXP), labels=False)
    chain = sorted((e.src, e.tgt) for e in gr.edges if e.etype == NEXT_EXP)
    # without syn nodes the order is: root inh 0, ctx 1-2, left inh 3,
    # "i" joint 4, "-" joint 5, right inh 6, "j" joint 7
    assert chain == [(0, 3), (3, 4), (4, 6), (6, 7)]


def _independent_cycle_check(gr):
    # DFS three-color cycle detection, independent of Kahn layering
    out = {}
    for e in gr.edges:
        out.setdefault(e.src, []).append(e.tgt)
    color = {}
    for start in range(len(gr.nodes)):
        if color.get(start):
            continue
        stack = [(start, iter(out.get(start, ())))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
            elif color.get(nxt, 0) == 1:
                return False
            elif not color.get(nxt):
                color[nxt] = 1
                stack.append((nxt, iter(out.get(nxt, ()))))
    return True


def test_schedule_layering_property(g):
    rng = np.random.default_rng(2)
    for _ in range(25):
        tree = random_tree(g, rng, ["i", "j"])
        gr = augment_full_tree(tree, ["i", "j"])
        assert _independent_cycle_check(gr)
        round_of = {a: r for r, rnd in enumerate(gr.schedule) for a in rnd}
        assert sorted(round_of) == list(range(len(gr.nodes)))
        for e in gr.edges:
            assert round_of[e.src] < round_of[e.tgt]


def _longest_path_rounds(gr):
    # each node's round by recursion over its predecessors in the edge
    # records, independent of the edges' order
    preds = {}
    for e in gr.edges:
        preds.setdefault(e.tgt, []).append(e.src)
    memo = {}

    def depth(a):
        if a not in memo:
            memo[a] = 1 + max(map(depth, preds[a])) if a in preds else 0
        return memo[a]

    return [depth(a) for a in range(len(gr.nodes))]


def test_schedule_matches_longest_path_oracle(g):
    rng = np.random.default_rng(5)
    scopes = (["i"], ["i", "j"], ["i", "j", "s", "b", "arr"])
    for k in range(300):
        ctx = scopes[k % len(scopes)]
        tree = random_tree(g, rng, ctx)
        for edge_set, labels in DECODER_EDGES:
            gr = augment_full_tree(tree, ctx, edge_set=edge_set, labels=labels)
            rounds = _longest_path_rounds(gr)
            want = [[a for a, ra in enumerate(rounds) if ra == r] for r in range(max(rounds) + 1)]
            assert gr.schedule == want


def test_schedule_detects_cycles(g):
    # a cycle needs an edge that does not point forward: a self-loop and a
    # back edge, each in target order; and a forward edge out of target order
    tree, ctx = _sub_fixture(g)
    gr = augment_full_tree(tree, ctx)
    for src, tgt, at in ((10, 10, len(gr.src)), (8, 5, int(np.searchsorted(gr.tgt, 5))), (0, 10, 0)):
        with pytest.raises(GraphError):
            propagation_schedule(np.insert(gr.src, at, src), np.insert(gr.tgt, at, tgt),
                                 len(gr.nodes))


def test_batch_unbatch_round_trip(g):
    trees = [_tree(g, "i - j"), _tree(g, "i + 1"), _tree(g, "! b")]
    ctxs = [["i", "j"], ["i"], ["b"]]
    graphs = [augment_full_tree(t, c) for t, c in zip(trees, ctxs)]
    batched = batch_graphs(graphs)
    assert len(batched.nodes) == sum(len(gr.nodes) for gr in graphs)
    assert len(batched.src) == sum(len(gr.src) for gr in graphs)
    # rounds are merged index-wise
    assert len(batched.schedule) == max(len(gr.schedule) for gr in graphs)
    for r, rnd in enumerate(batched.schedule):
        assert rnd == [a + comp["offset"] for gr, comp in zip(graphs, batched.components)
                       for a in (gr.schedule[r] if r < len(gr.schedule) else [])]
    # each component's slice of the arrays, minus its offset, is its own graph
    lo_edge = 0
    for orig, comp in zip(graphs, batched.components):
        lo, hi = comp["offset"], comp["offset"] + comp["n"]
        assert batched.nodes[lo:hi] == orig.nodes
        edges = slice(lo_edge, lo_edge + len(orig.src))
        assert np.array_equal(batched.src[edges] - lo, orig.src)
        assert np.array_equal(batched.tgt[edges] - lo, orig.tgt)
        assert np.array_equal(batched.etype[edges], orig.etype)
        assert np.array_equal(batched.label[edges], orig.label)
        assert all(lo <= a < hi for a in batched.tgt[edges])
        rounds = [[a - lo for a in rnd if lo <= a < hi] for rnd in batched.schedule]
        assert rounds[: len(orig.schedule)] == orig.schedule
        assert comp["root_inh"] - lo == orig.components[0]["root_inh"]
        assert {k: v - lo for k, v in comp["ctx"].items()} == orig.components[0]["ctx"]
        lo_edge = edges.stop
    assert lo_edge == len(batched.src)


def test_export_dot_colors(g):
    tree, ctx = _sub_fixture(g)
    dot = export_dot(augment_full_tree(tree, ctx))
    for needle in ('color="red"', 'color="green"', 'color="black"',
                   'color="orange"', 'color="blue"'):
        assert needle in dot
    assert dot.startswith("digraph")


_DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def test_export_dot_quotes_labels(g):
    # a string literal's spelling holds quotes, and here a backslash too
    tree = _tree(g, '"a\\b" + s')
    dot = export_dot(augment_full_tree(tree, ["s"]))
    line = re.compile(rf"  n\d+( -> n\d+)? \[\w+={_DOT_STRING}( \w+={_DOT_STRING})*\];")
    body = dot.splitlines()
    assert body[0] == "digraph attrgraph {" and body[-1] == "}"
    for text in body[1:-1]:
        assert line.fullmatch(text), text
    labels = [re.sub(r"\\(.)", r"\1", m[1:-1])
              for m in re.findall(rf"label=({_DOT_STRING})", dot)]
    assert '3:joint:"a\\b"' in labels
