import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from conftest import node_tree, random_tree

from nagc import lang as L
from nagc.grammar import builtin_grammar
from nagc.lang import (
    HOLE_TOKEN,
    LangError,
    parse_expression,
    parse_program,
    program_graph,
    render_tree_tokens,
    tokenize,
)
from nagc.pipeline import extract_samples, generate_corpus
from nagc.syntax import serialize_decisions, serialize_tokens, trees_equal


def test_tokenize_basics():
    assert tokenize('var s : string = "a b" ;') == ["var", "s", ":", "string", "=", '"a b"', ";"]
    assert tokenize("i<=j && !b") == ["i", "<=", "j", "&&", "!", "b"]
    assert tokenize("x = ?HOLE? ;") == ["x", "=", HOLE_TOKEN, ";"]


def test_tokenize_rejects_garbage():
    with pytest.raises(LangError):
        tokenize("a $ b")


# a spaced string literal beside garbage, garbage at either end, a lone quote
# and a lone `?`: each gives the tokens or the error text it always gave
@pytest.mark.parametrize("text, want", [
    ('"a b" $', "cannot tokenize '$'"),
    ('x $ "a b"', "cannot tokenize '$'"),
    ("i = 1 ;#", "cannot tokenize '#'"),
    ('"', "cannot tokenize '\"'"),
    ("i = j ?", "cannot tokenize '?'"),
    ('x = "a\nb" ;', "cannot tokenize '\"'"),
    ('"a b""c"', ['"a b"', '"c"']),
    ('\tab"c d" ', ["ab", '"c d"']),
    ("x=?HOLE?;", ["x", "=", HOLE_TOKEN, ";"]),
    (" \n", []),
])
def test_tokenize_edge_cases(text, want):
    if isinstance(want, list):
        assert tokenize(text) == want
    else:
        with pytest.raises(LangError) as e:
            tokenize(text)
        assert str(e.value) == want


@pytest.mark.parametrize(
    "text",
    [
        "i - j",
        "i - j - k",  # left associative
        "i + j * k",
        "( i + j ) * k",
        "a || b && c",
        "! a && b",
        "s . Substring ( 0 , i ) . Length",
        "arr [ i + 1 ]",
        's . IndexOf ( "x" ) < 3',
    ],
)
def test_parse_render_round_trip(text, g):
    toks = tokenize(text)
    assert render_tree_tokens(node_tree(parse_expression(toks), g)) == toks


def test_render_parse_round_trip_random_trees(g):
    # every production, at every depth and beside every other, renders to
    # tokens that parse back to the same derivation tree
    rng = np.random.default_rng(0)
    used = set()
    for _ in range(2000):
        t = random_tree(g, rng, ["i", "s", "b", "arr"], max_depth=int(rng.integers(1, 6)))
        back = node_tree(parse_expression(render_tree_tokens(t)), g)
        assert trees_equal(t, back), render_tree_tokens(t)
        used |= {n.prod_id for n in t.nodes if n.prod_id is not None}
    assert used == set(range(len(g.productions)))


# a program with one form nested n levels deep
_NESTED = {
    "parens": lambda n: "var x : int = " + "( " * n + "1" + " )" * n + " ;",
    "not": lambda n: "var b : bool = " + "! " * n + "true ;",
    "index": lambda n: "var a : int [ ] ; var x : int = " + "a [ " * n + "1" + " ]" * n + " ;",
    "if": lambda n: "var b : bool = true ; " + "if ( b ) { " * n + "b = false ; " + "} " * n,
    "while": lambda n: "var b : bool = true ; " + "while ( b ) { " * n + "b = false ; " + "} " * n,
    # left-nested: each operator or postfix after the first nests the chain
    # so far one level deeper
    "chain": lambda n: "var y : int = 1" + "".join(f" {'+-'[i % 2]} 1" for i in range(n)) + " ;",
    "postfix": lambda n: "var s : string ; var t : string = s" + " . Substring ( 0 , 1 )" * n + " ;",
}


@pytest.mark.parametrize("form", sorted(_NESTED))
def test_nesting_bound_is_the_same_for_every_form(form):
    parse_program(tokenize(_NESTED[form](L.MAX_NESTING)))
    with pytest.raises(LangError, match=f"^nested deeper than {L.MAX_NESTING}$"):
        parse_program(tokenize(_NESTED[form](L.MAX_NESTING + 1)))


@pytest.mark.parametrize("tail, ok", [(48, True), (49, False)])
def test_a_chain_nests_what_it_extends(tail, ok):
    # the inner chain's deepest operand sits at level 2 (a right operand in
    # parentheses) + 50 (its operators) = 52, and each outer operator after
    # the first pushes it one level deeper
    text = "var y : int = 1 + ( 1" + " + 1" * 50 + " )" + " + 1" * tail + " ;"
    if ok:
        parse_program(tokenize(text))
    else:
        with pytest.raises(LangError, match=f"^nested deeper than {L.MAX_NESTING}$"):
            parse_program(tokenize(text))


def test_precedence_shapes():
    e = parse_expression(tokenize("i - j - k"))
    assert e.form == ("-",) and e.parts[0].form == ("-",)  # (i - j) - k
    e = parse_expression(tokenize("i + j * k"))
    assert e.form == ("+",) and e.parts[1].form == ("*",)


def test_expr_tree_round_trip(g):
    for text in ("i - j", "arr [ i ] + s . Length", "s . Contains ( t ) || ! b"):
        tree = node_tree(parse_expression(tokenize(text)), g)
        assert serialize_tokens(tree) == tokenize(text)
        back = node_tree(parse_expression(render_tree_tokens(tree)), g)
        assert trees_equal(tree, back)


def test_render_tree_restores_disambiguating_parens(g):
    # "( i + j ) * k" has the same derivation whether or not the source
    # carried parens; rendering must re-insert them
    tree = node_tree(parse_expression(tokenize("( i + j ) * k")), g)
    assert render_tree_tokens(tree) == ["(", "i", "+", "j", ")", "*", "k"]


def test_parse_program_sites_and_scope():
    text = """
    var i : int ;
    var s : string = "x" ;
    if ( i < 3 ) { var b : bool = true ; i = i + 1 ; }
    i = s . Length ;
    """
    stmts, sites = parse_program(tokenize(text))
    assert [s.hole_type for s in sites] == ["string", "bool", "bool", "int", "int"]
    # declaration initializer must not see the variable being declared
    assert "s" not in sites[0].scope
    # b is not in scope in its own initializer but is for the next statement
    assert "b" not in sites[2].scope
    assert sites[3].scope == {"i": "int", "s": "string", "b": "bool"}
    # and it falls out of scope when the block closes
    assert sites[4].scope == {"i": "int", "s": "string"}


def test_block_scopes_match_the_stacked_merge():
    # blocks that shadow outer names and add their own: each site's scope is
    # what merging a stack of one dict per block, outermost first, gives: the
    # outer names in declaration order, a shadowed name keeping its place
    # with the inner type, then the block's new names
    text = """
    var i : int ; var s : string ;
    if ( true ) {
      var s : bool = i < 1 ; var k : int = i ;
      while ( s ) { var i : string = "a" ; var z : int = 1 ; s = false ; }
      k = 2 ;
    } else { var q : int = 3 ; i = q ; }
    i = 4 ;
    """
    _, sites = parse_program(tokenize(text))
    outer = [("i", "int"), ("s", "string")]
    want = [
        outer,  # if condition
        outer,  # var s : bool = ...
        [("i", "int"), ("s", "bool")],  # var k = ...
        [("i", "int"), ("s", "bool"), ("k", "int")],  # while condition
        [("i", "int"), ("s", "bool"), ("k", "int")],  # var i : string = ...
        [("i", "string"), ("s", "bool"), ("k", "int")],  # var z = ...
        [("i", "string"), ("s", "bool"), ("k", "int"), ("z", "int")],  # s = false
        [("i", "int"), ("s", "bool"), ("k", "int")],  # k = 2
        outer,  # var q = 3
        outer + [("q", "int")],  # i = q
        outer,  # i = 4
    ]
    assert [list(site.scope.items()) for site in sites] == want


def test_parse_program_rejects_undeclared_assignment():
    with pytest.raises(LangError):
        parse_program(tokenize("x = 1 ;"))


@pytest.mark.parametrize("text", ["var ( : int = 1 ;", "var 5 : int ;", "var true : bool ;",
                                  "var while : int ;", "var x : int = var ;"])
def test_only_identifiers_name_variables(text):
    with pytest.raises(LangError, match="is not an identifier|unexpected token"):
        parse_program(tokenize(text))


def test_declared_types_are_the_grammar_types():
    _, sites = parse_program(tokenize("var a : int [ ] ; var b : bool ; var i : int = a . Length ;"))
    assert sites[0].scope == {"a": "int[]", "b": "bool"}
    for text in ["var f : float ;", "var b : bool [ ] ;", "var s : string [ ] ;"]:
        with pytest.raises(LangError, match="^unknown type "):
            parse_program(tokenize(text))


def test_hole_is_not_a_site():
    _, sites = parse_program(tokenize("var i : int = ?HOLE? ;"))
    assert sites == []


def _edges(pg, etype):
    """The (src, tgt) pairs of one program edge type, in order."""
    k = L.PROGRAM_EDGE_TYPES.index(etype)
    return list(zip(pg.src[pg.etype == k].tolist(), pg.tgt[pg.etype == k].tolist()))


def test_program_graph_structure():
    toks = tokenize("var i : int = 1 + 2 ; i = i + i ;")
    pg = program_graph(toks)
    assert pg.labels[: len(toks)] == toks  # token i is node i
    # NextToken forms a chain over all tokens
    assert _edges(pg, "NextToken") == [(i, i + 1) for i in range(len(toks) - 1)]
    # LastUse: i occurs at decl, lhs, and twice on the rhs -> 3 links
    assert _edges(pg, "LastUse") == [(1, 9), (9, 11), (11, 13)]
    assert pg.decl_nodes["i"] == 1
    assert pg.hole_node is None
    # every token is attached below some internal node
    children = {c for _, c in _edges(pg, "Child")}
    assert set(range(len(toks))) <= children


@pytest.mark.parametrize("text, want", [
    ('var Length : int = 1 ; var s : string = "a" ; var i : int = s . Length + Length ;',
     [(1, 23), (8, 19)]),
    ("var int : int = 1 ; var j : int = int ;", [(1, 12)]),
], ids=["member", "type"])
def test_last_use_links_variable_tokens_only(text, want):
    # a member or type name spelled like a declared variable is no use of it
    assert _edges(program_graph(tokenize(text)), "LastUse") == want


def test_program_graph_hole_node():
    toks = tokenize("var i : int ; i = ?HOLE? ;")
    pg = program_graph(toks)
    assert pg.hole_node is not None
    assert pg.labels[pg.hole_node] == HOLE_TOKEN


@pytest.fixture(scope="module")
def corpus_contexts():
    files = generate_corpus(0, 60, 8)
    samples = extract_samples(files, builtin_grammar())
    return [s.before + [HOLE_TOKEN] + s.after for s in samples]


def test_program_graphs_are_pinned(corpus_contexts):
    # sha256 over every context graph's labels, hole node, declaration nodes
    # and edge arrays: a change that moves one node or edge fails here
    h = hashlib.sha256()
    for toks in corpus_contexts:
        pg = program_graph(toks)
        h.update(json.dumps([pg.labels, pg.hole_node, pg.decl_nodes], sort_keys=True).encode())
        for a in (pg.src, pg.tgt, pg.etype):
            h.update(a.tobytes())
    assert h.hexdigest() == "933a8ad2198855dd766e288417b245d385ff6c620aa06ce56a18592f6c463a70"


def test_program_graph_arrays_are_typed_and_sorted(corpus_contexts):
    assert len(corpus_contexts) > 300
    for toks in corpus_contexts:
        pg = program_graph(toks)
        for a in (pg.src, pg.tgt, pg.etype):
            assert a.dtype == np.int64 and a.shape == pg.etype.shape
        assert np.all(np.diff(pg.etype) >= 0)
        assert set(pg.etype.tolist()) == set(range(len(L.PROGRAM_EDGE_TYPES)))
        assert pg.src.min() >= 0 and pg.tgt.min() >= 0
        assert max(pg.src.max(), pg.tgt.max()) < len(pg.labels)
        assert pg.labels[: len(toks)] == toks and pg.hole_node == toks.index(HOLE_TOKEN)


def test_program_graph_next_token_and_last_use_edges(corpus_contexts):
    for toks in corpus_contexts:
        pg = program_graph(toks)
        assert _edges(pg, "NextToken") == [(i, i + 1) for i in range(len(toks) - 1)]
        # each declared name's occurrences chained in token order, names sorted
        declared = sorted({toks[i + 1] for i, t in enumerate(toks) if t == "var"})
        want = []
        for name in declared:
            occ = [i for i, t in enumerate(toks) if t == name]
            want += list(zip(occ, occ[1:]))
        assert _edges(pg, "LastUse") == want


def test_program_graph_child_edges_form_a_tree_over_tokens(corpus_contexts):
    for toks in corpus_contexts:
        pg = program_graph(toks)
        child = _edges(pg, "Child")
        tgts = Counter(t for _, t in child)
        # every token has exactly one parent, and every parent is internal
        assert all(tgts[i] == 1 for i in range(len(toks)))
        assert all(s >= len(toks) for s, _ in child)


# the texts a malformed postfix expression is refused with
@pytest.mark.parametrize("text, want", [
    ("s . Foo ( t )", "unknown method 'Foo'"),
    ("s . ( t )", "unknown method '('"),
    ("s . Contains t )", "expected '(', got 't' at token 3"),
    ("s . Substring ( i i )", "expected ',', got 'i' at token 5"),
    ("s . Contains ( t ]", "expected ')', got ']' at token 5"),
    ("s . Contains ( t", "unexpected end of input"),
    ("a [ i )", "expected ']', got ')' at token 3"),
    ("a [ i", "unexpected end of input"),
    ("s .", "unexpected end of input"),
    ("a [", "unexpected end of input"),
    ("s . Substring ( i ,", "unexpected end of input"),
])
def test_postfix_error_texts(text, want):
    with pytest.raises(LangError) as e:
        parse_expression(tokenize(text))
    assert str(e.value) == want
