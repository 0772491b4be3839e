import numpy as np
import pytest

from nagc import grammar as G
from nagc import lang as L
from nagc import model as M
from nagc import pipeline as P
from nagc.grammar import Kind


@pytest.fixture(scope="session")
def g():
    return G.builtin_grammar()


@pytest.fixture(scope="session")
def corpus_samples(g):
    files = P.generate_corpus(seed=11, n_files=40, stmts_per_file=8)
    return P.dedup(P.extract_samples(files, g))


@pytest.fixture(scope="session")
def folds(corpus_samples):
    return P.split(corpus_samples, seed=0)


@pytest.fixture(scope="session")
def fitted_grammar(g, folds):
    return P.literal_vocab_from_samples(folds["train"], g)


@pytest.fixture(scope="session")
def token_vocab(folds):
    return M.token_vocab_from_samples(folds["train"])


def frontier_site(t):
    """The generation order's rule, kept apart from the walk in nagc.syntax
    as its oracle: the first node in preorder that is an unexpanded
    nonterminal or an unbound variable/literal slot; None once complete."""
    for nid in t.preorder():
        node = t.nodes[nid]
        kind = t.grammar.symbols[node.label].kind
        open_nonterminal = kind is Kind.NONTERMINAL and node.prod_id is None
        open_slot = kind in (Kind.VARIABLE, Kind.LITERAL) and node.binding is None
        if open_nonterminal or open_slot:
            return nid
    return None


def node_tree(e, g):
    """Derivation tree of expression node e, ill-typed or not: its decision
    records, read back. Each node's production, then a leaf's variable or
    literal, then its parts, as `lang.expr_decisions` writes them for a
    well-typed expression."""
    from nagc.syntax import deserialize_decisions, record

    def records(n):
        out = [record("P", str(g.by_form[n.form].pid))]
        if n.spelling is not None:
            kind, cls = n.form
            out.append(record("V", n.spelling) if kind is Kind.VARIABLE else record("L", cls, n.spelling))
        for part in n.parts:
            out += records(part)
        return out

    return deserialize_decisions(" ".join(records(e)), g)


def random_tree(g, rng, scope_vars, max_depth=4):
    """Random complete derivation tree, built in frontier_site order;
    terminal-weighted beyond max_depth."""
    from nagc.syntax import apply_production, bind_terminal, new_partial_ast

    t = new_partial_ast(g)
    while True:
        site = frontier_site(t)
        if site is None:
            return t
        node = t.nodes[site]
        sym = g.symbols[node.label]
        if sym.kind is Kind.NONTERMINAL:
            opts = g.by_lhs(node.label)
            depth = 0
            nid = site
            while t.nodes[nid].parent is not None:
                nid = t.nodes[nid].parent
                depth += 1
            if depth >= max_depth:
                # prefer productions that do not recurse
                flat = [p for p in opts if not any(g.symbols[s].kind is Kind.NONTERMINAL for s in p.rhs)]
                opts = flat or opts
            apply_production(t, site, opts[rng.integers(len(opts))])
        elif sym.kind is Kind.VARIABLE:
            bind_terminal(t, site, scope_vars[rng.integers(len(scope_vars))])
        else:
            pool = {
                "int": ["0", "1", "42"],
                "string": ['"a"', '"b"'],
                "bool": ["true", "false"],
            }[sym.lit_class]
            bind_terminal(t, site, pool[rng.integers(len(pool))])


def enumerate_trees(g, scope_vars, lit_support):
    """Every complete derivation tree, branching over productions, scope
    variables and the given literal spelling supports. Only usable on
    non-recursive grammars."""
    from nagc.syntax import apply_production, bind_terminal, new_partial_ast

    results = []

    def rec(t):
        site = frontier_site(t)
        if site is None:
            results.append(t)
            return
        sym = g.symbols[t.nodes[site].label]
        if sym.kind is Kind.NONTERMINAL:
            for p in g.by_lhs(t.nodes[site].label):
                c = t.copy()
                apply_production(c, site, p)
                rec(c)
        elif sym.kind is Kind.VARIABLE:
            for v in scope_vars:
                c = t.copy()
                bind_terminal(c, site, v)
                rec(c)
        else:
            for sp in lit_support[sym.lit_class]:
                c = t.copy()
                bind_terminal(c, site, sp)
                rec(c)

    rec(new_partial_ast(g))
    return results


def make_sample(tree, scope, before=None, after=None):
    """Sample wrapper around an already-built tree (context may be synthetic)."""
    from nagc.syntax import serialize_decisions

    before = before if before is not None else ["var", "i", ":", "int", ";"]
    after = after if after is not None else [";"]
    return P.Sample(
        file="synthetic",
        before=before,
        after=after,
        hole_type="",
        scope=dict(scope),
        target=serialize_decisions(tree),
    )
