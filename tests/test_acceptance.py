"""End-to-end acceptance suite.

Each test covers one gate and prints a single pass/fail line on the real
terminal (capture disabled for that line only). Gate 10 is reported, never
asserted, and runs only when NAGC_RUN_ABLATION=1.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import enumerate_trees, make_sample, random_tree
from nagc import attrgraph as A
from nagc import evalcli as E
from nagc import model as M
from nagc import neural as nn
from nagc import pipeline as P
from nagc.grammar import builtin_grammar, load_grammar
from nagc.syntax import deserialize_decisions, serialize_decisions

import test_attrgraph
import test_model
import test_neural


def _line(capfd, num, text):
    with capfd.disabled():
        print(f"[acceptance {num:02d}] {text}", flush=True)


def _verdict(capfd, num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _line(capfd, num, f"{desc}: {status}{suffix}")
    assert ok, f"acceptance {num}: {desc}{suffix}"


# -- 1: frozen edge oracle on the subtraction fixture -----------------------

def test_acceptance_01_subtraction_fixture_edges(g, capfd):
    tree, ctx = test_attrgraph._sub_fixture(g)
    gr = A.augment_full_tree(tree, ctx)
    got = {(e.src, e.etype, e.tgt, e.label) for e in gr.edges}
    ok = len(gr.nodes) == 11 and got == test_attrgraph.EXPECTED_SUB_EDGES
    _verdict(capfd, 1, "subtraction fixture: 11 nodes, frozen edge multiset", ok)


# -- 2: structural fuzz over 1,000 random trees -----------------------------

def test_acceptance_02_structural_fuzz(g, capfd):
    rng = np.random.default_rng(2024)
    scopes = (["i"], ["i", "j"], ["i", "j", "s", "b", "arr"])
    bad = 0
    for k in range(1000):
        ctx = scopes[k % len(scopes)]
        tree = random_tree(g, rng, ctx)
        gr = A.augment_full_tree(tree, ctx)
        round_of = {a: r for r, rnd in enumerate(gr.schedule) for a in rnd}
        comp = gr.components[0]
        expected_sources = {comp["root_inh"]} | set(comp["ctx"].values())
        if not test_attrgraph._independent_cycle_check(gr):
            bad += 1
        elif any(round_of[e.src] >= round_of[e.tgt] for e in gr.edges):
            bad += 1
        elif set(gr.sources()) != expected_sources:
            bad += 1
    _verdict(capfd, 2, "1000-tree fuzz: acyclic, layered, sources as expected",
             bad == 0, f"{bad} violations")


# -- 3: incremental vs full-graph attribute states --------------------------

def test_acceptance_03_incremental_full_equivalence(fitted_grammar, token_vocab,
                                                    corpus_samples, capfd):
    m = M.Model(fitted_grammar, config="NAG", encoder="seq", hidden=32,
                emb_dim=16, edge_emb=8, seed=0, token_vocab=token_vocab)
    worst = 0.0
    for s in corpus_samples[:100]:
        pr = M.prep_sample(m, s)
        with nn.no_grad():
            encs = M.encode_many(m, [pr])
            full = M.propagate(m, pr.graph, pr.label_idx, [pr], encs)
        inc_states, _ = M.forced_decode(m, pr)
        for aid, vec in inc_states.items():
            worst = max(worst, float(np.max(np.abs(vec - full.data[aid]))))
    _verdict(capfd, 3, "incremental vs full propagation over 100 trees",
             worst < 1e-5, f"max abs diff {worst:.2e}")


# -- 4: finite-difference gradient verification -----------------------------

def test_acceptance_04_gradient_checks(capfd):
    test_neural.test_linear_gradients()
    test_neural.test_gru_gradients()
    test_neural.test_embedding_gradients()
    test_neural.test_attention_gradients()
    test_neural.test_masked_softmax_gradients()
    test_neural.test_masked_log_softmax_gradients()
    test_neural.test_pooling_gradients()
    test_neural.test_ggnn_gradients()

    # end-to-end: full loss on a 3-node tree, all parameters, 64-bit
    g = load_grammar(test_model.SMALL)
    m = M.Model(g, config="NAG", encoder="seq", hidden=8, emb_dim=4,
                edge_emb=4, seed=1,
                token_vocab=["<UNK>", "?HOLE?", "x", "0"])
    m.params = m.params.astype(np.float64)
    from nagc.syntax import apply_production, bind_terminal, new_partial_ast

    t = new_partial_ast(g)
    apply_production(t, 0, g.by_lhs("S")[2])  # S -> Var
    bind_terminal(t, 1, "x")
    s = make_sample(t, {"x": "int"}, ["x", "=", "0", ";"], [])
    pr = M.prep_sample(m, s)
    # a coarser step keeps fp roundoff noise below near-zero gradients
    worst = test_neural._fd_check(m.params, lambda: M.batch_loss(m, [pr])[0],
                                  samples_per_tensor=3, eps=1e-4)
    # and the same through the graph encoder's GGNN
    worst = max(worst, test_model.graph_encoder_loss_fd_check())
    # the decoder's message-passing kernel under each decoder edge set
    for config in ("Tree", "ASN", "Syn", "NAG"):
        worst = max(worst, test_model.decoder_kernel_fd_check(config))
    _verdict(capfd, 4, "finite-difference gradients, layers + seq and graph end-to-end loss"
             " + decoder kernel per edge set", worst < 1e-4, f"worst rel err {worst:.2e}")


# -- 5: distribution soundness across random parameterizations --------------

def test_acceptance_05_distribution_soundness(fitted_grammar, token_vocab, capfd):
    g = fitted_grammar
    nts = sorted({p.lhs for p in g.productions})
    worst = 0.0
    exact_off_support = True
    rng = np.random.default_rng(7)
    with nn.no_grad():
        for seed in range(200):
            m = M.Model(g, config="NAG", encoder="seq", hidden=8, emb_dim=4,
                        edge_emb=4, seed=seed, token_vocab=token_vocab)
            key = nn.Tensor(rng.normal(size=8).astype(np.float32))
            enc = test_model._fake_enc(m, rng, T=5)
            rows = [enc.var_reps["x"]]
            for nt in nts:
                probs = M.pick_production_dist(m, key, nt, enc, rows)
                worst = max(worst, abs(float(probs.data.sum()) - 1.0))
                off = ~np.isfinite(m.mask(nt))
                if np.any(probs.data[off] != 0.0):
                    exact_off_support = False
            vd = M.pick_variable_dist(m, key, [enc.var_reps["x"], key])
            worst = max(worst, abs(float(vd.data.sum()) - 1.0))
            for cls in sorted(g.literal_vocab):
                lex = ([1, 3], ["5", "5"]) if cls == "int" else ([], [])
                probs, entries = M.pick_literal_dist(m, key, cls, enc, lex)
                merged = M.literal_spelling_probs(probs, entries)
                worst = max(worst, abs(sum(merged.values()) - 1.0))
    # hand-computed copy-merge oracle on the duplicated-"0" fixture
    test_model.test_literal_merge_matches_hand_computed_softmax(fitted_grammar,
                                                                token_vocab)
    ok = worst < 1e-6 and exact_off_support
    _verdict(capfd, 5, "200 parameterizations: sums 1±1e-6, off-support 0, copy-merge oracle",
             ok, f"worst sum err {worst:.2e}")


# -- 6: total probability over an enumerable grammar ------------------------

def test_acceptance_06_total_probability(capfd):
    g = load_grammar(test_model.SMALL)
    scope = {"x": "int", "y": "int"}
    support = {"int": ["0", "1", "<UNK:int>", "5"]}
    worst = 0.0
    for seed in range(5):
        m = M.Model(g, config="NAG", encoder="seq", hidden=16, emb_dim=8, seed=seed,
                    token_vocab=["<UNK>", "?HOLE?", "x", "y", "0", "5"])
        total = 0.0
        for t in enumerate_trees(g, ["x", "y"], support):
            s = make_sample(t, scope, ["x", "=", "0", ";", "y", "=", "5", ";"], [])
            nll, _ = M.sample_loss(m, s)
            total += math.exp(-nll)
        worst = max(worst, abs(total - 1.0))
    _verdict(capfd, 6, "tree probabilities sum to 1 over all derivations, 5 seeds",
             worst < 1e-5, f"worst |total-1| {worst:.2e}")


# -- 7: overfit a 50-sample set ----------------------------------------------

def test_acceptance_07_overfit(fitted_grammar, token_vocab, folds, capfd):
    train50 = folds["train"][:50]
    m = M.Model(fitted_grammar, config="NAG", encoder="graph", hidden=32,
                emb_dim=16, edge_emb=8, seed=0, token_vocab=token_vocab)
    t0 = time.time()
    epochs = 0
    lr = 1e-3
    ppl, acc = float("inf"), 0.0
    while epochs < 500:
        M.train(m, train50, epochs=20, seed=epochs, lr=lr)
        epochs += 20
        ppl, _ = E.perplexity(m, train50)
        if ppl < 1.3:
            lr = 3e-4  # settle once close to the optimum
        if ppl <= 1.1:
            acc = E.evaluate(m, train50, width=1).acc1
            if acc >= 0.95:
                break
    elapsed = time.time() - t0
    ok = ppl <= 1.1 and acc >= 0.95 and elapsed < 600
    _verdict(capfd, 7, "overfit 50 samples, graph encoder, full decoder config", ok,
             f"ppl {ppl:.3f}, acc@1 {acc:.2f}, {epochs} epochs, {elapsed:.0f}s")


# -- 8: decode safety under fuzzing -----------------------------------------

def test_acceptance_08_decode_safety(fitted_grammar, token_vocab, corpus_samples, capfd):
    t0 = time.time()
    models = [
        M.Model(fitted_grammar, config=name, encoder="seq", hidden=16, emb_dim=8,
                edge_emb=4, seed=i, token_vocab=token_vocab)
        for i, name in enumerate(("Tree", "ASN", "Syn", "NAG"))
    ]
    total = 0
    invalid = 0
    out_of_scope = 0
    i = 0
    while total < 10000:
        s = corpus_samples[i % len(corpus_samples)]
        m = models[i % len(models)]
        i += 1
        res = M.decode_beam(m, s.before, s.after, s.scope, width=8, max_steps=40)
        for tree, _ in res.hypotheses:
            total += 1
            seq = serialize_decisions(tree)
            try:
                deserialize_decisions(seq, m.grammar)
            except Exception:
                invalid += 1
                continue
            picked = {rec[1:] for rec in seq.split() if rec.startswith("V")}
            if not picked <= set(s.scope):
                out_of_scope += 1
    elapsed = time.time() - t0
    ok = invalid == 0 and out_of_scope == 0 and elapsed < 300
    _verdict(capfd, 8, "10,000 fuzz-decoded hypotheses: all valid, no scope escapes",
             ok, f"{total} hyps, {invalid} invalid, {out_of_scope} out-of-scope, {elapsed:.0f}s")


# -- 9: decode equivalences ---------------------------------------------------

def test_acceptance_09_decode_equivalences(fitted_grammar, token_vocab, folds, capfd):
    m = M.Model(fitted_grammar, config="NAG", encoder="seq", hidden=32,
                emb_dim=16, edge_emb=8, seed=3, token_vocab=token_vocab)
    # trained a little so that its trees end within max_steps: an untrained
    # model finishes too few holes to compare
    M.train(m, folds["train"][:20], epochs=4, seed=0)
    greedy_ok = True
    compared = 0
    for s in folds["test"][:10]:
        res = M.decode_beam(m, s.before, s.after, s.scope, width=1)
        if not res.hypotheses:
            continue
        compared += 1
        tree, lp = res.hypotheses[0]
        forced = make_sample(tree, s.scope, s.before, s.after)
        pr = M.prep_sample(m, forced)
        _, dists = M.forced_decode(m, pr)
        total = 0.0
        for dec, dist in zip(pr.plan, dists):
            if dec[0] == "P":
                chosen = float(dist[dec[2]])
                best = float(dist.max())
            elif dec[0] == "V":
                chosen = float(dist[pr.ctx_order.index(dec[2])])
                best = float(dist.max())
            else:
                entries = list(m.grammar.literal_vocab[dec[2]]) + list(pr.lex[dec[2]][1])
                merged = {}
                for sp, pv in zip(entries, dist):
                    merged[sp] = merged.get(sp, 0.0) + float(pv)
                chosen = merged[dec[3]]
                best = max(merged.values())
            if chosen < best - 1e-9:  # width-1 must have taken the argmax
                greedy_ok = False
            total += math.log(chosen)
        if abs(total - lp) > 1e-5:
            greedy_ok = False

    tf_worst = 0.0
    for s in folds["test"][:10]:
        pr = M.prep_sample(m, s)
        with nn.no_grad():
            encs = M.encode_many(m, [pr])
            states = M.propagate(m, pr.graph, pr.label_idx, [pr], encs)
            tf = test_model._teacher_dists(m, pr, states, encs[0])
        _, inc = M.forced_decode(m, pr)
        for a, b in zip(tf, inc):
            tf_worst = max(tf_worst, float(np.max(np.abs(a - b))))

    ok = greedy_ok and compared >= 5 and tf_worst < 1e-5
    _verdict(capfd, 9, "width-1 beam is greedy; teacher dists match forced decode",
             ok, f"{compared}/10 greedy holes compared, teacher/forced max diff {tf_worst:.2e}")


# -- 10: ablation trend (reported, never gated) ------------------------------

def test_acceptance_10_ablation_trend(capfd):
    if os.environ.get("NAGC_RUN_ABLATION") != "1":
        _line(capfd, 10, "ablation trend: SKIPPED (reported only; "
                         "set NAGC_RUN_ABLATION=1 to run)")
        pytest.skip("ablation trend is opt-in")
    n_files = int(os.environ.get("NAGC_ABLATION_FILES", "480"))
    epochs = int(os.environ.get("NAGC_ABLATION_EPOCHS", "50"))
    g = builtin_grammar()
    files = P.generate_corpus(seed=17, n_files=n_files, stmts_per_file=8)
    samples = P.dedup(P.extract_samples(files, g))
    folds = P.split(samples, seed=0)
    table = E.ablation_comparison(folds["train"], folds["test"], encoder="graph",
                                  seeds=(0, 1, 2), epochs=epochs,
                                  log=lambda line: _line(capfd, 10, line))
    hits = sum(
        1 for i in range(3)
        if table["NAG"][i] <= table["Syn"][i]
        and table["NAG"][i] <= table["ASN"][i] <= table["Tree"][i]
    )
    status = "holds" if hits >= 2 else "does not hold"
    _line(capfd, 10, f"ablation trend {status} in {hits}/3 seeds (reported only)")


# -- 11: determinism ----------------------------------------------------------

def test_acceptance_11_determinism(fitted_grammar, token_vocab, folds, tmp_path, capfd):
    paths = {}
    for encoder in ("seq", "graph"):
        kw = dict(config="ASN", encoder=encoder, hidden=16, emb_dim=8, edge_emb=4,
                  seed=5, token_vocab=token_vocab)
        for run in range(2):
            m = M.Model(fitted_grammar, **kw)
            M.train(m, folds["train"][:10], epochs=3, seed=2)
            path = str(tmp_path / f"{encoder}{run}.ckpt")
            M.save_model(m, path)
            paths[encoder, run] = path
    raw = {}
    for key, path in paths.items():
        with open(path, "rb") as f:
            raw[key] = f.read()
    ckpt_identical = all(raw[enc, 0] == raw[enc, 1] for enc in ("seq", "graph"))

    m = M.load_model(paths["seq", 0])
    r1 = E.evaluate(m, folds["test"][:8], width=3)
    r2 = E.evaluate(m, folds["test"][:8], width=3)
    ok = ckpt_identical and r1 == r2
    _verdict(capfd, 11, "bit-identical seq and graph retrain checkpoints; repeatable evaluation",
             ok, f"ckpt identical: {ckpt_identical}, reports equal: {r1 == r2}")
