import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nagc import evalcli as E
from nagc import lang
from nagc import model as M
from nagc import neural as nn
from nagc import pipeline as P
from nagc.evalcli import DataError, EvalReport, run_cli
from nagc.grammar import load_grammar
from nagc.syntax import (
    Walk, apply_production, bind_terminal, deserialize_decisions, new_partial_ast,
    serialize_decisions,
)

from conftest import make_sample, node_tree

FORCED = """
@start S
S -> "a" T
T -> "b"
"""

THREE_WAY = """
@start S
S -> "a"
S -> "b"
S -> "c"
"""


def _forced_sample(g):
    t = new_partial_ast(g)
    apply_production(t, Walk(t).site, g.by_lhs("S")[0])
    apply_production(t, Walk(t).site, g.by_lhs("T")[0])
    return make_sample(t, {})


def _three_way_sample(g, which):
    t = new_partial_ast(g)
    apply_production(t, Walk(t).site, g.by_lhs("S")[which])
    return make_sample(t, {})


@pytest.fixture(scope="module")
def trained(fitted_grammar, folds, token_vocab):
    m = M.Model(fitted_grammar, config="NAG", encoder="seq", hidden=32, emb_dim=16,
                seed=0, token_vocab=token_vocab)
    M.train(m, folds["train"][:20], epochs=8, seed=0, log=lambda rec: None)
    return m


@pytest.fixture(scope="module")
def trained_graph(fitted_grammar, folds, token_vocab):
    m = M.Model(fitted_grammar, config="NAG", encoder="graph", hidden=32, emb_dim=16,
                edge_emb=8, seed=0, token_vocab=token_vocab)
    M.train(m, folds["train"][:20], epochs=4, seed=0, log=lambda rec: None)
    return m


def test_report_invariants(trained, folds):
    fold = folds["test"][:12]
    rep = E.evaluate(trained, fold, width=5)
    assert isinstance(rep, EvalReport)
    assert rep.n == len(fold)
    assert rep.config == "NAG" and rep.seed == trained.seed
    assert rep.ppl_decision >= 1.0 and rep.ppl_token >= 1.0
    for r in (rep.well_typed, rep.well_typed_no_unk, rep.acc1, rep.acc5):
        assert 0.0 <= r <= 1.0
    assert rep.acc1 <= rep.acc5
    assert rep.well_typed_no_unk >= rep.well_typed
    # the beam counters are the fold's sums of the BeamResult counters
    results = [M.decode_beam(trained, s.before, s.after, s.scope, width=5) for s in fold]
    for k in ("expanded", "pruned", "dead_end", "discarded"):
        assert getattr(rep, k) == sum(getattr(res, k) for res in results), k
    assert rep.expanded >= rep.pruned > 0


def test_report_nll_by_kind(trained, folds):
    # the per-kind sums of the teacher-forced NLL add up to the fold's: its
    # per-decision perplexity is exp(sum / count); two passes agree
    fold = folds["test"][:12]
    rep = E.evaluate(trained, fold, width=2)
    nll = rep.nll_P + rep.nll_V + rep.nll_L
    count = rep.decisions_P + rep.decisions_V + rep.decisions_L
    assert count == sum(len(M.prep_sample(trained, s).plan) for s in fold)
    assert min(rep.decisions_P, rep.decisions_V, rep.decisions_L) > 0
    assert min(rep.nll_P, rep.nll_V, rep.nll_L) > 0.0
    assert abs(math.exp(nll / count) - rep.ppl_decision) <= 1e-9 * rep.ppl_decision
    assert E.evaluate(trained, fold, width=2) == rep


def test_report_seed_is_the_models(fitted_grammar, token_vocab, folds):
    m = M.Model(fitted_grammar, config="NAG", encoder="seq", hidden=16, emb_dim=8,
                seed=3, token_vocab=token_vocab)
    assert E.evaluate(m, folds["test"][:2], width=1).seed == 3


def test_evaluate_deterministic(trained, folds):
    fold = folds["test"][:6]
    a = E.evaluate(trained, fold, width=3)
    b = E.evaluate(trained, fold, width=3)
    assert a == b


def test_report_json_round_trip(trained, folds):
    from dataclasses import asdict

    rep = E.evaluate(trained, folds["test"][:4], width=2)
    back = EvalReport(**json.loads(json.dumps(asdict(rep))))
    assert back == rep


@pytest.mark.parametrize("which", ["trained", "trained_graph"])
def test_evaluate_preps_and_encodes_each_sample_once(which, request, folds, monkeypatch):
    model = request.getfixturevalue(which)
    fold = folds["test"][:25]  # two chunks, the second short
    prepped, graphs, chunks = [], [], []
    real_prep, real_graph, real_many = M.prep_sample, lang.program_graph, M.encode_many

    def prep_sample(model_, sample):
        prepped.append((sample, real_prep(model_, sample)))
        return prepped[-1][1]

    def program_graph(tokens):
        graphs.append(tokens)
        return real_graph(tokens)

    def encode_many(model_, preppeds):
        chunks.append(list(preppeds))
        return real_many(model_, preppeds)

    def forbidden(*args, **kwargs):
        raise AssertionError("a context prepped or encoded outside walk_fold's chunks")

    monkeypatch.setattr(M, "prep_sample", prep_sample)
    monkeypatch.setattr(lang, "program_graph", program_graph)
    monkeypatch.setattr(M, "encode_many", encode_many)
    for name in ("encode", "decode_beam"):
        monkeypatch.setattr(M, name, forbidden)
    rep = E.evaluate(model, fold, width=5)
    assert rep.n == len(fold)
    assert [s for s, _ in prepped] == fold
    assert len(graphs) == (len(fold) if model.encoder == "graph" else 0)
    assert [len(c) for c in chunks] == [20, 5]
    assert [id(pr) for c in chunks for pr in c] == [id(pr) for _, pr in prepped]


def _exact_beam(res):
    return ([(serialize_decisions(t), lp) for t, lp in res.hypotheses],
            res.expanded, res.pruned, res.dead_end, res.discarded)


@pytest.mark.parametrize("which", ["trained", "trained_graph"])
def test_walk_fold_beams_are_decode_many_beams(which, request, folds):
    # evaluate (walk_fold) and complete (decode_many) decode a chunk from
    # the same encoding: the same trees, log-probs and counters, exactly
    model = request.getfixturevalue(which)
    fold = folds["test"][:25]
    _, walked = M.walk_fold(model, fold, 5)
    many = M.decode_many(model, [(s.before, s.after, s.scope) for s in fold], 5)
    assert [_exact_beam(r) for r in walked] == [_exact_beam(r) for r in many]


@pytest.mark.parametrize("which", ["trained", "trained_graph"])
def test_evaluate_matches_fold_nll_and_decode_beam(which, request, folds, monkeypatch):
    # the report built the two-pass way: walk_fold's teacher forcing without
    # a beam, then a decode_beam per sample, each preparing and encoding its
    # context again
    model = request.getfixturevalue(which)
    fold = folds["test"][:25]
    new = E.evaluate(model, fold, width=5)
    sums = M.walk_fold(model, fold)[0]
    beams = [M.decode_beam(model, s.before, s.after, s.scope, width=5) for s in fold]
    monkeypatch.setattr(M, "walk_fold", lambda *args, **kwargs: (sums, beams))
    old = E.evaluate(model, fold, width=5)
    if model.encoder == "seq":
        # the same teacher-forced sums; the beams of a chunk's encoding and of
        # each context's own rank and count alike on this fold
        assert new == old
        return
    # a graph chunk is one GGNN batch, whose rows differ from a lone
    # context's encoding by rounding
    assert abs(new.ppl_decision - old.ppl_decision) <= 1e-6 * old.ppl_decision
    for k in ("acc1", "acc5", "well_typed", "well_typed_no_unk",
              "expanded", "pruned", "dead_end", "discarded"):
        assert getattr(new, k) == getattr(old, k), k


def test_perplexity_is_one_when_forced():
    g = load_grammar(FORCED)
    m = M.Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=2)
    s = _forced_sample(g)
    ppl_d, ppl_t = E.perplexity(m, [s])
    assert abs(ppl_d - 1.0) < 1e-9
    assert abs(ppl_t - 1.0) < 1e-9


def test_perplexity_uniform_is_k_way():
    # zeroed scoring weights make the production picker uniform over the
    # 3 alternatives, so per-decision perplexity is exactly 3
    g = load_grammar(THREE_WAY)
    m = M.Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=0)
    for name in m.params.names():
        if name.startswith("dec_score"):
            m.params[name].data[:] = 0.0
    fold = [_three_way_sample(g, i) for i in range(3)]
    ppl_d, _ = E.perplexity(m, fold)
    assert abs(ppl_d - 3.0) < 1e-5


def test_perplexity_empty_fold_raises(trained):
    with pytest.raises(DataError):
        E.perplexity(trained, [])


def test_accuracy_empty_fold_raises(trained):
    with pytest.raises(DataError, match="empty fold"):
        E.evaluate(trained, [])


def test_accuracy_perfect_on_forced_grammar():
    g = load_grammar(FORCED)
    m = M.Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=1)
    fold = [_forced_sample(g)]
    assert E.evaluate(m, fold, width=1).acc1 == 1.0


def _hand_beams(g, width):
    """Five int holes and their beams, built by hand and cut to width: a
    well-typed top-1 that is the gold, a gold found only at rank 3, a top-1
    well-typed only with UNK literals allowed, an ill-typed top-1 and a dead
    end."""
    def tree(text):
        return node_tree(lang.parse_expression(lang.tokenize(text)), g)

    unk = serialize_decisions(tree("x + 1")).replace("Lint:1", "Lint:<UNK:int>")
    holes = [  # (gold, hypotheses best first)
        ("x + 1", [tree("x + 1"), tree("x"), tree("1")]),
        ("x * x", [tree("x"), tree("1"), tree("x * x"), tree("x + x")]),
        ("x - 1", [deserialize_decisions(unk, g), tree("x")]),
        ("x", [tree("s + 1"), tree("1")]),
        ("1", []),
    ]
    scope = {"x": "int", "s": "string"}
    fold = [dataclasses.replace(make_sample(tree(gold), scope), hole_type="int")
            for gold, _ in holes]
    beams = [M.BeamResult([(t, -1.0 - i) for i, t in enumerate(hyps[:width])], discarded=i,
                          expanded=10 + i, pruned=5, dead_end=int(not hyps))
             for i, (_, hyps) in enumerate(holes)]
    return fold, beams


@pytest.mark.parametrize("width, acc5", [(1, 0.2), (5, 0.4)])
def test_report_arithmetic_is_pinned(width, acc5, g, monkeypatch):
    # every field from fixed teacher-forced sums and hand-built beams: 2 of 5
    # top-1s well-typed, 1 more only with UNK literals (so 2 of 4 once it
    # leaves the denominator), 1 gold at rank 1 and 1 more at rank 3
    m = M.Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=4)
    fold, beams = _hand_beams(g, width)
    sums = {"nll": 12.5, "decisions": 10, "tokens": 5, "nll_P": 6.0, "nll_V": 4.0,
            "nll_L": 2.5, "decisions_P": 5, "decisions_V": 3, "decisions_L": 2}
    monkeypatch.setattr(M, "walk_fold", lambda model, fold_, width_: (sums, beams))
    assert E.evaluate(m, fold, width=width) == EvalReport(
        ppl_decision=math.exp(1.25), ppl_token=math.exp(2.5), well_typed=0.4,
        well_typed_no_unk=0.5, acc1=0.2, acc5=acc5, n=5, config="Tree", seed=4,
        expanded=60, pruned=25, dead_end=1, discarded=10, nll_P=6.0, nll_V=4.0, nll_L=2.5,
        decisions_P=5, decisions_V=3, decisions_L=2)


def test_evaluate_serializes_each_hypothesis_once(g, monkeypatch):
    m = M.Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=0)
    fold, beams = _hand_beams(g, 5)
    sums = dict.fromkeys(("nll", "decisions", "tokens", "nll_P", "nll_V", "nll_L",
                          "decisions_P", "decisions_V", "decisions_L"), 1)
    monkeypatch.setattr(M, "walk_fold", lambda model, fold_, width_: (sums, beams))
    serialized = []
    real = E.serialize_decisions
    monkeypatch.setattr(E, "serialize_decisions", lambda t: serialized.append(t) or real(t))
    E.evaluate(m, fold, width=5)
    assert serialized == [t for res in beams for t, _ in res.hypotheses]


# ---------------------------------------------------------------------------
# CLI

def test_cli_usage_errors_exit_1(capsys):
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["train", "--data", "x"]) == 1  # missing --ckpt
    assert run_cli([]) == 1
    capsys.readouterr()
    for flag in ("--batch-size", "--epochs"):
        for size in ("0", "-3"):
            assert run_cli(["train", "--data", "x", "--ckpt", "m", flag, size]) == 1
            err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("nagc:")]
            assert len(err) == 1 and flag in err[0], err
    # a corpus needs at least one file of at least one statement
    for flag in ("--files", "--stmts"):
        for size in ("0", "-1", "-3"):
            assert run_cli(["gen-corpus", "--out", "never-written", flag, size]) == 1
            err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("nagc:")]
            assert len(err) == 1 and flag in err[0], err
    # a bad width fails in the parser, before any data is read
    for argv in (["evaluate", "--data", "x", "--ckpt", "m", "--beam", "0"],
                 ["complete", "--ckpt", "m", "--sample", "x", "--beam", "-1"]):
        assert run_cli(argv) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("nagc:")]
        assert len(err) == 1 and "--beam" in err[0], err
    # NumPy generators take non-negative seeds only
    for argv in (["gen-corpus", "--out", "never-written"],
                 ["split", "--in", "x", "--out-dir", "never-written"],
                 ["train", "--data", "x", "--ckpt", "m"]):
        for seed in ("-1", "two"):
            assert run_cli(argv + ["--seed", seed]) == 1
            err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("nagc:")]
            assert len(err) == 1 and "--seed" in err[0], err
    # evaluate computes nothing from a seed: its report carries the checkpoint's
    assert run_cli(["evaluate", "--data", "x", "--ckpt", "m", "--seed", "3"]) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("nagc:")]
    assert len(err) == 1 and "--seed" in err[0], err


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "-0.001", "fast"])
def test_cli_bad_lr_exits_1(lr, capsys):
    # fails in the parser, before any data is read
    assert run_cli(["train", "--data", "x", "--ckpt", "m", f"--lr={lr}"]) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("nagc:")]
    assert len(err) == 1 and "--lr" in err[0], err


@pytest.fixture(scope="module")
def ci_data(tmp_path_factory):
    """The corpus of CI's CLI step (12 files of 4 statements, seed 1),
    extracted and split as there: the data directory."""
    d = tmp_path_factory.mktemp("ci")
    for argv in (["gen-corpus", "--seed", "1", "--files", "12", "--stmts", "4", "--out", str(d / "corpus")],
                 ["extract", "--in", str(d / "corpus"), "--out", str(d / "samples.jsonl")],
                 ["split", "--in", str(d / "samples.jsonl"), "--seed", "1", "--out-dir", str(d / "data")]):
        assert run_cli(argv) == 0
    return d / "data"


@pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
@pytest.mark.parametrize("lr", ["1", "10", "1e9"])
def test_cli_diverging_train_exits_2_with_one_line(ci_data, lr, warnings, tmp_path):
    # the first overflow or invalid value ends training with one line that
    # names the epoch: no NumPy warning before it, and no traceback when
    # RuntimeWarning is an error. At --lr 1 the epoch's perplexity is past
    # the float range. A separate process, so that stderr is exactly what a
    # user sees.
    src = os.path.dirname(os.path.dirname(E.__file__))
    env = dict(os.environ, PYTHONWARNINGS=warnings,
               PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", "from nagc.evalcli import main; main()", "train",
                           "--data", str(ci_data), "--lr", lr, "--epochs", "2",
                           "--ckpt", str(tmp_path / "m.nagc")], capture_output=True, text=True, env=env)
    err = proc.stderr.splitlines()
    assert proc.returncode == 2 and len(err) == 1, proc.stderr
    assert err[0].startswith("nagc: ") and "at epoch 0" in err[0], err


def test_cli_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert run_cli(["evaluate", "--data", missing, "--ckpt", missing]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli(["extract", "--in", str(empty), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "nagc:" in capsys.readouterr().err


def test_cli_empty_sample_file_exits_2(fitted_grammar, token_vocab, tmp_path, capsys):
    ckpt, empty = str(tmp_path / "m.nagc"), tmp_path / "empty.jsonl"
    M.save_model(M.Model(fitted_grammar, hidden=8, emb_dim=4, edge_emb=4,
                         token_vocab=token_vocab), ckpt)
    empty.write_text("", encoding="utf-8")
    for argv in (["complete", "--ckpt", ckpt, "--sample", str(empty)],
                 ["graph-dot", "--sample", str(empty), "--out", str(tmp_path / "g.dot")]):
        assert run_cli(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["nagc: no samples in file"], argv


def test_cli_non_utf8_corpus_file_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mexp").write_text("var x : int = 1 ;\n", encoding="utf-8")
    (corpus / "b.mexp").write_bytes(b"\xff\xfevar y : int = 2 ;\n")
    assert run_cli(["extract", "--in", str(corpus), "--out", str(tmp_path / "o.jsonl")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nagc: ") and "b.mexp" in err[0], err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("files", [{"holed.mexp": "var i : int = ?HOLE? ;\n"},
                                   {"bad.mexp": "var i : int = ;\n", "none.mexp": "var b : bool ;\n"}],
                         ids=["all-skipped", "no-site"])
def test_cli_extract_without_samples_exits_2(files, tmp_path, capsys):
    # every file skipped, or no expression site in any: a data error, and
    # no output file
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in files.items():
        (corpus / name).write_text(text, encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert run_cli(["extract", "--in", str(corpus), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()  # one skip line, then the error
    assert len(err) == 2 and err[-1] == f"nagc: no samples extracted from {corpus}", err
    assert captured.out == "" and not out.exists()


# an output path in a missing directory, or one that is a directory, named by
# each command that writes a file; or an output directory that is a file,
# named by each command that writes a directory
@pytest.mark.parametrize("bad, cmd", [(bad, cmd) for bad in ("missing-dir", "is-dir")
                                      for cmd in ("train", "evaluate", "extract", "graph-dot")]
                         + [("is-file", "gen-corpus"), ("is-file", "split")])
def test_cli_unwritable_output_exits_2_before_any_work(cmd, bad, fitted_grammar, token_vocab,
                                                       corpus_samples, tmp_path, monkeypatch,
                                                       capsys):
    data, corpus = tmp_path / "data", tmp_path / "corpus"
    data.mkdir()
    corpus.mkdir()
    P.write_jsonl(corpus_samples[:4], str(data / "train.jsonl"))
    (corpus / "a.mexp").write_text("var x : int = 1 ;\n", encoding="utf-8")
    ckpt = str(tmp_path / "m.nagc")
    M.save_model(M.Model(fitted_grammar, hidden=8, emb_dim=4, edge_emb=4,
                         token_vocab=token_vocab), ckpt)
    out = str(tmp_path / ("missing/out" if bad == "missing-dir" else "taken"))
    if bad == "is-dir":
        (tmp_path / "taken").mkdir()
    elif bad == "is-file":
        (tmp_path / "taken").write_text("", encoding="utf-8")
    argv = {"train": ["train", "--data", str(data), "--epochs", "1", "--ckpt", out],
            "evaluate": ["evaluate", "--data", str(data / "train.jsonl"), "--ckpt", ckpt,
                         "--report", out],
            "extract": ["extract", "--in", str(corpus), "--out", out],
            "graph-dot": ["graph-dot", "--sample", str(data / "train.jsonl"), "--out", out],
            "gen-corpus": ["gen-corpus", "--files", "2", "--stmts", "1", "--out", out],
            "split": ["split", "--in", str(data / "train.jsonl"), "--out-dir", out]}
    calls = []
    for mod, name in ((M, "train"), (M, "walk_fold"), (P, "extract_samples"), (P, "read_jsonl"),
                      (P, "read_corpus"), (P, "generate_corpus")):
        monkeypatch.setattr(mod, name, lambda *a, name=name, **k: calls.append(name))
    assert run_cli(argv[cmd]) == 2
    out_text, err = capsys.readouterr()
    err = err.splitlines()
    assert out_text == "" and calls == []
    assert len(err) == 1 and err[0].startswith("nagc: ") and out in err[0], err


def test_cli_bad_ratio_exits_2(tmp_path, corpus_samples, capsys):
    path = str(tmp_path / "s.jsonl")
    P.write_jsonl(corpus_samples, path)  # enough files for a split
    assert run_cli(["split", "--in", path, "--ratio", "3:1", "--out-dir", str(tmp_path / "d")]) == 2
    capsys.readouterr()
    assert run_cli(["split", "--in", path, "--ratio", "0:0:0", "--out-dir", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nagc: "), err


# the second line of a sample file: a scope variable of an unknown type, an
# ill-typed target, a context token that is not a string, a byte that is not
# UTF-8, a context given as one string, a scope given as a list of pairs, or
# a scope name that is not an identifier
@pytest.mark.parametrize("fault", ["scope-type", "ill-typed", "token-type", "not-utf8",
                                   "before-string", "scope-pairs", "scope-name"])
def test_cli_bad_jsonl_exits_2(fault, corpus_samples, tmp_path, capsys):
    path = str(tmp_path / "s.jsonl")
    P.write_jsonl(corpus_samples[:2], path)
    with open(path, "rb") as f:
        first, second = f.read().splitlines()
    if fault == "not-utf8":
        second = second[:20] + b"\xff" + second[20:]
    else:
        obj = json.loads(second)
        if fault == "scope-type":
            obj["scope"]["f"] = "float"
        elif fault == "token-type":
            obj["before"][0] = 1
        elif fault == "before-string":
            obj["before"] = " ".join(obj["before"])
        elif fault == "scope-pairs":
            obj["scope"] = sorted(obj["scope"].items())
        elif fault == "scope-name":
            obj["scope"]["a b"] = "int"
        else:
            obj["target"] = 'P4 P1 Lint:1 P2 Lstring:"a"'  # int + string
        second = json.dumps(obj).encode()
    with open(path, "wb") as f:
        f.write(first + b"\n" + second + b"\n")
    assert run_cli(["split", "--in", path, "--out-dir", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"nagc: {path}:2: "), err


# a sample whose context holds the hole token before or after the hole, as a
# corpus file with a hole would give: every command that reads samples
# refuses it
@pytest.mark.parametrize("side", ["before", "after"])
@pytest.mark.parametrize("cmd", ["split", "train", "evaluate", "complete"])
def test_cli_hole_token_in_context_exits_2(cmd, side, g, fitted_grammar, token_vocab,
                                           corpus_samples, tmp_path, capsys):
    ok, s, _ = P.extract_samples([("f.mexp", "var i : int = 0 ; var j : int = i + 1 ; i = j ;")], g)
    ctx, at = getattr(s, side), {"before": 5, "after": 3}[side]  # the 0, the j
    bad = P.Sample(**{**vars(s), side: ctx[:at] + [lang.HOLE_TOKEN] + ctx[at + 1 :]})
    data = tmp_path / "data"
    data.mkdir()
    path = str(data / "train.jsonl")
    others = list({o.file: o for o in corpus_samples}.values())[:4]  # enough files for a split
    P.write_jsonl([ok, bad] + others, path)
    ckpt = str(tmp_path / "m.nagc")
    M.save_model(M.Model(fitted_grammar, hidden=8, emb_dim=4, edge_emb=4,
                         token_vocab=token_vocab), ckpt)
    argv = {"split": ["split", "--in", path, "--out-dir", str(tmp_path / "d")],
            "train": ["train", "--data", str(data), "--epochs", "1", "--ckpt", str(tmp_path / "t")],
            "evaluate": ["evaluate", "--data", path, "--ckpt", ckpt],
            "complete": ["complete", "--sample", path, "--ckpt", ckpt]}
    assert run_cli(argv[cmd]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"nagc: {path}:2: "), err


_DEEP = 3000  # nesting levels, far past the interpreter's recursion limit


# nested parentheses fail in the parser; a flat sum parses in a loop but
# builds a left-deep tree
@pytest.mark.parametrize("deep", ["( " * _DEEP + "1" + " )" * _DEEP, " + ".join(["1"] * _DEEP)],
                         ids=["parens", "sum"])
def test_cli_extract_skips_deeply_nested_file(deep, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mexp").write_text("var x : int = 1 ;\n", encoding="utf-8")
    (corpus / "b.mexp").write_text(f"var y : int = {deep} ;\n", encoding="utf-8")
    out = str(tmp_path / "o.jsonl")
    assert run_cli(["extract", "--in", str(corpus), "--out", out]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nagc: skipping b.mexp: "), err
    assert [s.file for s in P.read_jsonl(out)] == ["a.mexp"]


def test_cli_extract_skips_spaced_string_literal(tmp_path, capsys):
    # the record 'Lstring:"a b"' would split at its space, so split would
    # refuse the sample that extract wrote
    corpus = tmp_path / "corpus"
    P.write_corpus(P.generate_corpus(1, 12, 4), corpus)
    (corpus / "spaced.mexp").write_text('var s : string = "a b" ;\n', encoding="utf-8")
    out = str(tmp_path / "o.jsonl")
    assert run_cli(["extract", "--in", str(corpus), "--out", out]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["nagc: skipping spaced.mexp: spelling '\"a b\"' holds whitespace"], err
    assert run_cli(["split", "--in", out, "--seed", "1", "--out-dir", str(tmp_path / "d")]) == 0


def test_cli_split_rejects_deeply_nested_target(tmp_path, capsys):
    path = str(tmp_path / "s.jsonl")
    P.write_jsonl([P.Sample("f", ["var", "b", ":", "bool", ";"], [";"], "bool", {"b": "bool"},
                            "P16 " * _DEEP + "P0 Vb")], path)
    assert run_cli(["split", "--in", path, "--out-dir", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"nagc: {path}:1: "), err


def _graph_cli_on_context(cmd, prefix, fitted_grammar, token_vocab, corpus_samples, tmp_path,
                          capsys):
    """Exit code, stdout and stderr of `nagc complete` or `nagc evaluate` with a
    graph-encoder checkpoint, on a sample whose context starts with prefix."""
    ckpt, path = str(tmp_path / "m.nagc"), str(tmp_path / "s.jsonl")
    M.save_model(M.Model(fitted_grammar, encoder="graph", hidden=8, emb_dim=4, edge_emb=4,
                         token_vocab=token_vocab), ckpt)
    s = corpus_samples[0]
    P.write_jsonl([P.Sample(s.file, prefix + s.before, s.after, s.hole_type, s.scope, s.target)],
                  path)
    argv = (["complete", "--ckpt", ckpt, "--sample", path] if cmd == "complete"
            else ["evaluate", "--data", path, "--ckpt", ckpt])
    return (run_cli(argv), *capsys.readouterr())


@pytest.mark.parametrize("cmd", ["complete", "evaluate"])
def test_cli_graph_encoder_rejects_deeply_nested_context(cmd, fitted_grammar, token_vocab,
                                                         corpus_samples, tmp_path, capsys):
    # the program graph of the context cannot be built: one line, exit 2
    deep = ["var", "y", ":", "int", "="] + ["("] * _DEEP + ["1"] + [")"] * _DEEP + [";"]
    code, out, err = _graph_cli_on_context(cmd, deep, fitted_grammar, token_vocab,
                                           corpus_samples, tmp_path, capsys)
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("nagc: "), (out, err)


@pytest.mark.parametrize("cmd", ["complete", "evaluate"])
def test_cli_graph_encoder_rejects_long_left_chain_in_context(cmd, fitted_grammar, token_vocab,
                                                             corpus_samples, tmp_path, capsys):
    # a left chain of 900 terms nests past the bound: the parser refuses it
    # before anything recurses over its nodes
    chain = ["var", "y", ":", "int", "=", "1"] + ["+", "1"] * 900 + [";"]
    assert _graph_cli_on_context(cmd, chain, fitted_grammar, token_vocab, corpus_samples,
                                 tmp_path, capsys) == (
        2, "", f"nagc: context not parseable for graph encoder: nested deeper than {lang.MAX_NESTING}\n")


@pytest.mark.parametrize("cmd", ["complete", "evaluate"])
def test_cli_graph_encoder_rejects_unknown_method_in_context(cmd, fitted_grammar, token_vocab,
                                                             corpus_samples, tmp_path, capsys):
    bad = "var s : string ; var q : int = s . Foo ( ) ;".split()
    assert _graph_cli_on_context(cmd, bad, fitted_grammar, token_vocab, corpus_samples,
                                 tmp_path, capsys) == (
        2, "", "nagc: context not parseable for graph encoder: unknown method 'Foo'\n")


@pytest.mark.parametrize("cmd", ["complete", "evaluate"])
def test_cli_beam_out_of_memory_exits_2(cmd, fitted_grammar, token_vocab, corpus_samples,
                                         tmp_path, capsys, monkeypatch):
    # a beam too wide to allocate, as --beam 100000 is on a small corpus:
    # one line naming the width, exit 2, no traceback
    def too_wide(self, width):
        raise MemoryError(f"Unable to allocate 14.6 GiB for a beam of {width}")

    monkeypatch.setattr(M._Lockstep, "step", too_wide)
    ckpt, path = str(tmp_path / "m.nagc"), str(tmp_path / "s.jsonl")
    M.save_model(M.Model(fitted_grammar, hidden=8, emb_dim=4, edge_emb=4, token_vocab=token_vocab),
                 ckpt)
    P.write_jsonl(corpus_samples[:2], path)
    argv = (["complete", "--ckpt", ckpt, "--sample", path] if cmd == "complete"
            else ["evaluate", "--data", path, "--ckpt", ckpt])
    assert run_cli(argv + ["--beam", "100000"]) == 2
    assert capsys.readouterr() == ("", "nagc: out of memory decoding at beam width 100000\n")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cli_non_finite_checkpoint_exits_2(value, fitted_grammar, token_vocab, corpus_samples,
                                           tmp_path, capsys):
    # refused at load, naming the parameter, before anything is printed
    ckpt, sample = str(tmp_path / "m.nagc"), str(tmp_path / "s.jsonl")
    m = M.Model(fitted_grammar, hidden=8, emb_dim=4, edge_emb=4, token_vocab=token_vocab)
    m.params["dec_g_Uz"].data[2, 1] = value
    M.save_model(m, ckpt)
    P.write_jsonl(corpus_samples[:2], sample)
    for argv in (["evaluate", "--data", sample, "--ckpt", ckpt],
                 ["complete", "--ckpt", ckpt, "--sample", sample]):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, (out, err)
        assert err.startswith("nagc: ") and "'dec_g_Uz'" in err, err


# faults of the one checkpoint file: cut to the first n bytes (a float: that
# share of the file; -1: one byte short), a trailing byte, a header line that
# is not JSON, not UTF-8 or nested too deep for the decoder, a manifest field
# missing or unlike the parameters, a bad token vocab, a tampered grammar, a
# bad parameter shape, or the old binary format
_SHAPES = {"shape-negative": [-1, 4], "shape-fraction": [2.5, 4],
           "shape-huge": [10**12, 10**12]}


@pytest.mark.parametrize("fault", [0, 3, 10, 100, 0.5, -1, "trailing", "manifest-json",
                                   "manifest-field", "manifest-hidden", "manifest-utf8",
                                   "manifest-vocab", "manifest-vocab-order", "manifest-grammar",
                                   "header-nested", *_SHAPES, "old-format"])
def test_cli_corrupt_checkpoint_exits_2(fault, fitted_grammar, token_vocab, corpus_samples,
                                        tmp_path, capsys):
    ckpt = str(tmp_path / "m.nagc")
    M.save_model(M.Model(fitted_grammar, hidden=8, emb_dim=4, edge_emb=4,
                         token_vocab=token_vocab), ckpt)
    sample = str(tmp_path / "s.jsonl")
    P.write_jsonl(corpus_samples[:1], sample)
    with open(ckpt, "rb") as f:
        head, body = f.read().split(b"\n", 1)
    header = json.loads(head)
    man, vocab = header["manifest"], header["manifest"]["token_vocab"]
    if fault == "manifest-field":
        del man["hidden"]
    elif fault == "manifest-hidden":
        # terabytes of parameters, refused before anything is allocated from it
        man["hidden"] = 1000000
    elif fault == "manifest-vocab":  # <UNK> renamed
        vocab[0] = "<unk>"
    elif fault == "manifest-vocab-order":  # <UNK> not first
        vocab[0], vocab[1] = vocab[1], vocab[0]
    elif fault == "manifest-grammar":
        man["grammar"] += "\n# tampered"
    elif fault in _SHAPES:
        header["params"][0][1] = _SHAPES[fault]
    data = json.dumps(header).encode() + b"\n" + body
    if fault == "trailing":
        data += b"\0"
    elif fault == "manifest-json":
        data = head[: len(head) // 2] + b"\n" + body
    elif fault == "manifest-utf8":
        data = b"\xff" + data
    elif fault == "header-nested":  # a RecursionError in the JSON decoder
        data = b"[" * 100000 + b"\n" + body
    elif fault == "old-format":
        data = b"NAGC\1\0\0\0" + body
    elif not isinstance(fault, str):
        data = data[: int(len(data) * fault) if isinstance(fault, float) else fault]
    with open(ckpt, "wb") as f:
        f.write(data)
    assert run_cli(["complete", "--ckpt", ckpt, "--sample", sample]) == 2
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert out == "" and len(err) == 1 and err[0].startswith("nagc: ") and ckpt in err[0], err
    if fault == "old-format":
        assert "old two-file format" in err[0]


def test_cli_odd_seq_hidden_checkpoint_exits_2(fitted_grammar, token_vocab, corpus_samples,
                                               tmp_path, capsys):
    # a checkpoint whose parameters a seq model of hidden size 63 would hold
    m = M.Model(fitted_grammar, encoder="seq", hidden=62, emb_dim=4, edge_emb=4,
                token_vocab=token_vocab)
    ckpt = str(tmp_path / "m.nagc")
    M.save_model(m, ckpt)
    man, _ = nn.load_checkpoint(ckpt)
    m.hidden = man["hidden"] = 63
    nn.save_checkpoint(nn.init_params(m._shapes(), seed=0), ckpt, man)
    sample = str(tmp_path / "s.jsonl")
    P.write_jsonl(corpus_samples[:1], sample)
    assert run_cli(["evaluate", "--ckpt", ckpt, "--data", sample]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nagc: ") and "hidden" in err[0], err


def test_cli_grammar_dump(capsys):
    assert run_cli(["grammar"]) == 0
    out = capsys.readouterr().out
    assert "@start Expr" in out
    assert "@variable" in out


def test_cli_end_to_end(tmp_path, capsys):
    root = str(tmp_path)
    corpus = os.path.join(root, "corpus")
    samples = os.path.join(root, "samples.jsonl")
    dataset = os.path.join(root, "data")
    ckpt = os.path.join(root, "m.nagc")
    report = os.path.join(root, "report.json")
    dot = os.path.join(root, "g.dot")

    assert run_cli(["gen-corpus", "--seed", "7", "--files", "10", "--out", corpus]) == 0
    assert run_cli(["extract", "--in", corpus, "--out", samples]) == 0
    assert run_cli(["split", "--in", samples, "--seed", "0", "--out-dir", dataset]) == 0
    assert run_cli(["train", "--data", dataset, "--config", "nag", "--encoder", "seq",
                    "--epochs", "2", "--ckpt", ckpt]) == 0
    capsys.readouterr()

    test_fold = os.path.join(dataset, "test.jsonl")
    assert run_cli(["evaluate", "--data", test_fold, "--ckpt", ckpt,
                    "--beam", "2", "--report", report]) == 0
    out = capsys.readouterr().out
    rep = json.loads(out.strip().splitlines()[-1])
    assert set(rep) == {"ppl_decision", "ppl_token", "well_typed", "well_typed_no_unk",
                        "acc1", "acc5", "n", "config", "seed",
                        "expanded", "pruned", "dead_end", "discarded",
                        "nll_P", "nll_V", "nll_L", "decisions_P", "decisions_V", "decisions_L"}
    with open(report) as f:
        assert json.load(f) == rep

    assert run_cli(["complete", "--ckpt", ckpt, "--sample", test_fold, "--beam", "2"]) == 0
    out = capsys.readouterr().out
    assert "%" in out

    assert run_cli(["graph-dot", "--sample", test_fold, "--out", dot]) == 0
    with open(dot) as f:
        assert f.read().startswith("digraph")
    capsys.readouterr()


def _exits_cleanly(argv, capsys):
    """run_cli's exit code, asserting the contract for bad input: 0, or 2
    with exactly one stderr line; it never raises."""
    rc = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 0 or (rc == 2 and len(err) == 1 and err[0].startswith("nagc: ")), (argv, rc, err)
    return rc


def _damaged(data: bytes, rng, n_cut: int, n_flip: int):
    """data cut at n_cut offsets spread over its length, then n_flip copies
    with one byte at a random offset set to a random value."""
    for cut in np.linspace(0, len(data) - 1, n_cut).astype(int):
        yield data[:cut]
    for _ in range(n_flip):
        at = int(rng.integers(len(data)))
        yield data[:at] + bytes([int(rng.integers(256))]) + data[at + 1 :]


def test_cli_fuzzed_jsonl_exits_0_or_2(fitted_grammar, token_vocab, folds, tmp_path, capsys):
    # a sample file cut short or with one byte changed: split and a graph
    # encoder's evaluate (whose contexts must parse) read it, decode what
    # they accept, and refuse the rest with one line
    ckpt, path, out = str(tmp_path / "m.nagc"), str(tmp_path / "s.jsonl"), str(tmp_path / "d")
    m = M.Model(fitted_grammar, encoder="graph", hidden=8, emb_dim=4, edge_emb=4,
                token_vocab=token_vocab)
    M.train(m, folds["train"][:20], epochs=2, seed=0, log=lambda rec: None)
    M.save_model(m, ckpt)
    one_per_file = {s.file: s for s in folds["test"]}  # split needs five source files
    P.write_jsonl(list(one_per_file.values())[:5], path)
    with open(path, "rb") as f:
        data = f.read()
    for case in _damaged(data, np.random.default_rng(0), 400, 600):
        with open(path, "wb") as f:
            f.write(case)
        _exits_cleanly(["split", "--in", path, "--out-dir", out], capsys)
        _exits_cleanly(["evaluate", "--data", path, "--ckpt", ckpt, "--beam", "1"], capsys)


def test_cli_fuzzed_corpus_file_is_skipped_alone(tmp_path, capsys):
    # a corpus file cut short or with one byte changed beside five intact
    # ones (split's minimum): extract skips it with at most one line, or
    # refuses non-UTF-8 text, and split reads back every sample extract wrote
    corpus, path = tmp_path / "corpus", str(tmp_path / "s.jsonl")
    (victim, text), *intact = P.generate_corpus(5, 6, 4)
    P.write_corpus(intact, str(corpus))
    data = text.encode()
    for case in _damaged(data, np.random.default_rng(1), 300, 400):
        (corpus / victim).write_bytes(case)
        rc = run_cli(["extract", "--in", str(corpus), "--out", path])
        err = capsys.readouterr().err.splitlines()
        skipped = [line for line in err if line.startswith("nagc: skipping ")]
        assert len(skipped) <= 1 and all(line.startswith(f"nagc: skipping {victim}: ")
                                         for line in skipped), err
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("nagc: ") and not skipped, err
            continue
        assert rc == 0 and err == skipped, (rc, err)
        written = len(P.read_jsonl(path))
        assert _exits_cleanly(["split", "--in", path, "--out-dir", str(tmp_path / "d")], capsys) == 0
        assert sum(len(P.read_jsonl(str(tmp_path / "d" / f"{fold}.jsonl")))
                   for fold in ("train", "valid", "test")) == written
