"""Evaluation metrics, ablation comparison and the command-line interface."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from . import model as mo
from . import neural as nn
from . import pipeline as pl
from .grammar import TypeEnv, TypeCheckError, builtin_grammar, serialize_grammar, type_check
from .syntax import deserialize_decisions, serialize_decisions
from .lang import render_tree_tokens
from .attrgraph import augment_full_tree, export_dot


class DataError(Exception):
    pass


@dataclass
class EvalReport:
    ppl_decision: float
    ppl_token: float
    well_typed: float
    well_typed_no_unk: float
    acc1: float
    acc5: float
    n: int
    config: str
    seed: int
    # beam search, summed over the fold: continuations scored, of those cut
    # by the width, hypotheses with no actions, hypotheses left at max-steps
    expanded: int
    pruned: int
    dead_end: int
    discarded: int
    # teacher forcing, summed over the fold per decision kind (P, V, L), as
    # in train's epoch records
    nll_P: float
    nll_V: float
    nll_L: float
    decisions_P: int
    decisions_V: int
    decisions_L: int


# ---------------------------------------------------------------------------
# Metrics

def perplexity(model: mo.Model, fold) -> tuple:
    """(per-decision, per-token) perplexity under teacher forcing."""
    if not fold:
        raise DataError("empty fold")
    return mo.fold_perplexity(model, fold)


def _typed_as(tree, env: TypeEnv, want: str, allow_unk: bool = False) -> bool:
    try:
        return type_check(tree, env, allow_unk=allow_unk) == want
    except TypeCheckError:
        return False


def evaluate(model: mo.Model, fold, width: int = 5) -> EvalReport:
    """The fold's report, under the model's own seed (`Model.seed`), from one
    walk_fold: one prep and one encoding per sample, shared by the
    teacher-forced NLL and the beams. Each hypothesis is serialized once and
    must read back through the grammar before any metric counts it. acc@k is
    an exact decision-sequence match within the top k; the UNK-filtered
    well-typed rate drops samples whose only type failure is an UNK literal
    from its denominator."""
    if not fold:
        raise DataError("empty fold")
    sums, beams = mo.walk_fold(model, fold, width)
    ok = unk_only = hits1 = hits5 = 0
    for s, res in zip(fold, beams):
        seqs = [serialize_decisions(tree) for tree, _ in res.hypotheses]
        for seq in seqs:
            deserialize_decisions(seq, model.grammar)  # syntactic validity
        hits1 += s.target in seqs[:1]
        hits5 += s.target in seqs[: min(5, width)]
        if not seqs:
            continue
        top, env = res.hypotheses[0][0], TypeEnv(s.scope)
        if _typed_as(top, env, s.hole_type):
            ok += 1
        elif _typed_as(top, env, s.hole_type, allow_unk=True):
            unk_only += 1
    n = len(fold)
    return EvalReport(
        ppl_decision=math.exp(sums["nll"] / sums["decisions"]),
        ppl_token=math.exp(sums["nll"] / sums["tokens"]),
        well_typed=ok / n,
        well_typed_no_unk=ok / (n - unk_only) if n > unk_only else 1.0,
        acc1=hits1 / n,
        acc5=hits5 / n,
        n=n,
        config=model.config.name,
        seed=model.seed,
        **{k: sum(getattr(res, k) for res in beams)
           for k in ("expanded", "pruned", "dead_end", "discarded")},
        **{f"{m}_{k}": sums[f"{m}_{k}"] for m in ("nll", "decisions") for k in "PVL"},
    )


def ablation_comparison(train_fold, test_fold, encoder="graph", seeds=(0, 1, 2),
                        epochs=50, log=print):
    """Train all four decoder configs per seed and report held-out
    per-decision perplexity, one row per config."""
    g = pl.literal_vocab_from_samples(train_fold, builtin_grammar())
    vocab = mo.token_vocab_from_samples(train_fold)
    table = {}
    for name in mo.CONFIGS:
        row = []
        for seed in seeds:
            m = mo.Model(g, config=name, encoder=encoder, seed=seed, token_vocab=vocab)
            mo.train(m, train_fold, epochs=epochs, seed=seed)
            ppl, _ = perplexity(m, test_fold)
            row.append(ppl)
        table[name] = row
        log(f"{name:5s} " + "  ".join(f"{v:.3f}" for v in row))
    return table


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # NumPy's generators take non-negative seeds only
_CONFIG_NAMES = {n.lower(): n for n in mo.CONFIGS}  # --config choice -> decoder config


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _build_parser():
    p = _Parser(prog="nagc")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("gen-corpus")
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--files", type=_positive_int, default=200)
    c.add_argument("--stmts", type=_positive_int, default=8)
    c.add_argument("--out", required=True)

    c = sub.add_parser("extract")
    c.add_argument("--in", dest="indir", required=True)
    c.add_argument("--out", required=True)

    c = sub.add_parser("split")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--ratio", default="3:1:1")
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--out-dir", required=True)

    c = sub.add_parser("train")
    c.add_argument("--data", required=True)
    c.add_argument("--config", choices=list(_CONFIG_NAMES), default="nag")
    c.add_argument("--encoder", choices=mo.ENCODERS, default="graph")
    c.add_argument("--epochs", type=_positive_int, default=50)
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--batch-size", type=_positive_int, default=20)
    c.add_argument("--lr", type=_positive_float, default=1e-3)
    c.add_argument("--ckpt", required=True)

    c = sub.add_parser("evaluate")
    c.add_argument("--data", required=True)
    c.add_argument("--ckpt", required=True)
    c.add_argument("--beam", type=_positive_int, default=5)
    c.add_argument("--report")

    c = sub.add_parser("complete")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--sample", required=True)
    c.add_argument("--beam", type=_positive_int, default=5)

    c = sub.add_parser("graph-dot")
    c.add_argument("--sample", required=True)
    c.add_argument("--out", required=True)

    sub.add_parser("grammar")
    return p


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"nagc: {e}", file=sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except (pl.PipelineError, mo.ModelError, nn.NeuralError, DataError, OSError) as e:
        print(f"nagc: {e}", file=sys.stderr)
        return 2


def _check_output(path: str):
    """Refuse an output path whose directory is missing or which is itself a
    directory. Commands check their outputs before they read any data, so a
    path that cannot be written fails before the work, not after it."""
    if os.path.isdir(path):
        raise DataError(f"{path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise DataError(f"no directory for {path}")


def _decode_at(width: int, run, *args):
    """run(*args, width=width): a decode at beam `width`, whose MemoryError, a
    beam too wide for the machine, becomes a DataError naming the width."""
    try:
        return run(*args, width=width)
    except MemoryError:
        raise DataError(f"out of memory decoding at beam width {width}") from None


def _dispatch(args) -> int:
    g = builtin_grammar()

    if args.cmd == "gen-corpus":
        files = pl.generate_corpus(args.seed, args.files, args.stmts)
        pl.write_corpus(files, args.out)
        print(f"wrote {len(files)} files to {args.out}")
        return 0

    if args.cmd == "extract":
        _check_output(args.out)
        files = pl.read_corpus(args.indir)
        if not files:
            raise DataError(f"no .mexp files in {args.indir}")
        samples = pl.dedup(pl.extract_samples(files, g))
        if not samples:
            raise DataError(f"no samples extracted from {args.indir}")
        pl.write_jsonl(samples, args.out)
        print(f"extracted {len(samples)} samples to {args.out}")
        return 0

    if args.cmd == "split":
        samples = pl.read_jsonl(args.infile, g)
        parts = args.ratio.split(":")
        if len(parts) != 3 or not all(x.isdigit() for x in parts):
            raise DataError(f"bad ratio {args.ratio!r}")
        folds = pl.split(samples, tuple(int(x) for x in parts), args.seed)
        os.makedirs(args.out_dir, exist_ok=True)
        for name, part in folds.items():
            pl.write_jsonl(part, os.path.join(args.out_dir, name + ".jsonl"))
            print(f"{name}: {len(part)}")
        return 0

    if args.cmd == "train":
        _check_output(args.ckpt)
        _check_output(args.ckpt + ".json")  # its manifest
        train_path = os.path.join(args.data, "train.jsonl")
        samples = pl.read_jsonl(train_path, g)
        gv = pl.literal_vocab_from_samples(samples, g)
        vocab = mo.token_vocab_from_samples(samples)
        m = mo.Model(gv, config=_CONFIG_NAMES[args.config], encoder=args.encoder,
                     seed=args.seed, token_vocab=vocab)
        valid_path = os.path.join(args.data, "valid.jsonl")
        valid = pl.read_jsonl(valid_path, gv) if os.path.exists(valid_path) else None
        mo.train(m, samples, epochs=args.epochs, batch_size=args.batch_size,
                 seed=args.seed, lr=args.lr, valid=valid,
                 log=lambda rec: print(json.dumps(rec)))
        mo.save_model(m, args.ckpt)
        print(f"saved checkpoint to {args.ckpt}")
        return 0

    if args.cmd == "evaluate":
        if args.report:
            _check_output(args.report)
        m = mo.load_model(args.ckpt)
        fold = pl.read_jsonl(args.data, m.grammar)
        report = _decode_at(args.beam, evaluate, m, fold)
        text = json.dumps(asdict(report))
        print(text)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        return 0

    if args.cmd == "complete":
        m = mo.load_model(args.ckpt)
        fold = pl.read_jsonl(args.sample, m.grammar)
        if not fold:
            raise DataError("no samples in file")
        results = _decode_at(args.beam, mo.decode_many, m, [(s.before, s.after, s.scope) for s in fold])
        for s, res in zip(fold, results):
            print(f"hole in {s.file or '<sample>'} ({s.hole_type}):")
            for tree, lp in res.hypotheses:
                pct = 100.0 * math.exp(lp)
                print(f"  {pct:5.1f}%  {' '.join(render_tree_tokens(tree))}")
        return 0

    if args.cmd == "graph-dot":
        _check_output(args.out)
        samples = pl.read_jsonl(args.sample, g)
        if not samples:
            raise DataError("no samples in file")
        s = samples[0]
        tree = deserialize_decisions(s.target, g)
        gr = augment_full_tree(tree, sorted(s.scope))
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(export_dot(gr))
        print(f"wrote {args.out}")
        return 0

    if args.cmd == "grammar":
        print(serialize_grammar(g), end="")
        return 0

    raise DataError(f"unknown command {args.cmd!r}")


def main() -> None:
    sys.exit(run_cli())
