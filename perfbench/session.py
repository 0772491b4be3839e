"""One closed-loop nagc user session: set up, train, save, decode, evaluate.

A single client drives the library in one process, one call after another:
each hole is decoded only after the previous one has returned. Every input
comes from `pipeline.generate_corpus(seed=...)`, so a seed fixes all the data,
the trained weights and therefore every count the session records.

A session trains `models` independent models, each on its own slice of the
training draw and from its own initialisation, and deals the held-out holes
and the evaluation fold round-robin to them. How long a beam search runs
depends on what the trained model prefers to generate, which varies a lot
from one model to the next; pooling the holes of several models keeps one
model's habits from setting a run's decode percentiles.

Timings are scaled to a reference machine speed by `speed.py`; the unscaled
values are kept beside them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
from dataclasses import asdict, dataclass, field, replace

import numpy as np

import speed
from tracer import Tracer
from nagc import evalcli, model as mo, pipeline as pl
from nagc.grammar import Kind, builtin_grammar
from nagc.syntax import deserialize_decisions, serialize_decisions, trees_equal

# Run length the workload sizes below are tuned for; `--seconds` scales them.
REF_SECONDS = 40
SETUP_REPEATS = 7
BEAM_WIDTHS = (1, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    encoder: str
    stmts_per_file: int
    n_files: int
    train_samples: int
    epochs: int
    batch_size: int
    holes: int  # decoded once at each beam width
    eval_holes: int
    eval_reps: int
    models: int  # trained side by side; train_samples are split among them


# The seq encoder works one sample at a time, so its batch size does not
# change the work per sample; small batches keep each timed backward short.
# Each graph model gets a whole number of batches.
WORKLOADS = {
    w.name: w
    for w in (
        #        name           encoder  stmts files train epochs batch holes eval reps models
        Workload("graph-long", "graph", 8, 160, 320, 2, 20, 320, 80, 2, 4),
        Workload("graph-short", "graph", 2, 300, 480, 3, 20, 320, 80, 2, 4),
        Workload("seq-long", "seq", 8, 160, 12, 2, 4, 100, 20, 1, 1),
    )
}


def sizes_for(w: Workload, seconds: float) -> Workload:
    """The workload with its data sizes scaled to a run of `seconds`; floors
    keep every check meaningful at tiny sizes."""
    f = seconds / REF_SECONDS
    return replace(
        w,
        train_samples=max(2 * w.models, round(w.train_samples * f)),
        holes=max(4, w.models, round(w.holes * f)),
        eval_holes=max(2, w.models, round(w.eval_holes * f)),
    )


@dataclass
class Outcome:
    """What one session measured and what went wrong in it."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit); timings scaled
    raw: dict = field(default_factory=dict)  # the same timings, unscaled
    attempted: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, what: str):
        self.failures.append(what)

    def timing(self, name: str, raw: float, scaled: float, unit: str):
        self.raw[name] = (raw, unit)
        self.metrics[name] = (scaled, unit)


def _setup(w: Workload, seed: int, workdir: str, g):
    """Corpus -> samples -> dedup -> folds -> JSONL -> vocabularies -> Models.

    Training samples are a seeded random draw from the train fold; decoded
    and evaluated holes are a seeded random draw from the held-out folds.
    With n models, model k trains on samples k, k + n, k + 2n, ... of the
    training draw and is evaluated on the same share of the evaluation
    fold, written to `test{k}.jsonl`."""
    files = pl.generate_corpus(seed=seed, n_files=w.n_files, stmts_per_file=w.stmts_per_file)
    raw = pl.extract_samples(files, g)
    samples = pl.dedup(raw)
    folds = pl.split(samples, seed=seed)
    rng = np.random.default_rng(seed)
    train = [folds["train"][i] for i in rng.permutation(len(folds["train"]))[: w.train_samples]]
    held_out = folds["valid"] + folds["test"]
    held_out = [held_out[i] for i in rng.permutation(len(held_out))]
    holes, eval_fold = held_out[: w.holes], held_out[: w.eval_holes]
    pl.write_jsonl(train, os.path.join(workdir, "train.jsonl"))
    for k in range(w.models):
        pl.write_jsonl(eval_fold[k :: w.models], os.path.join(workdir, f"test{k}.jsonl"))
    gv = pl.literal_vocab_from_samples(train, g)
    token_vocab = mo.token_vocab_from_samples(train)
    models = [mo.Model(gv, config="NAG", encoder=w.encoder, token_vocab=token_vocab, seed=k)
              for k in range(w.models)]
    return models, train, holes, eval_fold, len(samples) / len(raw)


def check_beam(res, width: int, scope, grammar) -> list:
    """Problems with one beam result; empty when it is sound."""
    problems = []
    hyps = res.hypotheses
    if len(hyps) > width:
        problems.append(f"{len(hyps)} hypotheses from a width-{width} beam")
    logps = [lp for _, lp in hyps]
    if any(a < b for a, b in zip(logps, logps[1:])):
        problems.append("hypotheses not sorted best first")
    for tree, logp in hyps:
        if not (math.isfinite(logp) and logp <= 0.0):
            problems.append(f"log-probability {logp}")
        seq = serialize_decisions(tree)
        try:
            back = deserialize_decisions(seq, grammar)
        except Exception as e:  # any failure to re-read is a failed decode
            problems.append(f"{seq!r} does not deserialize: {e}")
            continue
        if serialize_decisions(back) != seq or not trees_equal(back, tree):
            problems.append(f"{seq!r} does not round-trip")
        for n in tree.nodes:
            if grammar.symbols[n.label].kind is Kind.VARIABLE and n.binding not in scope:
                problems.append(f"variable {n.binding!r} not in scope")
    return problems


def _percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' inclusive rule."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@contextlib.contextmanager
def _cut_at(seg: speed.Segments, tracer: Tracer, cuts, requests=()):
    """Cut `seg` on every call to the `nagc.model` functions named in `cuts`;
    those also in `requests` start a new request. A probe is a span of its
    own, so that its time is not counted in the layer it interrupts."""
    originals = {name: getattr(mo, name) for name in cuts}

    def cutting(fn, starts_request):
        def call(*args, **kwargs):
            with tracer.span("perfbench.probe"):
                seg.cut()
            if starts_request:
                tracer.new_request()
            return fn(*args, **kwargs)
        return call

    for name, fn in originals.items():
        setattr(mo, name, cutting(fn, name in requests))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(mo, name, fn)


def _train(w: Workload, models, train, seed: int, out: Outcome, tracer):
    """`model.train` of every model on its slice, timed in segments cut at
    every `batch_loss` call (so each model's prep_sample pass is a segment
    of its own) and, on the seq encoder, at every per-sample `encode_seq`
    call."""
    losses = []
    real_batch_loss = mo.batch_loss

    def observed_batch_loss(model_, preppeds):
        loss, steps = real_batch_loss(model_, preppeds)
        losses.append(float(loss.data))
        return loss, steps

    mo.batch_loss = observed_batch_loss
    seg = speed.Segments()
    histories = []
    try:
        with _cut_at(seg, tracer, ["batch_loss", "encode_seq"], requests=["batch_loss"]):
            for k, model in enumerate(models):
                try:
                    histories.append(mo.train(model, train[k :: len(models)], epochs=w.epochs,
                                              batch_size=w.batch_size, seed=seed))
                except mo.ModelError as e:
                    out.fail(f"train model {k}: {e}")
                    histories.append(None)
    finally:
        raw, scaled = seg.close()
        mo.batch_loss = real_batch_loss
    out.attempted += sum(math.ceil(len(train[k :: len(models)]) / w.batch_size)
                         for k in range(len(models))) * w.epochs
    for i, loss in enumerate(losses):
        if not math.isfinite(loss):
            out.fail(f"train batch {i}: loss {loss}")
    out.info["train_nll"] = []
    for k, history in enumerate(histories):
        if history is None:
            continue
        nll = [h["train_nll"] for h in history]
        if not nll[-1] < nll[0]:
            out.fail(f"train model {k}: last epoch NLL {nll[-1]} not below first {nll[0]}")
        out.info["train_nll"].append(nll)
    samples = len(train) * w.epochs
    out.timing("train_ms_per_sample", 1000.0 * raw / samples, 1000.0 * scaled / samples,
               "ms/sample")
    out.info["samples_trained"] = samples


def _decode(models, holes, out: Outcome, tracer):
    """Decode every hole once at each beam width, closed loop, each call
    between two probes; hole i goes to model i mod len(models)."""
    beam = {"hypotheses": 0, "discarded": 0, "decodes": 0}
    timer = speed.Timer()
    for width in BEAM_WIDTHS:
        tracer.phase = f"decode_b{width}"
        raw_ms, scaled_ms = [], []
        for i, s in enumerate(holes):
            tracer.new_request()
            out.attempted += 1
            try:
                model = models[i % len(models)]
                res, raw, scaled = timer.call(
                    mo.decode_beam, model, s.before, s.after, s.scope, width=width)
            except Exception as e:  # a decode that raises is a failed operation
                out.fail(f"decode b{width} hole {i}: {type(e).__name__}: {e}")
                continue
            raw_ms.append(1000.0 * raw)
            scaled_ms.append(1000.0 * scaled)
            problems = check_beam(res, width, s.scope, model.grammar)
            if problems:
                out.fail(f"decode b{width} hole {i}: {'; '.join(problems)}")
            beam["hypotheses"] += len(res.hypotheses)
            beam["discarded"] += res.discarded
            beam["decodes"] += 1
        if len(raw_ms) < 2:
            raw_ms = scaled_ms = [math.nan, math.nan]
        for q in (50, 90):
            out.timing(f"decode_b{width}_ms_p{q}", _percentile(raw_ms, q),
                       _percentile(scaled_ms, q), "ms/hole")
    out.info["beam"] = beam


def _evaluate(w: Workload, ckpts, eval_fold, workdir: str, out: Outcome, tracer):
    """`nagc evaluate --beam 5` in-process on each model's checkpoint and
    share of the fold, `eval_reps` times over, each pass timed in segments
    cut at every per-sample call. eval_s is the median pass, and every pass
    must report the same numbers."""
    raw_times, scaled_times, passes = [], [], []
    per_sample = ["sample_loss", "decode_beam"]
    for rep in range(w.eval_reps):
        reports = []
        seg = speed.Segments()
        with _cut_at(seg, tracer, per_sample, requests=per_sample), \
                contextlib.redirect_stdout(io.StringIO()):
            for k, ckpt in enumerate(ckpts):
                report_path = os.path.join(workdir, f"report{rep}-{k}.json")
                argv = ["evaluate", "--data", os.path.join(workdir, f"test{k}.jsonl"),
                        "--ckpt", ckpt, "--beam", "5", "--report", report_path]
                out.attempted += 1
                rc = evalcli.run_cli(argv)
                reports.append((rc, report_path))
        raw, scaled = seg.close()
        raw_times.append(raw)
        scaled_times.append(scaled)
        good = []
        for k, (rc, report_path) in enumerate(reports):
            if rc != 0:
                out.fail(f"evaluate rep {rep} model {k}: exit code {rc}")
                continue
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
            share = len(eval_fold[k :: len(ckpts)])
            if report["n"] != share:
                out.fail(f"evaluate rep {rep} model {k}: report n={report['n']} for a fold of {share}")
            elif passes and report != passes[0][k]:
                out.fail(f"evaluate rep {rep} model {k}: report differs from rep 0")
            good.append(report)
        if len(good) == len(ckpts):
            passes.append(good)
    out.timing("eval_s", statistics.median(raw_times), statistics.median(scaled_times), "s")
    reports = passes[0] if passes else []
    n = sum(r["n"] for r in reports)
    # n-weighted over the models: exact for acc5, a geometric mean for perplexity
    out.metrics["ppl_decision"] = (
        math.exp(sum(r["n"] * math.log(r["ppl_decision"]) for r in reports) / n) if n else math.nan,
        "1")
    out.metrics["acc5"] = (sum(r["n"] * r["acc5"] for r in reports) / n if n else math.nan, "share")
    out.info["reports"] = reports


def run_session(w: Workload, seconds: float, seed: int, workdir: str,
                tracer: Tracer | None = None) -> Outcome:
    """Run one session; an installed tracer records its spans per phase."""
    tracer = tracer or Tracer(enabled=False)
    g = builtin_grammar()
    w = sizes_for(w, seconds)
    out = Outcome()
    out.info["sizes"] = asdict(w)

    tracer.phase = "setup"
    raw_times, scaled_times = [], []
    timer = speed.Timer()
    for _ in range(SETUP_REPEATS):
        tracer.new_request()
        built, raw, scaled = timer.call(_setup, w, seed, workdir, g)
        raw_times.append(raw)
        scaled_times.append(scaled)
    models, train, holes, eval_fold, keep_share = built
    model = models[0]
    out.timing("setup_s", statistics.median(raw_times), statistics.median(scaled_times), "s")
    out.info["keep_share"] = keep_share
    out.info["fold_sizes"] = {"train": len(train), "holes": len(holes), "eval": len(eval_fold)}

    # warm-up on a throwaway model, outside every measurement
    with tracer.paused():
        warm = mo.Model(model.grammar, config="NAG", encoder=w.encoder,
                        token_vocab=model.token_vocab)
        mo.train(warm, train[:2], epochs=1, batch_size=w.batch_size, seed=seed)
        for s in holes[:2]:
            mo.decode_beam(warm, s.before, s.after, s.scope, width=max(BEAM_WIDTHS))

    tracer.phase = "train"
    _train(w, models, train, seed, out, tracer)

    tracer.phase = "save"
    ckpts = [os.path.join(workdir, f"model{k}.nagc") for k in range(len(models))]
    for m, ckpt in zip(models, ckpts):
        mo.save_model(m, ckpt)

    _decode(models, holes, out, tracer)

    tracer.phase = "evaluate"
    _evaluate(w, ckpts, eval_fold, workdir, out, tracer)
    tracer.phase = "none"

    out.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out
