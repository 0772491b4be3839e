"""nagc session benchmark: one closed-loop user session per run.

    python3 perfbench/run.py --workload graph-long --seed 0 --seconds 40 --trace 0

Builds a corpus from the seed, trains NAG, saves a checkpoint, decodes held-out
holes at beams 1 and 5 and runs `nagc evaluate`, all in this process. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. The full result, with a
provenance block (and with `--trace 1` the spans), is written under
`.perfbench/` at the checkout root. Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# BLAS runs single-threaded: the session is one client with no worker
# threads, and a fixed thread count keeps results bit-identical across runs.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SOURCE_MODULES = ("grammar", "syntax", "attrgraph", "neural", "lang", "pipeline", "model", "evalcli")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_nagc():
    """Import nagc from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "nagc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nagc sources under {src}")
    sys.path.insert(0, str(src))
    import nagc

    if Path(nagc.__file__).resolve().parent != (src / "nagc").resolve():
        raise SystemExit(f"perfbench: imported nagc from {nagc.__file__}, not {src}")


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args, workload, sizes):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "corpus": {"n_files": workload.n_files, "stmts_per_file": workload.stmts_per_file},
        "encoder": workload.encoder,
        "config": "NAG",
        "sizes": sizes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _layer_metrics(outcome, tracer, wall_s):
    """Per-layer metrics of a traced session (see perfbench/README.md)."""
    import nagc
    from tracer import SPAN_NAMES

    totals = tracer.totals()
    m = {}
    for name in SPAN_NAMES:
        self_s, calls = totals.get(name, (0.0, 0))
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.calls"] = (calls, "count")
    decoding = {}
    for phase in ("decode_b1", "decode_b5"):
        for name, (_, calls) in tracer.totals(phase).items():
            decoding[name] = decoding.get(name, 0) + calls
    hole_decodes = outcome.info["beam"]["decodes"]
    for name in ("model.node_representation", "model.pick_production",
                 "model.pick_variable", "model.pick_literal"):
        m[f"{name}.per_hole"] = (decoding.get(name, 0) / hole_decodes, "count")
    m["neural.tape_nodes_per_sample"] = (tracer.tape_nodes / outcome.info["samples_trained"], "count")
    eval_calls = tracer.totals("evaluate").get("model.prep_sample", (0.0, 0))[1]
    m["model.prep_sample.calls_per_eval_sample"] = (
        eval_calls / (outcome.info["fold_sizes"]["eval"] * outcome.info["sizes"]["eval_reps"]), "count")
    beam = outcome.info["beam"]
    m["model.beam.hyps_per_hole"] = (beam["hypotheses"] / beam["decodes"], "count")
    m["model.beam.discarded_share"] = (
        beam["discarded"] / max(1, beam["hypotheses"] + beam["discarded"]), "share")
    m["pipeline.dedup.keep_share"] = (outcome.info["keep_share"], "share")
    src = Path(nagc.__file__).parent
    for mod in SOURCE_MODULES:
        with open(src / f"{mod}.py", encoding="utf-8") as f:
            m[f"{mod}.lines"] = (sum(1 for _ in f), "lines")
    overhead = tracer.overhead_s()
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_share"] = (overhead / wall_s, "share")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    _import_nagc()
    import session
    from tracer import Tracer

    if args.workload not in session.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(session.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = session.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tracer = None
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = session.run_session(workload, args.seconds, args.seed, str(workdir), tracer)
        finally:
            wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.write(OUT_DIR / f"spans-{tag}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = dict(outcome.metrics)
    measured["failed_share"] = (len(outcome.failures) / outcome.attempted, "share")
    if tracer is not None:
        measured.update(_layer_metrics(outcome, tracer, wall_s))

    metrics = {}
    for entry in declared:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {entry['name']} measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    provenance = _provenance(args, workload, outcome.info["sizes"])
    full = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        "unscaled_timings": {k: {"value": v, "unit": u} for k, (v, u) in outcome.raw.items()},
        "info": outcome.info,
        "failures": outcome.failures,
    }
    if tracer is not None:
        full["phases"] = {
            phase: {name: {"self_s": s, "calls": c} for name, (s, c) in tracer.totals(phase).items()}
            for phase in ("setup", "train", "save", "decode_b1", "decode_b5", "evaluate")
        }
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1)

    print("provenance " + json.dumps(provenance))
    for name, (value, unit) in sorted(measured.items()):
        raw = f"  (unscaled {outcome.raw[name][0]:.6g})" if name in outcome.raw else ""
        print(f"{name:45s} {value:>14.6g} {unit}{raw}")
    for what in outcome.failures:
        print(f"FAILED {what}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
