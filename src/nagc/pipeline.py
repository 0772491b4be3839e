"""Synthetic MiniExpr corpus: generation, sample extraction, deduplication,
file-respecting splits and JSONL persistence."""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import lang
from .grammar import (
    LITERAL_CLASSES, TYPES, TYPING, Grammar, GrammarError, Kind, TypeCheckError, TypeEnv, builtin_grammar,
    type_check,
)
from .syntax import deserialize_decisions


class PipelineError(Exception):
    pass


@dataclass
class Sample:
    file: str
    before: list[str]
    after: list[str]
    hole_type: str
    scope: dict  # name -> type
    target: str  # decision sequence


# ---------------------------------------------------------------------------
# Corpus generation

_NAME_POOL = {
    "int": ["i", "j", "k", "n", "cnt", "idx", "off", "len0"],
    "string": ["s", "t", "u", "name", "text", "uri"],
    "bool": ["b", "flag", "ok", "done"],
    "int[]": ["arr", "xs", "data", "buf"],
}
_LITERALS = {
    "int": [str(v) for v in (0, 1, 2, 3, 5, 7, 10, 42, 100)],
    "string": ['"a"', '"b"', '"c"', '"foo"', '"bar"', '"file:"', '""'],
    "bool": ["true", "false"],
}

_GRAMMAR = builtin_grammar()  # whose productions the generator draws
_VARIABLE_PID = _GRAMMAR.by_form[(Kind.VARIABLE, None)].pid
_LITERAL_PIDS = {ty: _GRAMMAR.by_form[(Kind.LITERAL, ty)].pid for ty in _LITERALS}


def _options() -> dict:
    """Each result type's compound expressions, in `TYPING`'s order: (grammar
    form, operand types in rhs order), or operands None for a form typed for two
    same-type operands over every type (`==`, `!=`), whose operand type is drawn."""
    options = {}
    for form, rule in TYPING.items():
        if set(rule) == {(t, t) for t in TYPES}:
            (ty,) = set(rule.values())
            options.setdefault(ty, []).append((form, None))
        else:
            for operands, ty in rule.items():
                options.setdefault(ty, []).append((form, operands))
    return options


_OPTIONS = _options()


class _ExprSampler:
    """Type-directed random expression generator; type-correct by construction.

    Leaf probability is tuned so target expressions average about four tokens.
    """

    def __init__(self, rng, scope: dict):
        self.rng = rng
        self.by_type: dict[str, list[str]] = {}
        for name, ty in scope.items():
            self.by_type.setdefault(ty, []).append(name)

    def gen(self, ty: str, depth: int = 2) -> tuple[list[str], int]:
        """A random expression of type ty, rendered: (tokens, precedence)."""
        rng = self.rng
        names, has_literal = self.by_type.get(ty, []), ty in _LITERALS
        if not (has_literal or names):
            raise PipelineError(f"no {ty} variable in scope")
        if has_literal and depth > 0 and rng.random() >= 0.52:
            # an option needs a variable of its first operand's type in scope
            opts = [o for o in _OPTIONS[ty] if o[1] is None or o[1][0] in self.by_type]
            form, operands = opts[rng.integers(len(opts))]
            pid = _GRAMMAR.by_form[form].pid
            if operands is None:
                candidates = [t for t in LITERAL_CLASSES if t in self.by_type]
                operands = (candidates[rng.integers(len(candidates))],) * 2
            slots = [self.gen(t, depth - 1) for t in operands]
        elif names and (not has_literal or rng.random() < 0.7):
            pid, slots = _VARIABLE_PID, [names[rng.integers(len(names))]]
        else:
            pid, slots = _LITERAL_PIDS[ty], [_LITERALS[ty][rng.integers(len(_LITERALS[ty]))]]
        return lang.render_production(_GRAMMAR, pid, slots)


def _gen_file(rng, stmts_per_file: int) -> str:
    scope: dict[str, str] = {}
    used_names = set()
    lines: list[str] = []

    def fresh_name(ty):
        pool = _NAME_POOL[ty]
        for name in pool:
            if name not in used_names:
                return name
        k = 2
        while f"{pool[0]}{k}" in used_names:
            k += 1
        return f"{pool[0]}{k}"

    sampler = _ExprSampler(rng, scope)  # over `scope`, replaced whenever it changes

    def declare(ty, with_init):
        nonlocal sampler
        name = fresh_name(ty)
        used_names.add(name)
        stmt_toks = ["var", name, ":"]
        stmt_toks += ["int", "[", "]"] if ty == "int[]" else [ty]
        if with_init and ty != "int[]":
            stmt_toks += ["="] + sampler.gen(ty, depth=2)[0]
        stmt_toks.append(";")
        scope[name] = ty
        sampler = _ExprSampler(rng, scope)
        return stmt_toks

    # seed declarations so every type is reachable
    lines.append(declare("int", with_init=False))
    lines.append(declare("string", with_init=False))
    if rng.random() < 0.6:
        lines.append(declare("int[]", with_init=False))
    if rng.random() < 0.5:
        lines.append(declare("bool", with_init=True))

    def gen_stmts(count, depth):
        nonlocal sampler
        out = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.3:
                ty = LITERAL_CLASSES[rng.integers(len(LITERAL_CLASSES))]
                out.append(declare(ty, with_init=True))
            elif roll < 0.65 and scope:
                assignable = [n for n, t in scope.items() if t != "int[]"]
                if not assignable:
                    continue
                name = assignable[rng.integers(len(assignable))]
                out.append([name, "="] + sampler.gen(scope[name], 2)[0] + [";"])
            elif depth > 0:
                kw = "if" if roll < 0.85 else "while"
                cond = sampler.gen("bool", 2)[0]
                # declarations inside a block are block-scoped; restore
                outer, outer_sampler = dict(scope), sampler
                body = gen_stmts(int(rng.integers(1, 3)), depth - 1)
                scope.clear()
                scope.update(outer)
                sampler = outer_sampler
                block = [kw, "("] + cond + [")", "{"]
                for b in body:
                    block += b
                block.append("}")
                out.append(block)
            else:
                continue
        return out

    lines.extend(gen_stmts(stmts_per_file, depth=1))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def generate_corpus(seed: int, n_files: int, stmts_per_file: int = 8):
    """Deterministic list of (filename, text) MiniExpr programs."""
    if n_files < 1:
        raise PipelineError("n_files must be >= 1")
    if stmts_per_file < 1:
        raise PipelineError("stmts_per_file must be >= 1")
    files = []
    for i in range(n_files):
        rng = np.random.default_rng([seed, i])
        files.append((f"{i:04d}.mexp", _gen_file(rng, stmts_per_file)))
    return files


def write_corpus(files, outdir):
    os.makedirs(outdir, exist_ok=True)
    for name, text in files:
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as f:
            f.write(text)


def read_corpus(dirpath):
    files = []
    for name in sorted(os.listdir(dirpath)):
        if name.endswith(".mexp"):
            path = os.path.join(dirpath, name)
            try:
                with open(path, encoding="utf-8") as f:
                    files.append((name, f.read()))
            except UnicodeDecodeError as e:
                raise PipelineError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    return files


# ---------------------------------------------------------------------------
# Extraction

def extract_samples(files, g: Grammar) -> list[Sample]:
    """One sample per top-level expression (initializer, assignment rhs,
    if/while condition) in each parseable, well-typed file without a hole
    token."""
    samples = []
    for fname, text in files:
        try:
            tokens = lang.tokenize(text)
            if lang.HOLE_TOKEN in tokens:
                raise lang.LangError(f"holds the hole token {lang.HOLE_TOKEN}")
            _, sites = lang.parse_program(tokens)
            targets = []
            for site in sites:
                target, ty = lang.expr_decisions(site.expr, g, site.scope)
                if ty != site.hole_type:
                    raise lang.LangError(f"a {site.hole_type} site holds an expression of type {ty}")
                targets.append(target)
        except (lang.LangError, RecursionError) as e:  # the latter: nested too deeply
            print(f"nagc: skipping {fname}: {e}", file=sys.stderr)
            continue
        samples += [Sample(file=fname, before=tokens[: site.start], after=tokens[site.end :],
                           hole_type=site.hole_type, scope=site.scope, target=target)
                    for site, target in zip(sites, targets)]
    return samples


def literal_vocab_from_samples(samples, g: Grammar, top_k: int = 20) -> Grammar:
    """Grammar with per-class literal vocab = top-k training spellings + UNK."""
    counts = {cls: Counter() for cls in LITERAL_CLASSES}
    for s in samples:
        for rec in s.target.split():
            if rec.startswith("L"):
                cls, _, spelling = rec[1:].partition(":")
                counts[cls][spelling] += 1
    vocab = {}
    for cls, ctr in counts.items():
        top = sorted(ctr.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        vocab[cls] = tuple(sp for sp, _ in top)
    return g.with_literal_vocab(vocab)


# ---------------------------------------------------------------------------
# Deduplication

def _canonical_key(s: Sample):
    """Equal for two samples exactly when their contexts hold the same tokens
    the same number of times and their targets are the same, once each scope
    variable is renamed 0, 1, ... in order of its first occurrence in the
    context, then in the target: an int, which no token or record equals."""
    scope = s.scope
    counts = Counter(s.before + s.after)  # keys in order of first occurrence
    order = {tok: i for i, tok in enumerate([t for t in counts if t in scope])}
    counts.update({i: counts.pop(tok) for tok, i in order.items()})
    target = tuple([
        order.setdefault(rec[1:], len(order)) if rec[0] == "V" and rec[1:] in scope else rec
        for rec in s.target.split()
    ])
    return frozenset(counts.items()), target


def _bucket_key(s: Sample):
    """The context's length and the target with every variable record's name
    masked: a function of the canonical key, so samples whose canonical keys
    are equal share it."""
    masked = ["V" if rec[0] == "V" else rec for rec in s.target.split()]
    return len(s.before) + len(s.after), " ".join(masked)


def dedup(samples) -> list[Sample]:
    """Drop samples that are exact duplicates after renaming variables to
    occurrence-order indices; first occurrence wins. Only samples that share
    a bucket key can be duplicates, so only those get a canonical key."""
    buckets: dict[tuple, list[int]] = {}
    for i, s in enumerate(samples):
        buckets.setdefault(_bucket_key(s), []).append(i)
    kept = []
    for members in buckets.values():
        if len(members) > 1:  # the first of each key: a dict keeps a key's last value
            members = {_canonical_key(samples[i]): i for i in reversed(members)}.values()
        kept += members
    return [samples[i] for i in sorted(kept)]


# ---------------------------------------------------------------------------
# Splits

def split(samples, ratio=(3, 1, 1), seed: int = 0) -> dict:
    """File-respecting split: whole files assigned to folds by seeded shuffle,
    greedily targeting the ratio by sample count; a fold whose part is 0
    stays empty."""
    if len(ratio) != 3 or min(ratio) < 0 or sum(ratio) <= 0:
        raise PipelineError(f"ratio {ratio} needs three non-negative parts with a positive sum")
    by_file: dict[str, list[Sample]] = {}
    for s in samples:
        by_file.setdefault(s.file, []).append(s)
    if len(by_file) < 5:
        raise PipelineError(f"need >= 5 source files, got {len(by_file)}")
    rng = np.random.default_rng(seed)
    file_order = sorted(by_file)
    rng.shuffle(file_order)
    names = ("train", "valid", "test")
    total = sum(ratio)
    targets = [r / total for r in ratio]
    counts = [0, 0, 0]
    folds = {n: [] for n in names}
    for fname in file_order:
        placed = sum(counts)
        deficits = [
            targets[i] - (counts[i] / placed if placed else 0.0) for i in range(3)
        ]
        fold = max((i for i in range(3) if ratio[i] > 0), key=lambda i: deficits[i])
        folds[names[fold]].extend(by_file[fname])
        counts[fold] += len(by_file[fname])
    return folds


# ---------------------------------------------------------------------------
# Persistence

def write_jsonl(samples, path):
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:  # the fields in declaration order
            f.write(json.dumps(vars(s), ensure_ascii=False) + "\n")


def read_jsonl(path, g: Grammar | None = None) -> list[Sample]:
    """Load samples; with a grammar, validate the Sample invariants."""
    out = []
    with open(path, "rb") as f:  # bytes, so a non-UTF-8 line fails in the try below
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError("a sample must be a JSON object")
                if not (isinstance(obj["before"], list) and isinstance(obj["after"], list)
                        and isinstance(obj["scope"], dict)):
                    raise TypeError("before and after must be lists, scope an object")
                s = Sample(
                    file=obj["file"],
                    before=obj["before"],
                    after=obj["after"],
                    hole_type=obj["hole_type"],
                    scope=obj["scope"],
                    target=obj["target"],
                )
                texts = [s.file, s.hole_type, s.target, *s.before, *s.after, *s.scope.values()]
                if not all(isinstance(x, str) for x in texts):
                    raise TypeError("names, types and tokens must be strings")
            except KeyError as e:
                raise PipelineError(f"{path}:{lineno}: malformed sample: missing field {e}") from None
            except (json.JSONDecodeError, TypeError, ValueError) as e:
                raise PipelineError(f"{path}:{lineno}: malformed sample: {e}") from None
            if g is not None:
                _validate(s, g, path, lineno)
            out.append(s)
    return out


def _validate(s: Sample, g: Grammar, path, lineno):
    for name in s.scope:
        if not lang.is_identifier(name):
            raise PipelineError(f"{path}:{lineno}: scope name {name!r} is not an identifier")
    if lang.HOLE_TOKEN in s.before or lang.HOLE_TOKEN in s.after:
        raise PipelineError(f"{path}:{lineno}: context holds the hole token {lang.HOLE_TOKEN}")
    try:
        tree = deserialize_decisions(s.target, g)
    except Exception as e:
        raise PipelineError(f"{path}:{lineno}: target does not deserialize: {e}") from None
    try:
        ty = type_check(tree, TypeEnv(s.scope))
    except (GrammarError, TypeCheckError) as e:
        raise PipelineError(f"{path}:{lineno}: ill-typed sample: {e}") from None
    if ty != s.hole_type:
        raise PipelineError(f"{path}:{lineno}: hole type {s.hole_type} but target has type {ty}")
