import hashlib
import json
import os

import numpy as np
import pytest
from conftest import node_tree

from nagc import lang as L
from nagc import model as M
from nagc import neural as nn
from nagc import pipeline as P
from nagc.grammar import LITERAL_CLASSES, TYPING, TypeEnv, type_check
from nagc.pipeline import PipelineError, Sample
from nagc.syntax import deserialize_decisions, trees_equal


def test_generate_corpus_deterministic():
    a = P.generate_corpus(seed=3, n_files=5)
    b = P.generate_corpus(seed=3, n_files=5)
    assert a == b
    c = P.generate_corpus(seed=4, n_files=5)
    assert a != c


# sha256 of the JSON list of (name, text) pairs: a change to the generator
# that moves a single byte of a corpus fails here
@pytest.mark.parametrize("seed, n_files, stmts, digest", [
    (0, 160, 8, "b5619c1813edbd4adb726461ffe185459bff53c0e75b81a3ef06f515a3fb3f44"),
    (0, 300, 2, "7d28dfadb32f39b30f3453fa73f1a11a642d83b08794a6cdf4f0e17a91047ec1"),
    (1, 12, 4, "f8cbc0ac971f4aed5473f6c04d9af10864b7cb675e40e2ebd51ffb97a7903422"),
])
def test_generate_corpus_bytes_are_pinned(seed, n_files, stmts, digest):
    files = P.generate_corpus(seed, n_files, stmts)
    assert hashlib.sha256(json.dumps(files).encode()).hexdigest() == digest


def test_extracted_sample_bytes_are_pinned(g, tmp_path):
    # sha256 of the JSONL that the (0, 160, 8) corpus extracts to: a change
    # to parsing or extraction that moves a single byte fails here
    path = tmp_path / "samples.jsonl"
    P.write_jsonl(P.extract_samples(P.generate_corpus(0, 160, 8), g), path)
    digest = "cbabe29c6df4704741633c18130bbaaf92304fc9901fdea60620b08d56262794"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of the JSONL that a corpus extracts to, and of what dedup keeps of
# it: a change to extraction or to the dedup key that moves a single byte or
# keeps another sample fails here
@pytest.mark.parametrize("shape, extracted, kept", [
    ((0, 160, 8), "cbabe29c6df4704741633c18130bbaaf92304fc9901fdea60620b08d56262794",
     "92f0ba2609d0a16fe3099abd016878cafc45ea4884ee5c1d7713e2f66d6ca815"),
    ((0, 300, 2), "3ef436582b685942075db35ae450f0f90a769008318f04718ea21afad5248a40",
     "a054d5ea4f0f549dee392b3405d869654b739a8450e9326b8467528624151ea6"),
], ids=["160x8", "300x2"])
def test_deduped_sample_bytes_are_pinned(shape, extracted, kept, g, tmp_path):
    path = tmp_path / "samples.jsonl"
    samples = P.extract_samples(P.generate_corpus(*shape), g)
    P.write_jsonl(samples, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == extracted
    P.write_jsonl(P.dedup(samples), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == kept


@pytest.mark.parametrize("n_files, stmts", [(0, 8), (3, 0), (3, -1)])
def test_generate_corpus_rejects_empty_files(n_files, stmts):
    with pytest.raises(PipelineError):
        P.generate_corpus(seed=0, n_files=n_files, stmts_per_file=stmts)


def test_generated_files_parse_and_type_check(g):
    # the parse node's records and type are the derivation tree's
    for name, text in P.generate_corpus(seed=9, n_files=15):
        tokens = L.tokenize(text)
        _, sites = L.parse_program(tokens)
        for site in sites:
            tree = node_tree(site.expr, g)
            target, ty = L.expr_decisions(site.expr, g, site.scope)
            assert trees_equal(deserialize_decisions(target, g), tree)
            assert type_check(tree, TypeEnv(site.scope)) == ty == site.hole_type


@pytest.mark.parametrize("scope, n_rules", [
    ({"i": "int", "s": "string"}, 18),
    ({"i": "int", "s": "string", "b": "bool"}, 23),
    ({"i": "int", "s": "string", "b": "bool", "xs": "int[]"}, 25),
])
def test_generator_draws_exactly_the_typing_table(scope, n_rules, g):
    # every typing rule whose first operand has a variable in scope, but
    # `int[] == int[]` and `int[] != int[]`
    expected = {(form, args) for form, rule in TYPING.items() for args in rule
                if args[0] in scope.values() and args not in {("int[]", "int[]")}}
    assert len(expected) == n_rules
    types = sorted(set(LITERAL_CLASSES) | set(scope.values()))
    sampler, drawn = P._ExprSampler(np.random.default_rng(0), scope), set()

    def typed(node):  # each compound node's (form, operand types); node's type
        if node.spelling is None:
            drawn.add((node.form, tuple([typed(part) for part in node.parts])))
        return L.expr_decisions(node, g, scope)[1]

    for k in range(6000):
        ty = types[k % len(types)]
        assert typed(L.parse_expression(sampler.gen(ty)[0])) == ty
    assert drawn == expected


def test_extract_samples_fields(g, corpus_samples):
    assert len(corpus_samples) > 50
    for s in corpus_samples[:40]:
        tree = deserialize_decisions(s.target, g)
        assert type_check(tree, TypeEnv(s.scope)) == s.hole_type
        used = {rec[1:] for rec in s.target.split() if rec.startswith("V")}
        assert used <= set(s.scope)


def test_extraction_deterministic(g):
    files = P.generate_corpus(seed=5, n_files=8)
    a = P.extract_samples(files, g)
    b = P.extract_samples(files, g)
    assert [s.target for s in a] == [s.target for s in b]
    assert [s.file for s in a] == [s.file for s in b]


def test_extract_skips_unparseable(g, capsys):
    # a hole token in a file would sit inside the context of its samples,
    # a declared name that is not an identifier would enter the scope, and a
    # variable read out of scope, a left chain nested past the bound, an
    # operand mismatch and a site holding an expression of another type
    # would give samples that the reader refuses
    files = [("bad.mexp", "x = 1 ;"), ("chain.mexp", "var y : int = 1" + " + 1" * 900 + " ;"),
             ("hole.mexp", "var i : int = ?HOLE? ; var j : int = i + 1 ;"),
             ("ok.mexp", "var i : int = 1 ;"), ("paren.mexp", "var ( : int = 1 ;"),
             ("plus.mexp", "var s : string ; var c : int = s + 1 ;"),
             ("site.mexp", "var b : bool = 1 ;"),
             ("zz.mexp", "var i : int = 1 ; var j : int = i + zz ;")]
    samples = P.extract_samples(files, g)
    assert [s.file for s in samples] == ["ok.mexp"]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[1] for line in err] == [
        "skipping bad.mexp", "skipping chain.mexp", "skipping hole.mexp", "skipping paren.mexp",
        "skipping plus.mexp", "skipping site.mexp", "skipping zz.mexp"], err
    assert err[1].endswith(f": nested deeper than {L.MAX_NESTING}")
    assert err[4:] == [
        "nagc: skipping plus.mexp: ill-typed expression: + applied to ['string', 'int']",
        "nagc: skipping site.mexp: a bool site holds an expression of type int",
        "nagc: skipping zz.mexp: variable 'zz' is not in scope",
    ]


def _mk(file, before, after, scope, target):
    return Sample(file=file, before=before, after=after, hole_type="int",
                  scope=scope, target=target)


def test_dedup_alpha_equivalent():
    a = _mk("f1", ["var", "x", ":", "int", ";", "x", "="], [";"], {"x": "int"}, "P4 P0 Vx P1 Lint:1")
    b = _mk("f2", ["var", "y", ":", "int", ";", "y", "="], [";"], {"y": "int"}, "P4 P0 Vy P1 Lint:1")
    out = P.dedup([a, b])
    assert out == [a]  # first occurrence wins


def test_dedup_keeps_a_token_spelled_like_a_renamed_variable():
    # the scope variable x, renamed, must not equal the context token v0,
    # nor the renamed x the out-of-scope target variable v0
    a = _mk("f1", ["x", "v0"], [], {"x": "int"}, "P0 Vx")
    b = _mk("f2", ["y", "y"], [], {"y": "int"}, "P0 Vy")
    c = _mk("f3", [], [], {}, "P0 Vv0")
    d = _mk("f4", [], [], {"x": "int"}, "P0 Vx")
    assert P.dedup([a, b]) == [a, b]
    assert P.dedup([c, d]) == [c, d]
    assert P._bucket_key(a) == P._bucket_key(b) and P._bucket_key(c) == P._bucket_key(d)


def _reference_key(s):
    # the dedup key as a loop: each scope variable renamed in turn to its
    # index, an int, the context sorted
    order = {}

    def canon(tok):
        return order.setdefault(tok, len(order)) if tok in s.scope else tok

    ctx = [canon(t) for t in s.before + s.after]
    target = [canon(rec[1:]) if rec[0] == "V" and rec[1:] in s.scope else rec for rec in s.target.split()]
    return (tuple(sorted(ctx, key=repr)), tuple(target))


def _random_samples(seed, n):
    """Small random samples, many of them alike, some with tokens and target
    variables outside the scope spelled like a renamed variable."""
    rng = np.random.default_rng(seed)
    names = ["a", "b", "v0", "v1", "v2", "x"]
    samples = []
    for i in range(n):
        scope = {n: "int" for n in rng.choice(names, size=rng.integers(5), replace=False)}
        ctx = [str(t) for t in rng.choice(names + ["=", ";"], size=rng.integers(7))]
        cut = int(rng.integers(len(ctx) + 1))
        target = " ".join(rng.choice(["P1", "Lint:1"] + ["V" + n for n in names], size=rng.integers(1, 4)))
        samples.append(_mk(str(i), ctx[:cut], ctx[cut:], scope, target))
    return samples


def test_dedup_keeps_what_the_reference_key_keeps():
    samples = _random_samples(0, 3000)
    seen, want = set(), []
    for s in samples:
        if _reference_key(s) not in seen:
            seen.add(_reference_key(s))
            want.append(s)
    assert 500 < len(want) < 2750  # some samples are duplicates, most are not
    assert P.dedup(samples) == want


@pytest.mark.parametrize("source", ["160x8", "300x2", "random"])
def test_bucket_key_is_a_function_of_the_canonical_key(source, g):
    # samples with equal canonical keys share a bucket, so dedup compares
    # keys within buckets only; the random samples also hold variable
    # records spaced apart, which the canonical key joins with one space
    if source == "random":
        samples = _random_samples(1, 3000)
        samples += [_mk(s.file, s.before, s.after, s.scope, s.target.replace(" ", "  "))
                    for s in samples[::7]]
    else:
        shape = {"160x8": (0, 160, 8), "300x2": (0, 300, 2)}[source]
        samples = P.extract_samples(P.generate_corpus(*shape), g)
    bucket = {}
    for s in samples:
        assert bucket.setdefault(P._canonical_key(s), P._bucket_key(s)) == P._bucket_key(s), s
    assert len(bucket) < len(samples)  # some keys are shared


def test_dedup_within_a_bucket():
    # a and b share a bucket (context length and masked target) but not a
    # key, so both stay; c is a renamed a and d a renamed b, so they go
    a = _mk("f1", ["var", "x", ":", "int", ";"], [";"], {"x": "int"}, "P0 Vx")
    b = _mk("f2", ["var", "x", ":", "bool", ";"], [";"], {"x": "int"}, "P0 Vx")
    c = _mk("f3", ["var", "y", ":", "int", ";"], [";"], {"y": "int"}, "P0 Vy")
    d = _mk("f4", ["var", "z", ":", "bool", ";"], [";"], {"z": "int"}, "P0 Vz")
    assert len({P._bucket_key(s) for s in (a, b, c, d)}) == 1
    assert P.dedup([a, b, c, d]) == [a, b]
    assert P.dedup([d, c, b, a]) == [d, c]


def test_dedup_keeps_distinct_and_is_idempotent():
    a = _mk("f1", ["p"], [], {}, "P1 Lint:1")
    b = _mk("f2", ["q"], [], {}, "P1 Lint:2")
    once = P.dedup([a, b])
    assert once == [a, b]
    assert P.dedup(once) == once


def test_split_file_disjoint(corpus_samples):
    folds = P.split(corpus_samples, seed=1)
    seen = {}
    for fold, part in folds.items():
        for s in part:
            assert seen.setdefault(s.file, fold) == fold
    assert sum(len(v) for v in folds.values()) == len(corpus_samples)


def test_split_ratio_roughly_3_1_1(corpus_samples):
    n = len(corpus_samples)
    for seed in range(5):
        folds = P.split(corpus_samples, seed=seed)
        assert abs(len(folds["train"]) / n - 0.6) < 0.1
        assert abs(len(folds["valid"]) / n - 0.2) < 0.1
        assert abs(len(folds["test"]) / n - 0.2) < 0.1


def test_split_five_equal_files():
    samples = [_mk(f"f{i}", ["t"], [], {}, "P1 Lint:1") for i in range(5) for _ in range(10)]
    folds = P.split(samples, seed=0)
    files = {k: {s.file for s in v} for k, v in folds.items()}
    assert len(files["train"]) == 3 and len(files["valid"]) == 1 and len(files["test"]) == 1


@pytest.mark.parametrize("ratio", [(0, 1, 0), (1, 0, 1), (0, 2, 3)])
def test_split_zero_part_gets_no_files(corpus_samples, ratio):
    for seed in range(3):
        folds = P.split(corpus_samples, ratio, seed=seed)
        sizes = [len(folds[name]) for name in ("train", "valid", "test")]
        assert [n > 0 for n in sizes] == [r > 0 for r in ratio], sizes
        assert sum(sizes) == len(corpus_samples)


def test_split_needs_five_files():
    samples = [_mk(f"f{i}", ["t"], [], {}, "P1 Lint:1") for i in range(4)]
    with pytest.raises(PipelineError):
        P.split(samples)


@pytest.mark.parametrize("ratio", [(0, 0, 0), (3, -1, 1), (3, 1)])
def test_split_rejects_bad_ratio(ratio):
    samples = [_mk(f"f{i}", ["t"], [], {}, "P1 Lint:1") for i in range(5)]
    with pytest.raises(PipelineError):
        P.split(samples, ratio)


def test_jsonl_round_trip(g, corpus_samples, tmp_path):
    path = str(tmp_path / "s.jsonl")
    P.write_jsonl(corpus_samples, path)
    with open(path, encoding="utf-8") as f:
        for line in f:
            assert set(json.loads(line)) == {"file", "before", "after", "hole_type", "scope", "target"}
    back = P.read_jsonl(path, g)
    assert back == [
        Sample(s.file, s.before, s.after, s.hole_type, s.scope, s.target)
        for s in corpus_samples
    ]


def test_jsonl_legacy_usages_key_is_ignored(g, fitted_grammar, token_vocab, corpus_samples, tmp_path):
    # files written before usage windows were derived at prep time carry a
    # `usages` key; it is ignored, even when malformed
    s = next(s for s in corpus_samples if len(s.scope) > 1)
    new = {"file": s.file, "before": s.before, "after": s.after, "hole_type": s.hole_type,
           "scope": s.scope, "target": s.target}
    legacy = dict(new, usages={
        n: [[side, toks[max(0, i - 5) : i + 6]]
            for side, toks in (("before", s.before), ("after", s.after))
            for i, t in enumerate(toks) if t == n]
        for n in s.scope
    })
    malformed = dict(new, usages=[7, None])
    path = str(tmp_path / "mixed.jsonl")
    with open(path, "w", encoding="utf-8") as f:
        for obj in (new, legacy, malformed):
            f.write(json.dumps(obj) + "\n")
    back = P.read_jsonl(path, g)
    assert back == [s, s, s]
    m = M.Model(fitted_grammar, encoder="seq", hidden=16, emb_dim=8, seed=0, token_vocab=token_vocab)
    with nn.no_grad():
        encs = [M.encode(m, M.prep_sample(m, b)) for b in back]
    for enc in encs[1:]:
        assert np.array_equal(enc.root.data, encs[0].root.data)
        assert np.array_equal(enc.token_states.data, encs[0].token_states.data)
        assert all(np.array_equal(enc.var_reps[n].data, encs[0].var_reps[n].data) for n in s.scope)


def test_jsonl_empty_file(tmp_path, g):
    path = str(tmp_path / "e.jsonl")
    open(path, "w").close()
    assert P.read_jsonl(path, g) == []


def test_jsonl_truncated_line_names_line(tmp_path, g, corpus_samples):
    path = str(tmp_path / "t.jsonl")
    P.write_jsonl(corpus_samples[:2], path)
    with open(path, "a") as f:
        f.write('{"file": "x"\n')
    with pytest.raises(PipelineError) as err:
        P.read_jsonl(path, g)
    assert ":3" in str(err.value)


@pytest.mark.parametrize("field", ["before", "after", "scope"])
def test_jsonl_rejects_mistyped_containers(field, tmp_path, g, corpus_samples):
    # a string context or a scope of [name, type] pairs would coerce into
    # characters or a dict and pass validation; neither may load
    s = next(s for s in corpus_samples if s.before and s.after)
    obj = {"file": s.file, "before": s.before, "after": s.after, "hole_type": s.hole_type,
           "scope": s.scope, "target": s.target}
    obj[field] = sorted(s.scope.items()) if field == "scope" else " ".join(obj[field])
    path = str(tmp_path / "m.jsonl")
    P.write_jsonl([s], path)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(obj) + "\n")
    with pytest.raises(PipelineError) as err:
        P.read_jsonl(path, g)
    assert ":2: malformed sample" in str(err.value)


@pytest.mark.parametrize("line, message", [
    (lambda obj: {k: v for k, v in obj.items() if k != "file"}, "missing field 'file'"),
    (lambda obj: list(obj.values()), "a sample must be a JSON object"),
])
def test_jsonl_malformed_sample_message_names_the_fault(line, message, tmp_path, g, corpus_samples):
    # a line without a field, or one that is not an object, is named as such
    # rather than by the Python error it raises
    s = corpus_samples[0]
    path = str(tmp_path / "m.jsonl")
    P.write_jsonl([s], path)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(line(vars(s))) + "\n")
    with pytest.raises(PipelineError) as err:
        P.read_jsonl(path, g)
    assert str(err.value) == f"{path}:2: malformed sample: {message}"


def test_read_validates_invariants(tmp_path, g):
    bad = _mk("f", ["t"], [], {}, "P4 P0 Vzz P1 Lint:1")  # zz out of scope
    path = str(tmp_path / "bad.jsonl")
    P.write_jsonl([bad], path)
    with pytest.raises(PipelineError):
        P.read_jsonl(path, g)


@pytest.mark.parametrize("name", ["a b", "(", "5", "true", "var", ""])
def test_read_refuses_scope_name_that_is_not_an_identifier(name, tmp_path, g):
    # a beam may pick any scope name, and "a b" would split its V record in two
    path = str(tmp_path / "s.jsonl")
    P.write_jsonl([_mk("f", ["t"], [], {"i": "int", name: "int"}, "P0 Vi")], path)
    with pytest.raises(PipelineError) as err:
        P.read_jsonl(path, g)
    assert str(err.value) == f"{path}:1: scope name {name!r} is not an identifier"


def test_corpus_dir_round_trip(tmp_path):
    files = P.generate_corpus(seed=1, n_files=4)
    P.write_corpus(files, str(tmp_path / "c"))
    assert P.read_corpus(str(tmp_path / "c")) == files


def _mutated_files(seed, files, per_file):
    """Copies of each file with one token dropped, duplicated or swapped with
    another, or with one word (a name, keyword or literal) renamed to
    another word of the file."""
    rng = np.random.default_rng(seed)
    out = []
    for name, text in files:
        toks = L.tokenize(text)
        words = [i for i, t in enumerate(toks) if t[0].isalnum() or t[0] in '_"']
        for k in range(per_file):
            m, i = list(toks), int(rng.integers(len(toks)))
            op = k % 4
            if op == 0:
                del m[i]
            elif op == 1:
                m.insert(i, m[i])
            elif op == 2:
                j = int(rng.integers(len(m)))
                m[i], m[j] = m[j], m[i]
            else:
                i, j = rng.choice(words, size=2)
                m[i] = toks[j]
            out.append((f"{name}.{k}", " ".join(m)))
    return out


def test_extracted_samples_from_mutated_files_pass_the_reader(g, tmp_path, capsys):
    # extraction and the reader hold one contract: whatever extract keeps of
    # a broken file, read_jsonl accepts
    files = _mutated_files(0, P.generate_corpus(11, 100, 2), 8)
    samples = P.extract_samples(files, g)
    skipped = capsys.readouterr().err.count("nagc: skipping")
    assert len({s.file for s in samples}) > len(files) // 20 and skipped > len(files) // 2
    refused = []
    for i, s in enumerate(samples):
        try:
            P._validate(s, g, "mutated", i)
        except PipelineError as e:
            refused.append(str(e))
    assert refused == []
    path = tmp_path / "m.jsonl"
    P.write_jsonl(samples, path)
    assert len(P.read_jsonl(path, g)) == len(samples)
