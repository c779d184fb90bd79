"""The traced benchmark wraps package functions by name; keep them wrappable.

``pipebench/spans.py`` replaces module attributes of sparsetag with timing
wrappers. A refactor that renames or moves one of them fails here rather
than in the middle of a benchmark run.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import sparsetag
import sparsetag.cli  # noqa: F401  (the tracer patches attributes of every layer module)
from sparsetag import crf
from sparsetag.corpus import write_dataset

from conftest import make_dataset, make_sequence_task, write_embedding_file

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def _spans_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)


def test_tracer_installs_and_restores(monkeypatch):
    spans = _spans_module(monkeypatch)
    tracer = spans.Tracer()
    tracer.install(sparsetag)
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_training_calls_the_traced_objective(monkeypatch, tmp_path, capsys):
    # crf.objective_evals and crf.objective_eval_s count the spans around
    # crf.smooth_objective, so training must reach it through the module
    spans = _spans_module(monkeypatch)
    corpus = tmp_path / "train.conll"
    sentence = "1\tx\t_\tA\tA\n2\ty\t_\tB\tB\n3\tx\t_\tA\tA\n\n"
    corpus.write_text(sentence * 3 + "1\ty\t_\tB\tB\n\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    evaluations = []
    owlqn = crf._owlqn

    def counting_owlqn(fun, *args):
        def counted(params):
            evaluations.append(params)
            return fun(params)

        return owlqn(counted, *args)

    monkeypatch.setattr(crf, "_owlqn", counting_owlqn)
    tracer = spans.Tracer()
    tracer.install(sparsetag)
    try:
        code = sparsetag.cli.main([
            "train", "--task", "pos", "--scheme", "wi", "--train", str(corpus),
            "--format", "conllx", "--out", str(model),
        ])
    finally:
        tracer.restore()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("crf.compile_batch") == 1
    iterations = int(crf.load_model(model).meta["owlqn_iterations"])
    assert iterations >= 1
    assert names.count("crf.smooth_objective") == len(evaluations) >= iterations + 1


def test_tagging_calls_the_traced_features_per_sentence_and_decode(monkeypatch, tmp_path):
    # features.tag_tokens_per_s and crf.decode_tokens_per_s divide the tokens
    # these spans count by their time, so tag must reach both: features once
    # per sentence, and decode, which runs one Viterbi over the whole input,
    # at least once, counting every token tagged
    spans = _spans_module(monkeypatch)
    train = tmp_path / "train.conll"
    train.write_text("1\tx\t_\tA\tA\n2\ty\t_\tB\tB\n\n" * 3, encoding="utf-8")
    model = tmp_path / "model.txt"
    assert sparsetag.cli.main([
        "train", "--task", "pos", "--scheme", "wi", "--train", str(train),
        "--format", "conllx", "--out", str(model),
    ]) == 0
    lengths = [2, 3, 1, 4]
    test = tmp_path / "test.conll"
    test.write_text("".join(
        "".join(f"{i}\t{'xy'[i % 2]}\t_\tA\tA\n" for i in range(1, n + 1)) + "\n" for n in lengths
    ), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install(sparsetag)
    try:
        code = sparsetag.cli.main([
            "tag", "--model", str(model), "--input", str(test), "--format", "conllx",
            "--out", str(tmp_path / "pred.conll"),
        ])
    finally:
        tracer.restore()
    assert code == 0
    counts = {name: [span[4] for span in tracer.spans if span[0] == name]
              for name in ("features.sentence_features", "crf.decode")}
    assert counts["features.sentence_features"] == lengths
    assert len(counts["crf.decode"]) >= 1
    assert sum(counts["crf.decode"]) == sum(lengths)


# Run in a fresh interpreter, where the package has loaded no layer yet:
# the traced benchmark imports sparsetag and sparsetag.cli, installs the
# tracer, runs a chain through cli.main and reads these attributes of the
# layer results the spans recorded.
_FRESH_TRACED_CHAIN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import sparsetag, sparsetag.cli
import numpy as np
import spans

tracer = spans.Tracer()
tracer.install(sparsetag)
patched = list(tracer._patched)
try:
    codes = [sparsetag.cli.main(argv) for argv in json.loads(sys.argv[2])]
finally:
    tracer.restore()
table = tracer.last["embeddings.load_embeddings"]
dictionary, codes_ = tracer.last["sparse_coding.learn_dictionary"]
batch = tracer.last["crf.compile_batch"]
model = tracer.last["crf.train"]
params = np.concatenate([model.emissions.ravel(), model.transitions.ravel()])
value, _ = sparsetag.crf.smooth_objective(params, batch, model.c2)
print(json.dumps({
    "exit_codes": codes,
    "restored": all(getattr(owner, attr) is original for owner, attr, original in patched),
    "patched": len(patched),
    "words": len(table),
    "vectors": list(table.vectors.shape),
    "nnz": int(batch.matrix.nnz),
    "positions": batch.n_positions,
    "features": len(model.feature_index),
    "labels": model.labels,
    "emissions": list(model.emissions.shape),
    "transitions": list(model.transitions.shape),
    "c2": model.c2,
    "objective_finite": bool(np.isfinite(value)),
    "objectives": len(dictionary.objectives),
    "atoms": list(dictionary.atoms.shape),
    "lam": dictionary.lam,
    "variant": dictionary.variant,
    "nonzeros": codes_.total_nonzeros(),
    "dense": list(codes_.to_dense().shape),
    "dense_nonzeros": int(np.count_nonzero(codes_.to_dense())),
    "encoded": len(sparsetag.sparse_coding.encode(dictionary, table)),
}))
"""


def test_fresh_interpreter_chain_reads_every_traced_result(tmp_path):
    # the in-process tests above run after every layer is imported, so only
    # a fresh interpreter shows whether the lazily imported layers still patch
    task = make_sequence_task(seed=5, n_labels=3, words_per_label=10, n_train=20, n_test=8)
    emb, train, test = tmp_path / "vec.txt", tmp_path / "train.conll", tmp_path / "test.conll"
    write_embedding_file(emb, task["words"], task["vectors"])
    write_dataset(train, make_dataset(task["train"]), "conllx")
    write_dataset(test, make_dataset(task["test"]), "conllx")
    out = {name: str(tmp_path / name) for name in ("dict.txt", "codes.txt", "model.txt", "pred.conll")}
    chain = [
        ["learn-dict", "--embeddings", str(emb), "--m", "8", "--lambda", "0.1",
         "--epochs", "2", "--seed", "1", "--out-dict", out["dict.txt"], "--out-codes", out["codes.txt"]],
        ["train", "--task", "pos", "--scheme", "sc", "--train", str(train), "--format", "conllx",
         "--codes", out["codes.txt"], "--max-iterations", "5", "--out", out["model.txt"]],
        ["tag", "--model", out["model.txt"], "--input", str(test), "--format", "conllx",
         "--codes", out["codes.txt"], "--out", out["pred.conll"]],
        ["eval", "--gold", str(test), "--pred", out["pred.conll"], "--format", "conllx",
         "--task", "pos"],
    ]
    src = str(Path(sparsetag.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_TRACED_CHAIN, str(PIPEBENCH), json.dumps(chain)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    got = json.loads(proc.stdout.splitlines()[-1])
    n_words, n_train = len(task["words"]), sum(map(len, task["train"]))
    assert got["exit_codes"] == [0, 0, 0, 0]
    assert got["restored"] and got["patched"] > 0
    assert got["words"] == got["encoded"] == n_words
    assert got["vectors"] == [n_words, task["vectors"].shape[1]]
    assert got["positions"] == n_train and got["nnz"] > 0
    assert got["labels"] == ["L0", "L1", "L2"]
    assert got["emissions"] == [got["features"], 3] and got["transitions"] == [3, 3]
    assert got["c2"] == 0.001 and got["objective_finite"]
    assert got["objectives"] == 2 + 1  # one per epoch, then the final refit
    assert got["atoms"] == [task["vectors"].shape[1], 8]
    assert got["lam"] == 0.1 and got["variant"] == "sc1"
    assert got["dense"] == [n_words, 8]
    assert got["nonzeros"] == got["dense_nonzeros"] > 0
