"""The traced benchmark wraps package functions by name; keep them wrappable.

``pipebench/spans.py`` replaces module attributes of sparsetag with timing
wrappers. A refactor that renames or moves one of them fails here rather
than in the middle of a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import sparsetag
import sparsetag.cli  # noqa: F401  (the tracer patches attributes of every layer module)
from sparsetag import crf

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


def test_tagging_calls_the_traced_features_and_decode_per_sentence(monkeypatch, tmp_path):
    # features.tag_tokens_per_s and crf.decode_tokens_per_s divide the tokens
    # these spans count by their time, so tag must reach both per sentence
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
    for name in ("features.sentence_features", "crf.decode"):
        counts = [span[4] for span in tracer.spans if span[0] == name]
        assert len(counts) == len(lengths)
        assert sum(counts) == sum(lengths)
