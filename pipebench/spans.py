"""Spans around the public functions each ``sparsetag`` subcommand calls.

The program is not edited: :meth:`Tracer.install` replaces module
attributes with timing wrappers and :meth:`Tracer.restore` puts the
originals back. A span is ``[name, start, end, parent, count]``: times
from ``time.perf_counter``, ``parent`` the index of the enclosing span
(-1 at the top) and ``count`` the work the call did (tokens, words),
where that has a meaning. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = ("cli", "embeddings", "corpus", "sparse_coding", "features", "crf", "evaluation")


def _tokens(dataset):
    return sum(len(s) for s in dataset.sentences)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.last = {}  # span name -> most recent return value

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, count=None, **kwargs):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        self.last[name] = result
        if count is not None:
            span[4] = count(args, result)
        return result

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, sparsetag):
        """Wrap the layer functions the CLI reaches; ``sparsetag`` is the package."""
        cli, corpus, crf = sparsetag.cli, sparsetag.corpus, sparsetag.crf
        sc, features, evaluation = sparsetag.sparse_coding, sparsetag.features, sparsetag.evaluation
        patches = [
            (cli, "load_embeddings", "embeddings.load_embeddings", lambda a, r: len(r)),
            (sc, "learn_dictionary", "sparse_coding.learn_dictionary", lambda a, r: len(r[1])),
            (sc, "save_dictionary", "sparse_coding.save_dictionary", None),
            (sc, "save_codes", "sparse_coding.save_codes", None),
            (sc, "load_codes", "sparse_coding.load_codes", lambda a, r: len(r)),
            (corpus, "read_dataset", "corpus.read_dataset", lambda a, r: _tokens(r)),
            (corpus, "write_dataset", "corpus.write_dataset", lambda a, r: _tokens(a[1])),
            (corpus, "load_tagmap", "corpus.load_tagmap", None),
            (corpus, "map_universal", "corpus.map_universal", None),
            (corpus, "subset_first_n", "corpus.subset_first_n", None),
            (corpus, "to_iobes", "corpus.to_iobes", None),
            (corpus, "replace_labels", "corpus.replace_labels", None),
            (features, "sentence_features", "features.sentence_features", lambda a, r: len(r)),
            (crf, "train", "crf.train", None),
            (crf, "compile_batch", "crf.compile_batch", None),
            (crf, "smooth_objective", "crf.smooth_objective", None),
            (crf, "save_model", "crf.save_model", None),
            (crf, "load_model", "crf.load_model", None),
            (crf.CrfModel, "decode", "crf.decode", lambda a, r: len(r)),
            (evaluation, "token_accuracy", "evaluation.token_accuracy", None),
            (evaluation, "entity_f1", "evaluation.entity_f1", None),
        ]
        for owner, attr, name, count in patches:
            self._patch(owner, attr, name, count)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"], "spans": self.spans}, fh)


def round_metrics(spans, lo, hi):
    """Per-layer figures of the spans ``spans[lo:hi]`` (one traced round).

    Returns (totals, self_times). ``totals`` maps `name@top` (the span name
    and the name of its top-level span, e.g. `crf.smooth_objective@cli.train`)
    to [seconds, count, calls] summed over the round. ``self_times`` maps
    each layer to the time its spans spent outside their child spans,
    counting only spans inside the `cli.*` subcommand spans.
    """
    root = {}
    child_time = {}
    for i in range(lo, hi):
        _, start, end, parent, _ = spans[i]
        root[i] = root[parent] if parent >= lo else i
        if parent >= lo:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    totals = {}
    self_times = dict.fromkeys(LAYERS, 0.0)
    for i in range(lo, hi):
        name, start, end, _, count = spans[i]
        top = spans[root[i]][0]
        entry = totals.setdefault(f"{name}@{top}", [0.0, 0, 0])
        entry[0] += end - start
        entry[1] += count
        entry[2] += 1
        if top.startswith("cli."):
            self_times[name.split(".")[0]] += end - start - child_time.get(i, 0.0)
    return totals, self_times


def total(totals, name, top=None):
    """[seconds, count, calls] of span ``name``, under one top span or all."""
    out = [0.0, 0, 0]
    for key, entry in totals.items():
        span_name, _, span_top = key.partition("@")
        if span_name == name and (top is None or span_top == top):
            out = [a + b for a, b in zip(out, entry)]
    return out
