"""Token accuracy, entity-level F1 with shared-task semantics, report rows."""

from __future__ import annotations

import os
from dataclasses import dataclass

from ._base import SparsetagError
from ._textfiles import atomic_output, read_lines


class EvaluationError(SparsetagError, ValueError):
    """Mismatched shapes or invalid labels."""


@dataclass(frozen=True)
class TypeScore:
    correct: int
    predicted: int
    gold: int

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    overall: TypeScore
    per_type: dict


def _check_shapes(gold_sentences, pred_sequences):
    if len(gold_sentences) != len(pred_sequences):
        raise EvaluationError(
            f"{len(gold_sentences)} gold sentences vs {len(pred_sequences)} predictions"
        )
    for i, (sent, pred) in enumerate(zip(gold_sentences, pred_sequences)):
        if len(sent) != len(pred):
            raise EvaluationError(f"sentence {i}: {len(sent)} tokens vs {len(pred)} labels")


def token_accuracy(gold_dataset, pred_sequences) -> float:
    """Fraction of tokens whose predicted label equals the gold label."""
    _check_shapes(gold_dataset.sentences, pred_sequences)
    total = 0
    correct = 0
    for sent, pred in zip(gold_dataset.sentences, pred_sequences):
        for tok, lab in zip(sent, pred):
            total += 1
            correct += tok.label == lab
    if total == 0:
        raise EvaluationError("empty dataset")
    return correct / total


def _split_tag(tag):
    if tag == "O":
        return "O", None
    if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BIES":
        raise EvaluationError(f"invalid chunk tag {tag!r}")
    return tag[0], tag[2:]


def _chunk_boundary(prev, cur):
    """False only when split tags ``prev`` and ``cur`` continue one chunk."""
    prev_p, prev_t = prev
    cur_p, cur_t = cur
    if prev_p == "O" or cur_p == "O" or prev_t != cur_t:
        return True
    return cur_p in ("B", "S") or prev_p in ("E", "S")


def extract_spans(tags):
    """Maximal well-formed entity spans as (type, start, end_inclusive).

    Works for BIO and IOBES alike; ill-formed transitions (such as O
    followed by I-X) leniently start a new span, matching the official
    scorer's reading. The corpus tag conversions read spans through this
    function too, so training and scoring agree on every entity.
    """
    spans = set()
    prev = ("O", None)
    start = None
    cur_type = None
    for i, tag in enumerate(tags):
        cur = _split_tag(tag)
        if _chunk_boundary(prev, cur):
            if start is not None:
                spans.add((cur_type, start, i - 1))
            start = None if cur[0] == "O" else i
            cur_type = cur[1]
        prev = cur
    if start is not None:
        spans.add((cur_type, start, len(tags) - 1))
    return spans


def entity_f1(gold_dataset, pred_sequences) -> EvalReport:
    """Exact-boundary, exact-type entity matching over all sentences.

    Span extraction is scheme-agnostic, so BIO and IOBES inputs for
    identical spans give identical scores.
    """
    _check_shapes(gold_dataset.sentences, pred_sequences)
    correct = {}
    predicted = {}
    gold = {}
    for sent_id, (sent, pred) in enumerate(zip(gold_dataset.sentences, pred_sequences)):
        gold_spans = extract_spans([tok.label for tok in sent])
        pred_spans = extract_spans(list(pred))
        for etype, *_ in gold_spans:
            gold[etype] = gold.get(etype, 0) + 1
        for etype, *_ in pred_spans:
            predicted[etype] = predicted.get(etype, 0) + 1
        for span in gold_spans & pred_spans:
            correct[span[0]] = correct.get(span[0], 0) + 1
    types = sorted(set(gold) | set(predicted))
    per_type = {
        etype: TypeScore(
            correct=correct.get(etype, 0),
            predicted=predicted.get(etype, 0),
            gold=gold.get(etype, 0),
        )
        for etype in types
    }
    overall = TypeScore(
        correct=sum(correct.values()),
        predicted=sum(predicted.values()),
        gold=sum(gold.values()),
    )
    return EvalReport(overall=overall, per_type=per_type)


REPORT_COLUMNS = ("treebank", "task", "scheme", "lambda", "m", "sparsity", "metric", "value")


def report_row(treebank, task, scheme, lam, m, sparsity, metric, value) -> str:
    """One tab-separated result row matching REPORT_COLUMNS."""
    fields = (
        treebank,
        task,
        scheme,
        "-" if lam is None else f"{lam:g}",
        "-" if m is None else str(m),
        "-" if sparsity is None else f"{sparsity:.6f}",
        metric,
        f"{value:.6f}",
    )
    return "\t".join(fields)


def update_report(path, row: str) -> None:
    """Append the row to a TSV report, replacing any row with the same
    (treebank, scheme, lambda) key. The write is atomic."""
    key = _row_key(row)
    lines = []
    if os.path.exists(path):
        lines = [line for _, line in read_lines(path, EvaluationError)]
        if lines and lines[0] and lines[0] != "\t".join(REPORT_COLUMNS):
            raise EvaluationError(f"{path}: unexpected report header")
        lines = [ln for ln in lines[1:] if ln.strip()]
    lines = [ln for ln in lines if _row_key(ln) != key]
    lines.append(row)
    with atomic_output(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\t".join(REPORT_COLUMNS) + "\n")
            for ln in lines:
                fh.write(ln + "\n")


def _row_key(row: str):
    fields = row.split("\t")
    if len(fields) != len(REPORT_COLUMNS):
        raise EvaluationError(f"malformed report row: {row!r}")
    return fields[0], fields[2], fields[3]
