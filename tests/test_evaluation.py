import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag.corpus import read_conll_ner, to_iobes
from sparsetag.evaluation import (
    REPORT_COLUMNS,
    EvaluationError,
    entity_f1,
    extract_spans,
    report_row,
    token_accuracy,
    update_report,
)

from conftest import make_dataset
from oracles import random_bio_sequence


def ner_dataset(tag_sequences):
    return make_dataset(
        [[(f"w{i}", tag) for i, tag in enumerate(tags)] for tags in tag_sequences],
        task="ner",
    )


class TestTokenAccuracy:
    def test_identical(self):
        gold = make_dataset([[("a", "X"), ("b", "Y")]])
        assert token_accuracy(gold, [["X", "Y"]]) == 1.0

    def test_three_of_four(self):
        gold = make_dataset([[("a", "X"), ("b", "Y")], [("c", "X"), ("d", "Y")]])
        assert token_accuracy(gold, [["X", "Y"], ["X", "X"]]) == 0.75

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        sents = [[("a", "X")], [("b", "Y"), ("c", "X")], [("d", "Z")]]
        preds = [["X"], ["Y", "Z"], ["Z"]]
        base = token_accuracy(make_dataset(sents), preds)
        for _ in range(5):
            order = rng.permutation(len(sents))
            acc = token_accuracy(
                make_dataset([sents[i] for i in order]), [preds[i] for i in order]
            )
            assert acc == base

    def test_shape_mismatch(self):
        gold = make_dataset([[("a", "X")]])
        with pytest.raises(EvaluationError):
            token_accuracy(gold, [["X", "Y"]])
        with pytest.raises(EvaluationError):
            token_accuracy(gold, [])


class TestSpans:
    def test_bio_spans(self):
        tags = ["B-PER", "I-PER", "O", "B-LOC"]
        assert extract_spans(tags) == {("PER", 0, 1), ("LOC", 3, 3)}

    def test_iobes_spans(self):
        tags = ["B-PER", "E-PER", "O", "S-LOC"]
        assert extract_spans(tags) == {("PER", 0, 1), ("LOC", 3, 3)}

    def test_lenient_start_after_o(self):
        assert extract_spans(["O", "I-PER"]) == {("PER", 1, 1)}

    def test_type_change_splits(self):
        assert extract_spans(["B-PER", "I-LOC"]) == {("PER", 0, 0), ("LOC", 1, 1)}

    def test_invalid_tag(self):
        with pytest.raises(EvaluationError):
            extract_spans(["Q-PER"])


class TestEntityF1:
    def test_exact_match(self):
        gold = ner_dataset([["B-PER", "I-PER", "O"]])
        report = entity_f1(gold, [["B-PER", "I-PER", "O"]])
        assert report.overall.precision == 1.0
        assert report.overall.recall == 1.0
        assert report.overall.f1 == 1.0

    def test_boundary_error_counts_zero(self):
        gold = ner_dataset([["B-PER", "I-PER"]])
        report = entity_f1(gold, [["B-PER", "O"]])
        assert report.overall.precision == 0.0
        assert report.overall.recall == 0.0
        assert report.overall.f1 == 0.0

    def test_spurious_extra_entity(self):
        gold = ner_dataset([["B-PER", "O", "O"]])
        report = entity_f1(gold, [["B-PER", "O", "B-LOC"]])
        assert report.overall.precision == 0.5
        assert report.overall.recall == 1.0
        assert report.overall.f1 == pytest.approx(2 * 0.5 / 1.5)

    def test_type_error_counts_zero(self):
        gold = ner_dataset([["B-PER"]])
        report = entity_f1(gold, [["B-LOC"]])
        assert report.overall.f1 == 0.0
        assert report.per_type["PER"].recall == 0.0
        assert report.per_type["LOC"].precision == 0.0

    def test_invariant_under_iobes_conversion(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gold_tags = [random_bio_sequence(rng, int(rng.integers(1, 12))) for _ in range(4)]
            pred_tags = [random_bio_sequence(rng, len(t)) for t in gold_tags]
            gold = ner_dataset(gold_tags)
            base = entity_f1(gold, pred_tags)
            gold_iobes, _ = to_iobes(gold)
            pred_iobes = [
                [tok.label for tok in sent]
                for sent in to_iobes(ner_dataset(pred_tags))[0].sentences
            ]
            conv = entity_f1(gold_iobes, pred_iobes)
            assert conv.overall == base.overall
            assert conv.per_type == base.per_type

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_raw_and_normalized_gold_score_alike(self, tmp_path_factory, data):
        # eval reads the gold file without the IOB1 -> BIO normalization;
        # entity_f1 must not notice, whatever B/I/E/S/O sequence the file holds
        tag = st.sampled_from(["O", "B-X", "I-X", "E-X", "S-X", "B-Y", "I-Y", "E-Y", "S-Y"])
        gold_tags = data.draw(st.lists(st.lists(tag, min_size=1, max_size=8), min_size=1, max_size=4))
        pred_tags = [data.draw(st.lists(tag, min_size=len(t), max_size=len(t))) for t in gold_tags]
        path = tmp_path_factory.getbasetemp() / "generated-gold.ner"
        path.write_text(
            "".join("".join(f"w{i} {t}\n" for i, t in enumerate(tags)) + "\n" for tags in gold_tags),
            encoding="utf-8",
        )
        raw = read_conll_ner(path, fmt="2003", normalize=False)
        assert [[tok.label for tok in sent] for sent in raw.sentences] == gold_tags
        normalized = read_conll_ner(path, fmt="2003")
        assert entity_f1(raw, pred_tags) == entity_f1(normalized, pred_tags)

    def test_counts_reconcile(self):
        rng = np.random.default_rng(2)
        gold_tags = [random_bio_sequence(rng, 10) for _ in range(6)]
        pred_tags = [random_bio_sequence(rng, 10) for _ in range(6)]
        report = entity_f1(ner_dataset(gold_tags), pred_tags)
        assert sum(s.predicted for s in report.per_type.values()) == report.overall.predicted
        assert sum(s.gold for s in report.per_type.values()) == report.overall.gold
        assert sum(s.correct for s in report.per_type.values()) == report.overall.correct


class TestReport:
    def test_rows_append_and_upsert(self, tmp_path):
        path = tmp_path / "report.tsv"
        row1 = report_row("en", "pos", "sc", 0.1, 64, 0.95, "accuracy", 0.97)
        row2 = report_row("da", "pos", "sc", 0.1, 64, 0.94, "accuracy", 0.95)
        update_report(path, row1)
        update_report(path, row2)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "\t".join(REPORT_COLUMNS)
        assert len(lines) == 3
        # re-running the same key overwrites instead of appending
        row1b = report_row("en", "pos", "sc", 0.1, 64, 0.96, "accuracy", 0.98)
        update_report(path, row1b)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 3
        assert any("0.980000" in ln for ln in lines)
        assert not any("0.970000" in ln for ln in lines)

    def test_distinct_lambda_rows_kept(self, tmp_path):
        path = tmp_path / "report.tsv"
        update_report(path, report_row("en", "pos", "sc", 0.1, 64, None, "accuracy", 0.9))
        update_report(path, report_row("en", "pos", "sc", 0.5, 64, None, "accuracy", 0.8))
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 3

    def test_failed_write_keeps_old_report_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "report.tsv"
        update_report(path, report_row("en", "pos", "sc", 0.1, 64, None, "accuracy", 0.9))
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so writing the new row fails
        bad = report_row("\ud800", "pos", "sc", 0.1, 64, None, "accuracy", 0.8)
        with pytest.raises(UnicodeEncodeError):
            update_report(path, bad)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.tsv"]
