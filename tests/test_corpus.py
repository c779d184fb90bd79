import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag import corpus
from sparsetag.corpus import (
    CorpusError,
    from_iobes,
    iobes_labels,
    map_universal,
    read_conll_ner,
    read_conllu,
    read_conllx,
    subset_first_n,
    to_iobes,
)
from sparsetag.evaluation import extract_spans

from conftest import make_dataset
from oracles import random_bio_sequence


def _conllx_line(i, form, tag, cpos="_"):
    cols = [str(i), form, "_", cpos, tag, "_", "_", "_", "_", "_"]
    return "\t".join(cols)


class TestConllx:
    def test_two_token_sentence(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text(
            _conllx_line(1, "The", "DT", "D") + "\n" + _conllx_line(2, "dog", "NN", "N") + "\n\n",
            encoding="utf-8",
        )
        data = read_conllx(path)
        assert len(data) == 1
        assert [t.form for t in data.sentences[0]] == ["The", "dog"]
        assert [t.label for t in data.sentences[0]] == ["DT", "NN"]

    def test_cpostag_column(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text(_conllx_line(1, "The", "DT", "D") + "\n", encoding="utf-8")
        assert read_conllx(path, use_cpostag=True).sentences[0][0].label == "D"

    def test_trailing_blank_lines(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text(_conllx_line(1, "x", "X") + "\n\n\n\n", encoding="utf-8")
        assert len(read_conllx(path)) == 1

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text("1\tonly\ttwo\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="t.conll:1"):
            read_conllx(path)

    def test_round_trip(self, tmp_path):
        data = make_dataset([[("a", "DT"), ("b", "NN")], [("c", "VB")]])
        path = tmp_path / "rt.conll"
        corpus.write_dataset(path, data, "conllx")
        again = read_conllx(path)
        assert again.forms() == data.forms()
        assert again.labels() == data.labels()


class TestConllu:
    def test_range_line_dropped(self, tmp_path):
        path = tmp_path / "t.conllu"
        path.write_text(
            "# sent_id = 1\n"
            "1\tvamos\t_\tVERB\t_\t_\t_\t_\t_\t_\n"
            "3-4\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "3\tde\t_\tADP\t_\t_\t_\t_\t_\t_\n"
            "4\tel\t_\tDET\t_\t_\t_\t_\t_\t_\n\n",
            encoding="utf-8",
        )
        data = read_conllu(path)
        assert data.forms() == [["vamos", "de", "el"]]
        assert data.labels() == [["VERB", "ADP", "DET"]]

    def test_empty_node_dropped(self, tmp_path):
        path = tmp_path / "t.conllu"
        path.write_text(
            "1\ta\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
            "1.1\tghost\t_\tVERB\t_\t_\t_\t_\t_\t_\n\n",
            encoding="utf-8",
        )
        assert read_conllu(path).forms() == [["a"]]

    def test_malformed_id(self, tmp_path):
        path = tmp_path / "t.conllu"
        path.write_text("x\ta\t_\tNOUN\t_\t_\t_\t_\t_\t_\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="malformed token id"):
            read_conllu(path)

    def test_three_sentence_fixture(self, tmp_path):
        lines = []
        expected = []
        for forms, tags in [
            (["I", "run"], ["PRON", "VERB"]),
            (["Dogs", "bark", "loudly"], ["NOUN", "VERB", "ADV"]),
            (["Go"], ["VERB"]),
        ]:
            for i, (f, t) in enumerate(zip(forms, tags), start=1):
                lines.append(f"{i}\t{f}\t_\t{t}\t_\t_\t_\t_\t_\t_")
            lines.append("")
            expected.append(tags)
        path = tmp_path / "t.conllu"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = read_conllu(path)
        assert len(data) == 3
        assert data.labels() == expected


class TestNer:
    def test_iob1_normalized(self, tmp_path):
        path = tmp_path / "t.ner"
        path.write_text(
            "EU NNP I-NP I-ORG\nrejects VBZ I-VP O\nGerman JJ I-NP I-MISC\n\n",
            encoding="utf-8",
        )
        data = read_conll_ner(path, fmt="2003")
        assert data.labels() == [["B-ORG", "O", "B-MISC"]]

    def test_iob1_adjacent_spans(self, tmp_path):
        path = tmp_path / "t.ner"
        path.write_text("a x x I-PER\nb x x B-PER\nc x x I-PER\n\n", encoding="utf-8")
        data = read_conll_ner(path, fmt="2003")
        assert data.labels() == [["B-PER", "B-PER", "I-PER"]]

    def test_docstart_dropped(self, tmp_path):
        path = tmp_path / "t.ner"
        path.write_text("-DOCSTART- -X- O O\n\nJohn NNP I-NP I-PER\n\n", encoding="utf-8")
        data = read_conll_ner(path, fmt="2003")
        assert data.forms() == [["John"]]

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "t.ner"
        path.write_text("John X-PER\n\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="malformed NER tag"):
            read_conll_ner(path, fmt="2002")

    def test_two_entity_fixture(self, tmp_path):
        path = tmp_path / "t.ner"
        path.write_text(
            "Wolff B-PER\n,\tO\ncurrently O\nin O\nArgentina B-LOC\n\n".replace("\t", " "),
            encoding="utf-8",
        )
        data = read_conll_ner(path, fmt="2002")
        tags = data.labels()[0]
        assert tags == ["B-PER", "O", "O", "O", "B-LOC"]


class TestTagMap:
    def test_simple_map(self):
        data = make_dataset([[("the", "DT")]])
        mapped = map_universal(data, {"DT": "DET"})
        assert mapped.labels() == [["DET"]]

    def test_identity_map(self):
        data = make_dataset([[("the", "DT"), ("dog", "NN")]])
        mapped = map_universal(data, {"DT": "DT", "NN": "NN"})
        assert mapped.labels() == data.labels()

    def test_unmapped_tag_named(self):
        data = make_dataset([[("x", "WEIRD")]])
        with pytest.raises(CorpusError, match="WEIRD"):
            map_universal(data, {"DT": "DET"})

    def test_histogram_after_mapping(self):
        data = make_dataset(
            [[("a", "DT"), ("b", "NN")], [("c", "NNS"), ("d", "DT"), ("e", "VBZ")]]
        )
        mapping = {"DT": "DET", "NN": "NOUN", "NNS": "NOUN", "VBZ": "VERB"}
        mapped = map_universal(data, mapping)
        tags = [t for sent in mapped.labels() for t in sent]
        assert sorted(tags) == ["DET", "DET", "NOUN", "NOUN", "VERB"]

    def test_tagmap_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# comment\nDT\tDET\nNN\tNOUN\n", encoding="utf-8")
        assert corpus.load_tagmap(path) == {"DT": "DET", "NN": "NOUN"}


class TestIobes:
    def test_basic_conversion(self):
        data = make_dataset([[("a", "B-PER"), ("b", "I-PER"), ("c", "O")]], task="ner")
        out, repaired = to_iobes(data)
        assert out.labels() == [["B-PER", "E-PER", "O"]]
        assert repaired == 0

    def test_singleton(self):
        data = make_dataset([[("a", "B-LOC")]], task="ner")
        out, _ = to_iobes(data)
        assert out.labels() == [["S-LOC"]]

    def test_ill_formed_repaired_and_counted(self):
        data = make_dataset([[("a", "O"), ("b", "I-PER"), ("c", "I-PER")]], task="ner")
        out, repaired = to_iobes(data)
        assert out.labels() == [["O", "B-PER", "E-PER"]]
        assert repaired == 1

    def test_type_change_repaired(self):
        data = make_dataset([[("a", "B-PER"), ("b", "I-LOC")]], task="ner")
        out, repaired = to_iobes(data)
        assert out.labels() == [["S-PER", "S-LOC"]]
        assert repaired == 1

    def test_iobes_input_kept(self):
        data = make_dataset([[("Ann", "S-PER"), ("Bob", "S-PER")]], task="ner")
        out, repaired = to_iobes(data)
        assert out.labels() == [["S-PER", "S-PER"]]
        assert repaired == 0
        assert from_iobes(out).labels() == [["B-PER", "B-PER"]]

    def test_round_trip_random_layouts(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            tags = random_bio_sequence(rng, int(rng.integers(1, 15)))
            data = make_dataset([list(zip("x" * len(tags), tags))], task="ner")
            there, repaired = to_iobes(data)
            assert repaired == 0
            back = from_iobes(there)
            assert back.labels() == data.labels()

    def test_seventeen_tag_inventory(self):
        labels = iobes_labels(["PER", "LOC", "ORG", "MISC"])
        assert len(labels) == 17
        assert "O" in labels and "S-MISC" in labels


_ANY_TAG = st.sampled_from(["O"] + [f"{p}-{t}" for p in "BIES" for t in "XY"])


class TestConversionsKeepScorerSpans:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ANY_TAG, min_size=1, max_size=12))
    def test_to_iobes_and_from_iobes(self, tags):
        data = make_dataset([[("w", tag) for tag in tags]], task="ner")
        spans = extract_spans(tags)
        there, _ = to_iobes(data)
        assert extract_spans(there.labels()[0]) == spans
        assert extract_spans(from_iobes(data).labels()[0]) == spans


class TestSubset:
    def _many(self, n):
        return make_dataset([[(f"w{i}", "X")] for i in range(n)])

    def test_first_150(self):
        assert len(subset_first_n(self._many(5190), 150)) == 150

    def test_n_larger_than_dataset(self):
        data = self._many(10)
        assert subset_first_n(data, 99).sentences == data.sentences

    def test_order_preserved(self):
        data = self._many(10)
        sub = subset_first_n(data, 3)
        assert sub.sentences[0] == data.sentences[0]

    def test_prefix_property(self):
        data = self._many(30)
        rng = np.random.default_rng(23)
        for _ in range(10):
            n1, n2 = sorted(rng.integers(1, 31, size=2))
            a = subset_first_n(data, int(n1)).sentences
            b = subset_first_n(data, int(n2)).sentences
            assert b[: len(a)] == a


class TestInvariants:
    def test_no_empty_sentences_or_forms(self, tmp_path):
        path = tmp_path / "t.conll"
        path.write_text(
            "\n\n" + _conllx_line(1, "x", "X") + "\n\n\n" + _conllx_line(1, "y", "Y") + "\n\n",
            encoding="utf-8",
        )
        data = read_conllx(path)
        assert all(data.sentences)
        assert all(tok.form for sent in data.sentences for tok in sent)

    def test_universal_subset_with_real_map(self):
        data = make_dataset([[("a", "DT"), ("b", "NN"), ("c", "VBZ"), ("d", ",")]])
        mapping = {"DT": "DET", "NN": "NOUN", "VBZ": "VERB", ",": "."}
        mapped = map_universal(data, mapping)
        tags = {t for sent in mapped.labels() for t in sent}
        assert tags <= corpus.UNIVERSAL_POS_TAGS
