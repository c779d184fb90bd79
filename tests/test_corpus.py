import re

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

    @pytest.mark.parametrize("line", ["\tDET", "NN\t"])
    def test_tagmap_empty_tag_rejected_with_location(self, tmp_path, line):
        path = tmp_path / "map.txt"
        path.write_text(f"DT\tDET\n{line}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:2: expected 'fine<TAB>"):
            corpus.load_tagmap(path)


class TestReaderFuzz:
    """Arbitrary bytes and format-like lines load or raise CorpusError."""

    _CORPUS_LINE = st.sampled_from([
        "1\tthe\t_\tDET\tDT\t_\t_\t_\t_\t_", "2\tdog\t_\tNOUN\tNN", "1\t\t_\tX\tX",
        "1-2\tdon't\t_\t_", "1.1\tx\t_\tX", "x\ty\t_\tZ", "# sent_id = 1", "-DOCSTART- -X- O",
        "EU NNP I-NP I-ORG", "rejects B-MISC", "x E-PER", "x S-LOC", "x B-", "x", "1\t2\t3",
        "", " ", "\t",
    ]) | st.text(max_size=12)
    _CONTENT = st.binary(max_size=120) | st.lists(_CORPUS_LINE, max_size=8).map(
        lambda lines: "\n".join(lines).encode("utf-8")
    )

    @settings(max_examples=300, deadline=None)
    @given(content=_CONTENT, fmt=st.sampled_from(["conllx", "conllu", "ner2002", "ner2003"]),
           flag=st.booleans())
    def test_corpus_readers_load_or_raise_corpus_error(self, tmp_path_factory, content, fmt, flag):
        path = tmp_path_factory.getbasetemp() / "fuzzed.conll"
        path.write_bytes(content)
        try:
            # flag is use_cpostag for CoNLL-X and normalize for the NER readers
            data = corpus.read_dataset(path, fmt, use_cpostag=flag, normalize=flag)
        except CorpusError:
            return
        assert len(data) >= 1
        assert all(sent and all(tok.form for tok in sent) for sent in data.sentences)
        if data.task == "ner":
            assert all(corpus._NER_TAG_RE.match(tag) for tags in data.labels() for tag in tags)

    _TAGMAP_LINE = st.sampled_from(
        ["DT\tDET", "NN\tNOUN", "# comment", "  # indented", "a\tb\tc", "x", "\t", ""]
    ) | st.text(max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(content=st.binary(max_size=80)
           | st.lists(_TAGMAP_LINE, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")))
    def test_load_tagmap_loads_or_raises_corpus_error(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzzed-map.txt"
        path.write_bytes(content)
        try:
            mapping = corpus.load_tagmap(path)
        except CorpusError:
            return
        assert all(key and value and "\t" not in key + value for key, value in mapping.items())


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


def _written_before_labels(dataset, fmt):
    """The bytes write_dataset gave before it took labels.

    One line per token in the format's column layout, and a blank line
    after each sentence.
    """
    out = []
    for sent in dataset.sentences:
        for i, tok in enumerate(sent, start=1):
            if fmt == "conllx":
                out.append("\t".join([str(i), tok.form, "_", tok.label, tok.label] + ["_"] * 5))
            elif fmt == "conllu":
                out.append("\t".join([str(i), tok.form, "_", tok.label] + ["_"] * 6))
            else:
                out.append(f"{tok.form} {tok.label}")
        out.append("")
    return "".join(line + "\n" for line in out).encode("utf-8")


class TestWriteDataset:
    _WORD = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(("conllx", "conllu", "ner2002", "ner2003")))
    def test_labels_are_written_as_a_relabelled_copy_was(self, tmp_path_factory, data, fmt):
        sentences = data.draw(st.lists(st.lists(st.tuples(self._WORD, self._WORD), min_size=1,
                                                max_size=12), min_size=1, max_size=5))
        dataset = make_dataset(sentences)
        labels = data.draw(st.lists(self._WORD, min_size=sum(map(len, sentences)),
                                    max_size=sum(map(len, sentences))))
        per_sentence, start = [], 0
        for sent in sentences:
            per_sentence.append(labels[start:start + len(sent)])
            start += len(sent)
        relabelled = corpus.replace_labels(dataset, per_sentence)
        path = tmp_path_factory.getbasetemp() / "written.txt"
        corpus.write_dataset(path, dataset, fmt, labels=labels)
        assert path.read_bytes() == _written_before_labels(relabelled, fmt)
        corpus.write_dataset(path, dataset, fmt)  # the tokens' own labels
        assert path.read_bytes() == _written_before_labels(dataset, fmt)

    def test_label_count_must_match(self, tmp_path):
        dataset = make_dataset([[("a", "X"), ("b", "Y")]])
        with pytest.raises(CorpusError, match="token count"):
            corpus.write_dataset(tmp_path / "out", dataset, "conllx", labels=["X"])
