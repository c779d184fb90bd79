import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag import embeddings
from sparsetag.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    coverage,
    load_embeddings,
    save_embeddings,
)

from conftest import make_dataset, write_embedding_file
from oracles import load_embeddings_by_line


class TestLoad:
    def test_minimal_file(self, tiny_embedding_file):
        table = load_embeddings(tiny_embedding_file)
        assert len(table) == 2
        assert table.dim == 2
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])

    def test_inconsistent_dimension_reports_line(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("a 1.0\nb 0.0 1.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="bad.vec:2"):
            load_embeddings(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("a 1.0 2.0\nb x 1.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="bad.vec:2"):
            load_embeddings(path)

    def test_duplicate_word_named(self, tmp_path):
        path = tmp_path / "dup.vec"
        path.write_text("a 1.0\na 2.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="'a'"):
            load_embeddings(path)

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "head.vec"
        path.write_text("2 3\na 1 2 3\nb 4 5 6\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2 and table.dim == 3

    def test_word2vec_text_requires_header(self, tmp_path):
        path = tmp_path / "noheader.vec"
        path.write_text("a 1 2 3\nb 4 5 6\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="header"):
            load_embeddings(path, format="word2vec-text")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.vec"
        path.write_text("a 1.0 inf\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="non-finite"):
            load_embeddings(path)

    @pytest.mark.parametrize("text, lineno", [("a 1_0 2\n", 1), ("a 1 2\nb 1 ٣\n", 2)])
    def test_python_only_number_forms_rejected(self, tmp_path, text, lineno):
        # float() reads "1_0" as 10 and "٣" as 3
        path = tmp_path / "odd.vec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingError, match=rf"odd\.vec:{lineno}: non-numeric field"):
            load_embeddings(path)

    def test_header_needs_plain_integers(self, tmp_path):
        # int() reads "1_0 2" as a '|V| k' header; here it is a word and its vector
        path = tmp_path / "odd.vec"
        path.write_text("1_0 2\na 1\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.words == ["1_0", "a"]
        np.testing.assert_array_equal(table.vectors, [[2.0], [1.0]])

    # embedding-like lines, some well formed, plus arbitrary text and bytes
    _LINE = st.sampled_from(
        ["a 1.0 0.0", "b 0 1", "a 2 2", "2 2", "1 1", "c nan 1", "c 1e999 1", "c 1_0 1", "d", "",
         "e 1.0", "f 1 2 3"]
    ) | st.text(max_size=8)

    @settings(max_examples=300, deadline=None)
    @given(content=st.binary(max_size=120)
           | st.lists(_LINE, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")),
           format=st.sampled_from(["text", "word2vec-text"]))
    def test_arbitrary_bytes_load_or_raise_embedding_error(self, tmp_path_factory, content, format):
        path = tmp_path_factory.getbasetemp() / "fuzzed.vec"
        path.write_bytes(content)
        try:
            table = load_embeddings(path, format=format)
        except EmbeddingError:
            return
        assert table.vectors.shape == (len(table.words), table.dim)
        assert np.all(np.isfinite(table.vectors))

    _RECORDS = st.lists(
        st.tuples(_LINE | st.sampled_from(["x\x1c1 2", "a\u2028 1 2", "g 1 -0 +2.5e-3"]),
                  st.sampled_from(["\n", "\r\n", "\r"])),
        max_size=8,
    ).map(lambda lines: "".join(a + b for a, b in lines).encode("utf-8"))

    @settings(max_examples=400, deadline=None)
    @given(content=st.binary(max_size=120) | _RECORDS
           | st.tuples(_RECORDS, st.binary(max_size=3), _RECORDS).map(b"".join),
           format=st.sampled_from(["text", "word2vec-text"]),
           chunk=st.sampled_from([1, 2, 3, 4096]))
    def test_blocks_load_as_the_line_by_line_reader(self, tmp_path_factory, content, format,
                                                   chunk):
        # the block reader loads what the line-by-line reader loads, and
        # fails where it fails, with its message, whatever the block size
        path = tmp_path_factory.getbasetemp() / "fuzzed-blocks.vec"
        path.write_bytes(content)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embeddings, "_EMBEDDING_ROWS", chunk)
            try:
                words, vectors = load_embeddings_by_line(path, format)
            except ValueError as exc:
                with pytest.raises(EmbeddingError) as caught:
                    load_embeddings(path, format=format)
                assert str(caught.value) == str(exc)
                return
            table = load_embeddings(path, format=format)
        assert table.words == words
        assert table.vectors.dtype == np.float64 and table.vectors.tolist() == vectors

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(5)]
        vectors = rng.standard_normal((5, 64))
        src = tmp_path / "orig.vec"
        write_embedding_file(src, words, vectors)
        table = load_embeddings(src)
        out = tmp_path / "dump.vec"
        save_embeddings(out, table)
        again = load_embeddings(out)
        assert again.words == words
        np.testing.assert_allclose(again.vectors, table.vectors, atol=1e-6)

    def test_loading_is_deterministic(self, tiny_embedding_file):
        one = load_embeddings(tiny_embedding_file)
        two = load_embeddings(tiny_embedding_file)
        assert one.words == two.words
        np.testing.assert_array_equal(one.vectors, two.vectors)


class TestLookup:
    def test_exact_hit(self, tiny_embedding_file):
        table = load_embeddings(tiny_embedding_file)
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])

    def test_miss_without_unknown_row(self, tiny_embedding_file):
        table = load_embeddings(tiny_embedding_file)
        assert table.lookup("zzz") is None

    def test_lowercase_fallback(self):
        table = EmbeddingTable(["the"], np.array([[2.0]]))
        assert table.lookup("The") is None
        np.testing.assert_array_equal(table.lookup("The", lowercase_fallback=True), [2.0])

    def test_case_sensitive_by_default(self):
        table = EmbeddingTable(["The", "the"], np.array([[1.0], [2.0]]))
        assert table.lookup("The")[0] == 1.0
        assert table.lookup("the")[0] == 2.0


class TestCoverage:
    def test_two_of_three_tokens(self, tiny_embedding_file):
        table = load_embeddings(tiny_embedding_file)
        data = make_dataset([[("a", "X"), ("b", "X"), ("zzz", "X")]])
        report = coverage(table, data)
        assert report.token_coverage == pytest.approx(2 / 3)
        assert report.type_coverage == pytest.approx(2 / 3)

    def test_repeated_token_full_coverage(self, tiny_embedding_file):
        table = load_embeddings(tiny_embedding_file)
        data = make_dataset([[("a", "X"), ("a", "X"), ("a", "X")]])
        report = coverage(table, data)
        assert report.token_coverage == 1.0
        assert report.type_coverage == 1.0

    def test_seventy_percent_corpus(self, tmp_path):
        # 10 word types, 7 with vectors; every sentence uses each type once.
        words = [f"w{i}" for i in range(7)]
        vectors = np.eye(7)
        path = tmp_path / "cov.vec"
        write_embedding_file(path, words, vectors)
        table = load_embeddings(path)
        sentence = [(f"w{i}", "X") for i in range(10)]
        data = make_dataset([sentence] * 10)
        report = coverage(table, data)
        assert report.token_coverage == 0.70
        assert report.type_coverage == 0.70
        assert report.tokens_total == 100 and report.tokens_covered == 70

    def test_permutation_invariant(self, tiny_embedding_file):
        rng = np.random.default_rng(3)
        table = load_embeddings(tiny_embedding_file)
        sents = [[("a", "X")], [("b", "X"), ("q", "X")], [("a", "X"), ("a", "X")]]
        base = coverage(table, make_dataset(sents))
        for _ in range(5):
            perm = [sents[i] for i in rng.permutation(len(sents))]
            report = coverage(table, make_dataset(perm))
            assert report == base

    def test_bounds(self, tiny_embedding_file):
        table = load_embeddings(tiny_embedding_file)
        data = make_dataset([[("only-unknown", "X")]])
        report = coverage(table, data)
        assert 0.0 <= report.token_coverage <= 1.0
        assert 0.0 <= report.type_coverage <= 1.0

    def test_empty_dataset_rejected(self, tiny_embedding_file):
        table = load_embeddings(tiny_embedding_file)
        with pytest.raises(EmbeddingError):
            coverage(table, make_dataset([]))
