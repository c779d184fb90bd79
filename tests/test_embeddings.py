import numpy as np
import pytest

from sparsetag.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    coverage,
    load_embeddings,
    save_embeddings,
)

from conftest import make_dataset, write_embedding_file


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
