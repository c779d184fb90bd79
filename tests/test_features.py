from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag.crf import CrfModel, score_lattice
from sparsetag.embeddings import EmbeddingTable
from sparsetag.features import (
    FeatureConfig,
    FeatureError,
    FeatureResources,
    brown_features,
    dense_features,
    load_clusters,
    rich_features,
    sentence_features,
    sparse_features,
    token_features,
)
from sparsetag.sparse_coding import SparseCodes

from oracles import score_lattice_per_feature, token_features_per_token


def entry(dense):
    dense = np.asarray(dense, dtype=np.float64)
    idx = np.nonzero(dense)[0]
    return idx.astype(np.int64), dense[idx]


def codes_table(mapping, m):
    words = list(mapping)
    return SparseCodes(words, [entry(mapping[w]) for w in words], m)


class TestSparseFeatures:
    def test_mixed_signs(self):
        assert sparse_features(entry([0.5, 0.0, -0.3])) == {"+0", "-2"}

    def test_empty(self):
        assert sparse_features(entry([0.0, 0.0])) == set()

    def test_nonneg_codes_all_plus(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vec = np.abs(rng.standard_normal(8)) * (rng.random(8) < 0.4)
            feats = sparse_features(entry(vec))
            assert all(f.startswith("+") for f in feats)

    def test_zero_based_indices(self):
        assert sparse_features(entry([0, 0, 0, 1.0])) == {"+3"}


class TestDenseFeatures:
    def test_zeros_included(self):
        assert dense_features([1.0, 0.0]) == [("d:0", 1.0), ("d:1", 0.0)]

    def test_count_matches_dim(self):
        rng = np.random.default_rng(1)
        vec = rng.standard_normal(64)
        assert len(dense_features(vec)) == 64

    def test_values_survive_six_digit_serialization(self):
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(16)
        for name, value in dense_features(vec):
            assert float(f"{value:.6g}") == pytest.approx(value, rel=1e-5)
            assert " " not in name


class TestBrownFeatures:
    def test_long_path(self):
        feats = brown_features("0110110101", (4, 6, 10, 20))
        assert feats == {
            "bp4=0110",
            "bp6=011011",
            "bp10=0110110101",
            "bp20=0110110101",
        }

    def test_short_path_truncates(self):
        feats = brown_features("01", (4, 6, 10, 20))
        assert feats == {"bp4=01", "bp6=01", "bp10=01", "bp20=01"}

    def test_cluster_file(self, tmp_path):
        path = tmp_path / "paths"
        path.write_text("0110\tthe\t1234\n111\tdog\t9\n", encoding="utf-8")
        clusters = load_clusters(path)
        assert clusters == {"the": "0110", "dog": "111"}

    def test_bad_bits_rejected(self, tmp_path):
        path = tmp_path / "paths"
        path.write_text("01a0\tthe\t3\n", encoding="utf-8")
        with pytest.raises(FeatureError):
            load_clusters(path)


class TestRichFeatures:
    def test_spec_case_the_dog(self):
        feats = rich_features(["The", "dog"], 0, include_chars=True)
        for expected in (
            "title=1",
            "suf1=e",
            "suf3=The",
            "pre1=T",
            "w[0]=The",
            "w[1]=dog",
            "w[0..1]=The|dog",
        ):
            assert expected in feats

    def test_number_detected(self):
        assert "num=1" in rich_features(["42"], 0, include_chars=True)
        assert "num=1" not in rich_features(["4x2"], 0, include_chars=True)

    def test_non_alnum(self):
        assert "nonalnum=1" in rich_features(["..."], 0, include_chars=True)

    def test_pair_offsets_clipped(self):
        sentence = [f"t{i}" for i in range(12)]
        feats = rich_features(sentence, 5, include_chars=False)
        right = sorted(f for f in feats if f.startswith("w[0,"))
        left = sorted(f for f in feats if f.startswith("w[-") and ",0]" in f)
        assert len(right) == 6  # offsets 1..6 stay in bounds
        assert len(left) == 5  # offsets 1..5 stay in bounds

    def test_char_templates_only_when_enabled(self):
        with_chars = rich_features(["The", "dog"], 0, include_chars=True)
        without = rich_features(["The", "dog"], 0, include_chars=False)
        assert "pre1=T" in with_chars and "pre1=T" not in without
        assert without < with_chars

    def test_out_of_range_position(self):
        with pytest.raises(FeatureError):
            rich_features(["a"], 1)

    def test_ngrams_skip_out_of_bounds(self):
        feats = rich_features(["a", "b"], 0, include_chars=False)
        assert "w[0..1]=a|b" in feats
        assert not any(f.startswith("w[-2") for f in feats)
        assert not any(f.startswith("w[0..2]") for f in feats)


class TestTokenFeatures:
    def setup_method(self):
        self.codes = codes_table(
            {"a": [0.5, 0, -0.3], "b": [0, 0.2, 0], "c": [-0.1, 0, 0]}, m=3
        )
        self.table = EmbeddingTable(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        self.clusters = {"a": "0011", "b": "01"}

    def test_sc_window_union(self):
        config = FeatureConfig(scheme="sc", window=1)
        res = FeatureResources(codes=self.codes)
        feats = dict(token_features(["a", "b", "c"], 1, config, res))
        assert set(feats) == {"[-1]+0", "[-1]-2", "[0]+1", "[+1]-0"}
        assert all(v == 1.0 for v in feats.values())

    def test_first_token_has_no_left_context(self):
        config = FeatureConfig(scheme="sc", window=1)
        res = FeatureResources(codes=self.codes)
        feats = dict(token_features(["a", "b"], 0, config, res))
        assert not any(name.startswith("[-1]") for name in feats)

    def test_last_token_has_no_right_context(self):
        config = FeatureConfig(scheme="sc", window=1)
        res = FeatureResources(codes=self.codes)
        feats = dict(token_features(["a", "b"], 1, config, res))
        assert not any(name.startswith("[+1]") for name in feats)

    def test_oov_word_contributes_nothing(self):
        config = FeatureConfig(scheme="sc", window=1)
        res = FeatureResources(codes=self.codes)
        feats = dict(token_features(["zzz"], 0, config, res))
        assert feats == {}

    def test_dense_values_at_offsets(self):
        config = FeatureConfig(scheme="dense", window=1)
        res = FeatureResources(table=self.table)
        feats = dict(token_features(["a", "b"], 0, config, res))
        assert feats["[0]d:0"] == 1.0
        assert feats["[+1]d:1"] == 4.0

    def test_wi_sc_is_union(self):
        config_sc = FeatureConfig(scheme="sc", window=1)
        config_wi = FeatureConfig(scheme="wi", window=1)
        config_both = FeatureConfig(scheme="wi_sc", window=1)
        res = FeatureResources(codes=self.codes)
        sent = ["a", "b", "c"]
        sc = set(dict(token_features(sent, 1, config_sc, res)))
        wi = set(dict(token_features(sent, 1, config_wi, res)))
        both = set(dict(token_features(sent, 1, config_both, res)))
        assert both == sc | wi
        assert sc and wi and not (sc & wi)

    def test_brown_scheme(self):
        config = FeatureConfig(scheme="brown", window=1)
        res = FeatureResources(clusters=self.clusters)
        feats = dict(token_features(["a", "zzz"], 0, config, res))
        assert "[0]bp4=0011" in feats
        assert not any(name.startswith("[+1]") for name in feats)

    def test_window_two(self):
        config = FeatureConfig(scheme="wi", window=2)
        feats = dict(token_features(["v", "w", "x", "y", "z"], 2, config, FeatureResources()))
        assert set(feats) == {
            "[-2]w=v",
            "[-1]w=w",
            "[0]w=x",
            "[+1]w=y",
            "[+2]w=z",
        }

    def test_missing_resource_rejected(self):
        config = FeatureConfig(scheme="sc", window=1)
        with pytest.raises(FeatureError):
            token_features(["a"], 0, config, FeatureResources())

    def test_pure_and_sorted(self):
        config = FeatureConfig(scheme="wi_sc", window=1)
        res = FeatureResources(codes=self.codes)
        one = token_features(["a", "b"], 0, config, res)
        two = token_features(["a", "b"], 0, config, res)
        assert one == two
        assert one == sorted(one)

    def test_no_whitespace_in_feature_strings(self):
        config = FeatureConfig(scheme="fr_wc", window=1)
        feats = token_features(["odd token", "42"], 0, config, FeatureResources())
        assert all(" " not in name for name, _ in feats)

    def test_sc_feature_count_bound(self):
        config = FeatureConfig(scheme="sc", window=1)
        res = FeatureResources(codes=self.codes)
        max_nnz = max(idx.size for idx, _ in self.codes.entries)
        for t in range(3):
            feats = token_features(["a", "b", "c"], t, config, res)
            assert len(feats) <= 3 * max_nnz

    def test_lowercase_fallback_for_codes(self):
        config = FeatureConfig(scheme="sc", window=1)
        res = FeatureResources(codes=self.codes, lowercase_fallback=True)
        feats = dict(token_features(["A"], 0, config, res))
        assert "[0]+0" in feats


# Lowercase word types carry resources; the capitalized forms and "oov"
# reach them only through the lowercase fallback, or not at all.
_VOCAB = ("a", "b", "dog", "the", "x y")
_FORMS = _VOCAB + ("A", "Dog", "THE", "oov", "Oov")
_WINDOWED = ("sc", "dense", "brown", "wi", "wi_sc")


@st.composite
def _resources_and_runs(draw):
    known = draw(st.lists(st.sampled_from(_VOCAB), unique=True))
    m = draw(st.integers(1, 12))
    coefficient = st.sampled_from((0.0, 0.0, 0.5, -0.25, 1.5))
    codes = codes_table(
        {w: draw(st.lists(coefficient, min_size=m, max_size=m)) for w in known}, m
    )
    dim = draw(st.integers(1, 12))  # 11+ coordinates put "d:10" before "d:2"
    value = st.floats(-2.0, 2.0, allow_nan=False)
    vectors = [draw(st.lists(value, min_size=dim, max_size=dim)) for _ in known]
    table = EmbeddingTable(known, np.array(vectors).reshape(len(known), dim))
    clusters = {w: draw(st.text("01", min_size=1, max_size=12)) for w in known}
    resources = FeatureResources(
        codes=codes, table=table, clusters=clusters, lowercase_fallback=draw(st.booleans())
    )
    runs = draw(st.lists(
        st.tuples(
            st.sampled_from(_WINDOWED),
            st.sampled_from((1, 2)),
            st.lists(st.sampled_from(_FORMS), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=8,
    ))
    return resources, runs


class TestCachedExtractionMatchesPerTokenOracle:
    @settings(max_examples=300, deadline=None)
    @given(_resources_and_runs())
    def test_sentence_features_equal_per_token_extractor(self, setup):
        # one resources object serves every run, so later runs hit the
        # cache filled by earlier ones under other schemes and windows
        resources, runs = setup
        for scheme, window, sentence in runs:
            config = FeatureConfig(scheme=scheme, window=window)
            expected = [
                token_features_per_token(sentence, t, config, resources)
                for t in range(len(sentence))
            ]
            blocks = sentence_features(sentence, config, resources)
            assert [list(chain.from_iterable(position)) for position in blocks] == expected
            assert token_features(sentence, 0, config, resources) == expected[0]


class TestBlockScores:
    @settings(max_examples=200, deadline=None)
    @given(_resources_and_runs(), st.data())
    def test_block_sums_match_per_feature_oracle(self, setup, data):
        # one model scores every run, so later runs read block rows kept by
        # earlier ones; a position's emissions are its blocks' rows summed,
        # which the oracle adds up one feature at a time
        resources, runs = setup
        sentences = [
            sentence_features(sentence, FeatureConfig(scheme=scheme, window=window), resources)
            for scheme, window, sentence in runs
        ]
        names = sorted({name for sent in sentences for position in sent
                        for name, _ in chain.from_iterable(position)})
        kept = [name for name in names if data.draw(st.booleans())]  # the rest are unseen
        n_lab = data.draw(st.integers(1, 4))
        weights = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(kept) * n_lab,
                                     max_size=len(kept) * n_lab))
        model = CrfModel(
            [f"L{j}" for j in range(n_lab)], {name: i for i, name in enumerate(kept)},
            np.reshape(weights, (len(kept), n_lab)), np.zeros((n_lab, n_lab)), c1=1.0, c2=0.0,
        )
        for sent in sentences + sentences:
            emissions, _ = score_lattice(model, sent)
            expected = score_lattice_per_feature(model, sent)
            assert np.all(np.abs(emissions - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_kept_blocks_grow_with_word_types_not_tokens(self):
        # fr_wc blocks are built per token and scored per call; a windowed
        # scheme's blocks are kept once per (word, offset)
        model = CrfModel(["A", "B"], {"[0]w=a": 0, "w[0]=a": 1}, np.ones((2, 2)),
                         np.zeros((2, 2)), c1=1.0, c2=0.0)
        resources = FeatureResources()
        sentence = ["a", "b", "a", "c", "b", "a"]
        for scheme, kept in (("fr_wc", 0), ("wi", 9)):
            config = FeatureConfig(scheme=scheme, window=1)
            for _ in range(3):
                model.decode(sentence_features(sentence, config, resources))
                assert len(model._kept) == kept
