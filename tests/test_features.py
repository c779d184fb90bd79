import re
from itertools import chain, groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag import crf
from sparsetag.crf import BlockMatrix, CrfModel, TypeTableMatrix, compile_batch, score_sentences
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
    word_types,
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

    def test_empty_path_rejected_with_location(self, tmp_path):
        # an empty path would give every such word the same bp4= ... bp20= features
        path = tmp_path / "paths"
        path.write_text("0110\tdog\t9\n\tthe\t3\n", encoding="utf-8")
        with pytest.raises(FeatureError, match=rf"^{re.escape(str(path))}:2: path '' "):
            load_clusters(path)


    # cluster-like lines, some well formed, plus arbitrary text and bytes
    _CLUSTER_LINE = st.sampled_from(
        ["0110\tthe\t3", "111\tdog", "\tx\t1", "01a\tx\t1", "0110", "0 1\tx", " ", ""]
    ) | st.text(max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(content=st.binary(max_size=80)
           | st.lists(_CLUSTER_LINE, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")))
    def test_arbitrary_bytes_load_or_raise_feature_error(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzzed-paths"
        path.write_bytes(content)
        try:
            clusters = load_clusters(path)
        except FeatureError:
            return
        assert all(bits and not bits.strip("01") for bits in clusters.values())


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
def _resources_and_runs(draw, schemes=_WINDOWED):
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
            st.sampled_from(schemes),
            st.sampled_from((1, 2)),
            st.lists(st.sampled_from(_FORMS), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=8,
    ))
    return resources, runs


def _reference_features(sentence, t, config, resources):
    """Token t's features from the per-token oracle, or under fr_w / fr_wc from rich_features."""
    if config.scheme in ("fr_w", "fr_wc"):
        chars = config.scheme == "fr_wc"
        return sorted((name, 1.0) for name in rich_features(sentence, t, include_chars=chars))
    return token_features_per_token(sentence, t, config, resources)


def _by_scheme(runs):
    """The runs' sentences grouped by (scheme, window), in order of first use."""
    groups = {}
    for scheme, window, sentence in runs:
        groups.setdefault((scheme, window), []).append(sentence)
    return groups


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
            ids = sentence_features(sentence, config, resources)
            types = word_types(config, resources)
            assert len(ids) == len(sentence)
            assert [list(chain.from_iterable(types.blocks(ids, t)))
                    for t in range(len(ids))] == expected
            assert token_features(sentence, 0, config, resources) == expected[0]


def _tag_order(window):
    return sorted(range(-window, window + 1), key=lambda o: "[0]" if o == 0 else f"[{o:+d}]")


def _per_word_block(word, offset, scheme, codes, lowercase):
    """A word's block at an offset, from the strings of its own code."""
    entry = codes.get(word, lowercase_fallback=lowercase)
    names = set() if entry is None else sparse_features(entry)
    if scheme == "wi_sc":
        names.add("w=" + word.replace(" ", "_"))
    tag = "[0]" if offset == 0 else f"[{offset:+d}]"
    return sorted((tag + name, 1.0) for name in names)


class TestWordTypes:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_position_blocks_equal_per_word_blocks_and_token_features(self, data):
        # up to 120 atoms put "+10" before "+2" and "+100" before "+11"; one
        # resources object serves every run, so types and attributes made
        # under one scheme and window are met again under another
        m = data.draw(st.integers(1, 120), label="m")
        known = data.draw(st.lists(st.sampled_from(_VOCAB), unique=True), label="known")
        coefficient = st.sampled_from((0.5, -0.25, 1.5, -3.0))
        dense = {}
        for word in known:
            code = data.draw(st.dictionaries(st.integers(0, m - 1), coefficient, max_size=10))
            dense[word] = [code.get(j, 0.0) for j in range(m)]
        codes = codes_table(dense, m)
        lowercase = data.draw(st.booleans(), label="lowercase")
        resources = FeatureResources(codes=codes, lowercase_fallback=lowercase)
        for _ in range(data.draw(st.integers(1, 4), label="runs")):
            scheme = data.draw(st.sampled_from(("sc", "wi_sc")))
            window = data.draw(st.sampled_from((1, 2)))
            config = FeatureConfig(scheme, window)
            sentence = data.draw(st.lists(st.sampled_from(_FORMS), min_size=1, max_size=7))
            ids = sentence_features(sentence, config, resources)
            types = word_types(config, resources)
            assert len(ids) == len(sentence)
            for t in range(len(sentence)):
                blocks = types.blocks(ids, t)
                inside = [o for o in _tag_order(window) if 0 <= t + o < len(sentence)]
                assert len(blocks) == len(inside)
                for offset, block in zip(inside, blocks):
                    word = sentence[t + offset]
                    assert list(block) == _per_word_block(word, offset, scheme, codes, lowercase)
                assert list(chain.from_iterable(blocks)) == token_features(
                    sentence, t, config, resources
                )
            # a word is one type, and a name one attribute, however often met
            assert [ids[sentence.index(word)] for word in sentence] == ids
            assert len(set(types.attr_names)) == len(types.attr_names)

    def test_dense_rows_are_sorted_per_word_and_brown_rows_share_attributes(self):
        table = EmbeddingTable(["a", "b"], np.arange(24.0).reshape(2, 12))
        resources = FeatureResources(table=table, clusters={"a": "011010", "b": "011011"})
        # position 0 holds ([+1] b, [0] a) and position 1 ([+1] a, [-1] a, [0] b)
        config = FeatureConfig("dense", 1)
        ids = sentence_features(["a", "b", "a"], config, resources)
        dense = word_types(config, resources)
        a, b = dense.blocks(ids, 0)[1], dense.blocks(ids, 1)[2]
        assert [name for name, _ in a] == sorted(f"[0]d:{j}" for j in range(12))
        assert [value for _, value in b] == [table.lookup("b")[int(name[5:])] for name, _ in b]
        assert ids[0] == ids[2] != ids[1]  # one type per word
        config = FeatureConfig("brown", 1)
        ids = sentence_features(["a", "b"], config, resources)
        brown = word_types(config, resources)
        shared = brown.attr_names.index("bp4=0110")
        assert all(shared in brown.attrs[i] for i in ids)

    def test_rich_positions_are_types_of_their_own(self):
        resources = FeatureResources()
        config = FeatureConfig("fr_w", 1)
        first = sentence_features(["a", "b", "a"], config, resources)
        second = sentence_features(["a"], config, resources)
        assert first + second == [0, 1, 2, 3]
        types = word_types(config, resources)
        assert types.offsets == ((0, ""),)
        assert types.blocks(second, 0) == [tuple(token_features(["a"], 0, config, resources))]


class TestTagEmissions:
    @settings(max_examples=200, deadline=None)
    @given(_resources_and_runs(schemes=_WINDOWED + ("fr_w", "fr_wc")), st.data())
    def test_emissions_equal_per_offset_sums_over_token_features(self, setup, data):
        # bit for bit: each offset's features (the names under one tag) are
        # added in order from zero, then the offsets in the string order of
        # their tags. "oov" words have no row, capitalized forms reach one
        # only through the lowercase fallback, and the model lacks some names
        resources, runs = setup
        n_lab = data.draw(st.integers(1, 4), label="labels")
        # wide magnitudes make any change in summation order visible
        weight = st.floats(-1e17, 1e17, allow_nan=False) | st.sampled_from((0.0, 1.0, 1e-17))
        for (scheme, window), sentences in _by_scheme(runs).items():
            config = FeatureConfig(scheme=scheme, window=window)
            reference = [[_reference_features(sentence, t, config, resources)
                          for t in range(len(sentence))] for sentence in sentences]
            names = sorted({name for sent in reference for feats in sent for name, _ in feats})
            kept = [name for name in names if data.draw(st.booleans())]
            weights = data.draw(st.lists(weight, min_size=len(kept) * n_lab,
                                         max_size=len(kept) * n_lab))
            model = CrfModel(
                [f"L{j}" for j in range(n_lab)], {name: i for i, name in enumerate(kept)},
                np.reshape(weights, (len(kept), n_lab)), np.zeros((n_lab, n_lab)), c1=1.0, c2=0.0,
            )
            batch_ids = [sentence_features(sentence, config, resources) for sentence in sentences]
            emissions = score_sentences(model, word_types(config, resources), batch_ids)

            def tag(name):
                return "" if scheme in ("fr_w", "fr_wc") else name[:name.index("]") + 1]

            expected = [
                score_lattice_per_feature(model, [
                    [list(block) for _, block in groupby(feats, key=lambda f: tag(f[0]))]
                    for feats in sent
                ])
                for sent in reference
            ]
            assert np.array_equal(emissions, np.concatenate(expected))


_RARE = tuple(f"r{i}" for i in range(80))


def _with_rare_words(resources):
    """The same resources plus the words of ``_RARE``, each with a code
    atom of its own and no vector or cluster."""
    codes = resources.codes
    rare = [(np.array([codes.m + i]), np.array([1.5 if i % 2 else -0.25]))
            for i in range(len(_RARE))]
    return FeatureResources(
        codes=SparseCodes(codes.words + list(_RARE), codes.entries + rare, codes.m + len(_RARE)),
        table=resources.table, clusters=resources.clusters,
        lowercase_fallback=resources.lowercase_fallback,
    )


def _check_design_matrix(batch, positions, rng, n_lab):
    """Both products of ``batch.matrix`` against X built feature by feature
    from ``positions``, the reference (name, value) list of each position."""
    dense = np.zeros((len(positions), max(batch.n_features, 1)))
    occurrences = 0
    for row, position in enumerate(positions):
        for name, value in position:
            if name in batch.feature_index:
                dense[row, batch.feature_index[name]] += value
                occurrences += 1
    assert batch.matrix.shape == dense.shape
    assert batch.matrix.nnz == occurrences
    weights = rng.uniform(-3.0, 3.0, (dense.shape[1], n_lab))
    marginals = rng.uniform(-3.0, 3.0, (dense.shape[0], n_lab))
    for got, expected in ((batch.matrix @ weights, dense @ weights),
                          (batch.matrix.T @ marginals, dense.T @ marginals)):
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


class TestDesignMatrix:
    @settings(max_examples=200, deadline=None)
    @given(_resources_and_runs(schemes=("sc", "dense", "wi_sc", "fr_wc")), st.data())
    def test_products_match_dense_oracle(self, setup, data):
        # either form of the design matrix against X built feature by
        # feature from the reference vectors of the runs under the first
        # run's scheme and window; "oov" words give empty blocks, and the
        # last sentence is an "oov" alone, one position with no features
        # outside wi_sc and fr_wc
        resources, runs = setup
        (scheme, window), sentences = next(iter(_by_scheme(runs).items()))
        config = FeatureConfig(scheme=scheme, window=window)
        forms = _FORMS
        if data.draw(st.booleans(), label="rare words"):
            # words with attributes of their own thin out the type table,
            # so that both sides of the density rule are drawn
            resources = _with_rare_words(resources)
            sentences = sentences + [list(_RARE[:40]), list(_RARE[40:])]
            forms = _FORMS + _RARE
        sentences = sentences + [["oov"]]
        # words read before the batch put types and attributes in the table
        # that the batch may not use
        sentence_features(data.draw(st.lists(st.sampled_from(forms), max_size=8),
                                    label="read first"), config, resources)
        types = word_types(config, resources)
        batch_ids = [sentence_features(sentence, config, resources) for sentence in sentences]
        batch_labels = [["A"] * len(sent) for sent in sentences]
        positions = [_reference_features(sentence, t, config, resources)
                     for sentence in sentences for t in range(len(sentence))]
        if data.draw(st.booleans(), label="grow"):
            batch = compile_batch(types, batch_ids, batch_labels)
            # ids follow first occurrence, as if every occurrence were read
            assert list(batch.feature_index) == list(dict.fromkeys(
                name for position in positions for name, _ in position
            ))
        else:  # a fixed index drops the names it lacks, emptying some blocks
            names = sorted({name for position in positions for name, _ in position})
            kept = [name for name in names if data.draw(st.booleans())]
            batch = compile_batch(types, batch_ids, batch_labels,
                                  feature_index={name: i for i, name in enumerate(kept)},
                                  grow_index=False)
        used = set(chain.from_iterable(batch_ids))
        entries = sum(len(types.attrs[i]) for i in used)
        attrs = len({a for i in used for a in types.attrs[i]})
        dense_table = entries >= crf._DENSE_TABLE * len(used) * attrs
        assert type(batch.matrix) is (TypeTableMatrix if dense_table else BlockMatrix)
        # from a drawn seed: with rare words there are more entries than
        # hypothesis draws in one list
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        _check_design_matrix(batch, positions, rng, data.draw(st.integers(1, 4), label="labels"))

    @pytest.mark.parametrize("sentence, form", [
        (["b", "a", "b"], TypeTableMatrix),
        (list(_RARE), BlockMatrix),
    ])
    def test_names_hold_when_the_table_has_types_the_batch_lacks(self, sentence, form):
        # "dog" is read first, so its atoms come before the batch's in the
        # table and the batch's attributes do not start at id 0
        codes = codes_table({"a": [0, 0.5, 0, 0], "b": [0, 0, -1.5, 0], "dog": [1, 0, 0, 2]}, 4)
        resources = _with_rare_words(FeatureResources(codes=codes))
        config = FeatureConfig(scheme="sc", window=1)
        sentence_features(["dog"], config, resources)
        batch = compile_batch(word_types(config, resources),
                              [sentence_features(sentence, config, resources)],
                              [["A"] * len(sentence)])
        positions = [_reference_features(sentence, t, config, resources)
                     for t in range(len(sentence))]
        assert type(batch.matrix) is form
        assert list(batch.feature_index) == list(dict.fromkeys(
            name for position in positions for name, _ in position
        ))
        _check_design_matrix(batch, positions, np.random.default_rng(0), 3)
