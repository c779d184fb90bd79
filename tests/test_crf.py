import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsetag import crf
from sparsetag.crf import (
    BlockMatrix,
    CrfError,
    CrfModel,
    TrainConfig,
    TypeTableMatrix,
    _log_forward_backward,
    _scaled_forward_backward,
    compile_batch,
    load_model,
    save_model,
    score_sentences,
    smooth_objective,
    train,
    viterbi_path,
)
from sparsetag.features import (
    FeatureConfig,
    FeatureResources,
    WordTypes,
    sentence_features,
    word_types,
)
from sparsetag.sparse_coding import SparseCodes

from conftest import per_position, sentence_forward_backward
from oracles import (
    crf_enumerate,
    finite_difference_gradient,
    load_model_by_line,
    path_score,
    score_lattice_per_feature,
    viterbi_enumerate,
)


def toy_model(labels=("A", "B"), features=("fa", "fb")):
    feature_index = {f: i for i, f in enumerate(features)}
    emissions = np.zeros((len(features), len(labels)))
    transitions = np.zeros((len(labels), len(labels)))
    return CrfModel(labels, feature_index, emissions, transitions, c1=1.0, c2=0.001)


def score_one(model, sentence):
    """The emissions score_sentences gives a one-sentence batch of hand-built positions."""
    return score_sentences(model, *per_position([sentence]))


class TestScoreLattice:
    def test_zero_weights_zero_scores(self):
        model = toy_model()
        em = score_one(model, [[("fa", 1.0)], [("fb", 2.0)]])
        np.testing.assert_array_equal(em, np.zeros((2, 2)))

    def test_weighted_feature(self):
        model = toy_model()
        model.emissions[0, 0] = 0.5
        em = score_one(model, [[("fa", 2.0)]])
        assert em[0, 0] == pytest.approx(1.0)
        assert em[0, 1] == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        model = toy_model()
        model.emissions[:] = rng.standard_normal(model.emissions.shape)
        feats = [[("fa", 0.7), ("fb", -1.2)], [("fb", 2.0)]]
        doubled = [[(n, 2 * v) for n, v in pos] for pos in feats]
        em = score_sentences(model, *per_position([feats, doubled]))
        np.testing.assert_allclose(em[2:], 2 * em[:2], atol=1e-12)

    def test_unseen_features_skipped(self):
        model = toy_model()
        em = score_one(model, [[("never-seen", 1.0)]])
        np.testing.assert_array_equal(em, np.zeros((1, 2)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_identical_to_per_feature_loop(self, data):
        n_lab = data.draw(st.integers(1, 4))
        n_feat = data.draw(st.integers(0, 6))
        # wide magnitudes make any change in summation order visible
        weight = st.floats(-1e17, 1e17, allow_nan=False) | st.sampled_from((0.0, 1.0, 1e-17))
        weights = data.draw(st.lists(weight, min_size=n_feat * n_lab, max_size=n_feat * n_lab))
        model = toy_model(
            labels=[f"L{j}" for j in range(n_lab)], features=[f"[0]+{i}" for i in range(n_feat)]
        )
        model.emissions[:] = np.reshape(weights, (n_feat, n_lab))
        name = st.sampled_from([f"[0]+{i}" for i in range(n_feat)] + ["[0]missing", "[-1]+0"])
        value = st.just(1.0) | st.floats(-3.0, 3.0, allow_nan=False)  # indicators and dense
        position = st.lists(st.tuples(name, value), max_size=8)  # empty positions too
        sentences = data.draw(st.lists(st.lists(position, min_size=1, max_size=5), min_size=1,
                                       max_size=4))
        scored = score_sentences(model, *per_position(sentences))
        # one block per position, so the sum is the loop's bit for bit
        expected = [score_lattice_per_feature(model, [(pos,) for pos in sent])
                    for sent in sentences]
        assert np.array_equal(scored, np.concatenate(expected))

    def test_types_added_after_a_call_are_scored(self):
        model = toy_model()
        model.emissions[:] = [[1.0, 2.0], [3.0, 5.0]]
        types, [ids] = per_position([[[("fa", 1.0)]]])
        assert score_sentences(model, types, [ids]).tolist() == [[1.0, 2.0]]
        more = [types.add(["fa", "fb"]), *ids]
        assert score_sentences(model, types, [more]).tolist() == [[4.0, 7.0], [1.0, 2.0]]

    def test_scores_read_the_current_weights(self):
        model = toy_model()
        types, ids = per_position([[[("fa", 1.0)]]])
        model.emissions[:] = [[1.0, 2.0], [3.0, 5.0]]
        assert score_sentences(model, types, ids).tolist() == [[1.0, 2.0]]
        model.emissions[0] = [-1.0, 0.5]
        assert score_sentences(model, types, ids).tolist() == [[-1.0, 0.5]]

    def test_offsets_add_the_neighbours_rows_in_tag_order(self):
        types = WordTypes([(1, "[+1]"), (-1, "[-1]"), (0, "[0]")])
        a, b = types.add(["x"]), types.add(["y", "x"], [2.0, 1.0])
        model = toy_model(features=("[0]x", "[+1]x", "[-1]y"))
        model.emissions[:] = [[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]]
        # [+1]y, [-1]x and [0]y are absent from the model; offsets past
        # either end of a sentence add nothing
        assert score_sentences(model, types, [[a, b, a], [b]]).tolist() == [
            [11.0, 22.0], [11.0, 22.0], [201.0, 402.0], [1.0, 2.0],
        ]

    def test_empty_batch(self):
        assert score_sentences(toy_model(), *per_position([])).shape == (0, 2)


class TestGatherSum:
    """The segment sums under the block-factored design matrix."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_layout_gives_the_same_bits(self, data):
        # groups of 0, 1 and several members, values of all ones or not;
        # chunks of 1 to 5 rows cut the runs at every group boundary
        sizes = data.draw(st.lists(st.sampled_from((0, 1, 1, 2, 3, 9)), max_size=12), label="sizes")
        n_sources = data.draw(st.integers(1, 6), label="sources")
        n_lab = data.draw(st.integers(1, 3), label="labels")
        n = sum(sizes)
        source = np.array(data.draw(st.lists(st.integers(0, n_sources - 1), min_size=n,
                                             max_size=n), label="source"), dtype=np.int64)
        group = np.repeat(np.arange(len(sizes)), sizes)
        values = data.draw(st.sampled_from([None, np.ones(n),
                                            np.linspace(-2.0, 3.0, n) ** 3]), label="values")
        x = np.reshape(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n_sources * n_lab,
                                          max_size=n_sources * n_lab), label="x"), (-1, n_lab))
        expected = np.zeros((len(sizes), n_lab))
        np.add.at(expected, group, x[source] * (1.0 if values is None else values[:, None]))
        magnitude = np.zeros((len(sizes), n_lab))
        np.add.at(magnitude, group, np.abs(x[source]) * (1.0 if values is None else np.abs(values)[:, None]))

        whole = crf._GatherSum(source, group, len(sizes), n_sources, values)
        got = whole(x)
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-13 * np.maximum(1.0, magnitude))
        chunk_rows = data.draw(st.integers(1, 5), label="chunk rows")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crf, "_CHUNK_ROWS", chunk_rows)
            chunked = crf._GatherSum(source, group, len(sizes), n_sources, values)
        assert np.array_equal(chunked(x), got)


class TestInference:
    def test_logz_single_token_uniform(self):
        logz = sentence_forward_backward(np.zeros((1, 2)), np.zeros((2, 2)))[0]
        assert logz == pytest.approx(np.log(2))

    def test_logz_matches_enumeration(self):
        rng = np.random.default_rng(1)
        em = rng.standard_normal((3, 3))
        tr = rng.standard_normal((3, 3))
        expected, *_ = crf_enumerate(em, tr)
        assert sentence_forward_backward(em, tr)[0] == pytest.approx(expected, abs=1e-10)

    def test_logz_constant_shift(self):
        rng = np.random.default_rng(2)
        em = rng.standard_normal((4, 3))
        tr = rng.standard_normal((3, 3))
        shifted = em.copy()
        shifted[2] += 1.75
        assert sentence_forward_backward(shifted, tr)[0] == pytest.approx(
            sentence_forward_backward(em, tr)[0] + 1.75, abs=1e-10
        )

    def test_marginals_sum_to_one(self):
        rng = np.random.default_rng(3)
        em = rng.standard_normal((5, 4))
        tr = rng.standard_normal((4, 4))
        _, unary, pairwise = sentence_forward_backward(em, tr)
        np.testing.assert_allclose(unary.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(pairwise.sum(axis=(1, 2)), 1.0, atol=1e-10)

    def test_forward_backward_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n_pos = int(rng.integers(1, 7))
            n_lab = int(rng.integers(2, 5))
            em = rng.standard_normal((n_pos, n_lab))
            tr = rng.standard_normal((n_lab, n_lab))
            logz_bf, unary_bf, pairwise_bf, *_ = crf_enumerate(em, tr)
            logz, unary, pairwise = sentence_forward_backward(em, tr)
            assert logz == pytest.approx(logz_bf, abs=1e-10)
            np.testing.assert_allclose(unary, unary_bf, atol=1e-10)
            np.testing.assert_allclose(pairwise, pairwise_bf, atol=1e-10)

    def test_viterbi_single_token(self):
        assert viterbi_path(np.array([[1.0, 0.0]]), np.zeros((2, 2))) == [0]

    def test_viterbi_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n_pos = int(rng.integers(1, 7))
            n_lab = int(rng.integers(2, 5))
            em = rng.standard_normal((n_pos, n_lab))
            tr = rng.standard_normal((n_lab, n_lab))
            *_, best, best_score = crf_enumerate(em, tr)
            path = viterbi_path(em, tr)
            assert path == best
            assert path_score(em, tr, path) == pytest.approx(best_score, abs=1e-10)

    def test_viterbi_tie_break_lowest_index(self):
        assert viterbi_path(np.zeros((4, 3)), np.zeros((3, 3))) == [0, 0, 0, 0]

    def test_viterbi_shift_invariance(self):
        rng = np.random.default_rng(6)
        em = rng.standard_normal((5, 3))
        tr = rng.standard_normal((3, 3))
        shifted = em.copy()
        shifted[3] += 42.0
        assert viterbi_path(em, tr) == viterbi_path(shifted, tr)

    def test_viterbi_score_below_logz(self):
        rng = np.random.default_rng(7)
        em = rng.standard_normal((6, 3))
        tr = rng.standard_normal((3, 3))
        path = viterbi_path(em, tr)
        assert path_score(em, tr, path) <= sentence_forward_backward(em, tr)[0]


class TestBatchedViterbi:
    """CrfModel.decode: one Viterbi over a whole packed batch of sentences."""

    @staticmethod
    def _model(transitions):
        n_lab = len(transitions)
        return CrfModel([f"L{j}" for j in range(n_lab)], {}, np.zeros((0, n_lab)),
                        transitions, c1=0.0, c2=0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_small_batches_match_enumeration(self, data):
        # integer scores make ties common; every sentence's path must be the
        # one the brute-force oracle picks, ties included
        n_lab = data.draw(st.integers(1, 4), label="labels")
        n_sent = data.draw(st.integers(1, 4), label="sentences")
        if data.draw(st.booleans(), label="equal lengths"):
            lengths = [data.draw(st.integers(1, 5))] * n_sent
        else:
            lengths = data.draw(st.lists(st.integers(1, 5), min_size=n_sent, max_size=n_sent))
        score = st.integers(-2, 2).map(float)
        n_pos = sum(lengths)
        emissions = np.reshape(data.draw(st.lists(score, min_size=n_pos * n_lab,
                                                  max_size=n_pos * n_lab)), (n_pos, n_lab))
        transitions = np.reshape(data.draw(st.lists(score, min_size=n_lab ** 2,
                                                    max_size=n_lab ** 2)), (n_lab, n_lab))
        model = self._model(transitions)
        expected = []
        for start, n in zip(np.cumsum([0, *lengths]), lengths):
            em = emissions[start:start + n]
            path = viterbi_enumerate(em, transitions)
            assert path_score(em, transitions, path) == crf_enumerate(em, transitions)[-1]
            expected += [model.labels[y] for y in path]
        assert model.decode(emissions, lengths) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_large_batches_match_per_sentence_calls(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        n_lab = data.draw(st.integers(1, 8), label="labels")
        lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=60), label="lengths")
        n_pos = sum(lengths)
        if data.draw(st.booleans(), label="integer scores"):
            emissions = rng.integers(-2, 3, size=(n_pos, n_lab)).astype(np.float64)
            transitions = rng.integers(-2, 3, size=(n_lab, n_lab)).astype(np.float64)
        else:
            emissions = rng.standard_normal((n_pos, n_lab)) * 3.0
            transitions = rng.standard_normal((n_lab, n_lab))
        model = self._model(transitions)
        expected = []
        for start, n in zip(np.cumsum([0, *lengths]), lengths):
            path = viterbi_path(emissions[start:start + n], transitions)
            expected += [model.labels[y] for y in path]
        given_emissions = emissions.copy()
        assert model.decode(emissions, lengths) == expected
        assert np.array_equal(emissions, given_emissions)

    def test_one_sentence_by_default(self):
        model = self._model(np.array([[0.0, -5.0], [-5.0, 0.0]]))
        emissions = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 3.0]])
        assert model.decode(emissions) == [model.labels[y] for y in viterbi_path(
            emissions, model.transitions)] == ["L1", "L1", "L1"]


def penalized_objective(model, batch_features, batch_labels):
    """(objective, (grad_emissions, grad_transitions)) at the model's weights.

    The full elastic-net objective of a labeled batch compiled against
    the model's label and feature index, and the gradient of its smooth
    part.
    """
    batch = compile_batch(
        *per_position(batch_features), batch_labels, labels=model.labels,
        feature_index=model.feature_index, grow_index=False,
    )
    params = np.concatenate([model.emissions.ravel(), model.transitions.ravel()])
    value, grad = smooth_objective(params, batch, model.c2)
    n_feat, n_lab = model.emissions.shape
    split = n_feat * n_lab
    grads = grad[:split].reshape(n_feat, n_lab), grad[split:].reshape(n_lab, n_lab)
    return value + model.c1 * float(np.abs(params).sum()), grads


class TestObjective:
    def test_uniform_single_token(self):
        model = toy_model()
        obj, (grad_em, grad_tr) = penalized_objective(model, [[[("fa", 1.0)]]], [["A"]])
        assert obj == pytest.approx(np.log(2))
        assert grad_em[0, 0] == pytest.approx(-0.5)
        assert grad_em[0, 1] == pytest.approx(0.5)

    def test_duplicated_sentence_doubles_smooth_part(self):
        model = toy_model()
        feats = [[("fa", 1.0)], [("fb", 1.0)]]
        one, _ = penalized_objective(model, [feats], [["A", "B"]])
        two, _ = penalized_objective(model, [feats, feats], [["A", "B"], ["A", "B"]])
        # zero weights: no penalty contribution, so the smooth part doubles
        assert two == pytest.approx(2 * one)

    def test_unknown_gold_label_rejected(self):
        model = toy_model()
        with pytest.raises(CrfError, match="'C'"):
            penalized_objective(model, [[[("fa", 1.0)]]], [["C"]])

    @pytest.mark.parametrize("form", [TypeTableMatrix, BlockMatrix], ids=lambda form: form.__name__)
    def test_gradient_matches_finite_differences(self, form):
        rng = np.random.default_rng(8)
        sentences = []
        labels = []
        for _ in range(3):
            length = int(rng.integers(1, 5))
            sent = []
            labs = []
            for _t in range(length):
                feats = [(f"ind{rng.integers(4)}", 1.0), (f"d:{rng.integers(3)}", float(rng.standard_normal()))]
                sent.append(feats)
                labs.append(["A", "B", "C"][int(rng.integers(3))])
            sentences.append(sent)
            labels.append(labs)
        if form is BlockMatrix:
            sentences, labels = _thinned(sentences, labels, ["A", "B", "C"])
        batch = compile_batch(*per_position(sentences), labels)
        assert type(batch.matrix) is form
        n_params = batch.n_features * len(batch.labels) + len(batch.labels) ** 2
        params = rng.standard_normal(n_params) * 0.5
        c2 = 0.001
        _, grad = smooth_objective(params, batch, c2)
        fd = finite_difference_gradient(lambda p: smooth_objective(p, batch, c2)[0], params)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-4


def _thinned(batch_features, batch_labels, labels):
    """The batch plus 100 one-position sentences, each with an indicator of
    its own. Their 100 types and 100 attributes put the type table of a
    batch of up to 30 positions with up to three entries each under 2 %
    nonzeros, so compile_batch builds a BlockMatrix."""
    pad = [[[(f"pad{i}", 1.0)]] for i in range(100)]
    return batch_features + pad, batch_labels + [[labels[i % len(labels)]] for i in range(100)]


def _enumerated_objective(batch_features, batch_labels, batch, params, c2):
    """Value and gradient of the smooth objective from crf_enumerate, sentence by sentence."""
    n_feat, n_lab = batch.n_features, len(batch.labels)
    weights = params[: n_feat * n_lab].reshape(n_feat, n_lab)
    transitions = params[n_feat * n_lab:].reshape(n_lab, n_lab)
    label_index = {lab: i for i, lab in enumerate(batch.labels)}
    value = 0.5 * c2 * float(params @ params)
    grad_w = c2 * weights.copy()
    grad_t = c2 * transitions.copy()
    for sent, labs in zip(batch_features, batch_labels):
        x = np.zeros((len(sent), n_feat))
        for t, position in enumerate(sent):
            for name, val in position:
                x[t, batch.feature_index[name]] += val
        em = x @ weights
        gold = [label_index[lab] for lab in labs]
        logz, unary, pairwise, *_ = crf_enumerate(em, transitions)
        value += logz - path_score(em, transitions, gold)
        unary[np.arange(len(gold)), gold] -= 1.0
        grad_w += x.T @ unary
        grad_t += pairwise.sum(axis=0)
        for prev, y in zip(gold, gold[1:]):
            grad_t[prev, y] -= 1.0
    return value, np.concatenate([grad_w.ravel(), grad_t.ravel()])


@pytest.fixture
def log_kernel_calls(monkeypatch):
    """Records each call the scaled kernel makes to its log-space fallback."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _log_forward_backward(*args)

    monkeypatch.setattr(crf, "_log_forward_backward", counted)
    return calls


class TestPackedKernel:
    """The batch forward-backward and its log-space fallback against
    per-sentence enumeration and each other."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_objective_matches_enumeration(self, data):
        n_lab = data.draw(st.integers(2, 4))
        labels = [f"L{j}" for j in range(n_lab)]
        n_sent = data.draw(st.integers(1, 5))
        shape = data.draw(st.sampled_from(["any", "all_one", "one_length"]))
        if shape == "any":  # repeated lengths are likely with 1-6
            lengths = data.draw(st.lists(st.integers(1, 6), min_size=n_sent, max_size=n_sent))
        else:
            lengths = [1 if shape == "all_one" else data.draw(st.integers(1, 5))] * n_sent
        feature = st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.floats(-2.0, 2.0))
        position = st.lists(feature, min_size=1, max_size=3, unique_by=lambda f: f[0])
        batch_features = [data.draw(st.lists(position, min_size=n, max_size=n)) for n in lengths]
        batch_labels = [data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
                        for n in lengths]
        form = data.draw(st.sampled_from([TypeTableMatrix, BlockMatrix]))
        if form is BlockMatrix:
            batch_features, batch_labels = _thinned(batch_features, batch_labels, labels)
        batch = compile_batch(*per_position(batch_features), batch_labels, labels=labels)
        assert type(batch.matrix) is form
        n_params = batch.n_features * n_lab + n_lab * n_lab
        params = np.array(data.draw(
            st.lists(st.floats(-3.0, 3.0), min_size=n_params, max_size=n_params)
        ))
        c2 = data.draw(st.sampled_from([0.0, 0.001, 0.5]))
        value, grad = smooth_objective(params, batch, c2)
        expected_value, expected_grad = _enumerated_objective(
            batch_features, batch_labels, batch, params, c2
        )
        assert value == pytest.approx(expected_value, abs=1e-10)
        np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=1e-9)

    def test_packed_layout(self):
        feats = [[("f", 1.0)]]
        batch = compile_batch(*per_position([feats * 2, feats * 3, feats, feats * 3]),
                              [["A"] * 2, ["A"] * 3, ["A"], ["A"] * 3])
        # longest first, ties in input order: sentences 1, 3, 0, 2 start at rows 2, 6, 0, 5
        assert batch.batch_sizes.tolist() == [4, 3, 2]
        assert batch.packed_rows.tolist() == [2, 6, 0, 5, 3, 7, 1, 4, 8]

    @pytest.mark.parametrize("emissions, transitions", [
        # the step-1 scale is exactly 0 in linear arithmetic
        ([[0, 1000], [0, 0]], [[0, 0], [-800, -800]]),
        # label 0's forward value underflows at position 0 yet carries the mass
        ([[0, 760], [0, 0], [3, -1]], [[0, 0], [-800, -800]]),
        # entering label 1 costs 800 nats and 1 -> 2 is free, so at position 2
        # the path through label 1, which underflowed at position 1 while the
        # step's scale stayed 1, ties with the path 0 -> 2
        ([[0, -1000, -1000], [0, 0, 0], [0, 0, 1000]],
         [[0, -800, -800], [0, -800, 0], [0, -800, -800]]),
        ([[0, 2000], [0, 0]], [[0, 0], [-2000, -2000]]),
        ([[5, 0], [0, 900], [0, 0], [1, 2]], [[900, -900], [0, 0]]),
    ])
    def test_transitions_spanning_800_nats(self, emissions, transitions):
        emissions = np.array(emissions, dtype=np.float64)
        transitions = np.array(transitions, dtype=np.float64)
        logz_bf, unary_bf, pairwise_bf, *_ = crf_enumerate(emissions, transitions)
        logz, unary, pairwise = sentence_forward_backward(emissions, transitions)
        assert logz == pytest.approx(logz_bf, abs=1e-10)
        np.testing.assert_allclose(unary, unary_bf, rtol=0, atol=1e-10)
        np.testing.assert_allclose(pairwise, pairwise_bf, rtol=0, atol=1e-10)

    def test_one_wide_sentence_in_a_packed_batch(self, log_kernel_calls):
        # only the third sentence has the 760-nat feature; with the 800-nat
        # transitions its forward product underflows, so the whole batch of
        # four lengths goes to the log-space kernel
        rng = np.random.default_rng(11)
        labels = ["A", "B"]
        lengths = [3, 1, 4, 2]
        batch_features = [
            [[("a", float(rng.standard_normal())), ("b", 1.0)] for _ in range(n)]
            for n in lengths
        ]
        batch_features[2][0].append(("wide", 1.0))
        batch_labels = [[labels[int(rng.integers(2))] for _ in range(n)] for n in lengths]
        batch = compile_batch(*per_position(batch_features), batch_labels, labels=labels)
        weights = rng.standard_normal((batch.n_features, 2))
        weights[batch.feature_index["wide"]] = [0.0, 760.0]
        transitions = np.array([[0.0, 0.0], [-800.0, -800.0]])
        params = np.concatenate([weights.ravel(), transitions.ravel()])
        value, grad = smooth_objective(params, batch, 0.001)
        expected_value, expected_grad = _enumerated_objective(
            batch_features, batch_labels, batch, params, 0.001
        )
        assert len(log_kernel_calls) == 1
        assert value == pytest.approx(expected_value, abs=1e-10)
        np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=1e-10)

    def test_log_kernel_matches_scaled_kernel(self, log_kernel_calls):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n_lab = int(rng.integers(2, 6))
            lengths = np.sort(rng.integers(1, 8, size=int(rng.integers(1, 7))))[::-1]
            batch_sizes = np.count_nonzero(
                lengths[None, :] > np.arange(lengths[0])[:, None], axis=1
            )
            emissions = rng.standard_normal((int(lengths.sum()), n_lab)) * 3.0
            transitions = rng.standard_normal((n_lab, n_lab)) * 3.0
            logz, unary, pairs = _scaled_forward_backward(emissions, batch_sizes, transitions)
            logz_log, unary_log, pairs_log = _log_forward_backward(
                emissions, batch_sizes, transitions
            )
            assert logz_log == pytest.approx(logz, abs=1e-10)
            np.testing.assert_allclose(unary_log, unary, rtol=0, atol=1e-10)
            np.testing.assert_allclose(pairs_log, pairs, rtol=0, atol=1e-10)
        assert log_kernel_calls == []

    def test_wide_lattices_match_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n_pos = int(rng.integers(1, 6))
            n_lab = int(rng.integers(2, 5))
            transitions = rng.standard_normal((n_lab, n_lab)) * rng.choice([1.0, 400.0, 900.0])
            emissions = rng.standard_normal((n_pos, n_lab)) * rng.choice([1.0, 400.0, 900.0])
            transitions[int(rng.integers(n_lab))] -= 800.0
            transitions[:, int(rng.integers(n_lab))] -= 800.0
            logz_bf, unary_bf, pairwise_bf, *_ = crf_enumerate(emissions, transitions)
            logz, unary, pairwise = sentence_forward_backward(emissions, transitions)
            assert logz == pytest.approx(logz_bf, rel=1e-12, abs=1e-10)
            np.testing.assert_allclose(unary, unary_bf, rtol=0, atol=1e-10)
            np.testing.assert_allclose(pairwise, pairwise_bf, rtol=0, atol=1e-10)


class TestTrain:
    def _separable(self, n=20):
        sentences = []
        labels = []
        for i in range(n):
            sent = []
            labs = []
            for t in range(3):
                lab = "A" if (i + t) % 2 == 0 else "B"
                sent.append([(f"f{lab}", 1.0)])
                labs.append(lab)
            sentences.append(sent)
            labels.append(labs)
        return sentences, labels

    def test_separable_task_fits_training_set(self):
        sentences, labels = self._separable()
        model = train(*per_position(sentences), labels, TrainConfig())
        correct = 0
        total = 0
        for sent, labs in zip(sentences, labels):
            pred = model.decode(score_one(model, sent))
            correct += sum(p == g for p, g in zip(pred, labs))
            total += len(labs)
        assert correct == total

    def test_huge_c1_zeroes_all_weights(self):
        sentences, labels = self._separable()
        model = train(*per_position(sentences), labels, TrainConfig(c1=1e6))
        assert np.all(model.emissions == 0.0)
        assert np.all(model.transitions == 0.0)

    def test_deterministic_weight_files(self, tmp_path):
        sentences, labels = self._separable()
        paths = []
        for name in ("m1", "m2"):
            model = train(*per_position(sentences), labels, TrainConfig())
            path = tmp_path / name
            save_model(path, model)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_empty_training_set_rejected(self):
        with pytest.raises(CrfError):
            train(*per_position([]), [], TrainConfig())

    def test_iteration_cap_is_reported_in_meta(self, tmp_path):
        sentences, labels = self._separable()
        model = train(*per_position(sentences), labels, TrainConfig(max_iterations=1))
        assert model.meta["owlqn_stop"] == "max_iterations"
        assert model.meta["owlqn_iterations"] == "1"
        path = tmp_path / "m"
        save_model(path, model)
        assert load_model(path).meta["owlqn_stop"] == "max_iterations"

    def test_zero_weights_stop_on_zero_pseudo_gradient(self):
        sentences, labels = self._separable()
        model = train(*per_position(sentences), labels, TrainConfig(c1=1e6))
        assert model.meta["owlqn_stop"] == "zero_pseudo_gradient"
        assert model.meta["owlqn_iterations"] == "0"

    def test_default_training_converges(self):
        sentences, labels = self._separable()
        model = train(*per_position(sentences), labels, TrainConfig())
        assert model.meta["owlqn_stop"] == "converged"


def _sc_batch(n_words, m, nonzeros, seed=0):
    """Sentences over every one of ``n_words`` words, whose codes hold
    ``nonzeros`` of m atoms, as a window-1 sc batch."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    entries = [(np.sort(rng.choice(m, nonzeros, replace=False)), rng.uniform(-1.0, 1.0, nonzeros))
               for _ in words]
    resources = FeatureResources(codes=SparseCodes(words, entries, m))
    config = FeatureConfig("sc", 1)
    order = rng.permutation(words).tolist()
    sentences = [order[i:i + 10] for i in range(0, n_words, 10)]
    return word_types(config, resources), [sentence_features(s, config, resources) for s in sentences]


class TestDesignMatrixForm:
    """The form compile_batch picks for batches shaped like the benchmark's."""

    def _form(self, types, batch_ids):
        return type(compile_batch(types, batch_ids, [["A"] * len(ids) for ids in batch_ids]).matrix)

    def test_ner_tag_shape_is_a_dense_table(self):
        # 431 types in use over m = 64 atoms, 30 nonzeros each: 47 %
        assert self._form(*_sc_batch(431, 64, 30)) is TypeTableMatrix

    def test_dict_paper_shape_stays_blocks(self):
        # 233 types over m = 1024 signed atoms, 15 nonzeros each: about 1 %
        assert self._form(*_sc_batch(233, 1024, 15)) is BlockMatrix

    def test_rich_templates_stay_blocks(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(300)]
        sentences = [rng.choice(words, int(rng.integers(5, 20))).tolist() for _ in range(100)]
        resources, config = FeatureResources(), FeatureConfig("fr_wc", 1)
        batch_ids = [sentence_features(s, config, resources) for s in sentences]
        assert self._form(word_types(config, resources), batch_ids) is BlockMatrix

    def test_words_without_codes_train_a_model_without_features(self):
        resources = FeatureResources(codes=SparseCodes(["known"], [([0], [1.0])], 4))
        config = FeatureConfig("sc", 1)
        sentences = [["a", "b", "a"], ["c"]]
        batch_ids = [sentence_features(s, config, resources) for s in sentences]
        # no l1 term, so OWL-QN steps through the transitions
        model = train(word_types(config, resources), batch_ids, [["X", "Y", "X"], ["Y"]],
                      TrainConfig(c1=0.0))
        assert int(model.meta["owlqn_iterations"]) > 0
        assert model.feature_index == {}
        assert model.emissions.shape == (0, 2)


class TestModelFile:
    @pytest.mark.parametrize("c1, c2", [(float("nan"), 0.0), (1.0, -5.0), (float("inf"), 1.0)])
    def test_penalties_must_be_finite_and_non_negative(self, c1, c2):
        with pytest.raises(CrfError, match="c1 and c2"):
            CrfModel(["A"], {}, np.zeros((0, 1)), np.zeros((1, 1)), c1=c1, c2=c2)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        model = toy_model(labels=("X", "Y", "Z"), features=("a", "b", "c"))
        model.emissions[:] = rng.standard_normal(model.emissions.shape)
        model.transitions[:] = rng.standard_normal(model.transitions.shape)
        model.meta["scheme"] = "sc"
        model.meta["window"] = "1"
        path = tmp_path / "model"
        save_model(path, model)
        again = load_model(path)
        assert again.labels == model.labels
        assert again.meta["scheme"] == "sc"
        assert (again.c1, again.c2) == (model.c1, model.c2)
        np.testing.assert_array_equal(again.transitions, model.transitions)
        for name, fid in model.feature_index.items():
            fid2 = again.feature_index[name]
            np.testing.assert_array_equal(again.emissions[fid2], model.emissions[fid])

    def test_decode_identical_after_reload(self, tmp_path):
        sentences = [[[("fa", 1.0)], [("fb", 1.0)], [("fa", 1.0)]]]
        labels = [["A", "B", "A"]]
        model = train(*per_position(sentences), labels, TrainConfig())
        path = tmp_path / "model"
        save_model(path, model)
        again = load_model(path)
        for sent in sentences:
            assert model.decode(score_one(model, sent)) == again.decode(score_one(again, sent))

    def test_bracketed_feature_names_survive(self, tmp_path):
        # offset-prefixed features start with '[' and must not be
        # mistaken for section headers
        model = toy_model(labels=("A", "B"), features=("[0]+1", "[-1]w=x"))
        model.emissions[:] = [[1.5, 0.0], [0.0, -2.5]]
        path = tmp_path / "model"
        save_model(path, model)
        again = load_model(path)
        assert set(again.feature_index) == {"[0]+1", "[-1]w=x"}
        fid = again.feature_index["[0]+1"]
        assert again.emissions[fid, 0] == 1.5

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(CrfError):
            load_model(path)

    # model-like lines, some well formed, plus arbitrary text and bytes
    _MODEL_LINE = st.sampled_from([
        crf._MODEL_MAGIC, "[meta]", "[transitions]", "[emissions]", "c1 1", "c2 0.5", "c1 x",
        "labels A B", "labels A A", "labels", "scheme sc", "A B 1.5", "A C 1", "B A nan",
        "f A 2", "f B 1e999", "f A", "[0]+1 B -3", "", " ",
    ]) | st.text(max_size=10)

    @settings(max_examples=300, deadline=None)
    @given(content=st.binary(max_size=120) | st.lists(_MODEL_LINE, max_size=10).map(
        lambda lines: "\n".join([crf._MODEL_MAGIC, *lines]).encode("utf-8")
    ))
    def test_arbitrary_bytes_load_or_raise_crf_error(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzzed-model.txt"
        path.write_bytes(content)
        try:
            model = load_model(path)
        except CrfError:
            return
        assert model.emissions.shape == (len(model.feature_index), len(model.labels))

    # lines a model file may hold after a valid [meta] section or in place
    # of it: duplicate cells and each kind of bad line included
    _WEIGHT_CASE_LINE = st.sampled_from([
        "[meta]", "[transitions]", "[emissions]", "c1 1", "c2 0.5", "c2 -1", "labels A B",
        "task pos", "A B 1.5", "A B 0.25", "B A -2", "A C 1", "B A nan", "A B", "A B 1_0",
        "f A 2", "f A -0.5", "g B 1e-3", "f B 1e999", "f A", "f A 1 2", "h C 1", "",
    ])

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.lists(_WEIGHT_CASE_LINE, max_size=14))
    # the line-by-line order of errors, and a later line winning a cell
    @example(True, ["[transitions]", "A B 1_0", "[meta]", "c2 -1"])
    @example(True, ["[transitions]", "A B 1_0", "A B"])
    @example(True, ["[emissions]", "f A 1 2", "[transitions]", "B A nan"])
    @example(True, ["[transitions]", "A C 1", "B A nan"])
    @example(True, ["[transitions]", "A B 1.5", "A B 0.25", "[emissions]", "f A 2", "f A -0.5"])
    def test_load_matches_a_line_by_line_reading(self, tmp_path_factory, head, lines):
        path = tmp_path_factory.getbasetemp() / "by-line-model.txt"
        meta = ["[meta]", "c1 1", "c2 0.5", "labels A B"] if head else []
        path.write_text("\n".join([crf._MODEL_MAGIC, *meta, *lines]), encoding="utf-8")
        try:
            labels, c1, c2, meta, meta_lines, transitions, emissions = load_model_by_line(path)
        except ValueError as exc:
            with pytest.raises(CrfError) as caught:
                load_model(path)
            assert str(caught.value) == str(exc)
            return
        model = load_model(path)
        assert (model.labels, model.c1, model.c2) == (labels, c1, c2)
        assert (model.meta, model.meta_lines) == (meta, meta_lines)
        assert list(model.feature_index) == list(dict.fromkeys(name for name, _ in emissions))
        expected = np.zeros_like(model.transitions)
        for (a, b), weight in transitions.items():
            expected[labels.index(a), labels.index(b)] = weight
        assert model.transitions.tobytes() == expected.tobytes()
        expected = np.zeros_like(model.emissions)
        for (name, lab), weight in emissions.items():
            expected[model.feature_index[name], labels.index(lab)] = weight
        assert model.emissions.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_save_load_round_trip_is_exact_and_decodes_alike(self, tmp_path_factory, data):
        token = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=5)
        labels = data.draw(st.lists(token, min_size=1, max_size=4, unique=True))
        names = data.draw(st.lists(token, max_size=6, unique=True))
        penalty = st.floats(min_value=0.0, allow_infinity=False)  # what a model accepts
        weight = st.floats(-1e6, 1e6) | st.just(0.0)  # scores stay finite when decoding
        n_lab = len(labels)
        model = CrfModel(
            labels,
            {name: i for i, name in enumerate(names)},
            np.reshape(data.draw(st.lists(weight, min_size=len(names) * n_lab,
                                          max_size=len(names) * n_lab)), (len(names), n_lab)),
            np.reshape(data.draw(st.lists(weight, min_size=n_lab ** 2, max_size=n_lab ** 2)),
                       (n_lab, n_lab)),
            c1=data.draw(penalty), c2=data.draw(penalty),
            meta=data.draw(st.dictionaries(
                token.filter(lambda k: k not in ("c1", "c2", "labels")),
                st.text(st.characters(blacklist_categories=("C",)), max_size=6), max_size=3,
            )),
        )
        pair = st.tuples(st.sampled_from(names + ["unseen"]), st.just(1.0))
        position = st.lists(pair, max_size=9)
        sentence = data.draw(st.lists(position, min_size=1, max_size=5))
        emissions = score_one(model, sentence)
        expected = model.decode(emissions)
        path = tmp_path_factory.getbasetemp() / "round-trip-model.txt"
        save_model(path, model)
        again = load_model(path)
        assert again.labels == model.labels
        assert (again.c1, again.c2, again.meta) == (model.c1, model.c2, model.meta)
        np.testing.assert_array_equal(again.transitions, model.transitions)
        for name, fid in model.feature_index.items():
            row = again.emissions[again.feature_index[name]] if name in again.feature_index else 0.0
            np.testing.assert_array_equal(row, model.emissions[fid])
        assert set(again.feature_index) <= set(model.feature_index)
        np.testing.assert_array_equal(score_one(again, sentence), emissions)
        assert again.decode(score_one(again, sentence)) == expected
