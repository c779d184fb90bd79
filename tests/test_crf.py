from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag import crf
from sparsetag.crf import (
    CrfError,
    CrfModel,
    TrainConfig,
    _log_forward_backward,
    _scaled_forward_backward,
    compile_batch,
    forward_backward,
    load_model,
    save_model,
    score_lattice,
    smooth_objective,
    train,
    viterbi_path,
)

from oracles import crf_enumerate, finite_difference_gradient, path_score, score_lattice_per_feature


def one_block(positions):
    """A sentence whose positions each hold their flat feature list as one block."""
    return [(list(pos),) for pos in positions]


def toy_model(labels=("A", "B"), features=("fa", "fb")):
    feature_index = {f: i for i, f in enumerate(features)}
    emissions = np.zeros((len(features), len(labels)))
    transitions = np.zeros((len(labels), len(labels)))
    return CrfModel(labels, feature_index, emissions, transitions, c1=1.0, c2=0.001)


class TestScoreLattice:
    def test_zero_weights_zero_scores(self):
        model = toy_model()
        em, _ = score_lattice(model, one_block([[("fa", 1.0)], [("fb", 2.0)]]))
        np.testing.assert_array_equal(em, np.zeros((2, 2)))

    def test_weighted_feature(self):
        model = toy_model()
        model.emissions[0, 0] = 0.5
        em, _ = score_lattice(model, one_block([[("fa", 2.0)]]))
        assert em[0, 0] == pytest.approx(1.0)
        assert em[0, 1] == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        model = toy_model()
        model.emissions[:] = rng.standard_normal(model.emissions.shape)
        feats = [[("fa", 0.7), ("fb", -1.2)], [("fb", 2.0)]]
        doubled = [[(n, 2 * v) for n, v in pos] for pos in feats]
        em1, _ = score_lattice(model, one_block(feats))
        em2, _ = score_lattice(model, one_block(doubled))
        np.testing.assert_allclose(em2, 2 * em1, atol=1e-12)

    def test_unseen_features_skipped(self):
        model = toy_model()
        em, _ = score_lattice(model, one_block([[("never-seen", 1.0)]]))
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
        position = st.lists(st.tuples(name, value), max_size=8)
        # one block per position; a tuple block's scores are kept on the model
        block = st.sampled_from((list, tuple))
        sentence = [(data.draw(block)(pos),)
                    for pos in data.draw(st.lists(position, min_size=1, max_size=5))]
        for _ in range(2):  # the second call reads the kept rows
            emissions, transitions = score_lattice(model, sentence)
            assert np.array_equal(emissions, score_lattice_per_feature(model, sentence))
            assert transitions is model.transitions


    def test_list_blocks_are_scored_on_every_call(self):
        model = toy_model()
        model.emissions[:] = [[1.0, 2.0], [3.0, 5.0]]
        block = [("fa", 1.0)]
        assert score_lattice(model, [(block,)])[0].tolist() == [[1.0, 2.0]]
        block.append(("fb", 1.0))
        assert score_lattice(model, [(block,)])[0].tolist() == [[4.0, 7.0]]

    def test_blocks_sum_per_position(self):
        model = toy_model()
        model.emissions[:] = [[1.0, 2.0], [3.0, 5.0]]
        fa, fb = (("fa", 1.0),), [("fb", 2.0)]
        sentence = [(fa, fb), (), (fb, fa, fa)]
        for _ in range(2):
            emissions, _ = score_lattice(model, sentence)
            assert emissions.tolist() == [[7.0, 12.0], [0.0, 0.0], [8.0, 14.0]]


class TestInference:
    def test_logz_single_token_uniform(self):
        assert forward_backward(np.zeros((1, 2)), np.zeros((2, 2)))[0] == pytest.approx(np.log(2))

    def test_logz_matches_enumeration(self):
        rng = np.random.default_rng(1)
        em = rng.standard_normal((3, 3))
        tr = rng.standard_normal((3, 3))
        expected, *_ = crf_enumerate(em, tr)
        assert forward_backward(em, tr)[0] == pytest.approx(expected, abs=1e-10)

    def test_logz_constant_shift(self):
        rng = np.random.default_rng(2)
        em = rng.standard_normal((4, 3))
        tr = rng.standard_normal((3, 3))
        shifted = em.copy()
        shifted[2] += 1.75
        assert forward_backward(shifted, tr)[0] == pytest.approx(
            forward_backward(em, tr)[0] + 1.75, abs=1e-10
        )

    def test_marginals_sum_to_one(self):
        rng = np.random.default_rng(3)
        em = rng.standard_normal((5, 4))
        tr = rng.standard_normal((4, 4))
        _, unary, pairwise = forward_backward(em, tr)
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
            logz, unary, pairwise = forward_backward(em, tr)
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
        assert path_score(em, tr, path) <= forward_backward(em, tr)[0]


def penalized_objective(model, batch_features, batch_labels):
    """(objective, (grad_emissions, grad_transitions)) at the model's weights.

    The full elastic-net objective of a labeled batch compiled against
    the model's label and feature index, and the gradient of its smooth
    part.
    """
    batch = compile_batch(
        batch_features, batch_labels, labels=model.labels,
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
        obj, (grad_em, grad_tr) = penalized_objective(model, [one_block([[("fa", 1.0)]])], [["A"]])
        assert obj == pytest.approx(np.log(2))
        assert grad_em[0, 0] == pytest.approx(-0.5)
        assert grad_em[0, 1] == pytest.approx(0.5)

    def test_duplicated_sentence_doubles_smooth_part(self):
        model = toy_model()
        feats = one_block([[("fa", 1.0)], [("fb", 1.0)]])
        one, _ = penalized_objective(model, [feats], [["A", "B"]])
        two, _ = penalized_objective(model, [feats, feats], [["A", "B"], ["A", "B"]])
        # zero weights: no penalty contribution, so the smooth part doubles
        assert two == pytest.approx(2 * one)

    def test_unknown_gold_label_rejected(self):
        model = toy_model()
        with pytest.raises(CrfError, match="'C'"):
            penalized_objective(model, [one_block([[("fa", 1.0)]])], [["C"]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        sentences = []
        labels = []
        for _ in range(3):
            length = int(rng.integers(1, 5))
            sent = []
            labs = []
            for _t in range(length):
                feats = [(f"ind{rng.integers(4)}", 1.0), (f"d:{rng.integers(3)}", float(rng.standard_normal()))]
                sent.append((feats,))
                labs.append(["A", "B", "C"][int(rng.integers(3))])
            sentences.append(sent)
            labels.append(labs)
        batch = compile_batch(sentences, labels)
        n_params = batch.n_features * len(batch.labels) + len(batch.labels) ** 2
        params = rng.standard_normal(n_params) * 0.5
        c2 = 0.001
        _, grad = smooth_objective(params, batch, c2)
        fd = finite_difference_gradient(lambda p: smooth_objective(p, batch, c2)[0], params)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-4


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
        for t, blocks in enumerate(sent):
            for name, val in chain.from_iterable(blocks):
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
        position = st.lists(feature, min_size=1, max_size=3, unique_by=lambda f: f[0]).map(
            lambda feats: (feats,)
        )
        batch_features = [data.draw(st.lists(position, min_size=n, max_size=n)) for n in lengths]
        batch_labels = [data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
                        for n in lengths]
        batch = compile_batch(batch_features, batch_labels, labels=labels)
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
        feats = one_block([[("f", 1.0)]])
        batch = compile_batch([feats * 2, feats * 3, feats, feats * 3], [["A"] * 2, ["A"] * 3,
                              ["A"], ["A"] * 3])
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
        logz, unary, pairwise = forward_backward(emissions, transitions)
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
            one_block([("a", float(rng.standard_normal())), ("b", 1.0)] for _ in range(n))
            for n in lengths
        ]
        batch_features[2][0][0].append(("wide", 1.0))
        batch_labels = [[labels[int(rng.integers(2))] for _ in range(n)] for n in lengths]
        batch = compile_batch(batch_features, batch_labels, labels=labels)
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
            logz, unary, pairwise = forward_backward(emissions, transitions)
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
                sent.append(([(f"f{lab}", 1.0)],))
                labs.append(lab)
            sentences.append(sent)
            labels.append(labs)
        return sentences, labels

    def test_separable_task_fits_training_set(self):
        sentences, labels = self._separable()
        model = train(sentences, labels, TrainConfig())
        correct = 0
        total = 0
        for sent, labs in zip(sentences, labels):
            pred = model.decode(sent)
            correct += sum(p == g for p, g in zip(pred, labs))
            total += len(labs)
        assert correct == total

    def test_huge_c1_zeroes_all_weights(self):
        sentences, labels = self._separable()
        model = train(sentences, labels, TrainConfig(c1=1e6))
        assert np.all(model.emissions == 0.0)
        assert np.all(model.transitions == 0.0)

    def test_deterministic_weight_files(self, tmp_path):
        sentences, labels = self._separable()
        paths = []
        for name in ("m1", "m2"):
            model = train(sentences, labels, TrainConfig())
            path = tmp_path / name
            save_model(path, model)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_empty_training_set_rejected(self):
        with pytest.raises(CrfError):
            train([], [], TrainConfig())

    def test_iteration_cap_is_reported_in_meta(self, tmp_path):
        sentences, labels = self._separable()
        model = train(sentences, labels, TrainConfig(max_iterations=1))
        assert model.meta["owlqn_stop"] == "max_iterations"
        assert model.meta["owlqn_iterations"] == "1"
        path = tmp_path / "m"
        save_model(path, model)
        assert load_model(path).meta["owlqn_stop"] == "max_iterations"

    def test_zero_weights_stop_on_zero_pseudo_gradient(self):
        sentences, labels = self._separable()
        model = train(sentences, labels, TrainConfig(c1=1e6))
        assert model.meta["owlqn_stop"] == "zero_pseudo_gradient"
        assert model.meta["owlqn_iterations"] == "0"

    def test_default_training_converges(self):
        sentences, labels = self._separable()
        model = train(sentences, labels, TrainConfig())
        assert model.meta["owlqn_stop"] == "converged"


class TestModelFile:
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
        sentences = [one_block([[("fa", 1.0)], [("fb", 1.0)], [("fa", 1.0)]])]
        labels = [["A", "B", "A"]]
        model = train(sentences, labels, TrainConfig())
        path = tmp_path / "model"
        save_model(path, model)
        again = load_model(path)
        for sent in sentences:
            assert model.decode(sent) == again.decode(sent)

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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_save_load_round_trip_is_exact_and_decodes_alike(self, tmp_path_factory, data):
        token = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=5)
        labels = data.draw(st.lists(token, min_size=1, max_size=4, unique=True))
        names = data.draw(st.lists(token, max_size=6, unique=True))
        number = st.floats(allow_nan=False, allow_infinity=False)
        weight = st.floats(-1e6, 1e6) | st.just(0.0)  # scores stay finite when decoding
        n_lab = len(labels)
        model = CrfModel(
            labels,
            {name: i for i, name in enumerate(names)},
            np.reshape(data.draw(st.lists(weight, min_size=len(names) * n_lab,
                                          max_size=len(names) * n_lab)), (len(names), n_lab)),
            np.reshape(data.draw(st.lists(weight, min_size=n_lab ** 2, max_size=n_lab ** 2)),
                       (n_lab, n_lab)),
            c1=data.draw(number), c2=data.draw(number),
            meta=data.draw(st.dictionaries(
                token.filter(lambda k: k not in ("c1", "c2", "labels")),
                st.text(st.characters(blacklist_categories=("C",)), max_size=6), max_size=3,
            )),
        )
        # tuple blocks, as the feature extractor hands them out; decoding on
        # the original first fills its block cache
        block = st.lists(st.tuples(st.sampled_from(names + ["unseen"]), st.just(1.0)), max_size=3)
        blocks = [tuple(b) for b in data.draw(st.lists(block, min_size=1, max_size=4))]
        sentence = [tuple(data.draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=3)))
                    for _ in range(data.draw(st.integers(1, 5)))]
        expected = model.decode(sentence)
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
        assert model.decode(sentence) == again.decode(sentence) == expected
        np.testing.assert_array_equal(score_lattice(again, sentence)[0],
                                      score_lattice(model, sentence)[0])
