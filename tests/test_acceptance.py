"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. Criterion 10 needs external corpora and is skipped unless
the SPARSETAG_* environment variables point at them.
"""

import os
import time

import numpy as np
import pytest

from sparsetag import cli
from sparsetag.corpus import from_iobes, iobes_labels, to_iobes
from sparsetag.crf import compile_batch, smooth_objective, viterbi_path
from sparsetag.embeddings import EmbeddingTable
from sparsetag.evaluation import entity_f1
from sparsetag.features import FeatureConfig, FeatureResources, sparse_features, token_features
from sparsetag.sparse_coding import (
    SparseCodes,
    SparseCodingConfig,
    _code_pass,
    _search,
    kkt_violation,
    learn_dictionary,
    solve_lasso,
    sparsity_level,
)

from conftest import make_dataset, per_position, sentence_forward_backward
from oracles import (
    crf_enumerate,
    finite_difference_gradient,
    lasso_bruteforce,
    lasso_objective,
    random_bio_sequence,
)


def _synthetic_table(seed=77, n=500, k=16):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return EmbeddingTable([f"w{i}" for i in range(n)], X)


class TestCriterion1Lasso:
    def test_bruteforce_and_kkt_on_200_instances(self):
        start = time.monotonic()
        rng = np.random.default_rng(20240501)
        lambdas = (0.05, 0.1, 0.5)
        worst_gap = 0.0
        worst_kkt = 0.0
        passes = 0
        for trial in range(200):
            k = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            lam = lambdas[trial % 3]
            D = rng.standard_normal((k, m))
            x = rng.standard_normal(k)
            _, best = lasso_bruteforce(D, x, lam)
            # the per-word solver, and the coder of learn_dictionary's sparse
            # passes: at m <= k a FISTA block that certifies its rows, with
            # the lockstep search for the rest, and at m > k the search alone
            codes = np.zeros((1, m))
            if m <= k:
                _code_pass(x[None], D, D.T @ D, codes, lam, False)
            else:
                ((idx, val),), _ = _search(x[None], D, lam, False)
                codes[0, idx] = val
            passes += m <= k
            for alpha in (solve_lasso(D, x, lam), codes[0]):
                worst_kkt = max(worst_kkt, kkt_violation(D, x, alpha, lam))
                worst_gap = max(worst_gap, lasso_objective(D, x, alpha, lam) - best)
        elapsed = time.monotonic() - start
        assert worst_gap <= 1e-6
        assert worst_kkt <= 1e-6
        assert elapsed < 10.0
        print(
            f"\nACCEPTANCE C1 PASS: 200 instances ({passes} coded by a FISTA block), "
            f"objective gap <= {worst_gap:.2e}, KKT <= {worst_kkt:.2e}, {elapsed:.1f}s"
        )


class TestCriterion2DictionaryLearning:
    def test_feasibility_descent_and_sign(self):
        start = time.monotonic()
        table = _synthetic_table()
        base = dict(m=64, lam=0.1, batch_size=256, seed=11)

        full = learn_dictionary(table, SparseCodingConfig(variant="sc1", epochs=10, **base))[0]
        trace = full.objectives
        assert len(trace) == 11
        for before, after in zip(trace, trace[1:]):
            assert after <= before + 1e-8
        # determinism makes an epochs=e run identical to the first e epochs
        # of the long run, so per-epoch feasibility is checked via prefixes
        for epochs in range(1, 11):
            prefix = learn_dictionary(
                table, SparseCodingConfig(variant="sc1", epochs=epochs, **base)
            )[0]
            norms = np.linalg.norm(prefix.atoms, axis=0)
            assert np.all(norms <= 1 + 1e-9), f"norm violation after epoch {epochs}"
            assert prefix.objectives[:epochs] == pytest.approx(trace[:epochs], abs=0)

        _, sc4_codes = learn_dictionary(
            table, SparseCodingConfig(variant="sc4", epochs=10, **base)
        )
        assert sc4_codes.total_nonzeros() > 0
        for _, val in sc4_codes.entries:
            assert np.all(val > 0)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        print(
            f"\nACCEPTANCE C2 PASS: sc1 norms feasible after all 10 epochs, "
            f"objective non-increasing, sc4 nonnegative, {elapsed:.1f}s"
        )


class TestCriterion3SparsityMonotonicity:
    def test_sparsity_non_decreasing_in_lambda(self):
        table = _synthetic_table()
        levels = []
        for lam in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            config = SparseCodingConfig(variant="sc1", m=64, lam=lam, epochs=10, seed=11)
            _, codes = learn_dictionary(table, config)
            levels.append(sparsity_level(codes, 64))
        for lower, higher in zip(levels, levels[1:]):
            assert higher >= lower
        print("\nACCEPTANCE C3 PASS: sparsity", " <= ".join(f"{v:.4f}" for v in levels))


class TestCriterion4CrfInference:
    def test_exact_inference_on_100_lattices(self):
        start = time.monotonic()
        rng = np.random.default_rng(5150)
        for _ in range(100):
            n_pos = int(rng.integers(1, 7))
            n_lab = int(rng.integers(2, 5))
            em = rng.standard_normal((n_pos, n_lab))
            tr = rng.standard_normal((n_lab, n_lab))
            logz_bf, unary_bf, pairwise_bf, best_bf, _ = crf_enumerate(em, tr)
            logz, unary, pairwise = sentence_forward_backward(em, tr)
            assert abs(logz - logz_bf) <= 1e-10
            assert np.abs(unary - unary_bf).max() <= 1e-10
            if n_pos > 1:
                assert np.abs(pairwise - pairwise_bf).max() <= 1e-10
            assert viterbi_path(em, tr) == best_bf
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        print(f"\nACCEPTANCE C4 PASS: 100 lattices exact, {elapsed:.1f}s")

    def test_tie_break_contract(self):
        assert viterbi_path(np.zeros((5, 4)), np.zeros((4, 4))) == [0] * 5


class TestCriterion5CrfGradient:
    def test_finite_difference_check_with_dense_features(self):
        rng = np.random.default_rng(606)
        sentences = []
        labels = []
        for _ in range(4):
            length = int(rng.integers(2, 6))
            sent = []
            labs = []
            for _t in range(length):
                feats = [
                    (f"ind{int(rng.integers(5))}", 1.0),
                    (f"d:{int(rng.integers(4))}", float(rng.standard_normal())),
                    (f"d:{int(rng.integers(4, 8))}", float(rng.standard_normal())),
                ]
                sent.append(feats)
                labs.append(["A", "B", "C"][int(rng.integers(3))])
            sentences.append(sent)
            labels.append(labs)
        batch = compile_batch(*per_position(sentences), labels)
        n_params = batch.n_features * len(batch.labels) + len(batch.labels) ** 2
        params = rng.standard_normal(n_params) * 0.7
        _, grad = smooth_objective(params, batch, c2=0.001)
        fd = finite_difference_gradient(
            lambda p: smooth_objective(p, batch, c2=0.001)[0], params, h=1e-5
        )
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-4
        print(f"\nACCEPTANCE C5 PASS: max relative gradient error {rel.max():.2e}")


class TestCriterion6SparseFeatureFunction:
    CASES = [
        ([], set()),
        ([(0, 0.5)], {"+0"}),
        ([(3, -0.25)], {"-3"}),
        ([(0, 1.0), (1, 2.0)], {"+0", "+1"}),
        ([(0, -1.0), (1, -2.0)], {"-0", "-1"}),
        ([(0, 0.5), (2, -0.3)], {"+0", "-2"}),
        ([(1, -0.1), (5, 0.9)], {"-1", "+5"}),
        ([(7, 0.001)], {"+7"}),
        ([(0, 1.0), (1, -1.0), (2, 1.0)], {"+0", "-1", "+2"}),
        ([(2, -5.0), (3, -6.0), (4, -7.0)], {"-2", "-3", "-4"}),
        ([(0, 0.1), (7, 0.2)], {"+0", "+7"}),
        ([(4, -0.4)], {"-4"}),
        ([(6, 2.5), (7, -2.5)], {"+6", "-7"}),
        ([(0, 9.0)], {"+0"}),
        ([(5, -9.0)], {"-5"}),
        ([(1, 0.3), (2, 0.3), (3, 0.3), (4, 0.3)], {"+1", "+2", "+3", "+4"}),
        ([(1, -0.3), (2, -0.3), (3, -0.3), (4, -0.3)], {"-1", "-2", "-3", "-4"}),
        ([(0, 0.5), (1, -0.5), (6, 0.5), (7, -0.5)], {"+0", "-1", "+6", "-7"}),
        ([(3, 1e-9)], {"+3"}),
        ([(2, -1e-9)], {"-2"}),
    ]

    def test_twenty_hand_built_vectors(self):
        assert len(self.CASES) == 20
        for pairs, expected in self.CASES:
            idx = np.array([i for i, _ in pairs], dtype=np.int64)
            val = np.array([v for _, v in pairs])
            assert sparse_features((idx, val)) == expected
        print("\nACCEPTANCE C6 PASS: 20 sign/index vectors exact")

    def test_window_clipping_at_both_boundaries(self):
        entries = [
            (np.array([0], dtype=np.int64), np.array([1.0])),
            (np.array([1], dtype=np.int64), np.array([-1.0])),
            (np.array([2], dtype=np.int64), np.array([1.0])),
        ]
        codes = SparseCodes(["a", "b", "c"], entries, m=3)
        config = FeatureConfig(scheme="sc", window=1)
        res = FeatureResources(codes=codes)
        sent = ["a", "b", "c"]
        first = dict(token_features(sent, 0, config, res))
        last = dict(token_features(sent, 2, config, res))
        middle = dict(token_features(sent, 1, config, res))
        assert set(first) == {"[0]+0", "[+1]-1"}
        assert set(last) == {"[-1]-1", "[0]+2"}
        assert set(middle) == {"[-1]+0", "[0]-1", "[+1]+2"}
        print("ACCEPTANCE C6 PASS: window clipping exact at both boundaries")


class TestCriterion7Iobes:
    def test_round_trip_on_1000_sequences(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            tags = random_bio_sequence(rng, int(rng.integers(1, 20)))
            data = make_dataset([list(zip("x" * len(tags), tags))], task="ner")
            converted, repaired = to_iobes(data)
            assert repaired == 0
            assert from_iobes(converted).labels() == data.labels()
        assert len(iobes_labels(["PER", "LOC", "ORG", "MISC"])) == 17
        print("\nACCEPTANCE C7 PASS: 1000 round trips, 17-tag alphabet")


class TestCriterion8EntityF1:
    # (gold, pred, precision, recall, f1) computed by hand with the
    # exact-boundary exact-type rule
    CASES = [
        (["B-PER", "I-PER", "O"], ["B-PER", "I-PER", "O"], 1.0, 1.0, 1.0),
        (["B-PER", "I-PER"], ["B-PER", "O"], 0.0, 0.0, 0.0),
        (["B-PER", "O", "O"], ["B-PER", "O", "B-LOC"], 0.5, 1.0, 2 * 0.5 / 1.5),
        (["B-PER"], ["B-LOC"], 0.0, 0.0, 0.0),
        (["B-ORG", "I-ORG", "O"], ["O", "O", "O"], 0.0, 0.0, 0.0),
        (["B-PER", "O", "B-LOC"], ["B-PER", "O", "O"], 1.0, 0.5, 2 * 0.5 / 1.5),
        (["B-MISC", "I-MISC", "O", "B-PER"], ["B-MISC", "I-MISC", "O", "B-PER"], 1.0, 1.0, 1.0),
        (["B-PER", "O"], ["O", "B-PER"], 0.0, 0.0, 0.0),
        (["O", "B-LOC", "I-LOC"], ["O", "O", "B-LOC"], 0.0, 0.0, 0.0),
        (["B-PER", "O", "B-LOC"], ["B-PER", "B-ORG", "O"], 0.5, 0.5, 0.5),
    ]

    def test_ten_hand_computed_cases(self):
        assert len(self.CASES) == 10
        for gold_tags, pred_tags, precision, recall, f1 in self.CASES:
            gold = make_dataset(
                [[(f"w{i}", t) for i, t in enumerate(gold_tags)]], task="ner"
            )
            report = entity_f1(gold, [pred_tags])
            assert abs(report.overall.precision - precision) <= 1e-12
            assert abs(report.overall.recall - recall) <= 1e-12
            assert abs(report.overall.f1 - f1) <= 1e-12
        print("\nACCEPTANCE C8 PASS: 10 fixtures exact to 1e-12")


class TestCriterion9EndToEnd:
    def test_desk_scale_pipeline(self, sequence_task_files, tmp_path, capsys):
        start = time.monotonic()
        root = sequence_task_files["root"]
        emb = sequence_task_files["embeddings"]
        train_f = sequence_task_files["train"]
        test_f = sequence_task_files["test"]

        dict_f = tmp_path / "dict.txt"
        codes_f = tmp_path / "codes.txt"
        assert cli.main([
            "learn-dict", "--embeddings", str(emb), "--m", "64", "--lambda", "0.1",
            "--variant", "sc1", "--epochs", "10", "--seed", "42",
            "--out-dict", str(dict_f), "--out-codes", str(codes_f),
        ]) == 0

        def run_scheme(scheme, resource_args):
            model_f = tmp_path / f"{scheme}.model"
            pred_f = tmp_path / f"{scheme}.pred"
            assert cli.main([
                "train", "--task", "pos", "--scheme", scheme,
                "--train", str(train_f), "--format", "conllx",
                *resource_args, "--window", "1", "--c1", "1.0", "--c2", "0.001",
                "--out", str(model_f),
            ]) == 0
            assert cli.main([
                "tag", "--model", str(model_f), "--input", str(test_f),
                "--format", "conllx", *resource_args, "--out", str(pred_f),
            ]) == 0
            capsys.readouterr()
            assert cli.main([
                "eval", "--gold", str(test_f), "--pred", str(pred_f),
                "--format", "conllx", "--task", "pos",
            ]) == 0
            return float(capsys.readouterr().out.split()[1])

        sc_accuracy = run_scheme("sc", ["--codes", str(codes_f)])
        dense_accuracy = run_scheme("dense", ["--embeddings", str(emb)])
        elapsed = time.monotonic() - start
        assert sc_accuracy >= 0.95
        assert sc_accuracy > dense_accuracy
        assert elapsed < 300.0
        print(
            f"\nACCEPTANCE C9 PASS: sc accuracy {sc_accuracy:.4f} > "
            f"dense {dense_accuracy:.4f}, {elapsed:.0f}s"
        )


_POLYGLOT = os.environ.get("SPARSETAG_POLYGLOT_VEC")
_CONLLX_TRAIN = os.environ.get("SPARSETAG_CONLLX_TRAIN")
_CONLLX_TEST = os.environ.get("SPARSETAG_CONLLX_TEST")
_TAGMAP = os.environ.get("SPARSETAG_TAGMAP")


@pytest.mark.skipif(
    not (_POLYGLOT and _CONLLX_TRAIN and _CONLLX_TEST and _TAGMAP),
    reason="external corpora not configured (SPARSETAG_POLYGLOT_VEC, "
    "SPARSETAG_CONLLX_TRAIN, SPARSETAG_CONLLX_TEST, SPARSETAG_TAGMAP)",
)
class TestCriterion10ExternalData:
    def test_conllx_english_pos(self, tmp_path, capsys):
        dict_f = tmp_path / "dict.txt"
        codes_f = tmp_path / "codes.txt"
        assert cli.main([
            "learn-dict", "--embeddings", _POLYGLOT, "--m", "1024", "--lambda", "0.1",
            "--variant", "sc1", "--epochs", "10", "--seed", "42",
            "--out-dict", str(dict_f), "--out-codes", str(codes_f),
        ]) == 0
        model_f = tmp_path / "model"
        assert cli.main([
            "train", "--task", "pos", "--scheme", "sc", "--train", _CONLLX_TRAIN,
            "--format", "conllx", "--codes", str(codes_f), "--tagmap", _TAGMAP,
            "--out", str(model_f),
        ]) == 0
        pred_f = tmp_path / "pred"
        assert cli.main([
            "tag", "--model", str(model_f), "--input", _CONLLX_TEST,
            "--format", "conllx", "--codes", str(codes_f), "--out", str(pred_f),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "eval", "--gold", _CONLLX_TEST, "--pred", str(pred_f),
            "--format", "conllx", "--task", "pos", "--tagmap", _TAGMAP,
        ]) == 0
        accuracy = float(capsys.readouterr().out.split()[1])
        assert abs(accuracy * 100 - 97.20) <= 0.5
        print(f"\nACCEPTANCE C10 PASS: CoNLL-X en accuracy {accuracy:.4f}")
