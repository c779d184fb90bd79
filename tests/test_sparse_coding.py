import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag.embeddings import EmbeddingTable
from sparsetag.sparse_coding import (
    Dictionary,
    SparseCodes,
    SparseCodingConfig,
    SparseCodingError,
    basis_statistics,
    encode,
    kkt_violation,
    learn_dictionary,
    load_codes,
    load_dictionary,
    save_codes,
    save_dictionary,
    solve_lasso,
    sparsity_level,
)

from oracles import lasso_bruteforce, lasso_objective


def random_unit_rows(rng, n, k):
    X = rng.standard_normal((n, k))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def table_from(words_prefix, X):
    words = [f"{words_prefix}{i}" for i in range(X.shape[0])]
    return EmbeddingTable(words, X)


class TestSolveLasso:
    def test_orthonormal_soft_threshold(self):
        D = np.eye(2)
        alpha = solve_lasso(D, np.array([0.5, 0.05]), lam=0.1)
        np.testing.assert_allclose(alpha, [0.4, 0.0], atol=1e-12)

    def test_nonneg_clips_negative_correlation(self):
        D = np.eye(2)
        alpha = solve_lasso(D, np.array([-0.5, 0.05]), lam=0.1, nonneg=True)
        np.testing.assert_allclose(alpha, [0.0, 0.0], atol=1e-12)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            D = rng.standard_normal((4, 6))
            x = rng.standard_normal(4)
            alpha = solve_lasso(D, x, lam=0.2)
            _, best = lasso_bruteforce(D, x, lam=0.2)
            assert lasso_objective(D, x, alpha, 0.2) <= best + 1e-6

    def test_nonneg_matches_bruteforce(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            D = rng.standard_normal((4, 6))
            x = rng.standard_normal(4)
            alpha = solve_lasso(D, x, lam=0.1, nonneg=True)
            assert np.all(alpha >= 0)
            _, best = lasso_bruteforce(D, x, lam=0.1, nonneg=True)
            assert lasso_objective(D, x, alpha, 0.1) <= best + 1e-6

    def test_kkt_certificate(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(2, 9))
            D = rng.standard_normal((k, m))
            x = rng.standard_normal(k)
            nonneg = trial % 2 == 0
            alpha = solve_lasso(D, x, lam=0.1, nonneg=nonneg)
            assert kkt_violation(D, x, alpha, 0.1, nonneg=nonneg) <= 1e-6

    def test_non_finite_input_rejected(self):
        with pytest.raises(SparseCodingError):
            solve_lasso(np.array([[np.nan]]), np.array([1.0]), lam=0.1)
        with pytest.raises(SparseCodingError):
            solve_lasso(np.eye(2), np.array([np.inf, 0.0]), lam=0.1)
        with pytest.raises(SparseCodingError):
            solve_lasso(np.eye(2), np.ones(2), lam=0.1, warm_start=np.ones(3))

    def test_zero_column_stays_zero(self):
        D = np.array([[1.0, 0.0], [0.0, 0.0]])
        alpha = solve_lasso(D, np.array([1.0, 1.0]), lam=0.1)
        assert alpha[1] == 0.0

    def test_exhaustion_error_carries_iterate_and_residual(self):
        from sparsetag.sparse_coding import LassoConvergenceError

        rng = np.random.default_rng(55)
        base = rng.standard_normal(5)
        D = np.column_stack([base, base + 1e-6 * rng.standard_normal(5), rng.standard_normal(5)])
        with pytest.raises(LassoConvergenceError) as exc:
            solve_lasso(D, base * 2.0, lam=0.01, max_steps=1)
        assert exc.value.alpha is not None
        assert exc.value.residual is not None
        assert exc.value.alpha.shape[-1] == 3

    def test_warm_start_same_solution(self):
        rng = np.random.default_rng(77)
        D = rng.standard_normal((5, 7))
        x = rng.standard_normal(5)
        cold = solve_lasso(D, x, lam=0.15)
        warm = solve_lasso(D, x, lam=0.15, warm_start=cold + 0.01)
        np.testing.assert_allclose(cold, warm, atol=1e-5)


@st.composite
def lasso_problems(draw):
    """Small lasso instances with duplicated, negated and zero columns."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.standard_normal((k, m))
    for j in range(m):
        kind = draw(st.sampled_from(("fresh", "fresh", "duplicate", "negated", "zero")))
        if kind == "zero":
            D[:, j] = 0.0
        elif kind != "fresh" and j > 0:
            source = D[:, draw(st.integers(0, j - 1))]
            D[:, j] = source if kind == "duplicate" else -source
    x = rng.standard_normal(k)
    lam = draw(st.sampled_from((0.05, 0.1, 0.5)))
    nonneg = draw(st.booleans())
    warm = None
    start = draw(st.sampled_from(("cold", "random", "perturbed")))
    if start == "random":
        warm = rng.standard_normal(m) * (rng.random(m) < 0.6)
    elif start == "perturbed":
        # the code a dictionary update leaves behind: optimal for a nearby D
        scale = draw(st.sampled_from((0.01, 0.1, 0.3)))
        warm, _ = lasso_bruteforce(D + scale * rng.standard_normal((k, m)), x, lam, nonneg=nonneg)
    return D, x, lam, nonneg, warm


class TestSolveLassoProperties:
    @settings(max_examples=300, deadline=None)
    @given(lasso_problems())
    def test_matches_bruteforce_with_kkt(self, problem):
        D, x, lam, nonneg, warm = problem
        alpha = solve_lasso(D, x, lam, nonneg=nonneg, warm_start=warm)
        if nonneg:
            assert np.all(alpha >= 0.0)
        assert kkt_violation(D, x, alpha, lam, nonneg=nonneg) <= 1e-6
        _, best = lasso_bruteforce(D, x, lam, nonneg=nonneg)
        assert lasso_objective(D, x, alpha, lam) <= best + 1e-6


class TestPrunedWarmStart:
    """A stale warm start is pruned until its Newton point keeps every sign."""

    LAM = 0.1

    @staticmethod
    def problem():
        rng = np.random.default_rng(0)
        D = rng.standard_normal((12, 30))
        D /= np.linalg.norm(D, axis=0)
        return D, rng.standard_normal(12)

    def stale_start(self, D, x, nonneg, kind):
        # every sign stale: the negated signed optimum (under nonneg its
        # positive entries are atoms the optimum pushes below zero)
        warm = -solve_lasso(D, x, self.LAM)
        if kind == "half":
            warm = solve_lasso(D, x, self.LAM, nonneg=nonneg)
            warm[np.flatnonzero(warm)[::2]] *= -1.0
        idx = np.flatnonzero(warm)
        return idx, warm[idx]

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("kind", ["negated", "half"])
    def test_start_is_stationary_on_a_sign_consistent_support(self, nonneg, kind):
        from sparsetag.sparse_coding import _ActiveSetLasso

        D, x = self.problem()
        c = x @ D
        idx, val = self.stale_start(D, x, nonneg, kind)
        loadable = np.count_nonzero(val > 0.0 if nonneg else val)
        solver = _ActiveSetLasso(D.T @ D, self.LAM, nonneg, D.shape[0])
        solver._start(c, idx, val)
        s = solver.size
        assert s < loadable
        act, coef, sign = solver.act[:s], solver.coef[:s], solver.sign[:s]
        assert np.all(coef * sign > 0.0)
        if nonneg:
            assert np.all(sign == 1.0)
        rho = c - coef @ (D.T @ D)[act]
        assert np.abs(rho[act] - self.LAM * sign).max(initial=0.0) <= 1e-9

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("kind", ["negated", "half"])
    def test_solve_from_stale_start_matches_cold(self, nonneg, kind):
        from sparsetag.sparse_coding import _ActiveSetLasso

        D, x = self.problem()
        solver = _ActiveSetLasso(D.T @ D, self.LAM, nonneg, D.shape[0])
        cold_idx, cold_val = solver.solve(x @ D)
        idx, val = solver.solve(x @ D, self.stale_start(D, x, nonneg, kind))
        np.testing.assert_array_equal(idx, cold_idx)
        np.testing.assert_allclose(val, cold_val, rtol=0.0, atol=1e-9)
        alpha = np.zeros(D.shape[1])
        alpha[idx] = val
        assert kkt_violation(D, x, alpha, self.LAM, nonneg=nonneg) <= 1e-7

    @staticmethod
    def dependent_problem():
        # k=6 < m=12; atoms 10 and 11 are one unit vector orthogonal to x,
        # so the optimum leaves them out and stays unique
        rng = np.random.default_rng(1)
        D = rng.standard_normal((6, 12))
        D /= np.linalg.norm(D, axis=0)
        x = D[:, :3] @ np.array([1.0, -0.8, 0.6])
        v = rng.standard_normal(6)
        v -= (v @ x) / (x @ x) * x
        D[:, 10] = D[:, 11] = v / np.linalg.norm(v)
        return D, x

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("support", ["duplicate", "all"])
    def test_solve_from_dependent_start_matches_cold(self, nonneg, support):
        from sparsetag.sparse_coding import _ActiveSetLasso

        D, x = self.dependent_problem()
        gram, c = D.T @ D, x @ D
        solver = _ActiveSetLasso(gram, self.LAM, nonneg, D.shape[0])
        cold_idx, cold_val = solver.solve(c)
        assert not {10, 11} & set(cold_idx.tolist())
        # "duplicate": the optimum's atoms plus both copies of atom 10;
        # "all": all 12 atoms, twice as many as the rank of D
        idx = np.union1d(cold_idx, [10, 11]) if support == "duplicate" else np.arange(12)
        val = np.ones(idx.size) if nonneg else np.where(np.arange(idx.size) % 2, -1.0, 1.0)
        with pytest.raises(np.linalg.LinAlgError):  # the prune's solve cannot run
            np.linalg.solve(gram[np.ix_(idx, idx)], c[idx] - self.LAM * np.sign(val))
        solver._start(c, idx, val)
        s = solver.size
        act, coef, sign = solver.act[:s], solver.coef[:s], solver.sign[:s]
        assert s <= D.shape[0] and np.all(coef * sign > 0.0)
        rho = c - coef @ gram[act]
        assert np.abs(rho[act] - self.LAM * sign).max(initial=0.0) <= 1e-9
        got_idx, got_val = solver.solve(c, (idx, val))
        np.testing.assert_array_equal(got_idx, cold_idx)
        np.testing.assert_allclose(got_val, cold_val, rtol=0.0, atol=1e-9)
        alpha = np.zeros(D.shape[1])
        alpha[got_idx] = got_val
        assert kkt_violation(D, x, alpha, self.LAM, nonneg=nonneg) <= 1e-7


class TestActiveSetFactor:
    def test_inverse_factor_tracks_appends_and_drops(self):
        from sparsetag.sparse_coding import _ActiveSetLasso

        rng = np.random.default_rng(21)
        D = rng.standard_normal((12, 30))
        gram = D.T @ D
        solver = _ActiveSetLasso(gram, 0.1, False, 12)
        for _ in range(100):
            solver.size = 0
            for j in rng.choice(30, size=int(rng.integers(2, 12)), replace=False):
                assert solver._append(j) is None
            solver._drop(int(rng.integers(solver.size)))
            s = solver.size
            act = solver.act[:s]
            inv = solver.inv_chol[:s, :s]
            assert np.all(np.triu(inv, 1) == 0.0)
            product = inv.T @ inv @ gram[np.ix_(act, act)]
            np.testing.assert_allclose(product, np.eye(s), atol=1e-10)

    def test_atom_in_span_is_not_appended(self):
        from sparsetag.sparse_coding import _ActiveSetLasso

        D = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        solver = _ActiveSetLasso(D.T @ D, 0.1, False, 3)
        assert solver._append(0) is None and solver._append(1) is None
        assert solver._append(2) is not None
        assert solver.size == 2


class TestLearnDictionary:
    def test_rank_one_recovers_direction(self):
        rng = np.random.default_rng(42)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        X = np.tile(v, (50, 1))
        table = table_from("w", X)
        config = SparseCodingConfig(variant="sc1", m=1, lam=0.01, epochs=5, seed=0)
        dictionary, codes = learn_dictionary(table, config)
        d = dictionary.atoms[:, 0]
        cos = abs(float(d @ v)) / np.linalg.norm(d)
        assert np.arccos(min(cos, 1.0)) < 1e-3
        # 1-D oracle: along +-v the per-signal optimum is c = 1 - lam.
        lam = 0.01
        oracle_obj = 0.5 * lam**2 + lam * (1 - lam)
        assert dictionary.objectives[-1] == pytest.approx(oracle_obj, abs=1e-6)
        dense = codes.to_dense()
        mse = np.mean((X - dense @ dictionary.atoms.T) ** 2)
        assert mse < 1e-4

    def test_epoch_objective_non_increasing(self):
        rng = np.random.default_rng(6)
        table = table_from("w", random_unit_rows(rng, 120, 8))
        for variant in ("sc1", "sc3", "sc4"):
            config = SparseCodingConfig(
                variant=variant, m=16, lam=0.1, epochs=8, batch_size=50, seed=3
            )
            dictionary, _ = learn_dictionary(table, config)
            trace = dictionary.objectives
            assert len(trace) == config.epochs + 1
            for before, after in zip(trace, trace[1:]):
                assert after <= before + 1e-8

    def test_more_epochs_never_worse(self):
        rng = np.random.default_rng(8)
        table = table_from("w", random_unit_rows(rng, 60, 6))
        base = dict(variant="sc1", m=12, lam=0.1, batch_size=32, seed=5)
        one, _ = learn_dictionary(table, SparseCodingConfig(epochs=1, **base))
        ten, _ = learn_dictionary(table, SparseCodingConfig(epochs=10, **base))
        assert ten.objectives[-1] <= one.objectives[-1] + 1e-8

    def test_sc1_columns_inside_unit_ball(self):
        rng = np.random.default_rng(10)
        table = table_from("w", random_unit_rows(rng, 80, 8))
        config = SparseCodingConfig(variant="sc1", m=20, lam=0.1, epochs=6, seed=2)
        dictionary, _ = learn_dictionary(table, config)
        norms = np.linalg.norm(dictionary.atoms, axis=0)
        assert np.all(norms <= 1 + 1e-9)

    def test_sc4_codes_nonnegative(self):
        rng = np.random.default_rng(11)
        table = table_from("w", random_unit_rows(rng, 80, 8))
        config = SparseCodingConfig(variant="sc4", m=20, lam=0.2, epochs=5, seed=2)
        _, codes = learn_dictionary(table, config)
        assert codes.total_nonzeros() > 0
        for _, val in codes.entries:
            assert np.all(val > 0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        table = table_from("w", random_unit_rows(rng, 40, 6))
        config = SparseCodingConfig(variant="sc3", m=10, lam=0.1, epochs=4, seed=9)
        d1, c1 = learn_dictionary(table, config)
        d2, c2 = learn_dictionary(table, config)
        np.testing.assert_array_equal(d1.atoms, d2.atoms)
        for (i1, v1), (i2, v2) in zip(c1.entries, c2.entries):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(v1, v2)

    def test_all_zero_table_rejected(self):
        table = EmbeddingTable(["a", "b"], np.zeros((2, 4)))
        config = SparseCodingConfig(m=4, lam=0.1, epochs=1)
        with pytest.raises(SparseCodingError, match="zero"):
            learn_dictionary(table, config)


class TestEncode:
    def test_recovers_scaled_column(self):
        rng = np.random.default_rng(13)
        atoms = rng.standard_normal((8, 10))
        atoms /= np.linalg.norm(atoms, axis=0)
        dictionary = Dictionary(atoms=atoms, variant="sc1", lam=0.01, tau=0.0)
        table = EmbeddingTable(["w"], (0.9 * atoms[:, 3])[None, :])
        codes = encode(dictionary, table)
        idx, val = codes.get("w")
        assert idx[np.argmax(np.abs(val))] == 3
        # cross-check against the direct per-word solver
        direct = solve_lasso(atoms, 0.9 * atoms[:, 3], lam=0.01)
        assert int(np.argmax(np.abs(direct))) == 3

    def test_zero_vector_gives_empty_code(self):
        atoms = np.eye(4)
        dictionary = Dictionary(atoms=atoms, variant="sc1", lam=0.1, tau=0.0)
        table = EmbeddingTable(["z", "e1"], np.vstack([np.zeros(4), np.eye(4)[0]]))
        codes = encode(dictionary, table)
        idx, val = codes.get("z")
        assert idx.size == 0 and val.size == 0

    def test_reconstruction_residual_bounded(self):
        rng = np.random.default_rng(14)
        X = random_unit_rows(rng, 200, 8)
        table = table_from("w", X)
        config = SparseCodingConfig(variant="sc1", m=32, lam=0.1, epochs=8, seed=1)
        dictionary, _ = learn_dictionary(table, config)
        codes = encode(dictionary, table)
        recon = codes.to_dense() @ dictionary.atoms.T
        rel = np.linalg.norm(X - recon, axis=1) / np.linalg.norm(X, axis=1)
        assert np.max(rel) < 0.5

    def test_dimension_mismatch(self):
        dictionary = Dictionary(atoms=np.eye(3), variant="sc1", lam=0.1, tau=0.0)
        table = EmbeddingTable(["a"], np.ones((1, 4)))
        with pytest.raises(SparseCodingError, match="mismatch"):
            encode(dictionary, table)

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        X = random_unit_rows(rng, 600, 6)
        table = table_from("w", X)
        atoms = rng.standard_normal((6, 12))
        dictionary = Dictionary(atoms=atoms, variant="sc1", lam=0.1, tau=0.0)
        codes1 = encode(dictionary, table)
        codes2 = encode(dictionary, table)
        for (i1, v1), (i2, v2) in zip(codes1.entries, codes2.entries):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(v1, v2)


class TestSparsity:
    def test_ten_nonzeros_in_thousand(self):
        idx = np.arange(10, dtype=np.int64)
        codes = SparseCodes(["w"], [(idx, np.ones(10))], m=1000)
        assert sparsity_level(codes, 1000) == pytest.approx(0.99)

    def test_all_empty(self):
        empty = (np.array([], dtype=np.int64), np.array([]))
        codes = SparseCodes(["a", "b"], [empty, empty], m=64)
        assert sparsity_level(codes, 64) == 1.0

    def test_lambda_monotone(self):
        rng = np.random.default_rng(16)
        table = table_from("w", random_unit_rows(rng, 150, 8))
        levels = []
        for lam in (0.05, 0.1, 0.3):
            config = SparseCodingConfig(variant="sc1", m=16, lam=lam, epochs=4, seed=4)
            _, codes = learn_dictionary(table, config)
            levels.append(sparsity_level(codes, 16))
        assert levels == sorted(levels)


class TestBasisStatistics:
    def test_hand_built_frequencies(self):
        entries = [
            (np.array([0], dtype=np.int64), np.array([1.0])),
            (np.array([0, 1], dtype=np.int64), np.array([1.0, 1.0])),
            (np.array([0, 1], dtype=np.int64), np.array([1.0, -1.0])),
            (np.array([0, 2], dtype=np.int64), np.array([1.0, 2.0])),
        ]
        codes = SparseCodes(["a", "b", "c", "d"], entries, m=3)
        dictionary = Dictionary(atoms=np.eye(3), variant="sc1", lam=0.1, tau=0.0)
        report = basis_statistics(dictionary, codes)
        np.testing.assert_allclose(report.frequencies, [1.0, 0.5, 0.25])

    def test_sc1_norm_bound_restated(self):
        rng = np.random.default_rng(18)
        table = table_from("w", random_unit_rows(rng, 60, 6))
        config = SparseCodingConfig(variant="sc1", m=12, lam=0.1, epochs=4, seed=6)
        dictionary, codes = learn_dictionary(table, config)
        report = basis_statistics(dictionary, codes)
        assert np.max(report.norms) <= 1 + 1e-9
        assert np.all((0 <= report.frequencies) & (report.frequencies <= 1))
        assert -1.0 <= report.correlation <= 1.0

    def test_universal_basis_frequency_one(self):
        entries = [
            (np.array([0], dtype=np.int64), np.array([1.0])),
            (np.array([0], dtype=np.int64), np.array([-2.0])),
        ]
        codes = SparseCodes(["a", "b"], entries, m=2)
        dictionary = Dictionary(atoms=np.eye(2), variant="sc3", lam=0.1, tau=1e-5)
        report = basis_statistics(dictionary, codes)
        assert report.frequencies[0] == 1.0

    def test_constant_norms_give_zero_correlation(self):
        entries = [(np.array([0], dtype=np.int64), np.array([1.0]))]
        codes = SparseCodes(["a"], entries, m=2)
        dictionary = Dictionary(atoms=np.eye(2), variant="sc1", lam=0.1, tau=0.0)
        report = basis_statistics(dictionary, codes)
        assert report.correlation == 0.0


class TestFiles:
    def test_dictionary_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        dictionary = Dictionary(
            atoms=rng.standard_normal((4, 6)), variant="sc3", lam=0.25, tau=1e-5
        )
        path = tmp_path / "dict.txt"
        save_dictionary(path, dictionary)
        again = load_dictionary(path)
        np.testing.assert_array_equal(again.atoms, dictionary.atoms)
        assert (again.variant, again.lam, again.tau) == ("sc3", 0.25, 1e-5)

    def test_codes_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        entries = []
        for _ in range(5):
            nnz = int(rng.integers(0, 4))
            idx = np.sort(rng.choice(8, size=nnz, replace=False)).astype(np.int64)
            entries.append((idx, rng.standard_normal(nnz)))
        codes = SparseCodes([f"w{i}" for i in range(5)], entries, m=8)
        path = tmp_path / "codes.txt"
        save_codes(path, codes)
        again = load_codes(path, m=8)
        assert again.words == codes.words
        for (i1, v1), (i2, v2) in zip(codes.entries, again.entries):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_allclose(v1, v2, rtol=1e-5)

    def test_codes_file_format(self, tmp_path):
        entries = [(np.array([1, 5], dtype=np.int64), np.array([0.5, -0.25]))]
        codes = SparseCodes(["hello"], entries, m=8)
        path = tmp_path / "codes.txt"
        save_codes(path, codes)
        assert path.read_text(encoding="utf-8") == "hello 1:0.5 5:-0.25\n"

    def test_strictly_increasing_indices_enforced(self):
        with pytest.raises(SparseCodingError):
            SparseCodes(["w"], [(np.array([3, 1], dtype=np.int64), np.array([1.0, 1.0]))], m=4)

    def test_index_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("w 99999999999999999999:1.0\n", encoding="utf-8")
        with pytest.raises(SparseCodingError, match=r"codes\.txt:1: index out of range"):
            load_codes(path)

    # codes-like lines, some well formed, plus arbitrary text and bytes
    _CODE_PART = st.sampled_from(
        ["0:1.5", "3:-0.25", "1:0", "2:nan", "1:inf", "-1:1", "99999999999999999999:1", "1:1:1",
         "x:1", ":", "", "2:1e-300", "5:2"]
    )
    _CODE_LINE = st.tuples(
        st.sampled_from(["w", "v", "", "w\t1"]) | st.text(max_size=4),
        st.lists(_CODE_PART | st.text(max_size=6), max_size=4),
    ).map(lambda wp: " ".join([wp[0], *wp[1]]))

    @settings(max_examples=300, deadline=None)
    @given(content=st.binary(max_size=120)
           | st.lists(_CODE_LINE, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")))
    def test_arbitrary_bytes_load_or_raise_sparse_coding_error(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzzed-codes.txt"
        path.write_bytes(content)
        try:
            codes = load_codes(path)
        except SparseCodingError:
            return
        assert len(codes.entries) == len(codes.words)
