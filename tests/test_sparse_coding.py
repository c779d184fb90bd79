import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsetag._base import VARIANTS
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
    return D, x, lam, nonneg


class TestSolveLassoProperties:
    @settings(max_examples=300, deadline=None)
    @given(lasso_problems())
    def test_matches_bruteforce_with_kkt(self, problem):
        D, x, lam, nonneg = problem
        alpha = solve_lasso(D, x, lam, nonneg=nonneg)
        if nonneg:
            assert np.all(alpha >= 0.0)
        assert kkt_violation(D, x, alpha, lam, nonneg=nonneg) <= 1e-6
        _, best = lasso_bruteforce(D, x, lam, nonneg=nonneg)
        assert lasso_objective(D, x, alpha, lam) <= best + 1e-6


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


class TestBatchedSeeding:
    """With m <= k a mini-batch is seeded by FISTA and certified together,
    and only the rows that fail go to the pass's one lockstep search."""

    LAM = 0.1

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_final_codes_match_encode(self, data):
        k = data.draw(st.integers(2, 10), label="k")
        m = data.draw(st.integers(1, k), label="m")
        n = data.draw(st.integers(2, 24), label="n")
        variant = data.draw(st.sampled_from(VARIANTS), label="variant")
        config = SparseCodingConfig(
            variant=variant, m=m, lam=data.draw(st.sampled_from((0.05, 0.1, 0.3)), label="lam"),
            epochs=data.draw(st.integers(1, 3), label="epochs"),
            batch_size=data.draw(st.integers(1, n - 1), label="batch_size"),  # splits the table
            seed=data.draw(st.integers(0, 99), label="seed"),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="table"))
        table = table_from("w", random_unit_rows(rng, n, k))
        dictionary, codes = learn_dictionary(table, config)
        dense = codes.to_dense()
        for x, alpha in zip(table.vectors, dense):
            assert kkt_violation(dictionary.atoms, x, alpha, config.lam, config.nonneg) <= 1e-7
        # With a nearly singular Gram matrix, points far apart all meet the
        # KKT tolerance, and the batched and per-word codes already disagree
        # (about 2 in 3,000 such draws, cond > 1e6); compare where the
        # solution is well determined.
        assume(np.linalg.cond(dictionary.atoms.T @ dictionary.atoms) <= 1e4)
        for (idx, val), (ref_idx, ref_val) in zip(codes.entries, encode(dictionary, table).entries):
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(np.sign(val), np.sign(ref_val))
            assert np.all(np.abs(val - ref_val) <= 1e-12 * np.maximum(1.0, np.abs(ref_val)))

    @staticmethod
    def searches(monkeypatch):
        """Record each lockstep search's rows and the dictionary it codes against."""
        from sparsetag.sparse_coding import _LockstepLasso

        calls = []
        solve = _LockstepLasso.solve

        def spy(self, X):
            calls.append((X.copy(), self.D.copy()))
            return solve(self, X)

        monkeypatch.setattr(_LockstepLasso, "solve", spy)
        return calls

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_most_solves_are_certified(self, monkeypatch, variant):
        table = table_from("w", random_unit_rows(np.random.default_rng(12), 200, 16))
        config = SparseCodingConfig(variant=variant, m=16, lam=0.1, epochs=3, batch_size=64, seed=1)
        searches = self.searches(monkeypatch)
        learn_dictionary(table, config)
        # 6, 57 and 7 of the 800 solves go to the lockstep search, in 1, 3 and 3 searches
        assert sum(len(X) for X, _ in searches) <= 100
        # each search codes against its own dictionary, so no pass searches twice
        assert len({D.tobytes() for _, D in searches}) == len(searches) <= config.epochs + 1

    @staticmethod
    def problem(duplicate=False):
        """D and three signals X."""
        rng = np.random.default_rng(4)
        D = rng.standard_normal((10, 8))
        D /= np.linalg.norm(D, axis=0)
        if duplicate:
            D[:, 7] = D[:, 6]
        return D, random_unit_rows(rng, 3, 10) * 2.0

    def exact(self, D, X, nonneg):
        return np.array([solve_lasso(D, x, self.LAM, nonneg) for x in X])

    def code_from(self, monkeypatch, seed, D, X, nonneg, slices=None):
        """One sparse pass whose seed is ``seed`` itself, over the mini-batches
        ``slices`` (default one), as (codes, entries, the rows of X each
        lockstep search was given); the residuals it returns must be x - D a."""
        from sparsetag import sparse_coding

        monkeypatch.setattr(sparse_coding, "_fista", lambda gram, C, start, *args: start)
        searches = self.searches(monkeypatch)
        entries = [(row.nonzero()[0], row[row.nonzero()[0]]) for row in seed]
        slices = [(0, len(X))] if slices is None else slices
        resid = sparse_coding._code_pass(X, D, D.T @ D, slices, entries, self.LAM, nonneg)
        codes = np.zeros_like(seed)
        for row, (idx, val) in zip(codes, entries):
            row[idx] = val
        np.testing.assert_allclose(resid, X - codes @ D.T, rtol=0.0, atol=1e-12)
        return codes, entries, [searched for searched, _ in searches]

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_correct_support_certifies(self, monkeypatch, nonneg):
        D, X = self.problem()
        exact = self.exact(D, X, nonneg)
        assert np.all(np.count_nonzero(exact, axis=1) >= 2)
        # only the signed support counts, not the seed's magnitudes
        codes, entries, searched = self.code_from(monkeypatch, 0.5 * np.sign(exact), D, X, nonneg)
        assert searched == []
        np.testing.assert_allclose(codes, exact, rtol=0.0, atol=1e-12)
        for row, (idx, val) in zip(exact, entries):
            np.testing.assert_array_equal(idx, row.nonzero()[0])
            assert np.all(val != 0.0)

    @pytest.mark.parametrize("nonneg, fault", [
        (False, "missing"), (True, "missing"), (False, "wrong sign"),
    ])
    def test_wrong_support_goes_to_the_exact_solver(self, monkeypatch, nonneg, fault):
        D, X = self.problem()
        exact = self.exact(D, X, nonneg)
        seed = exact.copy()
        j = np.flatnonzero(seed[1])[0]
        seed[1, j] = 0.0 if fault == "missing" else -seed[1, j]
        codes, entries, searched = self.code_from(monkeypatch, seed, D, X, nonneg)
        assert len(searched) == 1
        np.testing.assert_array_equal(searched[0], X[[1]])
        np.testing.assert_allclose(codes, exact, rtol=0.0, atol=1e-12)
        assert [idx.tolist() for idx, _ in entries] == [r.nonzero()[0].tolist() for r in exact]

    def test_singular_group_goes_to_the_exact_solver(self, monkeypatch):
        D, X = self.problem(duplicate=True)
        # every seed holds atoms 0, 6 and 7, and atoms 6 and 7 are equal
        seed = np.zeros((3, 8))
        seed[:, [0, 6, 7]] = 1.0
        block = (D.T @ D)[np.ix_([0, 6, 7], [0, 6, 7])]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.stack([block] * 3), np.ones((3, 3, 1)))
        codes, entries, searched = self.code_from(monkeypatch, seed, D, X, False)
        assert len(searched) == 1
        np.testing.assert_array_equal(searched[0], X)
        for x, row, (idx, val) in zip(X, codes, entries):
            assert not {6, 7} <= set(idx.tolist())
            assert kkt_violation(D, x, row, self.LAM) <= 1e-7

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_rows_left_by_every_mini_batch_share_one_search(self, monkeypatch, nonneg):
        D, X = self.problem()
        exact = self.exact(D, X, nonneg)
        X, exact = np.concatenate([X, X]), np.concatenate([exact, exact])
        # rows 1 and 5, in the first and last of three mini-batches, have
        # every sign stale; the middle mini-batch certifies whole
        seed = exact.copy()
        seed[[1, 5]] *= -1.0
        codes, entries, searched = self.code_from(
            monkeypatch, seed, D, X, nonneg, slices=[(0, 2), (2, 4), (4, 6)]
        )
        assert len(searched) == 1
        np.testing.assert_array_equal(searched[0], X[[1, 5]])
        np.testing.assert_allclose(codes, exact, rtol=0.0, atol=1e-12)
        assert [idx.tolist() for idx, _ in entries] == [r.nonzero()[0].tolist() for r in exact]

    @staticmethod
    def stale_problem():
        # m = 12 <= k = 30; every row's signed optimum holds 10 or 11 atoms
        rng = np.random.default_rng(0)
        D = rng.standard_normal((30, 12))
        D /= np.linalg.norm(D, axis=0)
        return D, rng.standard_normal((3, 30))

    def stale_seed(self, D, X, nonneg, kind):
        # "negated": every sign stale, the negated signed optimum (under nonneg
        # its positive entries are atoms the optimum pushes below zero);
        # "half": every other atom of the optimum flipped
        if kind == "negated":
            return -self.exact(D, X, False)
        seed = self.exact(D, X, nonneg)
        for row in seed:
            row[np.flatnonzero(row)[::2]] *= -1.0
        return seed

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("kind", ["negated", "half"])
    def test_stale_seed_gets_the_cold_code(self, monkeypatch, nonneg, kind):
        from sparsetag.sparse_coding import _ActiveSetLasso

        D, X = self.stale_problem()
        seed = self.stale_seed(D, X, nonneg, kind)
        codes, entries, searched = self.code_from(monkeypatch, seed, D, X, nonneg)
        assert len(searched) == 1
        np.testing.assert_array_equal(searched[0], X)
        solver = _ActiveSetLasso(D.T @ D, self.LAM, nonneg, D.shape[0])
        for x, row, (idx, val) in zip(X, codes, entries):
            cold_idx, cold_val = solver.solve(x @ D)
            np.testing.assert_array_equal(idx, cold_idx)
            np.testing.assert_allclose(val, cold_val, rtol=0.0, atol=1e-9)
            assert kkt_violation(D, x, row, self.LAM, nonneg=nonneg) <= 1e-7

    @staticmethod
    def dependent_problem():
        # m = 8 <= k = 12; atoms 6 and 7 are one unit vector orthogonal to x,
        # so the optimum leaves them out and stays unique
        rng = np.random.default_rng(1)
        D = rng.standard_normal((12, 8))
        D /= np.linalg.norm(D, axis=0)
        x = D[:, :3] @ np.array([1.0, -0.8, 0.6])
        v = rng.standard_normal(12)
        v -= (v @ x) / (x @ x) * x
        D[:, 6] = D[:, 7] = v / np.linalg.norm(v)
        return D, x

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("support", ["duplicate", "all"])
    def test_dependent_seed_gets_the_cold_code(self, monkeypatch, nonneg, support):
        from sparsetag.sparse_coding import _ActiveSetLasso

        D, x = self.dependent_problem()
        gram, c = D.T @ D, x @ D
        cold_idx, cold_val = _ActiveSetLasso(gram, self.LAM, nonneg, D.shape[0]).solve(c)
        assert not {6, 7} & set(cold_idx.tolist())
        # "duplicate": the optimum's atoms plus both copies of atom 6;
        # "all": all 8 atoms
        idx = np.union1d(cold_idx, [6, 7]) if support == "duplicate" else np.arange(8)
        seed = np.zeros((1, 8))
        seed[0, idx] = 1.0 if nonneg else np.where(np.arange(idx.size) % 2, -1.0, 1.0)
        with pytest.raises(np.linalg.LinAlgError):  # certification's solve cannot run
            np.linalg.solve(gram[np.ix_(idx, idx)], c[idx] - self.LAM * seed[0, idx])
        codes, entries, searched = self.code_from(monkeypatch, seed, D, x[None], nonneg)
        assert len(searched) == 1
        np.testing.assert_array_equal(searched[0], x[None])
        ((got_idx, got_val),) = entries
        np.testing.assert_array_equal(got_idx, cold_idx)
        np.testing.assert_allclose(got_val, cold_val, rtol=0.0, atol=1e-9)
        assert kkt_violation(D, x, codes[0], self.LAM, nonneg=nonneg) <= 1e-7

    def test_zero_gram_gives_no_step(self):
        from sparsetag.sparse_coding import _fista

        start = np.arange(6.0).reshape(2, 3)
        assert _fista(np.zeros((3, 3)), np.ones((2, 3)), start, 0.1, False, 50) is start


class TestLockstepCodes:
    """Each sparse pass codes the rows that certification leaves, at m > k
    every row, by one lockstep feature-sign search in k-space, with no Gram
    matrix; its codes are the per-word search's."""

    @staticmethod
    def dictionary(rng, k, m, variant):
        D = rng.standard_normal((k, m))
        if variant == "sc1":
            return D / np.linalg.norm(D, axis=0)
        return D * rng.uniform(0.3, 1.5, m)  # sc3/sc4 columns are shrunk, not normalized

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_codes_match_the_per_word_search(self, data):
        from sparsetag.sparse_coding import _ActiveSetLasso, _LockstepLasso

        # "wide": k <= 4 with a small lambda takes supports to the rank cap k;
        # "dependent": atom 1 duplicates atom 0 and atom 2 lies in the span
        # of atoms 0 and 3, so rows are handed off on a span entry at m <= k
        shape = data.draw(st.sampled_from(("wide", "narrow", "dependent")), label="shape")
        k = data.draw(st.integers(3 if shape != "dependent" else 4, 8), label="k")
        low, high = {"wide": (2 * k, 4 * k), "narrow": (1, k), "dependent": (4, k)}[shape]
        m = data.draw(st.integers(low, high), label="m")
        variant = data.draw(st.sampled_from(VARIANTS), label="variant")
        lam = data.draw(st.sampled_from((0.02, 0.1, 0.3)), label="lam")
        n = data.draw(st.integers(9, 30), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        D = self.dictionary(rng, k, m, variant)
        if shape == "dependent":
            D[:, 1] = D[:, 0]
            D[:, 2] = D[:, 0] + D[:, 3]
            if variant == "sc1":
                D[:, 2] /= np.linalg.norm(D[:, 2])
        X = rng.standard_normal((n, k))
        nonneg = variant == "sc4"
        # more rows than are searched at once
        entries, residuals = _LockstepLasso(D, lam, nonneg, 8).solve(X)
        solver = _ActiveSetLasso(D.T @ D, lam, nonneg, k)
        for x, (idx, val), resid in zip(X, entries, residuals):
            ref_idx, ref_val = solver.solve(x @ D)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(np.sign(val), np.sign(ref_val))
            alpha = np.zeros(m)
            alpha[idx] = val
            assert kkt_violation(D, x, alpha, lam, nonneg) <= 1e-7
            np.testing.assert_allclose(resid, x - D @ alpha, rtol=0.0, atol=1e-12)
            # both codes are exact to rounding; how far apart rounding puts
            # them grows with the condition number of the support's Gram block
            cond = np.linalg.cond(D[:, idx].T @ D[:, idx]) if idx.size else 1.0
            tol = 1e-12 * max(1.0, cond / 1e3) * np.maximum(1.0, np.abs(ref_val))
            assert np.all(np.abs(val - ref_val) <= tol)

    def test_each_row_takes_the_per_word_search_steps(self):
        """A row needs the per-word search's step budget, the check on a
        fresh residual included; one step less raises LassoConvergenceError
        with the row's iterate and residual correlations."""
        from sparsetag.sparse_coding import LassoConvergenceError, _ActiveSetLasso, _LockstepLasso

        def steps_needed(solve):
            for budget in range(1, 200):
                try:
                    solve(budget)
                    return budget
                except LassoConvergenceError:
                    continue

        rng = np.random.default_rng(55)
        D = self.dictionary(rng, 12, 30, "sc1")
        for x in random_unit_rows(rng, 5, 12):
            gram, c = D.T @ D, x @ D
            budget = steps_needed(lambda s: _ActiveSetLasso(gram, 0.2, False, 12, s).solve(c))
            search = _LockstepLasso(D, 0.2, False, 1, budget)
            search.solve(x[None])
            short = _LockstepLasso(D, 0.2, False, 1, budget - 1)
            with pytest.raises(LassoConvergenceError) as exc:
                short.solve(x[None])
            assert search.fallback is short.fallback is None  # no row was handed off
            alpha, residual = exc.value.alpha, exc.value.residual
            assert alpha.shape == residual.shape == (30,)
            np.testing.assert_allclose(residual, (x - D @ alpha) @ D, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k, m, lam, handed_off", [(64, 128, 0.1, False), (3, 8, 0.02, True)])
    def test_more_atoms_than_dimensions_codes_in_lockstep(self, monkeypatch, k, m, lam,
                                                          handed_off):
        """No FISTA seed; the per-word search sees only the rows handed off
        at the rank cap or on an atom in the support's span."""
        from sparsetag import sparse_coding

        def no_seed(*args):
            raise AssertionError("m > k must not be seeded")

        monkeypatch.setattr(sparse_coding, "_fista", no_seed)
        calls = []
        solve = sparse_coding._ActiveSetLasso.solve
        monkeypatch.setattr(sparse_coding._ActiveSetLasso, "solve",
                            lambda self, c: calls.append(c) or solve(self, c))
        table = table_from("w", random_unit_rows(np.random.default_rng(13), 40, k))
        config = SparseCodingConfig(variant="sc1", m=m, lam=lam, epochs=2, batch_size=16, seed=1)
        dictionary, codes = learn_dictionary(table, config)
        assert len(calls) >= 1 if handed_off else len(calls) == 0
        for x, alpha in zip(table.vectors, codes.to_dense()):
            assert kkt_violation(dictionary.atoms, x, alpha, lam) <= 1e-7


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

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k, m", [(8, 24), (16, 12)])
    def test_objective_is_that_of_the_returned_dictionary_and_codes(self, variant, k, m):
        table = table_from("w", random_unit_rows(np.random.default_rng(15), 64, k))
        config = SparseCodingConfig(variant=variant, m=m, lam=0.1, epochs=3, batch_size=25, seed=4)
        dictionary, codes = learn_dictionary(table, config)
        D = dictionary.atoms
        dense = codes.to_dense()
        residual = table.vectors - dense @ D.T
        direct = np.mean(0.5 * np.sum(residual**2, axis=1) + config.lam * np.abs(dense).sum(axis=1))
        if variant != "sc1":
            direct += config.tau * np.sum(D * D)
        assert dictionary.objectives[-1] == pytest.approx(direct, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k, m", [(8, 24), (16, 12)])
    def test_dictionary_pass_is_given_an_exactly_symmetric_A(self, monkeypatch, variant, k, m):
        """The column update reads row j of A for its column j."""
        from sparsetag import sparse_coding

        symmetric = []
        update = sparse_coding._dictionary_pass

        def spy(D, A, *args):
            symmetric.append(np.array_equal(A, A.T))
            return update(D, A, *args)

        monkeypatch.setattr(sparse_coding, "_dictionary_pass", spy)
        table = table_from("w", random_unit_rows(np.random.default_rng(15), 64, k))
        config = SparseCodingConfig(variant=variant, m=m, lam=0.05, epochs=2, batch_size=25, seed=4)
        learn_dictionary(table, config)
        # three mini-batches, so A sums three products
        assert symmetric == [True] * 6

    @pytest.mark.parametrize("batch_size, n, bound", [(256, 64, 3.0), (128, 300, 4.0)])
    def test_m_by_m_working_set(self, batch_size, n, bound):
        """With m > k the m x m arrays are A and, after the first mini-batch
        of a pass, one a^T a product."""
        m = 512
        table = table_from("w", random_unit_rows(np.random.default_rng(16), n, 16))
        config = SparseCodingConfig(variant="sc1", m=m, lam=0.1, epochs=2,
                                    batch_size=batch_size, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            learn_dictionary(table, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # 1.5 and 3.2 m^2 doubles here; one more m x m array (a Gram matrix,
        # the previous pass's A, a product in the objective) passes the bound
        assert peak < bound * m * m * 8

    def test_paper_shape_working_set(self):
        """At the paper's shape (k = 64, m = 1024, one mini-batch) the traced
        peak is A, the codes and the lockstep search's state, with no Gram
        matrix."""
        m = 1024
        table = table_from("w", random_unit_rows(np.random.default_rng(17), 256, 64))
        config = SparseCodingConfig(variant="sc1", m=m, lam=0.1, epochs=1, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            learn_dictionary(table, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # 1.7 m^2 doubles here, 3.0 with the Gram matrix of the per-word search
        assert peak < 2.25 * m * m * 8

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

    def test_dictionary_lines_hold_each_value_in_17g(self, tmp_path):
        atoms = np.array([[0.1, -0.0, 5e-324], [1e308, -1.0 / 3.0, 2.0]])
        path = tmp_path / "dict.txt"
        save_dictionary(path, Dictionary(atoms=atoms, variant="sc3", lam=0.25, tau=0.0))
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "3 2 sc3 0.25 0"
        assert lines[1:] == [" ".join(f"{v:.17g}" for v in col) for col in atoms.T] + [""]
        assert lines[2] == "-0 -0.33333333333333331"

    @pytest.mark.parametrize("lam, tau", [
        (float("nan"), 0.0), (0.0, 0.0), (-1.0, 0.0), (float("inf"), 0.0),
        (0.1, -1.0), (0.1, float("nan")), (0.1, float("inf")),
    ])
    def test_settings_no_dictionary_file_can_hold_are_rejected(self, lam, tau):
        # every dictionary that saves also loads
        with pytest.raises(SparseCodingError, match="lambda must|tau must"):
            Dictionary(atoms=np.eye(2), variant="sc1", lam=lam, tau=tau)
        with pytest.raises(SparseCodingError, match="lambda must|tau must"):
            SparseCodingConfig(lam=lam, tau=tau)

    @settings(max_examples=200, deadline=None)
    @given(
        atoms=st.integers(1, 4).flatmap(lambda k: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
            min_size=1, max_size=4,
        )),
        variant=st.sampled_from(VARIANTS),
        # the settings a dictionary accepts
        lam=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        tau=st.floats(min_value=0.0, allow_infinity=False),
    )
    def test_dictionary_save_load_round_trip_is_exact(self, tmp_path_factory, atoms, variant,
                                                      lam, tau):
        dictionary = Dictionary(atoms=np.array(atoms).T, variant=variant, lam=lam, tau=tau)
        path = tmp_path_factory.getbasetemp() / "round-trip-dict.txt"
        save_dictionary(path, dictionary)
        again = load_dictionary(path)
        assert again.atoms.shape == dictionary.atoms.shape
        assert again.atoms.tobytes() == dictionary.atoms.tobytes()  # bit for bit, -0.0 too
        assert (again.variant, again.lam, again.tau) == (variant, lam, tau)

    # dictionary-like lines, some well formed, plus arbitrary text and bytes
    _DICT_LINE = st.sampled_from(
        ["2 2 sc1 0.1 0", "1 1 sc2 1 1", "2 1 sc9 0 0", "0 2 sc1 0 0", "1 2 sc1 0.1", "1_0 2 sc1 0 0",
         "99999999999999999999 1 sc1 0 0", "1 2 sc1 nan -1", "1 1 sc4 1e999 0", "2 2 sc3 1 -0.0",
         "1 0", "0 1", "0.5", "nan", "1e999", "x", ""]
    ) | st.text(max_size=8)

    @settings(max_examples=300, deadline=None)
    @given(content=st.binary(max_size=120)
           | st.lists(_DICT_LINE, max_size=5).map(lambda ls: "\n".join(ls).encode("utf-8")))
    def test_arbitrary_bytes_load_dictionary_or_raise(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzzed-dict.txt"
        path.write_bytes(content)
        try:
            dictionary = load_dictionary(path)
        except SparseCodingError:
            return
        assert dictionary.atoms.shape == (dictionary.k, dictionary.m)
        assert np.all(np.isfinite(dictionary.atoms))
        assert dictionary.variant in VARIANTS
        assert math.isfinite(dictionary.lam) and dictionary.lam > 0
        assert math.isfinite(dictionary.tau) and dictionary.tau >= 0

    @pytest.mark.parametrize("name, text, where", [
        ("codes.txt", "w 1_0:0.5\n", ":1: bad entry"),
        ("codes.txt", "w 0:1\nv 1:1_0.5\n", ":2: bad entry"),
        ("codes.txt", "w ٣:0.5\n", ":1: bad entry"),
        ("codes.txt", "w 1:2:3\n", ":1: bad entry"),
        ("dict.txt", "1 2 sc1 0.1 0\n1_0 2\n", ":2: basis 0: could not convert '1_0'"),
        ("dict.txt", "1 1_0 sc1 0.1 0\n1 2\n", ":1: bad dictionary header"),
        # numbers both parse, but are no dictionary's settings or atoms
        ("dict.txt", "1 2 sc1 nan -1\n1 2\n", ":1: lambda must be a finite number > 0"),
        ("dict.txt", "1 2 sc1 0 0\n1 2\n", ":1: lambda must be a finite number > 0"),
        ("dict.txt", "1 2 sc1 0.1 -1\n1 2\n", ":1: tau must be a finite number >= 0"),
        ("dict.txt", "1 2 sc1 0.1 inf\n1 2\n", ":1: tau must be a finite number >= 0"),
        ("dict.txt", "1 2 sc9 0.1 0\n1 2\n", ":1: variant must be one of"),
        ("dict.txt", "2 2 sc1 0.1 0\n1 2\n1 -inf\n", ":3: basis 1: non-finite value"),
        ("dict.txt", "1 2 sc1 0.1 0\nnan 2\n", ":2: basis 0: non-finite value"),
    ])
    def test_python_only_number_forms_rejected(self, tmp_path, name, text, where):
        # int() and float() read "1_0" as 10 and "٣" as 3
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        load = load_codes if name == "codes.txt" else load_dictionary
        with pytest.raises(SparseCodingError) as caught:
            load(path)
        assert str(caught.value).startswith(f"{path}{where}")

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
