"""Dictionary learning and lasso encoding of dense word vectors.

Three objective variants over signals x_i (the embedding of word i):

  sc1  mean_i [ 0.5*||x_i - D a_i||^2 + lam*||a_i||_1 ],
       dictionary columns constrained to the unit l2 ball;
  sc3  same data term plus tau*||D||_F^2 instead of the norm constraint;
  sc4  sc3 with the codes constrained to be nonnegative.

The sparse step is an l1-regularized least-squares problem solved exactly
by an active-set (feature-sign) search. ``encode`` and ``solve_lasso`` run
it word by word on the precomputed Gram matrix. Dictionary learning codes
the words of each sparse pass together. When the dictionary has no more
atoms than dimensions (m <= k), each mini-batch is first seeded by a fixed
number of batched FISTA iterations from the words' previous codes, and the
Newton point on each seed's signed support is kept when it passes the
exact solver's own stopping tests. Every other word (at m > k, the
paper's shape, every word) goes to one search per pass that runs the
words in lockstep in k-space: one matrix product gives every row's
correlations each round, and no Gram matrix is formed. The dictionary
step is block coordinate descent over columns on accumulated sufficient
statistics. Every solver output carries an exact KKT certificate,
checkable with :func:`kkt_violation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._base import VARIANTS, SparsetagError
from ._textfiles import parse_numbers, read_lines

# Coefficients below this magnitude are stored as exact zeros.
NONZERO_EPS = 1e-10

# Stationarity target on zero coordinates; stricter than the 1e-6
# certificate so emitted codes pass it with margin.
_KKT_TOL = 1e-7

# Largest support residual |rho_j - lam*sign(a_j)| at which the signed
# active set counts as exactly stationary.
_SUPPORT_TOL = 1e-9

# FISTA iterations that seed each mini-batch's codes in learn_dictionary
# when m <= k. On the seed-1 ner-tag inputs (522 words, m = k = 64, sc4,
# one BLAS thread), 30 / 50 / 70 / 100 iterations left 342 / 114 / 62 / 23
# of the 1,566 solves to the exact solver, and learn_dictionary took a
# median 0.18-0.23 / 0.11-0.13 / 0.13-0.15 / 0.13-0.16 s in process,
# against 0.57 s with every solve per word.
_SEED_ITERATIONS = 50

# An atom whose squared distance from the span of the active atoms is at
# most this fraction of its squared norm counts as lying in that span.
_SPAN_EPS = 1e-10

# Rows that _LockstepLasso searches at once. Its state takes
# 8*k*(k + min(k, m)) bytes a row, 64 KB at the paper's k = 64. Rows
# searched together grow their supports in step, so the padded products
# waste little, and more rows share each round's fixed cost: on the
# dict-paper inputs (one BLAS thread) 64 / 96 / 128 rows coded both passes
# in 0.167 / 0.147 / 0.136 s. The whole 256-row mini-batch at once was
# about as fast as 128 rows, but its 16 MB of state raised learn-dict's
# peak RSS from 54 to 62 MB.
_LOCKSTEP_ROWS = 128


class SparseCodingError(SparsetagError, ValueError):
    """Invalid configuration or degenerate input.

    ``row`` is the index of the rejected entry when a :class:`SparseCodes`
    entry is invalid, so a reader can name the entry's line.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class LassoConvergenceError(SparsetagError, RuntimeError):
    """The active-set lasso solver exhausted its step budget.

    Carries the last iterate and the residual correlations so callers can
    inspect how far from stationarity the solve stopped.
    """

    def __init__(self, message, alpha=None, residual=None):
        super().__init__(message)
        self.alpha = alpha
        self.residual = residual


def _check_settings(variant, lam, tau):
    """Raise SparseCodingError unless these are a dictionary's valid settings."""
    if variant not in VARIANTS:
        raise SparseCodingError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not (math.isfinite(lam) and lam > 0):
        raise SparseCodingError(f"lambda must be a finite number > 0, got {lam!r}")
    if not (math.isfinite(tau) and tau >= 0):
        raise SparseCodingError(f"tau must be a finite number >= 0, got {tau!r}")


@dataclass
class SparseCodingConfig:
    variant: str = "sc1"
    m: int = 1024
    lam: float = 0.1
    tau: float = 1e-5
    epochs: int = 10
    batch_size: int = 256
    seed: int = 42

    def __post_init__(self):
        _check_settings(self.variant, self.lam, self.tau)
        if self.m < 1:
            raise SparseCodingError("m must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise SparseCodingError("epochs and batch_size must be >= 1")

    @property
    def nonneg(self) -> bool:
        return self.variant == "sc4"


@dataclass
class Dictionary:
    """Learned basis matrix with the settings it was trained under.

    ``atoms`` has shape (k, m): column j is basis vector j. For sc1 every
    column has l2 norm at most 1. ``objectives`` holds the per-epoch
    objective trace when produced by :func:`learn_dictionary`.
    """

    atoms: np.ndarray
    variant: str
    lam: float
    tau: float
    objectives: list = field(default=None, repr=False)

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=np.float64)
        if self.atoms.ndim != 2 or self.atoms.shape[1] < 1:
            raise SparseCodingError("dictionary must be a k x m matrix with m >= 1")
        if not np.all(np.isfinite(self.atoms)):
            raise SparseCodingError("dictionary contains non-finite values")
        _check_settings(self.variant, self.lam, self.tau)

    @property
    def k(self) -> int:
        return self.atoms.shape[0]

    @property
    def m(self) -> int:
        return self.atoms.shape[1]


class SparseCodes:
    """Per-word sparse coefficient vectors aligned to a vocabulary.

    Each entry is an (indices, values) pair with strictly increasing
    indices and nonzero finite values.
    """

    def __init__(self, words, entries, m):
        if len(words) != len(entries):
            raise SparseCodingError("words and entries differ in length")
        if m < 1:
            raise SparseCodingError("m must be >= 1")
        self.words = list(words)
        self.m = int(m)
        self.entries = []
        self._by_word = {}
        for row, (word, (idx, val)) in enumerate(zip(self.words, entries)):
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=np.float64)
            if idx.shape != val.shape or idx.ndim != 1:
                raise SparseCodingError(f"bad sparse entry for {word!r}", row)
            if idx.size:
                if np.any(np.diff(idx) <= 0):
                    raise SparseCodingError(f"indices not strictly increasing for {word!r}", row)
                if idx[0] < 0 or idx[-1] >= m:
                    raise SparseCodingError(f"index out of range for {word!r}", row)
                if not np.all(np.isfinite(val)) or np.any(val == 0.0):
                    raise SparseCodingError(f"zero or non-finite coefficient for {word!r}", row)
            self.entries.append((idx, val))
            if word in self._by_word:
                raise SparseCodingError(f"duplicate word {word!r}", row)
            self._by_word[word] = (idx, val)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self._by_word

    def get(self, word, lowercase_fallback=False):
        entry = self._by_word.get(word)
        if entry is None and lowercase_fallback:
            entry = self._by_word.get(word.lower())
        return entry

    def total_nonzeros(self) -> int:
        return sum(idx.size for idx, _ in self.entries)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((len(self.words), self.m))
        for row, (idx, val) in enumerate(self.entries):
            dense[row, idx] = val
        return dense


@dataclass
class BasisReport:
    """Per-basis l2 norms and usage frequencies, plus their correlation."""

    norms: np.ndarray
    frequencies: np.ndarray
    correlation: float


def kkt_violation(D, x, alpha, lam, nonneg=False):
    """Stationarity certificate for a lasso solution.

    Zero coordinates must satisfy |d_j^T r| <= lam (one-sided
    d_j^T r <= lam under nonnegativity) and support coordinates
    d_j^T r = lam * sign(alpha_j), where r = x - D alpha. Returns the
    maximum violation across coordinates.
    """
    D = np.asarray(D, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    grad = D.T @ (x - D @ alpha)
    on = alpha > 0 if nonneg else alpha != 0
    off_zero = grad - lam if nonneg else np.abs(grad) - lam
    violation = np.where(on, np.abs(grad - lam * np.sign(alpha)), np.maximum(off_zero, 0.0))
    return float(violation.max(initial=0.0))


class _ActiveSetLasso:
    """Feature-sign search (Lee et al. 2007) against one Gram matrix G.

    ``solve(c)`` minimizes 0.5 a^T G a - c^T a + lam*||a||_1 (a >= 0 when
    nonneg) for c = D^T x, tracking rho = c - G a. While the signed support
    A is not stationary it takes the exact Newton step on A, cut at the
    first zero crossing, whose coordinate leaves A; once A is stationary it
    adds the zero coordinate with the largest |rho_j| (rho_j under nonneg)
    if that exceeds lam. Each move descends, so the search ends; it returns
    once the KKT conditions hold against a freshly computed rho.

    A holds independent atoms in insertion order with R = L^-1, the inverse
    of the Cholesky factor of G_AA (G_AA^-1 = R^T R): adding an atom appends
    a row to R, dropping one rotates R's later rows back to triangular
    form. An atom in the span of A enters along the null direction of the
    enlarged block, which lowers the objective linearly until a coefficient
    of A reaches zero and leaves.
    """

    def __init__(self, gram, lam, nonneg, rank, max_steps=None):
        m = gram.shape[0]
        self.gram = gram
        self.diag = gram.diagonal().copy()
        self.lam = lam
        self.nonneg = nonneg
        self.max_steps = 4 * m + 16 if max_steps is None else max_steps
        self.cap = max(1, min(rank, m))
        self.inv_chol = np.zeros((self.cap, self.cap))
        self.rows = np.zeros((self.cap, m))  # rows[i] = G[act[i]]
        self.act = np.zeros(self.cap, dtype=np.int64)
        self.coef = np.zeros(self.cap)
        self.sign = np.zeros(self.cap)
        self.size = 0

    def solve(self, c):
        """Codes for one signal as (strictly increasing indices, values)."""
        lam = self.lam
        self.size = 0
        rho = c.copy()
        fresh = stationary = True
        for _ in range(self.max_steps):
            s = self.size
            act = self.act[:s]
            if not stationary:
                resid = rho[act] - lam * self.sign[:s]
                if s and np.abs(resid).max() > _SUPPORT_TOL:
                    inv = self.inv_chol[:s, :s]
                    stationary = self._advance(inv.T @ (inv @ resid), rho)
                    fresh = False
                    continue
                stationary = True
            score = rho.copy() if self.nonneg else np.abs(rho)
            score[act] = -np.inf
            j = int(score.argmax())
            if score[j] > lam + _KKT_TOL:
                sign = 1.0 if (self.nonneg or rho[j] > 0.0) else -1.0
                stationary = self._enter(j, sign, rho)
                fresh = False
            elif fresh:
                order = act.argsort()
                return act[order], self.coef[:s][order]
            else:
                rho = c - self.coef[:s] @ self.rows[:s]
                fresh, stationary = True, False
        alpha = np.zeros(c.size)
        alpha[self.act[: self.size]] = self.coef[: self.size]
        raise LassoConvergenceError(
            f"lasso failed to converge within {self.max_steps} steps",
            alpha=alpha,
            residual=c - alpha @ self.gram,
        )

    def _append(self, j):
        """Add atom j to the support, or return w = R G[A, j] if in its span."""
        s = self.size
        inv = self.inv_chol[:s, :s]
        w = inv @ self.rows[:s, j]
        pivot_sq = self.diag[j] - w.dot(w)
        if s == self.cap or pivot_sq <= _SPAN_EPS * self.diag[j]:
            return w
        pivot = math.sqrt(pivot_sq)
        self.inv_chol[s, :s] = (w @ inv) / -pivot
        self.inv_chol[s, s] = 1.0 / pivot
        self.rows[s] = self.gram[j]
        self.act[s] = j
        self.coef[s] = 0.0
        self.size = s + 1
        return None

    def _enter(self, j, sign, rho):
        """Bring zero coordinate j into the support; True if it ends stationary."""
        coef_j = 0.0
        while (w := self._append(j)) is not None:
            # Moving a_j by t*sign and a_A by -t*sign*R^T w keeps D a fixed.
            s = self.size
            move = -sign * (self.inv_chol[:s, :s].T @ w)
            coef = self.coef[:s]
            hits = (coef * move < 0.0).nonzero()[0]
            if hits.size == 0:
                raise LassoConvergenceError(f"atom {j} is in the span but no move reaches zero")
            t_all = -coef[hits] / move[hits]
            pos = int(hits[t_all.argmin()])
            t = t_all.min()
            step = t * move
            step[pos] = -coef[pos]
            rho -= step @ self.rows[:s] + (t * sign) * self.gram[j]
            coef += step
            coef_j += t * sign
            self._drop(pos)
        s = self.size - 1
        self.coef[s] = coef_j
        self.sign[s] = sign
        if coef_j != 0.0:
            return False
        # The rest of A is stationary, so the exact step is along
        # R^T e_s = R_ss R[s] and a_j takes the sign of rho_j.
        row = self.inv_chol[s, : s + 1]
        return self._advance((rho[j] - self.lam * sign) * row[s] * row, rho)

    def _advance(self, delta, rho):
        """Move the support by delta, cut at the first zero crossing; True if uncut."""
        s = self.size
        coef = self.coef[:s]
        new = coef + delta
        crossed = (new * self.sign[:s] <= 0.0).nonzero()[0]
        if crossed.size:
            t_all = coef[crossed] / (coef[crossed] - new[crossed])
            pos = int(crossed[t_all.argmin()])
            delta = t_all.min() * delta
            delta[pos] = -coef[pos]
        rho -= delta @ self.rows[:s]
        coef += delta
        if crossed.size:
            self._drop(pos)
        return not crossed.size

    def _drop(self, pos):
        """Remove support position pos from the support and from R.

        With column pos deleted, Givens rotations pairing row pos with each
        later row in turn collect the weights r = R[pos:, pos] in row pos,
        which is then discarded (G^-1 loses r r^T / |r|^2). In closed form
        they use the running norms of r and running r-weighted row sums.
        """
        s = self.size
        if pos + 1 < s:
            inv = self.inv_chol
            weights = inv[pos:s, pos].copy()
            inv[pos:s, pos : s - 1] = inv[pos:s, pos + 1 : s]
            rows = inv[pos:s, : s - 1]
            norms = np.sqrt(np.cumsum(weights * weights))
            sums = np.cumsum(weights[:, None] * rows, axis=0)
            inv[pos : s - 1, : s - 1] = (
                norms[:-1, None] * rows[1:] - (weights[1:] / norms[:-1])[:, None] * sums[:-1]
            ) / norms[1:, None]
            for buf in (self.rows, self.act, self.coef, self.sign):
                buf[pos : s - 1] = buf[pos + 1 : s]
        self.size = s - 1


class _LockstepLasso:
    """Feature-sign search (Lee et al. 2007) for many signals at once, in k-space.

    ``solve(X)`` codes every row x of X as ``_ActiveSetLasso`` does, move for
    move, against D (k x m) itself, so no Gram matrix is formed. Besides
    its signed support A and coefficients a, a row keeps R with
    R G_AA R^T = I (so G_AA^-1 = R^T R), U = R D_A^T, whose rows are
    orthonormal, and its residual r = x - D a. Each round computes
    the correlations rho = r D of every live row in one matrix product, and
    each row takes one step:

    - while A is not stationary, the Newton step R^T R (rho_A - lam s_A);
    - else, if the largest |rho_j| (rho_j under nonneg) exceeds
      lam + _KKT_TOL, the entry of atom j: R gains the row [-w R, 1] / p
      and U the row u = (d_j - w U) / p, where w = U d_j = R G_Aj and
      p^2 = |d_j|^2 - |w|^2, and a moves by c times R's new row, with
      c = (rho_j - lam s_j) / p, so r drops by c u. No mask is needed in
      the argmax: support coordinates sit within _SUPPORT_TOL of lam;
    - else, if r was updated in place since it was last computed as
      x - D_A a, it is computed afresh; otherwise the row is done.

    A step is cut at the first zero crossing, whose atom leaves A (see
    ``_drop``). A row whose entering atom lies in the span of A, or whose A
    already holds k atoms, is solved cold by ``_ActiveSetLasso`` on a Gram
    matrix formed only then.

    X is searched ``rows`` rows at a time. A finished row's place goes to
    the last live row, so the live rows stay a prefix of the state arrays
    and each round works on views. State past a row's support is stale:
    rounds mask it, and each append writes a whole row of R and U.
    """

    def __init__(self, D, lam, nonneg, rows, max_steps=None):
        k, m = D.shape
        self.D = D
        self.atoms = np.ascontiguousarray(D.T)
        self.norms_sq = np.einsum("ij,ij->j", D, D)
        self.lam = lam
        self.nonneg = nonneg
        self.max_steps = 4 * m + 16 if max_steps is None else max_steps
        self.cap = cap = min(k, m)
        self.R = np.zeros((rows, cap, cap))
        self.U = np.zeros((rows, cap, k))
        self.act = np.zeros((rows, cap), dtype=np.intp)
        self.sign = np.zeros((rows, cap))
        self.coef = np.zeros((rows, cap))
        self.size = np.zeros(rows, dtype=np.intp)
        self.resid = np.zeros((rows, k))
        self.row = np.zeros(rows, dtype=np.intp)  # the row of X each place holds
        self.stationary = np.zeros(rows, dtype=bool)
        self.fresh = np.zeros(rows, dtype=bool)  # resid computed as x - D_A a
        self.rho = np.empty((rows, m))
        self.places = np.arange(max(rows, cap + 1))
        self.fallback = None

    def solve(self, X):
        """Codes and residuals x - D a for the rows of X, as (entries, residuals).

        ``entries`` holds each row's (strictly increasing indices, values).
        """
        total, rows = len(X), len(self.size)
        entries, residuals = [None] * total, np.empty((total, self.D.shape[0]))
        for first in range(0, total, rows):
            n = min(rows, total - first)
            self.row[:n] = np.arange(first, first + n)
            self.resid[:n] = X[first : first + n]
            self.sign[:n] = self.coef[:n] = self.size[:n] = 0
            self.stationary[:n] = self.fresh[:n] = True
            for _ in range(self.max_steps):  # every live row takes one step a round
                n = self._round(X, n, entries, residuals)
                if not n:
                    break
            else:
                alpha = np.zeros(self.D.shape[1])
                alpha[self.act[0, : self.size[0]]] = self.coef[0, : self.size[0]]
                raise LassoConvergenceError(
                    f"lasso failed to converge within {self.max_steps} steps",
                    alpha=alpha,
                    residual=(X[self.row[0]] - self.D @ alpha) @ self.D,
                )
        return entries, residuals

    def _round(self, X, n, entries, residuals):
        """One step of each of the first n rows; returns how many stay live."""
        lam, places = self.lam, self.places
        live = places[:n]
        rho = np.matmul(self.resid[:n], self.D, out=self.rho[:n])
        # j = argmax |rho_j| (rho_j under nonneg), the first on a tie
        j = rho.argmax(axis=1)
        best = rho[live, j]
        if self.nonneg:
            s_j = np.ones(n)
        else:
            low = rho.argmin(axis=1)
            best_low = -rho[live, low]
            below = (best_low > best) | ((best_low == best) & (low < j))
            j = np.where(below, low, j)
            best = np.maximum(best, best_low)
            s_j = np.where(below, -1.0, 1.0)
        sizes = self.size[:n].copy()
        top = int(sizes.max())
        width = min(top + 1, self.cap)
        valid = places[:width] < sizes[:, None]
        # each row's coefficient step, then its residual's decrease
        step = np.zeros((n, width + self.D.shape[0]))
        newton = self._newton(rho, n, top, valid, step)
        still = self.stationary[:n].copy()
        enter = still & (best > lam + _KKT_TOL)
        grow, handed = self._enter(j, best - lam, s_j, enter, sizes, top, valid, step)
        if newton.size or grow.size:
            self._advance(n, width, np.concatenate((newton, grow)), step)
        done = np.flatnonzero(still & ~enter)
        finished, stale = done[self.fresh[done]], done[~self.fresh[done]]
        if stale.size:  # the search ends only on a freshly computed residual
            a = self.coef[stale, None, :top]
            atoms = self.atoms[self.act[stale, :top]]
            self.resid[stale] = X[self.row[stale]] - np.matmul(a, atoms)[:, 0]
            self.fresh[stale] = True
            self.stationary[stale] = False
        for i in finished.tolist():
            s = self.size[i]
            order = self.act[i, :s].argsort()
            entries[self.row[i]] = self.act[i, :s][order], self.coef[i, :s][order]
        residuals[self.row[finished]] = self.resid[finished]
        for i in handed.tolist():
            if self.fallback is None:
                gram = self.D.T @ self.D
                self.fallback = _ActiveSetLasso(gram, lam, self.nonneg, self.cap, self.max_steps)
            x = X[self.row[i]]
            idx, val = entries[self.row[i]] = self.fallback.solve(x @ self.D)
            residuals[self.row[i]] = x - val @ self.atoms[idx]
        gone = np.concatenate((finished, handed)) if handed.size else finished
        if gone.size:  # the last live rows move into the finished rows' places
            keep = n - gone.size
            stays = np.ones(n, dtype=bool)
            stays[gone] = False
            holes, movers = gone[gone < keep], keep + np.flatnonzero(stays[keep:])
            top = int(self.size[movers].max(initial=0))
            self.R[holes, :top] = self.R[movers, :top]
            self.U[holes, :top] = self.U[movers, :top]
            for buf in (self.act, self.sign, self.coef, self.size, self.resid, self.row,
                        self.stationary, self.fresh):
                buf[holes] = buf[movers]
            n = keep
        return n

    def _newton(self, rho, n, top, valid, step):
        """Write the Newton step of each row off its support's stationary point.

        A row whose support residual |rho_A - lam s_A| is within
        _SUPPORT_TOL counts as stationary instead. Returns the rows that step.
        """
        if self.stationary[:n].all():
            return self.places[:0]
        rows = np.flatnonzero(~self.stationary[:n])
        g = rho[rows[:, None], self.act[rows, :top]] - self.lam * self.sign[rows, :top]
        g *= valid[rows, :top]
        far = np.abs(g).max(axis=1) > _SUPPORT_TOL
        self.stationary[rows[~far]] = True
        rows, g = rows[far], g[far]
        inv = self.R[rows, :top, :top]
        z = (np.matmul(inv, g[:, :, None])[:, :, 0] * valid[rows, :top])[:, None, :]
        step[rows, :top] = np.matmul(z, inv)[:, 0]
        step[rows, -self.D.shape[0] :] = np.matmul(z, self.U[rows, :top])[:, 0]
        return rows

    def _enter(self, j, excess, s_j, enter, sizes, top, valid, step):
        """Append atom j[i] to each entering row i and write its step.

        ``excess`` is |rho_j| - lam. The candidates are worked out for every
        live row, against views of the state. Returns (the rows that grow,
        the rows handed to the per-word search).
        """
        none = self.places[:0]
        if not enter.any():
            return none, none
        n, cap = len(sizes), self.cap
        d_j = self.atoms[j]
        w = np.matmul(self.U[:n, :top], d_j[:, :, None])[:, :, 0]
        w *= valid[:, :top]
        scale = self.norms_sq[j]
        pivot_sq = scale - np.einsum("ij,ij->i", w, w)
        grows = enter & (sizes < cap) & (pivot_sq > _SPAN_EPS * scale)
        grow, handed = np.flatnonzero(grows), none
        if grow.size < np.count_nonzero(enter):
            handed = np.flatnonzero(enter & ~grows)
        if not grow.size:
            return grow, handed
        pivot = np.sqrt(pivot_sq[grow])[:, None]
        w = w[:, None, :]
        new_u = (d_j[grow] - np.matmul(w, self.U[:n, :top])[grow, 0]) / pivot
        new_r = np.zeros((grow.size, cap))
        new_r[:, :top] = np.matmul(w, self.R[:n, :top, :top])[grow, 0] / -pivot
        at = sizes[grow]
        new_r[self.places[: grow.size], at] = 1.0 / pivot[:, 0]
        s_j = s_j[grow]
        self.R[grow, at] = new_r
        self.U[grow, at] = new_u
        self.act[grow, at] = j[grow]
        self.sign[grow, at] = s_j
        self.size[grow] = at + 1
        c = (s_j * excess[grow])[:, None] / pivot
        width = valid.shape[1]
        step[grow, :width] = c * new_r[:, :width]
        step[grow, width:] = c * new_u
        return grow, handed

    def _advance(self, n, width, moved, step):
        """Apply the moved rows' steps, each cut at its first zero crossing."""
        before = self.coef[:n, :width]
        after = before + step[:, :width]
        support = self.places[:width] < self.size[:n, None]
        crossed = (after * self.sign[:n, :width] <= 0.0) & support
        cut = np.flatnonzero(crossed.any(axis=1))
        if cut.size:
            a0, a1 = before[cut], after[cut]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_all = np.where(crossed[cut], a0 / (a0 - a1), np.inf)
            pos = t_all.argmin(axis=1)
            first = self.places[: cut.size], pos
            step[cut] *= t_all[first][:, None]
            step[cut, pos] = -a0[first]
        before += step[:, :width]
        self.resid[:n] -= step[:, width:]
        self.stationary[moved] = True
        self.fresh[moved] = False
        if cut.size:
            self._drop(cut, pos)
            self.stationary[cut] = False

    def _drop(self, rows, pos):
        """Remove support position pos[i] of row rows[i], whose coefficient is zero.

        The last support atom takes the dropped atom's place, and the
        dropped atom's column c of R moves last. A Householder reflection
        of the support's rows of R and U then maps c to a multiple of the
        last unit vector: the reflected R still satisfies R G_AA R^T = I,
        U = R D_A^T still holds, and the last row and column, which now
        carry the dropped atom alone, are cut off. R need not stay
        triangular, since an append only needs R G_AA R^T = I.
        """
        last = self.size[rows] - 1
        pick = self.places[: rows.size]
        top = int(last.max()) + 1
        inv = self.R[rows, :top, :top]
        col = inv[pick, :, pos] * (self.places[:top] <= last[:, None])
        inv[pick, :, pos] = inv[pick, :, last]
        for buf in (self.act, self.sign, self.coef):
            buf[rows, pos] = buf[rows, last]
        self.sign[rows, last] = self.coef[rows, last] = 0.0
        norm = np.sqrt(np.einsum("ij,ij->i", col, col))
        col[pick, last] += np.copysign(norm, col[pick, last])
        scale = (-2.0 / np.einsum("ij,ij->i", col, col))[:, None, None] * col[:, :, None]
        vec = col[:, None, :]
        inv += scale * np.matmul(vec, inv)
        inv[pick, :, last] = 0.0
        self.R[rows, :top, :top] = inv
        self.U[rows, :top] += scale * np.matmul(vec, self.U[rows, :top])
        self.size[rows] = last


def solve_lasso(D, x, lam, nonneg=False, max_steps=None):
    """Minimize 0.5*||x - D a||^2 + lam*||a||_1 (a >= 0 when nonneg).

    Exact active-set (feature-sign) search on the Gram matrix D^T D; the
    result satisfies the KKT conditions to 1e-7. ``max_steps`` caps the
    active-set moves (default 4*m + 16) and LassoConvergenceError is
    raised when it runs out.
    """
    D = np.asarray(D, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if D.ndim != 2 or x.ndim != 1 or D.shape[0] != x.shape[0]:
        raise SparseCodingError("dictionary/signal shape mismatch")
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(x))):
        raise SparseCodingError("non-finite input to solve_lasso")
    if not lam > 0:
        raise SparseCodingError("lambda must be > 0")
    solver = _ActiveSetLasso(D.T @ D, lam, nonneg, D.shape[0], max_steps)
    alpha = np.zeros(D.shape[1])
    idx, val = solver.solve(x @ D)
    alpha[idx] = val
    return alpha


def _significant(idx, val):
    keep = np.abs(val) >= NONZERO_EPS
    return idx[keep], val[keep]


def _fista(gram, C, start, lam, nonneg, iterations):
    """Run accelerated proximal gradient (FISTA) on every row of C at once.

    Each row of C is the c of one lasso problem 0.5 a^T G a - c^T a +
    lam*||a||_1 (a >= 0 when nonneg). The run starts at ``start`` with
    step 1/lambda_max(G), and every iteration is one matrix product for
    the whole block. A zero Gram matrix gives no step, so ``start`` is
    returned unchanged.
    """
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    if not lam_max > 0.0:
        return start
    step = 1.0 / lam_max
    cut = step * lam
    x = y = start
    t = 1.0
    for _ in range(iterations):
        z = y - step * (y @ gram - C)
        if nonneg:
            new = np.maximum(z - cut, 0.0)
        else:
            new = np.sign(z) * np.maximum(np.abs(z) - cut, 0.0)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = new + ((t - 1.0) / t_next) * (new - x)
        x, t = new, t_next
    return x


def _certify(gram, C, seed, lam, nonneg):
    """Exact codes on the seeds' signed supports, and which rows they solve.

    For each row, the Newton point G_SS^-1 (c_S - lam s_S) on the signed
    support S of its seed is one stacked ``np.linalg.solve`` per support
    size, without padding, so a row's values depend only on its own c and
    S. A row is certified when it passes the tests that end
    ``_ActiveSetLasso.solve``, against a fresh rho = c - G a: every sign
    kept, the support residual within _SUPPORT_TOL, and no zero coordinate
    above lam + _KKT_TOL. A singular group certifies none of its rows.
    Returns (codes, certified); the codes of uncertified rows are
    meaningless.
    """
    on = seed > 0.0 if nonneg else seed != 0.0
    sign = np.where(on, np.sign(seed), 0.0)
    sizes = on.sum(axis=1)
    codes = np.zeros_like(seed)
    certified = np.ones(len(seed), dtype=bool)
    for size in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == size)
        idx = on[rows].nonzero()[1].reshape(rows.size, size)
        pick = rows[:, None], idx
        try:
            coef = np.linalg.solve(
                gram[idx[:, :, None], idx[:, None, :]], (C[pick] - lam * sign[pick])[:, :, None]
            )
        except np.linalg.LinAlgError:
            certified[rows] = False
            continue
        codes[pick] = coef[:, :, 0]
    rho = C - codes @ gram
    with np.errstate(invalid="ignore"):
        kept = np.all(~on | (codes * sign > 0.0), axis=1)
        resid = np.where(on, np.abs(rho - lam * sign), 0.0).max(axis=1)
        score = np.where(on, -np.inf, rho if nonneg else np.abs(rho)).max(axis=1)
    certified &= kept & (resid <= _SUPPORT_TOL) & (score <= lam + _KKT_TOL)
    return codes, certified


def _dense(entries, m):
    """The (indices, values) entries as the rows of one dense block."""
    block = np.zeros((len(entries), m))
    for row, (idx, val) in enumerate(entries):
        block[row, idx] = val
    return block


def _code_pass(X, D, gram, slices, entries, lam, nonneg):
    """Code every row of X against D into ``entries``; returns the residuals x - D a.

    With a Gram matrix D^T D (m <= k), each mini-batch X[lo:hi] of
    ``slices`` is seeded by _SEED_ITERATIONS FISTA iterations from its
    rows' current entries, and the rows that ``_certify`` accepts keep
    their Newton points. Every other row, or every row when ``gram`` is
    None, is coded by one cold ``_LockstepLasso`` search, whose state is
    freed on return. ``entries`` holds each row's (strictly increasing
    indices, values).
    """
    m = D.shape[1]
    resid = np.empty_like(X)
    search = np.arange(len(X))
    if gram is not None:
        left = []
        for lo, hi in slices:
            C = X[lo:hi] @ D
            seed = _fista(gram, C, _dense(entries[lo:hi], m), lam, nonneg, _SEED_ITERATIONS)
            codes, certified = _certify(gram, C, seed, lam, nonneg)
            rows = np.flatnonzero(certified)
            for row in rows.tolist():
                idx = codes[row].nonzero()[0]
                entries[lo + row] = idx, codes[row, idx]
            resid[lo + rows] = X[lo + rows] - codes[rows] @ D.T
            left.append(lo + np.flatnonzero(~certified))
        search = np.concatenate(left)
    if search.size:
        search_rows = min(_LOCKSTEP_ROWS, search.size)
        found, resid[search] = _LockstepLasso(D, lam, nonneg, search_rows).solve(X[search])
        for row, entry in zip(search.tolist(), found):
            entries[row] = entry
    return resid


def _dictionary_pass(D, A, B, variant, tau, n_signals):
    """One block-coordinate pass over dictionary columns.

    Each column update is the exact minimizer of the accumulated
    quadratic: projection onto the unit l2 ball for sc1, ridge-shrunk
    least squares for sc3/sc4. Unused columns (A_jj = 0) are left alone
    for sc1 and shrink toward zero under the ridge term otherwise.
    """
    m = D.shape[1]
    diag_a = np.ascontiguousarray(np.diag(A))
    ridge = 2.0 * tau * n_signals
    # A is exactly symmetric (every a^T a product goes through syrk), so
    # its contiguous row j is its column j
    for j in range(m):
        ajj = diag_a[j]
        if variant == "sc1":
            if ajj <= 0.0:
                continue
            u = D[:, j] + (B[:, j] - D @ A[j]) / ajj
            norm = math.sqrt(float(u @ u))
            if norm > 1.0:
                u = u / norm
            D[:, j] = u
        else:
            denom = ajj + ridge
            if denom <= 0.0:
                continue
            D[:, j] = (B[:, j] - D @ A[j] + ajj * D[:, j]) / denom


def _objective(D, quad, l1_sum, lam, tau, variant, n_signals):
    """Mean-per-signal objective from sum |x - D a|^2 (``quad``) and sum |a|_1."""
    obj = 0.5 * quad / n_signals + lam * l1_sum / n_signals
    if variant != "sc1":
        obj += tau * float(np.sum(D * D))
    return obj


def _objective_from_stats(D, A, B, sum_sq, l1_sum, lam, tau, variant, n_signals):
    """Mean-per-signal objective from accumulated sufficient statistics.

    The trace term sum (D^T D)*A is reduced as sum (D A)*D, a k x m
    temporary, so no m x m product is formed.
    """
    trace = np.einsum("ij,ij->", D @ A, D)
    quad = sum_sq - 2.0 * float(np.sum(D * B)) + float(trace)
    return _objective(D, quad, l1_sum, lam, tau, variant, n_signals)


def _init_dictionary(X, m, variant, rng):
    """Seeded Gaussian columns; unit-norm for sc1; dead columns re-seeded."""
    n, k = X.shape
    D = rng.standard_normal((k, m))
    norms = np.linalg.norm(D, axis=0)
    for j in np.nonzero(norms == 0.0)[0]:
        D[:, j] = X[rng.integers(n)]
    if variant == "sc1":
        norms = np.linalg.norm(D, axis=0)
        D /= np.maximum(norms, 1e-300)
    return D


def _batch_slices(n, batch_size):
    return [(b, min(b + batch_size, n)) for b in range(0, n, batch_size)]


def learn_dictionary(table, config: SparseCodingConfig):
    """Alternating optimization of the configured variant's objective.

    Per epoch: every word's code is re-solved against the epoch-start
    dictionary while sufficient statistics A = sum a a^T and B = sum x a^T
    accumulate per mini-batch; the dictionary then takes one
    block-coordinate pass per processed mini-batch. Both half-steps are
    exact minimizations, so the epoch objective trace is non-increasing. A
    final sparse refit against the finished dictionary produces the
    returned codes.

    When m <= k, each mini-batch starts from one dense block of the words'
    codes in the previous sparse pass (zeros in the first), moved by
    _SEED_ITERATIONS FISTA iterations (Beck & Teboulle 2009) with step
    1/lambda_max(D^T D). Each row's Newton point on its seed's signed
    support is certified together with the others (see ``_certify``) and
    kept only if it passes the tests the exact solver stops on. Every other
    row, and at m > k every row, is coded by one cold lockstep feature-sign
    search per pass in k-space (see ``_LockstepLasso``), which forms no Gram
    matrix. Either way every code meets the same KKT tolerances.

    The m x m arrays are A and, when m <= k, the Gram matrix D^T D that
    FISTA and certification use, which is computed once from the initial
    dictionary and rewritten in place after each epoch's dictionary update.
    A is the first mini-batch's a^T a; each later mini-batch's product is
    added to it through one temporary. A is formed only after the pass's
    search has freed its state, and is released once its epoch's objective
    is taken, before the next pass builds its own. The objective's trace
    term sum (D^T D)*A is reduced as sum (D A)*D, a k x m temporary. The
    final refit's objective comes from the residuals x - D a, so that pass
    builds no A.

    Returns (Dictionary, SparseCodes); the Dictionary carries the
    objective trace (one value per epoch plus the final refit).
    """
    X = np.asarray(table.vectors, dtype=np.float64)
    if not np.any(X):
        raise SparseCodingError("embedding table is all zeros; nothing to learn")
    n, k = X.shape
    m = config.m
    rng = np.random.default_rng(config.seed)
    D = _init_dictionary(X, m, config.variant, rng)
    sum_sq = float(np.sum(X * X))
    slices = _batch_slices(n, config.batch_size)
    entries = [(np.zeros(0, dtype=np.int64), np.zeros(0))] * n
    objectives = []
    # With m <= k the Gram matrix can be full rank, the lasso is then
    # strongly convex and FISTA converges linearly: on the ner-tag inputs
    # (m = k = 64, one BLAS thread) FISTA and certification code the three
    # passes in 0.13 s, the lockstep search in 0.33 s. With m > k it is
    # singular and the batch products grow with m^2: on the dict-paper
    # inputs (m = 1024, k = 64) 50 batched iterations of the first pass
    # cost 0.71-0.79 s and certified 57 of 256 rows, while the lockstep
    # search codes both passes in 0.13-0.14 s, against 0.31 s word by word.
    gram = D.T @ D if m <= k else None
    lam = config.lam

    def code(label):
        """Code every word against D into ``entries``; returns the residuals."""
        resid = _code_pass(X, D, gram, slices, entries, lam, config.nonneg)
        if not np.all(np.isfinite(resid)):
            raise SparseCodingError(f"non-finite codes during {label}")
        return resid

    for epoch in range(1, config.epochs + 1):
        code(f"epoch {epoch}")
        B = np.zeros((k, m))
        l1_sum = 0.0
        for lo, hi in slices:
            alpha = _dense(entries[lo:hi], m)
            if lo:
                A += alpha.T @ alpha
            else:  # the first product is A itself, not added to a zero block
                A = alpha.T @ alpha
            B += X[lo:hi].T @ alpha
            l1_sum += float(np.abs(alpha).sum())
        for _ in slices:
            _dictionary_pass(D, A, B, config.variant, config.tau, n)
        if not np.all(np.isfinite(D)):
            raise SparseCodingError(f"non-finite dictionary after epoch {epoch}")
        if gram is not None:  # the updated dictionary's Gram matrix serves the next pass
            np.matmul(D.T, D, out=gram)
        obj = _objective_from_stats(D, A, B, sum_sq, l1_sum, lam, config.tau, config.variant, n)
        del A  # the next pass builds its own
        if not math.isfinite(obj):
            raise SparseCodingError(f"objective diverged at epoch {epoch}")
        objectives.append(obj)

    resid = code("final refit")
    quad = float(np.einsum("ij,ij->", resid, resid))
    l1_sum = sum(float(np.abs(val).sum()) for _, val in entries)
    objectives.append(_objective(D, quad, l1_sum, lam, config.tau, config.variant, n))
    entries = [_significant(idx, val) for idx, val in entries]
    dictionary = Dictionary(
        atoms=D,
        variant=config.variant,
        lam=config.lam,
        tau=config.tau,
        objectives=objectives,
    )
    codes = SparseCodes(table.words, entries, m)
    return dictionary, codes


def encode(dictionary: Dictionary, table) -> SparseCodes:
    """Sparse-code every table row against a fixed dictionary.

    Uses the dictionary's own lambda and variant. Each word is solved on
    its own by the exact solver, with no batched seeding, so a row's code
    does not depend on the other rows of the table.
    """
    X = np.asarray(table.vectors, dtype=np.float64)
    if X.shape[1] != dictionary.k:
        raise SparseCodingError(
            f"dimension mismatch: table k={X.shape[1]}, dictionary k={dictionary.k}"
        )
    D = dictionary.atoms
    nonneg = dictionary.variant == "sc4"
    solver = _ActiveSetLasso(D.T @ D, dictionary.lam, nonneg, dictionary.k)
    entries = [_significant(*solver.solve(x @ D)) for x in X]
    return SparseCodes(table.words, entries, dictionary.m)


def sparsity_level(codes: SparseCodes, m: int) -> float:
    """Fraction of zero entries in the code matrix: 1 - nnz/(m*|V|)."""
    if m < 1:
        raise SparseCodingError("m must be >= 1")
    if len(codes) == 0:
        return 1.0
    return 1.0 - codes.total_nonzeros() / (m * len(codes))


def basis_statistics(dictionary: Dictionary, codes: SparseCodes) -> BasisReport:
    """Per-basis l2 norm, usage frequency, and their Pearson correlation."""
    m = dictionary.m
    if codes.m != m:
        raise SparseCodingError(f"codes have m={codes.m}, dictionary m={m}")
    norms = np.linalg.norm(dictionary.atoms, axis=0)
    counts = np.zeros(m)
    for idx, _ in codes.entries:
        counts[idx] += 1.0
    frequencies = counts / len(codes) if len(codes) else counts
    correlation = _pearson(norms, frequencies)
    return BasisReport(norms=norms, frequencies=frequencies, correlation=correlation)


def _pearson(a, b) -> float:
    """Pearson correlation; 0.0 when either side has no variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom < 1e-300:
        return 0.0
    return float(np.clip((da @ db) / denom, -1.0, 1.0))


def save_dictionary(path, dictionary: Dictionary) -> None:
    """Write header `m k variant lambda tau` then one line per basis."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{dictionary.m} {dictionary.k} {dictionary.variant} "
            f"{dictionary.lam:.17g} {dictionary.tau:.17g}\n"
        )
        line = " ".join(["%.17g"] * dictionary.k) + "\n"
        for column in map(tuple, dictionary.atoms.T.tolist()):
            fh.write(line % column)


def load_dictionary(path) -> Dictionary:
    """Read a dictionary written by :func:`save_dictionary`.

    A malformed header (not `m k variant lambda tau` with m, k >= 1, or
    settings :class:`Dictionary` rejects) or basis line (wrong count, a
    value that is not a finite number) raises
    ``SparseCodingError("<path>:<line>: ...")``.
    """
    lines = read_lines(path, SparseCodingError)
    header = next(lines, (1, ""))[1].split()
    try:
        if len(header) != 5:
            raise ValueError
        (m, k), (lam, tau) = parse_numbers(header[:2], int), parse_numbers(header[3:])
        if m < 1 or k < 1:
            raise ValueError
    except ValueError:
        raise SparseCodingError(
            f"{path}:1: bad dictionary header, expected `m k variant lambda tau`, m, k >= 1"
        ) from None
    try:
        _check_settings(header[2], lam, tau)
    except SparseCodingError as exc:
        raise SparseCodingError(f"{path}:1: {exc}") from None
    columns = []  # grown line by line: the header's m is not trusted
    for j in range(m):
        fields = next(lines, (j + 2, ""))[1].split()
        try:
            if len(fields) != k:
                raise ValueError(f"has {len(fields)} values, expected {k}")
            columns.append(parse_numbers(fields))
            if not all(map(math.isfinite, columns[-1])):
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise SparseCodingError(f"{path}:{j + 2}: basis {j}: {exc}") from None
    atoms = np.array(columns, dtype=np.float64).T.copy()
    return Dictionary(atoms=atoms, variant=header[2], lam=lam, tau=tau)


def save_codes(path, codes: SparseCodes) -> None:
    """One line per word: `word idx:coef ...`, 6 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, (idx, val) in zip(codes.words, codes.entries):
            parts = [word] + [f"{i}:{v:.6g}" for i, v in zip(idx.tolist(), val.tolist())]
            fh.write(" ".join(parts) + "\n")


def load_codes(path, m=None) -> SparseCodes:
    """Read a codes file; ``m`` is inferred from the largest index if absent.

    An entry that :class:`SparseCodes` rejects raises
    ``SparseCodingError("<path>:<line>: ...")``.
    """
    words = []
    entries = []
    linenos = []
    max_idx = -1
    for lineno, line in read_lines(path, SparseCodingError):
        fields = line.split(" ")
        if not fields or not fields[0]:
            raise SparseCodingError(f"{path}:{lineno}: missing word")
        words.append(fields[0])
        linenos.append(lineno)
        parts = [part.split(":") for part in fields[1:] if part]
        bad = next((":".join(p) for p in parts if len(p) != 2), None)
        if bad is not None:
            raise SparseCodingError(f"{path}:{lineno}: bad entry {bad!r}, expected 'index:value'")
        try:
            idx = parse_numbers([p[0] for p in parts], int)
            val = parse_numbers([p[1] for p in parts])
        except ValueError as exc:
            raise SparseCodingError(f"{path}:{lineno}: bad entry: {exc}") from None
        if idx:
            max_idx = max(max_idx, max(idx))
        try:
            entries.append((np.array(idx, dtype=np.int64), np.array(val)))
        except OverflowError:
            raise SparseCodingError(f"{path}:{lineno}: index out of range") from None
    if m is None:
        m = max(max_idx + 1, 1)
    try:
        return SparseCodes(words, entries, m)
    except SparseCodingError as exc:
        if exc.row is None:
            raise
        raise SparseCodingError(f"{path}:{linenos[exc.row]}: {exc}") from None
