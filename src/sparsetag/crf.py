"""Linear-chain CRF: exact inference, elastic-net training, Viterbi decoding.

Potentials are emission scores (sum over a position's real-valued features
of weight * value, per label) plus position-independent label-pair
transition scores. Training minimizes

    sum_sentences (logZ - gold score) + c1*||w||_1 + (c2/2)*||w||_2^2

with an orthant-wise limited-memory quasi-Newton method, so the l1 term
is handled exactly. Inference is one forward-backward in scaled
probabilities (CRFsuite's scaling) over a batch of sentences sorted by
length; a batch whose products underflow is redone as a whole in log
space. Decoding scores each feature block of a sentence once (see
:func:`score_lattice`) and runs Viterbi with ties broken toward the lower
label index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ._base import SparsetagError
from ._textfiles import read_lines

if TYPE_CHECKING:
    import scipy.sparse as sp


class CrfError(SparsetagError, ValueError):
    """Inconsistent labels, features, or model files."""


class CrfTrainError(SparsetagError, RuntimeError):
    """Numerical failure during training."""


@dataclass
class TrainConfig:
    c1: float = 1.0
    c2: float = 0.001
    max_iterations: int = 500
    tolerance: float = 1e-5

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise CrfError("c1 and c2 must be >= 0")
        if self.max_iterations < 1:
            raise CrfError("max_iterations must be >= 1")


# ---------------------------------------------------------------------------
# Lattice-level operations (plain arrays)
# ---------------------------------------------------------------------------


# A forward product below _TINY, or a backward value outside
# [_TINY, 1/_TINY], may have lost digits to underflow, so the whole batch
# is redone in log space. Such values need label scores hundreds of nats
# apart; the benchmark's trained models never come near them.
_TINY = 1e-100


def _scaled_forward_backward(emissions, batch_sizes, transitions):
    """Forward-backward over a packed batch of sentences, in scaled probabilities.

    ``emissions`` (n_positions, L) is in packed order: step t holds the
    t-th position of the ``batch_sizes[t]`` sentences longer than t, longest
    first, so the sentences active at step t are a prefix of those at t-1.
    With Psi = exp(T - max T) and each position's emissions shifted by
    their maximum, every step is one (n_t x L)(L x L) product forward and
    one backward, normalized by the forward scales (Okazaki's CRFsuite).
    If a product may have underflowed, the batch is handed to
    :func:`_log_forward_backward`, so the result equals log-space
    arithmetic for any finite weights.

    Returns (sum of the sentences' logZ, unary marginals (n_positions, L)
    in packed order, pairwise marginals summed over each step's rows
    (max length - 1, L, L)).
    """
    n_pos, n_lab = emissions.shape
    starts = np.concatenate(([0], np.cumsum(batch_sizes)))
    em_max = np.ascontiguousarray(emissions.T).max(axis=0)[:, None]  # faster than axis=1
    q = np.exp(emissions - em_max)
    t_max = transitions.max()
    psi = np.exp(transitions - t_max)

    alpha = np.empty((n_pos, n_lab))
    scale = np.empty(n_pos)
    beta = np.ones((n_pos, n_lab))
    pairs = np.empty((max(len(batch_sizes) - 1, 0), n_lab, n_lab))

    ones = np.ones(n_lab)
    n0 = batch_sizes[0] if n_pos else 0
    np.matmul(q[:n0], ones, out=scale[:n0])
    np.divide(q[:n0], scale[:n0, None], out=alpha[:n0])
    for t in range(1, len(batch_sizes)):
        n, cur, prev = batch_sizes[t], starts[t], starts[t - 1]
        a_t = np.matmul(alpha[prev:prev + n], psi, out=alpha[cur:cur + n])
        if a_t.min() < _TINY:
            return _log_forward_backward(emissions, batch_sizes, transitions)
        a_t *= q[cur:cur + n]
        np.matmul(a_t, ones, out=scale[cur:cur + n])
        a_t /= scale[cur:cur + n, None]

    q /= scale[:, None]                 # from here on q is emissions over scale
    psi_t = psi.T
    for t in range(len(batch_sizes) - 1, 0, -1):
        n, cur, prev = batch_sizes[t], starts[t], starts[t - 1]
        q_t = q[cur:cur + n] * beta[cur:cur + n]
        b_prev = np.matmul(q_t, psi_t, out=beta[prev:prev + n])
        if b_prev.min() < _TINY or b_prev.max() > 1.0 / _TINY:
            return _log_forward_backward(emissions, batch_sizes, transitions)
        np.matmul(alpha[prev:prev + n].T, q_t, out=pairs[t - 1])

    pairs *= psi
    log_z = float(np.log(scale).sum()) + float(em_max.sum()) + (n_pos - n0) * float(t_max)
    return log_z, alpha * beta, pairs


def _log_forward_backward(emissions, batch_sizes, transitions):
    """What :func:`_scaled_forward_backward` returns, computed in log space.

    Exact for any finite weights, and slower. A sentence's logZ is read
    at its step-0 row, where the sum of alpha * beta is Z, and the
    sentence active in row i of any step is the batch's i-th.
    """
    n_pos, n_lab = emissions.shape
    starts = np.concatenate(([0], np.cumsum(batch_sizes)))
    log_alpha = emissions.copy()
    log_beta = np.zeros((n_pos, n_lab))
    for t in range(1, len(batch_sizes)):
        n, cur, prev = batch_sizes[t], starts[t], starts[t - 1]
        log_alpha[cur:cur + n] += np.logaddexp.reduce(
            log_alpha[prev:prev + n, :, None] + transitions, axis=1
        )
    # emissions plus beta at each position, the backward message's input
    log_eb = np.empty((n_pos, n_lab))
    for t in range(len(batch_sizes) - 1, 0, -1):
        n, cur, prev = batch_sizes[t], starts[t], starts[t - 1]
        log_eb[cur:cur + n] = emissions[cur:cur + n] + log_beta[cur:cur + n]
        log_beta[prev:prev + n] = np.logaddexp.reduce(
            transitions + log_eb[cur:cur + n, None, :], axis=2
        )
    n0 = batch_sizes[0] if n_pos else 0
    log_z = np.logaddexp.reduce(log_alpha[:n0] + log_beta[:n0], axis=1)
    sentence = np.arange(n_pos) - np.repeat(starts[:-1], batch_sizes)
    unary = np.exp(log_alpha + log_beta - log_z[sentence, None])
    pairs = np.empty((max(len(batch_sizes) - 1, 0), n_lab, n_lab))
    for t in range(1, len(batch_sizes)):
        n, cur, prev = batch_sizes[t], starts[t], starts[t - 1]
        pairs[t - 1] = np.exp(
            log_alpha[prev:prev + n, :, None] + transitions + log_eb[cur:cur + n, None, :]
            - log_z[:n, None, None]
        ).sum(axis=0)
    return float(log_z.sum()), unary, pairs


def forward_backward(emissions, transitions):
    """(logZ, unary marginals (T,L), pairwise marginals (T-1,L,L)) of one sentence.

    The batch kernel called with one sentence: its per-step pairwise sums
    are then the sentence's pairwise marginals.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    batch_sizes = np.ones(emissions.shape[0], dtype=np.int64)
    return _scaled_forward_backward(emissions, batch_sizes, transitions)


def viterbi_path(emissions, transitions):
    """Highest-scoring label index sequence; ties take the lower index."""
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    n_pos, n_lab = emissions.shape
    back = np.zeros((n_pos, n_lab), dtype=np.int64)
    delta = emissions[0].copy()
    rows = np.arange(n_lab)
    into = np.ascontiguousarray(transitions.T)  # into[j, i]: score of i -> j
    for t in range(1, n_pos):
        cand = into + delta  # cand[j, i]: best path ending in i, then j
        best = cand.argmax(axis=1)
        back[t] = best
        delta = cand[rows, best] + emissions[t]
    path = [int(np.argmax(delta))]
    for t in range(n_pos - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Model and feature compilation
# ---------------------------------------------------------------------------


class CrfModel:
    """Trained weights plus the label and feature vocabularies."""

    def __init__(self, labels, feature_index, emissions, transitions, c1, c2, meta=None):
        self.labels = list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != len(self.labels):
            raise CrfError("duplicate labels")
        self.feature_index = dict(feature_index)
        self.emissions = np.asarray(emissions, dtype=np.float64)
        self.transitions = np.asarray(transitions, dtype=np.float64)
        n_lab = len(self.labels)
        if self.emissions.shape != (len(self.feature_index), n_lab):
            raise CrfError("emission weight shape mismatch")
        if self.transitions.shape != (n_lab, n_lab):
            raise CrfError("transition weight shape mismatch")
        if not (np.all(np.isfinite(self.emissions)) and np.all(np.isfinite(self.transitions))):
            raise CrfError("model weights must be finite")
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.meta = dict(meta or {})
        # line of each [meta] key in the file the model was loaded from
        self.meta_lines = {}
        # emission scores of feature blocks, filled by score_lattice
        self._block_index = {}
        self._kept = []
        self._block_scores = np.empty((0, n_lab))

    def decode(self, sent_features):
        """Predicted label sequence for one sentence's feature blocks.

        ``sent_features`` is what :func:`sparsetag.features.sentence_features`
        returns: per position, a tuple of feature blocks. See
        :func:`score_lattice` for which blocks' scores the model keeps.
        """
        emissions, transitions = score_lattice(self, sent_features)
        return [self.labels[i] for i in viterbi_path(emissions, transitions)]

    def _block_rows(self, blocks):
        """Row of ``self._block_scores`` holding each block's emission scores.

        Unseen tuple blocks get rows from ``len(self._kept)`` on and are
        kept, keyed by ``id``; the list of kept blocks holds them alive, so
        an ``id`` is never reused while its row stands. Any other block
        gets a row after those, which the next call overwrites.
        """
        index = self._block_index
        rows = list(map(index.get, map(id, blocks)))
        if None not in rows:
            return rows
        unseen = {id(b): b for b, row in zip(blocks, rows) if row is None}.values()
        kept = [b for b in unseen if type(b) is tuple]
        new = kept + [b for b in unseen if type(b) is not tuple]
        first, end = len(self._kept), len(self._kept) + len(new)
        if end > len(self._block_scores):
            grown = np.empty((max(end, 2 * len(self._block_scores)), len(self.labels)))
            grown[:first] = self._block_scores[:first]
            self._block_scores = grown
        self._block_scores[first:end] = self._score_blocks(new)
        index.update(zip(map(id, kept), range(first, end)))
        self._kept.extend(kept)
        local = {id(b): row for row, b in enumerate(new, start=first)}
        return [local[id(b)] if row is None else row for b, row in zip(blocks, rows)]

    def _score_blocks(self, blocks):
        """(len(blocks), L) emission scores, each a sum from zero in block order."""
        n_lab = len(self.labels)
        rows, ids, vals = _feature_entries([(b,) for b in blocks], self.feature_index)
        flat = (rows * n_lab)[:, None] + np.arange(n_lab)
        weights = self.emissions[ids]
        weights *= vals[:, None]
        scores = np.bincount(flat.ravel(), weights.ravel(), minlength=len(blocks) * n_lab)
        return scores.reshape(len(blocks), n_lab)


def score_lattice(model: CrfModel, sent_features):
    """Per-position per-label emission scores plus the transition matrix.

    ``sent_features`` holds, per position, a sequence of feature blocks,
    each a sequence of (name, value) pairs; names absent from the model's
    index are skipped. Each block the model has not seen is scored once,
    all of a sentence's in one ``np.bincount`` over the flat indices
    ``block * L + label``. A tuple block is taken to be immutable (as the
    cached per-type blocks of :mod:`sparsetag.features` are): its scores
    are kept on the model for every later call, so they assume the
    weights no longer change. Other blocks, such as the per-token lists
    of fr_w / fr_wc, are scored anew on each call. A position's emissions
    are then the sum of its block rows, added in order from zero by a
    second ``bincount``. A one-block position therefore equals a
    per-feature loop bit for bit; with more blocks the sum is grouped by
    block, which moves it by rounding only.
    """
    n_pos, n_lab = len(sent_features), len(model.labels)
    rows = model._block_rows(list(chain.from_iterable(sent_features)))
    positions = np.repeat(np.arange(n_pos), list(map(len, sent_features)))
    flat = (positions * n_lab)[:, None] + np.arange(n_lab)
    scores = model._block_scores[np.array(rows, dtype=np.int64)]
    emissions = np.bincount(flat.ravel(), scores.ravel(), minlength=n_pos * n_lab)
    return emissions.reshape(n_pos, n_lab), model.transitions


def _feature_entries(positions, feature_index, grow=False):
    """(rows, feature ids, values) arrays of per-position features, in order.

    ``positions`` is a sequence of block sequences, one per row; a row's
    features are its blocks' (name, value) pairs, flattened in order.
    Names missing from ``feature_index`` are skipped, or with ``grow``
    first added to it in order of first occurrence.
    """
    blocks = list(chain.from_iterable(positions))
    pairs = list(chain.from_iterable(blocks))
    names = map(itemgetter(0), pairs)
    if grow:
        names = list(names)
        for name in names:
            if name not in feature_index:
                feature_index[name] = len(feature_index)
    ids = np.fromiter(map(feature_index.get, names, repeat(-1)), dtype=np.int64, count=len(pairs))
    vals = np.fromiter(map(itemgetter(1), pairs), dtype=np.float64, count=len(pairs))
    block_rows = np.repeat(np.arange(len(positions)), list(map(len, positions)))
    rows = np.repeat(block_rows, list(map(len, blocks)))
    found = ids >= 0
    return rows[found], ids[found], vals[found]


@dataclass
class CompiledBatch:
    """Sentences flattened to a sparse design matrix plus gold indices.

    The matrix keeps the sentences' order, so ``matrix.T @ marginals``
    sums in that order. ``packed_rows`` lists its rows in the order the
    forward-backward kernel visits them: sentences sorted by length,
    longest first (ties in input order), and step by step, so step t is
    the t-th position of the ``batch_sizes[t]`` sentences longer than t.
    """

    matrix: sp.csr_matrix            # (n_positions, n_features)
    gold: np.ndarray                 # (n_positions,) label indices
    packed_rows: np.ndarray          # (n_positions,) matrix row of each packed position
    batch_sizes: np.ndarray          # (max length,) sentences active at each step
    trans_counts: np.ndarray         # empirical gold bigram counts (L, L)
    labels: list
    feature_index: dict

    @property
    def n_positions(self):
        return self.gold.shape[0]

    @property
    def n_features(self):
        return len(self.feature_index)


def compile_batch(batch_features, batch_labels, labels=None, feature_index=None,
                  grow_index=True) -> CompiledBatch:
    """Flatten labeled sentences for training or objective evaluation.

    ``batch_features`` holds each sentence's positions as
    :func:`sparsetag.features.sentence_features` returns them; a
    position's blocks are flattened in order, so the matrix does not
    depend on how its features are split into blocks.
    ``labels`` defaults to the sorted gold alphabet. When an existing
    ``feature_index`` is supplied and ``grow_index`` is off, unseen
    features are dropped (inference semantics); otherwise new features
    get ids in order of first occurrence.
    """
    import scipy.sparse as sp  # only training and objective evaluation need it

    if len(batch_features) != len(batch_labels):
        raise CrfError("feature and label sequence counts differ")
    if labels is None:
        labels = sorted({lab for seq in batch_labels for lab in seq})
    label_index = {lab: i for i, lab in enumerate(labels)}
    feature_index = {} if feature_index is None else dict(feature_index)

    gold = []
    starts = []
    n_lab = len(labels)
    trans_counts = np.zeros((n_lab, n_lab))
    for feats_seq, labs_seq in zip(batch_features, batch_labels):
        if len(feats_seq) != len(labs_seq) or not labs_seq:
            raise CrfError("sentence feature/label shape mismatch")
        pos = len(gold)
        for lab in labs_seq:
            if lab not in label_index:
                raise CrfError(f"gold label {lab!r} not in label set")
            gold.append(label_index[lab])
        for prev, y in zip(gold[pos:], gold[pos + 1:]):
            trans_counts[prev, y] += 1.0
        starts.append(pos)
    rows, cols, vals = _feature_entries(
        [feats for feats_seq in batch_features for feats in feats_seq],
        feature_index,
        grow=grow_index,
    )

    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(gold), max(len(feature_index), 1)), dtype=np.float64
    )
    lengths = np.diff(np.asarray(starts + [len(gold)], dtype=np.int64))
    order = np.argsort(-lengths, kind="stable")
    batch_sizes = np.count_nonzero(
        lengths[order][None, :] > np.arange(lengths.max(initial=0))[:, None], axis=1
    )
    first = np.asarray(starts, dtype=np.int64)[order]
    packed_rows = np.concatenate(
        [first[:n] + t for t, n in enumerate(batch_sizes)] or [np.zeros(0, dtype=np.int64)]
    )
    return CompiledBatch(
        matrix=matrix,
        gold=np.asarray(gold, dtype=np.int64),
        packed_rows=packed_rows,
        batch_sizes=batch_sizes,
        trans_counts=trans_counts,
        labels=list(labels),
        feature_index=feature_index,
    )


def _pack(emissions, transitions):
    return np.concatenate([emissions.ravel(), transitions.ravel()])


def _unpack(params, n_feat, n_lab):
    split = n_feat * n_lab
    return params[:split].reshape(n_feat, n_lab), params[split:].reshape(n_lab, n_lab)


def smooth_objective(params, batch: CompiledBatch, c2):
    """Negative log-likelihood plus the l2 term, with its exact gradient.

    The l1 term is intentionally excluded; the optimizer treats it
    through orthant projection. One forward-backward call covers the
    whole batch; emissions are gathered into its packed order and the
    marginals scattered back, so the gradient sums rows in batch order.
    """
    n_feat = max(batch.n_features, 1)
    n_lab = len(batch.labels)
    weights, transitions = _unpack(params, n_feat, n_lab)
    emissions_all = batch.matrix @ weights
    n_pos = batch.n_positions
    log_z, unary, pairs = _scaled_forward_backward(
        emissions_all[batch.packed_rows], batch.batch_sizes, transitions
    )
    marginals = np.empty((n_pos, n_lab))
    marginals[batch.packed_rows] = unary
    trans_expected = pairs.sum(axis=0)
    nll = log_z

    gold_rows = np.arange(n_pos)
    nll -= float(emissions_all[gold_rows, batch.gold].sum())
    nll -= float((transitions * batch.trans_counts).sum())

    marginals[gold_rows, batch.gold] -= 1.0
    grad_w = np.asarray(batch.matrix.T @ marginals)
    grad_t = trans_expected - batch.trans_counts
    value = nll + 0.5 * c2 * float(params @ params)
    grad = _pack(grad_w, grad_t) + c2 * params
    return value, grad


# ---------------------------------------------------------------------------
# Orthant-wise quasi-Newton training
# ---------------------------------------------------------------------------


def _pseudo_gradient(w, g, c1):
    """The pseudo-gradient of f + c1*||w||_1, where g is the gradient of f.

    Off zero the l1 term adds c1*sign(w). At zero it moves g toward 0 by
    at most c1, which is g minus g clipped to [-c1, c1].
    """
    if c1 == 0.0:
        return g.copy()
    return np.where(w == 0, g - np.clip(g, -c1, c1), g + np.copysign(c1, w))


def _lbfgs_direction(pg, memory):
    """The two-loop recursion: minus the inverse-Hessian estimate times pg.

    ``memory`` holds (s, y, 1/(s.y), (s.y)/(y.y)) per correction pair,
    oldest first; the last pair's (s.y)/(y.y) scales the initial estimate.
    """
    q = -pg
    if not memory:
        return q
    alphas = []
    scratch = np.empty_like(q)
    for s, y, rho, _ in reversed(memory):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= np.multiply(a, y, out=scratch)
    q *= memory[-1][3]
    for (s, y, rho, _), a in zip(memory, reversed(alphas)):
        b = rho * float(y @ q)
        q += np.multiply(s, a - b, out=scratch)
    return q


# L-BFGS correction pairs kept by OWL-QN
_MEMORY = 10


def _owlqn(fun, w0, c1, max_iterations, tolerance):
    """Minimize fun(w)[0] + c1*||w||_1 where fun returns (value, gradient).

    Orthant-wise L-BFGS: quasi-Newton directions on the pseudo-gradient,
    projected line search that never crosses orthant boundaries. Returns
    (w, objective, accepted iterations, stop reason); the reason is one of
    ``converged`` (relative objective change <= tolerance),
    ``zero_pseudo_gradient``, ``line_search_failed`` or ``max_iterations``.
    """
    w = w0.copy()
    value, grad = fun(w)
    if not np.isfinite(value):
        raise CrfTrainError("objective diverged at iteration 0")
    total = value + c1 * float(np.abs(w).sum())
    memory = deque(maxlen=_MEMORY)
    iterations = 0
    reason = "max_iterations"
    for iteration in range(1, max_iterations + 1):
        pg = _pseudo_gradient(w, grad, c1)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm < 1e-10:
            reason = "zero_pseudo_gradient"
            break
        direction = _lbfgs_direction(pg, memory)
        # keep only the components that descend along -pg
        direction = np.where(direction * pg < 0, direction, 0.0)
        orthant = np.where(w != 0, np.sign(w), np.sign(-pg))
        step = 1.0 if memory else 1.0 / pg_norm
        accepted = False
        for _ in range(60):
            w_new = w + step * direction
            w_new = np.where(w_new * orthant > 0, w_new, 0.0)
            value_new, grad_new = fun(w_new)
            if not np.isfinite(value_new):
                raise CrfTrainError(f"objective diverged at iteration {iteration}")
            total_new = value_new + c1 * float(np.abs(w_new).sum())
            s = w_new - w
            descent = float(pg @ s)
            if descent < 0 and total_new <= total + 1e-4 * descent:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            reason = "line_search_failed"
            break
        iterations = iteration
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-10:
            memory.append((s, y, 1.0 / sy, sy / float(y @ y)))
        w, grad = w_new, grad_new
        previous_total, total = total, total_new
        if abs(previous_total - total) <= tolerance * max(1.0, abs(total)):
            reason = "converged"
            break
    return w, total, iterations, reason


def train(batch_features, batch_labels, config: TrainConfig, meta=None) -> CrfModel:
    """Fit CRF weights on labeled, feature-extracted sentences.

    Deterministic: label order is sorted, feature ids follow first
    occurrence, and all reductions have fixed structure. The model's meta
    records why OWL-QN stopped (``owlqn_stop``) and how many iterations it
    accepted (``owlqn_iterations``).
    """
    if not batch_features:
        raise CrfError("training set is empty")
    batch = compile_batch(batch_features, batch_labels)
    for lab in batch.labels:
        if any(ch.isspace() for ch in lab):
            raise CrfError(f"label {lab!r} contains whitespace")
    n_feat = max(batch.n_features, 1)
    n_lab = len(batch.labels)
    w0 = np.zeros(n_feat * n_lab + n_lab * n_lab)

    def fun(params):
        return smooth_objective(params, batch, config.c2)

    w, _, iterations, reason = _owlqn(fun, w0, config.c1, config.max_iterations, config.tolerance)
    meta = dict(meta or {}, owlqn_stop=reason, owlqn_iterations=str(iterations))
    emissions, transitions = _unpack(w, n_feat, n_lab)
    if batch.n_features == 0:
        emissions = np.zeros((0, n_lab))
        feature_index = {}
    else:
        feature_index = batch.feature_index
    return CrfModel(
        labels=batch.labels,
        feature_index=feature_index,
        emissions=emissions.copy(),
        transitions=transitions.copy(),
        c1=config.c1,
        c2=config.c2,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

_MODEL_MAGIC = "sparsetag-crf 1"


def save_model(path, model: CrfModel) -> None:
    """Sectioned text format; weights at 17 significant digits.

    Only nonzero emission weights are written, which under l1 training
    keeps files compact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MODEL_MAGIC + "\n")
        fh.write("[meta]\n")
        fh.write(f"c1 {model.c1:.17g}\n")
        fh.write(f"c2 {model.c2:.17g}\n")
        fh.write("labels " + " ".join(model.labels) + "\n")
        for key in sorted(model.meta):
            fh.write(f"{key} {model.meta[key]}\n")
        fh.write("[transitions]\n")
        _write_weights(fh, model.labels, model.labels, model.transitions)
        fh.write("[emissions]\n")
        fids = np.fromiter(model.feature_index.values(), dtype=np.int64, count=len(model.feature_index))
        _write_weights(fh, list(model.feature_index), model.labels, model.emissions[fids])


def _write_weights(fh, row_names, labels, weights):
    """One 'row label weight' line per nonzero entry, in row-major order."""
    rows, cols = np.nonzero(weights)
    for row, col, weight in zip(rows.tolist(), cols.tolist(), weights[rows, cols].tolist()):
        fh.write(f"{row_names[row]} {labels[col]} {weight:.17g}\n")


def _model_number(text, path, lineno, finite=False):
    try:
        value = float(text)
    except ValueError:
        raise CrfError(f"{path}:{lineno}: {text!r} is not a number") from None
    if finite and not math.isfinite(value):
        raise CrfError(f"{path}:{lineno}: weight {text!r} is not finite")
    return value


_WEIGHT_LINES = {
    "[transitions]": "'from_label to_label weight'",
    "[emissions]": "'feature label weight'",
}


def load_model(path) -> CrfModel:
    """Read a model written by :func:`save_model`.

    A malformed line (wrong field count, a weight that is not a finite
    number, a label missing from the ``labels`` line) raises
    ``CrfError("<path>:<line>: ...")``.
    """
    lines = read_lines(path, CrfError)
    if next(lines, (1, ""))[1] != _MODEL_MAGIC:
        raise CrfError(f"{path}: not a model file")
    section = None
    c1 = c2 = None
    labels = None
    meta = {}
    meta_lines = {}
    weights = {"[transitions]": [], "[emissions]": []}
    for lineno, line in lines:
        if not line:
            continue
        if line in ("[meta]", "[transitions]", "[emissions]"):
            # exact match only: feature names may start with '['
            section = line
            continue
        if section == "[meta]":
            key, _, value = line.partition(" ")
            if key == "c1":
                c1 = _model_number(value, path, lineno)
            elif key == "c2":
                c2 = _model_number(value, path, lineno)
            elif key == "labels":
                labels = value.split(" ")
            else:
                meta[key] = value
                meta_lines[key] = lineno
        elif section is None:
            raise CrfError(f"{path}:{lineno}: content outside any section")
        else:
            fields = line.split(" ")
            if len(fields) != 3:
                raise CrfError(
                    f"{path}:{lineno}: expected {_WEIGHT_LINES[section]}, "
                    f"found {len(fields)} field(s)"
                )
            weight = _model_number(fields[2], path, lineno, finite=True)
            weights[section].append((lineno, fields[0], fields[1], weight))
    if c1 is None or c2 is None or labels is None:
        raise CrfError(f"{path}: incomplete [meta] section")
    label_index = {lab: i for i, lab in enumerate(labels)}

    def label_id(lab, lineno):
        if lab not in label_index:
            raise CrfError(f"{path}:{lineno}: label {lab!r} is not in the model's labels")
        return label_index[lab]

    n_lab = len(labels)
    transitions = np.zeros((n_lab, n_lab))
    for lineno, a, b, weight in weights["[transitions]"]:
        transitions[label_id(a, lineno), label_id(b, lineno)] = weight
    feature_index = {}
    for _, name, _, _ in weights["[emissions]"]:
        if name not in feature_index:
            feature_index[name] = len(feature_index)
    emissions = np.zeros((len(feature_index), n_lab))
    for lineno, name, lab, weight in weights["[emissions]"]:
        emissions[feature_index[name], label_id(lab, lineno)] = weight
    model = CrfModel(
        labels=labels,
        feature_index=feature_index,
        emissions=emissions,
        transitions=transitions,
        c1=c1,
        c2=c2,
        meta=meta,
    )
    model.meta_lines = meta_lines
    return model
