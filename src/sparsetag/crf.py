"""Linear-chain CRF: exact inference, elastic-net training, Viterbi decoding.

Potentials are emission scores (sum over a position's real-valued features
of weight * value, per label) plus position-independent label-pair
transition scores. Training minimizes

    sum_sentences (logZ - gold score) + c1*||w||_1 + (c2/2)*||w||_2^2

with an orthant-wise limited-memory quasi-Newton method, so the l1 term
is handled exactly. Inference is one forward-backward in scaled
probabilities (CRFsuite's scaling) over a batch of sentences sorted by
length; a batch whose products underflow is redone as a whole in log
space. Sentences come as type ids of a
:class:`sparsetag.features.WordTypes` table, so the CRF works per
(window offset, type). Training multiplies by a design matrix factored
through the table of the types in use and their attributes: when at
least 5 % of that table is nonzero, as for m = 64 codes, through the
table itself with one BLAS product per direction
(:class:`TypeTableMatrix`), else through the distinct (offset, type)
blocks with row gathers (:class:`BlockMatrix`), as for m = 1024 codes
or the feature-rich templates. Both forms are NumPy alone, and neither
depends on the BLAS thread count. Tagging scores each type in use once
per offset (:func:`score_sentences`), then runs one Viterbi over the
whole input, packed as in training, with ties broken toward the lower
label index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ._base import SparsetagError
from ._textfiles import parse_numbers, read_lines


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
        for name in ("c1", "c2", "tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise CrfError(f"{name} must be a finite number >= 0, got {value!r}")
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


def _viterbi(emissions, batch_sizes, transitions):
    """Best label path of each sentence of a packed batch; ties take the lower index.

    ``emissions`` and ``batch_sizes`` are packed as for
    :func:`_scaled_forward_backward`. The forward pass keeps, per position
    and label j, the best score of a path ending there: the emission plus
    the maximum over the previous label i of delta[i] + T[i, j]. The
    backward pass starts each sentence at the ``argmax`` of its last
    position and steps back to the ``argmax`` over i of the same sums
    delta[i] + T[i, j], for the label j it holds, so ``argmax`` gives the
    lower index on ties and no choice is stored for the labels off the
    path. The scores are kept in ``emissions``, which is overwritten.
    Returns the (n_positions,) label indices in packed order.
    """
    n_pos, n_lab = emissions.shape
    starts = np.concatenate(([0], np.cumsum(batch_sizes)))
    delta = emissions
    for t in range(1, len(batch_sizes)):
        n, cur, prev = batch_sizes[t], starts[t], starts[t - 1]
        before = delta[prev:prev + n]
        best = before[:, 0, None] + transitions[0]
        for i in range(1, n_lab):
            np.maximum(best, before[:, i, None] + transitions[i], out=best)
        delta[cur:cur + n] += best
    into = transitions.T
    path = np.empty(n_pos, dtype=np.intp)
    label = np.empty(batch_sizes[0] if n_pos else 0, dtype=np.intp)  # of each sentence at step t
    for t in range(len(batch_sizes) - 1, -1, -1):
        n, cur = batch_sizes[t], starts[t]
        on = batch_sizes[t + 1] if t + 1 < len(batch_sizes) else 0  # sentences longer than t + 1
        label[on:n] = delta[cur + on:cur + n].argmax(axis=1)
        label[:on] = (delta[cur:cur + on] + into[label[:on]]).argmax(axis=1)
        path[cur:cur + n] = label[:n]
    return path


def viterbi_path(emissions, transitions):
    """Highest-scoring label index sequence of one sentence; ties take the lower index."""
    emissions = np.array(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    return _viterbi(emissions, np.ones(len(emissions), dtype=np.int64), transitions).tolist()


def _packing(lengths):
    """(packed_rows, batch_sizes) of sentences of these lengths, stored one after another.

    Sentences are sorted by length, longest first (ties in input order),
    and laid out step by step, so step t is the t-th position of the
    ``batch_sizes[t]`` sentences longer than t; ``packed_rows`` gives the
    stored row of each packed position.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    batch_sizes = np.count_nonzero(
        lengths[order][None, :] > np.arange(lengths.max(initial=0))[:, None], axis=1
    )
    first = (np.cumsum(lengths) - lengths)[order]
    packed_rows = np.concatenate(
        [first[:n] + t for t, n in enumerate(batch_sizes)] or [np.zeros(0, dtype=np.int64)]
    )
    return packed_rows, batch_sizes


# ---------------------------------------------------------------------------
# Model and feature compilation
# ---------------------------------------------------------------------------


class CrfModel:
    """Trained weights, the label and feature vocabularies, and meta."""

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
        if not (math.isfinite(self.c1) and math.isfinite(self.c2) and self.c1 >= 0 and self.c2 >= 0):
            raise CrfError("c1 and c2 must be finite and >= 0")
        self.meta = dict(meta or {})
        # line of each [meta] key in the file the model was loaded from
        self.meta_lines = {}

    def decode(self, emissions, lengths=None):
        """Predicted labels of sentences, from their (positions, L) emission scores.

        ``emissions`` holds the positions of sentences of the given
        ``lengths`` (default: one sentence) one after another, as
        :func:`score_sentences` returns them. One Viterbi pass runs over
        the whole batch, packed as in training; returns one flat list of
        labels, in position order.
        """
        emissions = np.asarray(emissions, dtype=np.float64)
        packed_rows, batch_sizes = _packing([len(emissions)] if lengths is None else lengths)
        best = np.empty(len(emissions), dtype=np.intp)
        # the packed copy is the kernel's to overwrite
        best[packed_rows] = _viterbi(emissions[packed_rows], batch_sizes, self.transitions)
        return list(map(self.labels.__getitem__, best.tolist()))


def _window_sources(types, batch_ids):
    """The batch's positions and, per window offset, where each position reads.

    Returns (ids, sources): every position's type id in order, and a
    (len(types.offsets), positions) array holding, for offset o, the
    position p + o of each position p, or -1 where p + o falls outside
    p's sentence.
    """
    lengths = np.fromiter(map(len, batch_ids), dtype=np.int64, count=len(batch_ids))
    ids = np.fromiter(chain.from_iterable(batch_ids), dtype=np.int64, count=int(lengths.sum()))
    at = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    length = np.repeat(lengths, lengths)
    sources = np.full((len(types.offsets), len(ids)), -1, dtype=np.int64)
    for row, (offset, _) in zip(sources, types.offsets):
        inside = np.flatnonzero((at + offset >= 0) & (at + offset < length))
        row[inside] = inside + offset
    return ids, sources


def _type_entries(types, type_ids):
    """The rows of the given types, one after another: (row, attribute id, value) per entry."""
    attrs = list(map(types.attrs.__getitem__, type_ids))
    counts = np.fromiter(map(len, attrs), dtype=np.int64, count=len(attrs))
    n = int(counts.sum())
    return (
        np.repeat(np.arange(len(attrs)), counts),
        np.fromiter(chain.from_iterable(attrs), dtype=np.int64, count=n),
        np.fromiter(chain.from_iterable(map(types.values.__getitem__, type_ids)),
                    dtype=np.float64, count=n),
    )


def _feature_ids(names, feature_index, grow=False):
    """Each name's id in ``feature_index``, or -1.

    With ``grow``, missing names are first added, in order.
    """
    if grow:
        for name in names:
            if name not in feature_index:
                feature_index[name] = len(feature_index)
    return np.fromiter(map(feature_index.get, names, repeat(-1)), dtype=np.int64, count=len(names))


def score_sentences(model: CrfModel, types, batch_ids):
    """The (positions, L) per-label emission scores of every position of the sentences.

    ``batch_ids`` holds sentences as
    :func:`sparsetag.features.sentence_features` returns them, as ids of
    the types in ``types`` (a :class:`sparsetag.features.WordTypes`).
    Only the types and attributes in use are read. Per window offset, each
    distinct attribute is resolved once, to its weight row or, for a name
    absent from the model's index, a zero row, and one (types + 1) x L
    table scores each type's block there: per label, ``np.bincount`` adds
    its entries in order from zero, and the last row is zero. A position's
    emissions are the table rows of the types at its offsets added in the
    string order of the offset tags, from zero, with the zero row where
    the offset falls outside the sentence. That is the order of a
    per-block loop that skips absent names (a finite value times a zero
    weight adds a zero), so a one-block position equals a per-feature loop
    bit for bit. One label at a time, no temporary grows with the entries
    times the labels.
    """
    ids, sources = _window_sources(types, batch_ids)
    n_lab = len(model.labels)
    used = np.flatnonzero(np.bincount(ids, minlength=len(types)))
    local = np.empty(len(types), dtype=np.int64)
    local[used] = np.arange(len(used))
    table_row = np.append(local[ids], len(used))  # of each position; source -1 reads the zero row
    row, attr, value = _type_entries(types, used.tolist())
    attrs = np.flatnonzero(np.bincount(attr, minlength=len(types.attr_names)))
    names = list(map(types.attr_names.__getitem__, attrs.tolist()))
    attr_row = np.empty(len(types.attr_names), dtype=np.int64)
    attr_row[attrs] = np.arange(len(attrs))
    attr = attr_row[attr]
    emissions = np.zeros((len(ids), n_lab))
    table = np.empty((len(used) + 1, n_lab))
    for (_, tag), source in zip(types.offsets, sources):
        features = _feature_ids([tag + name for name in names], model.feature_index)
        found = features >= 0
        weights = np.zeros((n_lab, len(attrs)))
        weights[:, found] = model.emissions[features[found]].T
        for label, column in enumerate(weights):
            table[:, label] = np.bincount(row, column[attr] * value, minlength=len(used) + 1)
        emissions += table[table_row[source]]
    return emissions


# rows gathered and added per np.add.reduceat call, so that each call's
# gathered rows stay in cache: one call over all rows took 2.5 times as
# long on the fr_wc feature-to-block sums (and on ner-tag's, which now
# go through TypeTableMatrix)
_CHUNK_ROWS = 4096


class _GatherSum:
    """Row sums out[g] = sum over k in group g of values[k] * x[source[k]].

    Built once from (source, group) arrays sorted by group, for an ``x`` of
    ``n_sources`` rows; values of None stand for all ones. A call gathers
    the rows of groups with several members and adds each group's run
    with ``np.add.reduceat``, in chunks of whole groups. A group with one
    member is its row of ``x`` (times its value), the same bits as a
    one-row sum. Unless every group has several members, one more gather
    puts each group's row in place, from the one-member rows, the sums
    and a zero row for groups with no member.
    """

    def __init__(self, source, group, n_groups, n_sources, values=None):
        counts = np.bincount(group, minlength=n_groups)
        if values is not None and np.all(values == 1.0):
            values = None
        single = (counts == 1)[group]
        multi = np.flatnonzero(counts > 1)
        self.direct = 0 < len(multi) == n_groups
        source_m = source[~single]
        values_m = None if values is None else values[~single, None]
        starts = np.cumsum(counts[multi]) - counts[multi]
        self.chunks = []
        first = 0
        while first < len(multi):
            last = max(first + 1, int(np.searchsorted(starts, starts[first] + _CHUNK_ROWS)))
            lo, hi = starts[first], starts[last] if last < len(multi) else len(source_m)
            self.chunks.append((
                source_m[lo:hi],
                starts[first:last] - lo,
                None if values is None else values_m[lo:hi],
            ))
            first = last
        if values is None:
            # one-member groups read their row of x in place
            self.single_source = self.single_values = None
            n_rows, single_rows = n_sources, source[single]
        else:
            self.single_source, self.single_values = source[single], values[single, None]
            n_rows = len(self.single_source)
            single_rows = np.arange(n_rows)
        self.index = np.full(n_groups, n_rows + len(multi), dtype=np.int64)
        self.index[counts == 1] = single_rows
        self.index[multi] = np.arange(n_rows, n_rows + len(multi))

    def __call__(self, x):
        """The (n_groups, L) sums over rows of ``x`` (n_sources, L)."""
        sums = []
        for source, starts, values in self.chunks:
            rows = np.take(x, source, axis=0)
            if values is not None:
                rows *= values
            sums.append(np.add.reduceat(rows, starts, axis=0))
        if self.direct:
            return sums[0] if len(sums) == 1 else np.concatenate(sums)
        if self.single_source is None:
            singles = x
        else:
            singles = np.take(x, self.single_source, axis=0)
            singles *= self.single_values
        stack = np.concatenate([singles, *sums, np.zeros((1, x.shape[1]))])
        return np.take(stack, self.index, axis=0)


class _DesignMatrix:
    """What both forms of the design matrix share: ``X.T @ M`` calls ``_rmatmul``."""

    @property
    def T(self):
        return _Transposed(self)


class _Transposed:
    def __init__(self, matrix):
        self._matrix = matrix

    def __matmul__(self, marginals):
        """X.T @ marginals (n_features, L), for marginals (n_positions, L)."""
        return self._matrix._rmatmul(marginals)


class BlockMatrix(_DesignMatrix):
    """The (positions x features) design matrix, factored through feature blocks.

    X = P C, where C (blocks x features) holds each distinct non-empty
    block's (feature id, value) entries and P (positions x blocks) a 1 for
    each (position, block) pair. ``X @ W`` adds entries into block rows
    and those into positions; ``X.T @ M`` adds positions into blocks and
    blocks into features. Each step is one :class:`_GatherSum` over index
    arrays sorted here, once. ``nnz`` counts the token-level occurrences,
    the entries X would hold if expanded.
    """

    def __init__(self, n_features, n_blocks, ent_block, ent_feature, ent_value,
                 pair_position, pair_block, n_positions, nnz):
        self.shape = (n_positions, n_features)
        self.nnz = nnz
        self._entries = _GatherSum(ent_feature, ent_block, n_blocks, n_features, ent_value)
        self._pairs = _GatherSum(pair_block, pair_position, n_positions, n_blocks)
        by_block = np.argsort(pair_block, kind="stable")
        self._pairs_t = _GatherSum(pair_position[by_block], pair_block[by_block], n_blocks, n_positions)
        by_feature = np.argsort(ent_feature, kind="stable")
        self._entries_t = _GatherSum(
            ent_block[by_feature], ent_feature[by_feature], n_features, n_blocks, ent_value[by_feature]
        )

    def __matmul__(self, weights):
        """X @ weights (n_positions, L), for weights (n_features, L)."""
        return self._pairs(self._entries(weights))

    def _rmatmul(self, marginals):
        return self._entries_t(self._pairs_t(marginals))


# A type table whose nonzeros reach this share of (types in use x
# attributes in use) is multiplied as a dense matrix (TypeTableMatrix).
# The break-even grows with the table. Timing both products of both
# forms on random signed-code batches (window 1, 17 labels, one BLAS
# thread), the dense form cost less from under 1.6 % with 128
# attributes, from 3-4 % with 512 or at 230 x 2,945 (dict-paper's
# shape), and from 5-6 % at 4,900 x 2,048, where at 3 % it took 2.4 times
# as long and held 4.7 times the memory (79 against 17 MB). At 5 % the
# dense form costs at most 1.2 times the blocks on those shapes, and a
# table kept in blocks below it at most 1.5 times the dense form (128
# attributes). The rule trades memory for time: at 5 % and 4,900 x 2,048
# the dense table holds 79 MB against the blocks' 25 MB, though an
# objective evaluation peaks lower (143 against 169 MB). dict-paper's
# 1 % table takes 1.45 times as long dense, ner-tag's 47 % table a quarter.
_DENSE_TABLE = 0.05

# terms summed by one BLAS call in TypeTableMatrix
_BLAS_TERMS = 64


def _add_product(a, b, out):
    """out += a @ b, in products over at most _BLAS_TERMS columns of a, added in order.

    OpenBLAS may cut a longer sum into blocks that differ with the thread
    count: a single A^T G over ner-tag's 431 types changes in the last
    bits at two threads, and so does the trained model.
    """
    for k in range(0, a.shape[1], _BLAS_TERMS):
        out += a[:, k:k + _BLAS_TERMS] @ b[k:k + _BLAS_TERMS]


class TypeTableMatrix(_DesignMatrix):
    """The (positions x features) design matrix, factored through a dense type table.

    X = sum over offsets o of S_o A E_o, where A (types in use x
    attributes in use) holds each type's attribute values, S_o
    (positions x types) a 1 where a position reads a type at offset o,
    and E_o (attributes x features) a 1 at each attribute's feature id at
    offset o, the way CRFsuite interns attributes. ``X @ W`` is T = A W3,
    with W3 holding each attribute's weight rows for every offset side by
    side (zero for names the index lacks), then one row take per offset,
    added in the string order of the offset tags. ``X.T @ M`` sums the
    rows of M per (type, offset) into G3, one :class:`_GatherSum`, then
    scatters H = A^T G3 into the feature rows.

    :func:`compile_batch` picks this form when the table's entries reach
    ``_DENSE_TABLE`` (5 %) of (types in use x attributes in use), where
    the two BLAS products cost less than :class:`BlockMatrix`'s gathers
    (ner-tag's m = 64 codes fill 47 %); a sparser table, such as m = 1024
    codes (1 %) or the fr_w / fr_wc templates, stays a BlockMatrix.
    Every BLAS call reduces over at most ``_BLAS_TERMS`` (64) terms,
    attributes forward and types backward, and the partial products are
    added in a fixed order, so the products, and a trained model, do not
    depend on the BLAS thread count. ``nnz`` counts the token-level
    occurrences, as for BlockMatrix.

    ``table`` is A, ``features`` (offsets x attributes) holds the feature
    id of each tagged attribute or -1, and ``readers`` (offsets x
    positions) the type each position reads at each offset, or the number
    of types where the offset falls outside the sentence.
    """

    def __init__(self, n_features, table, features, readers, nnz):
        n_offsets, n_positions = readers.shape
        self.shape = (n_positions, n_features)
        self.nnz = nnz
        self._table = table
        n_types = len(table)
        # rows a * n_offsets + o of W3 and H hold feature features[o, a]
        by_attr = features.T.ravel()
        self._rows = np.flatnonzero(by_attr >= 0)
        self._features = by_attr[self._rows]
        # row u * n_offsets + o of T is type u's sum at offset o
        self._takes = readers * n_offsets + np.arange(n_offsets)[:, None]
        inside = readers < n_types
        group = self._takes[inside]
        order = np.argsort(group, kind="stable")
        position = np.broadcast_to(np.arange(n_positions), readers.shape)[inside]
        self._by_type = _GatherSum(position[order], group[order], n_types * n_offsets, n_positions)

    def __matmul__(self, weights):
        """X @ weights (n_positions, L), for weights (n_features, L)."""
        n_types, n_attrs = self._table.shape
        n_offsets, n_lab = len(self._takes), weights.shape[1]
        w3 = np.zeros((n_attrs * n_offsets, n_lab))
        w3[self._rows] = weights[self._features]
        sums = np.zeros(((n_types + 1) * n_offsets, n_lab))
        _add_product(self._table, w3.reshape(n_attrs, n_offsets * n_lab),
                     sums.reshape(n_types + 1, n_offsets * n_lab)[:n_types])
        out = np.take(sums, self._takes[0], axis=0)
        for takes in self._takes[1:]:
            out += np.take(sums, takes, axis=0)
        return out

    def _rmatmul(self, marginals):
        n_types, n_attrs = self._table.shape
        n_offsets, n_lab = len(self._takes), marginals.shape[1]
        h = np.zeros((n_attrs, n_offsets * n_lab))
        _add_product(self._table.T, self._by_type(marginals).reshape(n_types, n_offsets * n_lab), h)
        out = np.zeros((self.shape[1], n_lab))
        out[self._features] = h.reshape(n_attrs * n_offsets, n_lab)[self._rows]
        return out


@dataclass
class CompiledBatch:
    """Sentences as a factored design matrix plus gold indices.

    The matrix is a :class:`TypeTableMatrix` or a :class:`BlockMatrix`
    (see :func:`compile_batch`); both give ``shape``, ``nnz`` (token-level
    occurrences), ``@`` and ``.T @``, and number the features alike. Its
    rows are the positions in the sentences' order.
    ``packed_rows`` lists them in the order the forward-backward kernel
    visits them: sentences sorted by length, longest first (ties in input
    order), and step by step, so step t is the t-th position of the
    ``batch_sizes[t]`` sentences longer than t.
    """

    matrix: BlockMatrix | TypeTableMatrix  # (n_positions, n_features)
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


def _first_occurrences(keys):
    """The distinct keys in order of first occurrence, and each key's number in that order."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return distinct[order], number[inverse]


def _design_matrix(types, batch_ids, feature_index, grow):
    """The batch's design matrix, a :class:`TypeTableMatrix` or a :class:`BlockMatrix`.

    The type table holds the types in use (rows) and their attributes
    (columns). It is multiplied as a dense matrix when its entries reach
    ``_DENSE_TABLE`` of its cells. Blocks, the distinct (offset, type)
    pairs, are numbered in order of first occurrence over one pair per
    offset inside the sentence, in position order and then in the string
    order of the offset tags; each block's entries follow its type's row.
    Each distinct (offset, attribute) is resolved once; names missing from
    ``feature_index`` are skipped, or with ``grow`` first added to it in
    order of first occurrence over those entries, as if every occurrence
    were read. Both forms therefore number the features alike. A
    BlockMatrix drops a block left with no entries, and its pairs.
    """
    ids, sources = _window_sources(types, batch_ids)
    n_offsets = len(types.offsets)
    used, local = np.unique(ids, return_inverse=True)
    n_types = max(len(used), 1)
    row, attr, values = _type_entries(types, used.tolist())
    attrs, attr = np.unique(attr, return_inverse=True)
    n_attrs = max(len(attrs), 1)
    stream = sources.T.ravel()
    inside = stream >= 0
    pair_position = np.repeat(np.arange(len(ids)), n_offsets)[inside]
    pair_offset = np.tile(np.arange(n_offsets), len(ids))[inside]
    blocks, pair_block = _first_occurrences(pair_offset * n_types + local[stream[inside]])
    block_offset, block_type = np.divmod(blocks, n_types)
    # each block's entries are its type's row: one run of the table's entries
    counts = np.bincount(row, minlength=n_types)
    sizes = counts[block_type]
    ent_block = np.repeat(np.arange(len(blocks)), sizes)
    entry = np.arange(len(ent_block)) + np.repeat((np.cumsum(counts) - counts)[block_type]
                                                  - (np.cumsum(sizes) - sizes), sizes)
    keys, ent_key = _first_occurrences(block_offset[ent_block] * n_attrs + attr[entry])
    tags = [tag for _, tag in types.offsets]
    # attributes are numbered by column here, and named by their ids in types
    attr_names = list(map(types.attr_names.__getitem__, attrs.tolist()))
    names = [tags[o] + attr_names[a]
             for o, a in zip(*(part.tolist() for part in np.divmod(keys, n_attrs)))]
    key_feature = _feature_ids(names, feature_index, grow)
    n_features = max(len(feature_index), 1)
    ent_feature = key_feature[ent_key]
    found = ent_feature >= 0
    ent_block = ent_block[found]
    nnz = int(np.bincount(ent_block, minlength=len(blocks))[pair_block].sum())
    if len(row) >= _DENSE_TABLE * len(used) * len(attrs):
        table = np.bincount(row * len(attrs) + attr, values, minlength=len(used) * len(attrs))
        features = np.full(n_offsets * n_attrs, -1, dtype=np.int64)
        features[keys] = key_feature
        readers = np.full((n_offsets, len(ids)), len(used), dtype=np.int64)
        readers[pair_offset, pair_position] = local[stream[inside]]
        return TypeTableMatrix(n_features, table.reshape(len(used), len(attrs)),
                               features.reshape(n_offsets, n_attrs)[:, :len(attrs)], readers, nnz)
    nonempty = np.zeros(len(blocks), dtype=bool)
    nonempty[ent_block] = True
    renumber = np.cumsum(nonempty) - 1
    paired = nonempty[pair_block]
    return BlockMatrix(n_features, int(nonempty.sum()), renumber[ent_block], ent_feature[found],
                       values[entry[found]], pair_position[paired],
                       renumber[pair_block[paired]], len(ids), nnz)


def compile_batch(types, batch_ids, batch_labels, labels=None, feature_index=None,
                  grow_index=True) -> CompiledBatch:
    """Compile labeled sentences for training or objective evaluation.

    ``batch_ids`` holds each sentence as
    :func:`sparsetag.features.sentence_features` returns it, as ids of the
    types in ``types`` (a :class:`sparsetag.features.WordTypes`). The
    design matrix (:func:`_design_matrix`) is a :class:`TypeTableMatrix`
    when the table of the types in use and their attributes is dense, and
    otherwise a :class:`BlockMatrix`, which keeps each distinct non-empty
    (offset, type) block's entries once and a (position, block) pair per
    occurrence. Feature ids follow first occurrence in the positions'
    flattened blocks, as if every occurrence were read, in either form.
    ``labels`` defaults to the sorted gold alphabet.
    When an existing ``feature_index`` is supplied and ``grow_index`` is
    off, unseen features are dropped (inference semantics); otherwise new
    features get ids in order of first occurrence.
    """
    if len(batch_ids) != len(batch_labels):
        raise CrfError("feature and label sequence counts differ")
    if labels is None:
        labels = sorted({lab for seq in batch_labels for lab in seq})
    label_index = {lab: i for i, lab in enumerate(labels)}
    feature_index = {} if feature_index is None else dict(feature_index)

    gold = []
    n_lab = len(labels)
    trans_counts = np.zeros((n_lab, n_lab))
    for ids_seq, labs_seq in zip(batch_ids, batch_labels):
        if len(ids_seq) != len(labs_seq) or not labs_seq:
            raise CrfError("sentence feature/label shape mismatch")
        pos = len(gold)
        for lab in labs_seq:
            if lab not in label_index:
                raise CrfError(f"gold label {lab!r} not in label set")
            gold.append(label_index[lab])
        for prev, y in zip(gold[pos:], gold[pos + 1:]):
            trans_counts[prev, y] += 1.0

    matrix = _design_matrix(types, batch_ids, feature_index, grow_index)
    packed_rows, batch_sizes = _packing(list(map(len, batch_ids)))
    return CompiledBatch(
        matrix=matrix,
        gold=np.asarray(gold, dtype=np.int64),
        packed_rows=packed_rows,
        batch_sizes=batch_sizes,
        trans_counts=trans_counts,
        labels=list(labels),
        feature_index=feature_index,
    )


def _unpack(params, n_feat, n_lab):
    split = n_feat * n_lab
    return params[:split].reshape(n_feat, n_lab), params[split:].reshape(n_lab, n_lab)


def smooth_objective(params, batch: CompiledBatch, c2):
    """Negative log-likelihood plus the l2 term, with its exact gradient.

    The l1 term is intentionally excluded; the optimizer treats it
    through orthant projection. Emissions are ``batch.matrix @ W``; one
    forward-backward call covers the whole batch, with the emissions
    gathered into its packed order and the marginals scattered back; the
    emission gradient is ``batch.matrix.T @ (marginals - gold)``. Both
    products add per (offset, type) first, through the dense type table
    or through the feature blocks, so they differ from a token-level sum
    by rounding only, and neither depends on the BLAS thread count. The
    gradient is written into one array that starts as ``c2 * params``.
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
    value = nll + 0.5 * c2 * float(params @ params)
    grad = c2 * params
    grad_w, grad_t = _unpack(grad, n_feat, n_lab)
    grad_w += batch.matrix.T @ marginals
    grad_t += trans_expected - batch.trans_counts
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


def train(types, batch_ids, batch_labels, config: TrainConfig, meta=None) -> CrfModel:
    """Fit CRF weights on labeled sentences, given as ids of ``types`` (see :func:`compile_batch`).

    Deterministic: label order is sorted, feature ids follow first
    occurrence, and all reductions have fixed structure. The model's meta
    records why OWL-QN stopped (``owlqn_stop``) and how many iterations it
    accepted (``owlqn_iterations``).
    """
    if not batch_ids:
        raise CrfError("training set is empty")
    batch = compile_batch(types, batch_ids, batch_labels)
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


def _model_number(text, path, lineno, what):
    """The finite number ``text`` on a line; ``what`` names it in errors."""
    try:
        [value] = parse_numbers([text])
    except ValueError:
        raise CrfError(f"{path}:{lineno}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CrfError(f"{path}:{lineno}: {what} {text!r} is not finite")
    return value


_WEIGHT_LINES = {
    "[transitions]": "'from_label to_label weight'",
    "[emissions]": "'feature label weight'",
}


def load_model(path) -> CrfModel:
    """Read a model written by :func:`save_model`.

    A malformed line (wrong field count, a weight that is not a finite
    number, a ``c1`` or ``c2`` that is not a finite number >= 0, a label
    missing from the ``labels`` line) raises ``CrfError("<path>:<line>: ...")``.
    """
    lines = read_lines(path, CrfError)
    if next(lines, (1, ""))[1] != _MODEL_MAGIC:
        raise CrfError(f"{path}: not a model file")
    section = None
    penalties = {}
    labels = None
    meta = {}
    meta_lines = {}
    # (line number, line) of each weight line, split and parsed once all are read
    weight_lines = {"[transitions]": [], "[emissions]": []}
    try:
        for lineno, line in lines:
            if not line:
                continue
            if line in ("[meta]", "[transitions]", "[emissions]"):
                # exact match only: feature names may start with '['
                section = line
            elif section in weight_lines:
                weight_lines[section].append((lineno, line))
            elif section is None:
                raise CrfError(f"{path}:{lineno}: content outside any section")
            else:
                key, _, value = line.partition(" ")
                if key in ("c1", "c2"):
                    penalties[key] = _model_number(value, path, lineno, key)
                    if penalties[key] < 0:
                        raise CrfError(f"{path}:{lineno}: {key} {value!r} is negative")
                elif key == "labels":
                    labels = value.split(" ")
                else:
                    meta[key] = value
                    meta_lines[key] = lineno
    except CrfError:
        _parse_weights(path, weight_lines)  # a bad weight line before this one is named first
        raise
    weights = _parse_weights(path, weight_lines)
    if len(penalties) != 2 or labels is None:
        raise CrfError(f"{path}: incomplete [meta] section")
    label_index = {lab: i for i, lab in enumerate(labels)}
    n_lab = len(labels)

    def label_ids(section, *columns):
        """The label ids in each column; a missing label names the first line holding one."""
        ids = [list(map(label_index.get, weights[section][col])) for col in columns]
        if any(None in col_ids for col_ids in ids):
            columns = [weights[section][col] for col in columns]
            for (lineno, _), *labs in zip(weight_lines[section], *columns):
                for lab in labs:
                    if lab not in label_index:
                        raise CrfError(
                            f"{path}:{lineno}: label {lab!r} is not in the model's labels"
                        )
        return ids

    def fill(table, section, rows, cols):
        flat = np.array(rows, dtype=np.intp) * n_lab + np.array(cols, dtype=np.intp)
        # a later line for the same cell wins, as in a line-by-line fill
        flat, last = np.unique(flat[::-1], return_index=True)
        table.flat[flat] = weights[section][2][::-1][last]

    transitions = np.zeros((n_lab, n_lab))
    fill(transitions, "[transitions]", *label_ids("[transitions]", 0, 1))
    names = weights["[emissions]"][0]
    feature_index = {name: i for i, name in enumerate(dict.fromkeys(names))}
    emissions = np.zeros((len(feature_index), n_lab))
    [cols] = label_ids("[emissions]", 1)
    fill(emissions, "[emissions]", list(map(feature_index.__getitem__, names)), cols)
    model = CrfModel(
        labels=labels,
        feature_index=feature_index,
        emissions=emissions,
        transitions=transitions,
        c1=penalties["c1"],
        c2=penalties["c2"],
        meta=meta,
    )
    model.meta_lines = meta_lines
    return model


def _parse_weights(path, weight_lines):
    """(rows, labels, weights) of each section's (line number, line) pairs.

    Each section is split with one join and parsed with one
    :func:`parse_numbers` call. If a line does not hold three fields or a
    finite weight, the lines are walked in file order to name the first
    bad one in a ``CrfError``.
    """
    try:
        parsed = {}
        for section, entries in weight_lines.items():
            lines = [line for _, line in entries]
            if list(map(str.count, lines, repeat(" "))).count(2) != len(lines):
                raise ValueError
            fields = " ".join(lines).split(" ") if lines else []
            values = np.array(parse_numbers(fields[2::3]), dtype=float)
            parsed[section] = (fields[0::3], fields[1::3], values)
        if all(np.isfinite(values).all() for _, _, values in parsed.values()):
            return parsed
    except ValueError:
        pass
    for lineno, section, line in sorted(
        (lineno, section, line) for section, entries in weight_lines.items()
        for lineno, line in entries
    ):
        fields = line.split(" ")
        if len(fields) != 3:
            raise CrfError(
                f"{path}:{lineno}: expected {_WEIGHT_LINES[section]}, found {len(fields)} field(s)"
            )
        _model_number(fields[2], path, lineno, "weight")
    raise AssertionError("a weight line failed in bulk but on no line")
