"""Linear-chain CRF: exact inference, elastic-net training, Viterbi decoding.

Potentials are emission scores (sum over a position's real-valued features
of weight * value, per label) plus position-independent label-pair
transition scores. Training minimizes

    sum_sentences (logZ - gold score) + c1*||w||_1 + (c2/2)*||w||_2^2

with an orthant-wise limited-memory quasi-Newton method, so the l1 term
is handled exactly. Inference is forward-backward in log space; decoding
is Viterbi with ties broken toward the lower label index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from ._textfiles import read_lines

if TYPE_CHECKING:
    import scipy.sparse as sp


class CrfError(ValueError):
    """Inconsistent labels, features, or model files."""


class CrfTrainError(RuntimeError):
    """Numerical failure during training."""


@dataclass
class TrainConfig:
    c1: float = 1.0
    c2: float = 0.001
    max_iterations: int = 500
    tolerance: float = 1e-5
    memory: int = 10

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise CrfError("c1 and c2 must be >= 0")
        if self.max_iterations < 1:
            raise CrfError("max_iterations must be >= 1")


# ---------------------------------------------------------------------------
# Lattice-level operations (plain arrays)
# ---------------------------------------------------------------------------


def _logsumexp(a, axis):
    mx = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(mx, axis=axis) + np.log(np.sum(np.exp(a - mx), axis=axis))


def _lattice(em, transitions):
    """Forward-backward over n equal-length sentences, ``em`` (n, T, L).

    Returns (logZ (n,), unary marginals (n, T, L), pairwise marginals as a
    lazy sequence of one (n, L, L) array per t = 1..T-1).
    """
    length = em.shape[1]
    alpha = np.zeros_like(em)
    alpha[:, 0] = em[:, 0]
    for t in range(1, length):
        alpha[:, t] = (
            _logsumexp(alpha[:, t - 1][:, :, None] + transitions[None], axis=1) + em[:, t]
        )
    beta = np.zeros_like(em)
    for t in range(length - 2, -1, -1):
        beta[:, t] = _logsumexp(
            transitions[None] + (em[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2
        )
    logz = _logsumexp(alpha[:, -1], axis=1)
    unary = np.exp(alpha + beta - logz[:, None, None])
    pairwise = (
        np.exp(
            alpha[:, t - 1][:, :, None]
            + transitions[None]
            + (em[:, t] + beta[:, t])[:, None, :]
            - logz[:, None, None]
        )
        for t in range(1, length)
    )
    return logz, unary, pairwise


def log_partition(emissions, transitions) -> float:
    """log sum over all label paths of exp(path score)."""
    return forward_backward(emissions, transitions)[0]


def forward_backward(emissions, transitions):
    """(logZ, unary marginals (T,L), pairwise marginals (T-1,L,L))."""
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    logz, unary, pairs = _lattice(emissions[None], transitions)
    n_lab = emissions.shape[1]
    pairwise = np.array([pair[0] for pair in pairs]).reshape(-1, n_lab, n_lab)
    return float(logz[0]), unary[0], pairwise


def viterbi_path(emissions, transitions):
    """Highest-scoring label index sequence; ties take the lower index."""
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    n_pos, n_lab = emissions.shape
    back = np.zeros((n_pos, n_lab), dtype=np.int64)
    delta = emissions[0].copy()
    for t in range(1, n_pos):
        cand = delta[:, None] + transitions
        back[t] = np.argmax(cand, axis=0)
        delta = cand[back[t], np.arange(n_lab)] + emissions[t]
    path = [int(np.argmax(delta))]
    for t in range(n_pos - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return path


def path_score(emissions, transitions, path) -> float:
    score = float(emissions[0][path[0]])
    for t in range(1, len(path)):
        score += float(transitions[path[t - 1]][path[t]]) + float(emissions[t][path[t]])
    return score


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

    def decode(self, sent_features):
        """Predicted label sequence for one sentence's feature vectors."""
        emissions, transitions = score_lattice(self, sent_features)
        return [self.labels[i] for i in viterbi_path(emissions, transitions)]


def score_lattice(model: CrfModel, sent_features):
    """Per-position per-label emission scores plus the transition matrix.

    Feature names are resolved to ids in one pass over the sentence;
    names absent from the model's index are skipped. One gather of the
    weight rows and one unbuffered ``np.add.at`` then sum each position's
    rows in feature order, so the scores equal those of a per-feature
    loop bit for bit.
    """
    emissions = np.zeros((len(sent_features), len(model.labels)))
    rows, ids, vals = _feature_entries(sent_features, model.feature_index)
    np.add.at(emissions, rows, vals[:, None] * model.emissions[ids])
    return emissions, model.transitions


def _feature_entries(positions, feature_index, grow=False):
    """(rows, feature ids, values) arrays of per-position features, in order.

    ``positions`` is a sequence of (name, value) lists, one per row.
    Names missing from ``feature_index`` are skipped, or with ``grow``
    first added to it in order of first occurrence.
    """
    pairs = [pair for feats in positions for pair in feats]
    names = [name for name, _ in pairs]
    if grow:
        for name in names:
            if name not in feature_index:
                feature_index[name] = len(feature_index)
    ids = np.fromiter(map(feature_index.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    vals = np.fromiter((value for _, value in pairs), dtype=np.float64, count=len(pairs))
    rows = np.repeat(np.arange(len(positions)), [len(feats) for feats in positions])
    found = ids >= 0
    return rows[found], ids[found], vals[found]


@dataclass
class CompiledBatch:
    """Sentences flattened to a sparse design matrix plus gold indices."""

    matrix: sp.csr_matrix            # (n_positions, n_features)
    gold: np.ndarray                 # (n_positions,) label indices
    groups: dict                     # length -> (n_sent, length) row-id array
    trans_counts: np.ndarray         # empirical gold bigram counts (L, L)
    labels: list
    feature_index: dict
    n_sentences: int = 0

    @property
    def n_positions(self):
        return self.gold.shape[0]

    @property
    def n_features(self):
        return len(self.feature_index)


def compile_batch(batch_features, batch_labels, labels=None, feature_index=None,
                  grow_index=True) -> CompiledBatch:
    """Flatten labeled sentences for training or objective evaluation.

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
    groups = {}
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
        groups.setdefault(len(labs_seq), []).append(range(pos, len(gold)))
    rows, cols, vals = _feature_entries(
        [feats for feats_seq in batch_features for feats in feats_seq],
        feature_index,
        grow=grow_index,
    )

    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(gold), max(len(feature_index), 1)), dtype=np.float64
    )
    groups = {length: np.asarray(ids, dtype=np.int64) for length, ids in groups.items()}
    return CompiledBatch(
        matrix=matrix,
        gold=np.asarray(gold, dtype=np.int64),
        groups=groups,
        trans_counts=trans_counts,
        labels=list(labels),
        feature_index=feature_index,
        n_sentences=len(batch_features),
    )


def _pack(emissions, transitions):
    return np.concatenate([emissions.ravel(), transitions.ravel()])


def _unpack(params, n_feat, n_lab):
    split = n_feat * n_lab
    return params[:split].reshape(n_feat, n_lab), params[split:].reshape(n_lab, n_lab)


def smooth_objective(params, batch: CompiledBatch, c2):
    """Negative log-likelihood plus the l2 term, with its exact gradient.

    The l1 term is intentionally excluded; the optimizer treats it
    through orthant projection. Length groups are processed in ascending
    order so accumulation order (and hence the result) is fixed.
    """
    n_feat = max(batch.n_features, 1)
    n_lab = len(batch.labels)
    weights, transitions = _unpack(params, n_feat, n_lab)
    emissions_all = batch.matrix @ weights
    n_pos = batch.n_positions
    marginals = np.zeros((n_pos, n_lab))
    trans_expected = np.zeros((n_lab, n_lab))
    nll = 0.0
    for length in sorted(batch.groups):
        rows = batch.groups[length]
        logz, unary, pairs = _lattice(emissions_all[rows], transitions)
        nll += float(logz.sum())
        marginals[rows] = unary
        for pair in pairs:
            trans_expected += pair.sum(axis=0)

    gold_rows = np.arange(n_pos)
    nll -= float(emissions_all[gold_rows, batch.gold].sum())
    nll -= float((transitions * batch.trans_counts).sum())

    marginals[gold_rows, batch.gold] -= 1.0
    grad_w = np.asarray(batch.matrix.T @ marginals)
    grad_t = trans_expected - batch.trans_counts
    value = nll + 0.5 * c2 * float(params @ params)
    grad = _pack(grad_w, grad_t) + c2 * params
    return value, grad


def nll_and_gradient(model: CrfModel, batch_features, batch_labels):
    """Penalized objective and smooth-part gradient at the model's weights.

    Returns (objective, (grad_emissions, grad_transitions)).
    """
    batch = compile_batch(
        batch_features,
        batch_labels,
        labels=model.labels,
        feature_index=model.feature_index,
        grow_index=False,
    )
    params = _pack(model.emissions, model.transitions)
    value, grad = smooth_objective(params, batch, model.c2)
    objective = value + model.c1 * float(np.abs(params).sum())
    n_feat = max(len(model.feature_index), 1)
    return objective, _unpack(grad, n_feat, len(model.labels))


# ---------------------------------------------------------------------------
# Orthant-wise quasi-Newton training
# ---------------------------------------------------------------------------


def _pseudo_gradient(w, g, c1):
    if c1 == 0.0:
        return g.copy()
    pg = np.where(w > 0, g + c1, np.where(w < 0, g - c1, 0.0))
    zero = w == 0
    gz = g[zero]
    pg[zero] = np.where(gz + c1 < 0, gz + c1, np.where(gz - c1 > 0, gz - c1, 0.0))
    return pg


def _lbfgs_direction(pg, mem_s, mem_y):
    d = -pg
    if not mem_s:
        return d.copy()
    alphas = []
    rhos = [1.0 / float(s @ y) for s, y in zip(mem_s, mem_y)]
    q = d.copy()
    for s, y, rho in zip(reversed(mem_s), reversed(mem_y), reversed(rhos)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    s_last, y_last = mem_s[-1], mem_y[-1]
    q *= float(s_last @ y_last) / float(y_last @ y_last)
    for (s, y, rho), a in zip(zip(mem_s, mem_y, rhos), reversed(alphas)):
        b = rho * float(y @ q)
        q += s * (a - b)
    return q


def _owlqn(fun, w0, c1, max_iterations, tolerance, memory):
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
    mem_s, mem_y = [], []
    iterations = 0
    reason = "max_iterations"
    for iteration in range(1, max_iterations + 1):
        pg = _pseudo_gradient(w, grad, c1)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm < 1e-10:
            reason = "zero_pseudo_gradient"
            break
        direction = _lbfgs_direction(pg, mem_s, mem_y)
        direction[direction * -pg <= 0] = 0.0
        orthant = np.where(w != 0, np.sign(w), np.sign(-pg))
        step = 1.0 if mem_s else 1.0 / pg_norm
        accepted = False
        for _ in range(60):
            w_new = w + step * direction
            w_new = np.where(w_new * orthant > 0, w_new, 0.0)
            value_new, grad_new = fun(w_new)
            if not np.isfinite(value_new):
                raise CrfTrainError(f"objective diverged at iteration {iteration}")
            total_new = value_new + c1 * float(np.abs(w_new).sum())
            descent = float(pg @ (w_new - w))
            if descent < 0 and total_new <= total + 1e-4 * descent:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            reason = "line_search_failed"
            break
        iterations = iteration
        s = w_new - w
        y = grad_new - grad
        if float(s @ y) > 1e-10:
            mem_s.append(s)
            mem_y.append(y)
            if len(mem_s) > memory:
                mem_s.pop(0)
                mem_y.pop(0)
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

    w, _, iterations, reason = _owlqn(
        fun, w0, config.c1, config.max_iterations, config.tolerance, config.memory
    )
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
        for a, lab_a in enumerate(model.labels):
            for b, lab_b in enumerate(model.labels):
                weight = model.transitions[a, b]
                if weight != 0.0:
                    fh.write(f"{lab_a} {lab_b} {weight:.17g}\n")
        fh.write("[emissions]\n")
        names = list(model.feature_index)
        for name in names:
            fid = model.feature_index[name]
            for b, lab_b in enumerate(model.labels):
                weight = model.emissions[fid, b]
                if weight != 0.0:
                    fh.write(f"{name} {lab_b} {weight:.17g}\n")


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
    return CrfModel(
        labels=labels,
        feature_index=feature_index,
        emissions=emissions,
        transitions=transitions,
        c1=c1,
        c2=c2,
        meta=meta,
    )
