"""Correctness checks made apart from the program under test.

Nothing here imports ``sparsetag``: every file is parsed by the readers
below and every number is recomputed with numpy, so a fault in the
program's own readers, scorers or solvers cannot hide itself.
Each ``check_*`` function raises :class:`CheckFailed` or returns a short
description of what it verified.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent recomputation."""


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_embeddings(path):
    words, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if fields:
                words.append(fields[0])
                rows.append([float(v) for v in fields[1:]])
    return words, np.array(rows)


def read_dictionary(path):
    """(atoms k x m, variant, lam, tau) from `m k variant lambda tau` + m rows."""
    with open(path, encoding="utf-8") as fh:
        m, k, variant, lam, tau = fh.readline().split()
        rows = [[float(v) for v in fh.readline().split()] for _ in range(int(m))]
    atoms = np.array(rows).T
    if atoms.shape != (int(k), int(m)):
        raise CheckFailed(f"{path}: dictionary shape {atoms.shape}, header says {k} x {m}")
    return atoms, variant, float(lam), float(tau)


def read_codes(path):
    """{word: (indices, values)} in file order."""
    codes = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split(" ")
            pairs = [part.split(":") for part in fields[1:] if part]
            codes[fields[0]] = (
                np.array([int(i) for i, _ in pairs], dtype=np.int64),
                np.array([float(v) for _, v in pairs]),
            )
    return codes


def read_corpus(path, fmt):
    """Sentences of (form, tag); CoNLL-X tag from POSTAG, NER tag from the last column."""
    sents, cur = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                if cur:
                    sents.append(cur)
                    cur = []
                continue
            if fmt == "conllx":
                cols = line.rstrip("\n").split("\t")
                cur.append((cols[1], cols[4]))
            else:
                cols = line.split()
                if cols[0] != "-DOCSTART-":
                    cur.append((cols[0], cols[-1]))
    if cur:
        sents.append(cur)
    return sents


def read_tagmap(path):
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                fine, universal = line.rstrip("\n").split("\t")
                mapping[fine] = universal
    return mapping


class Model:
    """Weights of a `sparsetag-crf 1` model file."""

    def __init__(self, path):
        self.meta = {}
        self.emissions = {}
        section = None
        trans = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line in ("[meta]", "[transitions]", "[emissions]"):
                    section = line
                elif section == "[meta]":
                    key, _, value = line.partition(" ")
                    self.meta[key] = value
                elif section == "[transitions]":
                    trans.append(line.split(" "))
                elif section == "[emissions]":
                    name, label, weight = line.split(" ")
                    self.emissions.setdefault(name, []).append((label, float(weight)))
        self.labels = self.meta["labels"].split(" ")
        index = {lab: i for i, lab in enumerate(self.labels)}
        self.transitions = np.zeros((len(self.labels), len(self.labels)))
        for a, b, weight in trans:
            self.transitions[index[a], index[b]] = float(weight)
        rows = {}
        for name, pairs in self.emissions.items():
            row = np.zeros(len(self.labels))
            for label, weight in pairs:
                row[index[label]] = weight
            rows[name] = row
        self.emissions = rows


def read_printed(text, key):
    """The number after ``key`` on the first stdout line that has it, else NaN."""
    for line in text.splitlines():
        fields = line.split()
        if key in fields[:-1]:
            try:
                return float(fields[fields.index(key) + 1])
            except ValueError:
                break
    return math.nan


def _printed(text, key):
    value = read_printed(text, key)
    if not math.isfinite(value):
        raise CheckFailed(f"no number after {key!r} in program output: {text!r}")
    return value


# ---------------------------------------------------------------------------
# Sparse coding
# ---------------------------------------------------------------------------


def dense_codes(words, codes, m):
    A = np.zeros((len(words), m))
    for row, word in enumerate(words):
        if word not in codes:
            raise CheckFailed(f"no code for {word!r}")
        idx, val = codes[word]
        A[row, idx] = val
    return A


def check_feasible(dict_path, codes_path):
    atoms, variant, _, _ = read_dictionary(dict_path)
    if variant == "sc1":
        worst = float(np.linalg.norm(atoms, axis=0).max())
        if not worst <= 1.0 + 1e-9:
            raise CheckFailed(f"sc1 dictionary column norm {worst!r} > 1 + 1e-9")
        return f"sc1 column norms <= {worst:.12f}"
    if variant == "sc4":
        smallest = min((float(val.min()) for _, val in read_codes(codes_path).values() if val.size),
                       default=math.inf)
        if not smallest > 0.0:
            raise CheckFailed(f"sc4 code has coefficient {smallest!r} <= 0")
        return f"sc4 coefficients >= {smallest:.3g}"
    return f"{variant}: no feasibility constraint"


def check_objective(emb_path, dict_path, codes_path, stdout):
    """Recompute the mean objective from the three files.

    The codes file holds 6 significant digits, so the written code a and
    the code the program scored, a + e, differ by |e_j| <= 5e-6 |a_j| on
    the support (rounding keeps signs) and by less than 1e-10 off it,
    where the program drops tiny coefficients. For a lasso objective f,
    exactly, f(a + e) - f(a) = h.e + 0.5 ||D e||^2 with
    h = -D^T (x - D a) + lam sign(a); the bound below is that expansion
    with every term made positive, plus the 9-digit rounding of the
    printed value.
    """
    printed = _printed(stdout, "objective")
    words, X = read_embeddings(emb_path)
    D, variant, lam, tau = read_dictionary(dict_path)
    A = dense_codes(words, read_codes(codes_path), D.shape[1])
    R = X - A @ D.T
    n = len(words)
    value = (0.5 * float(np.sum(R * R)) + lam * float(np.abs(A).sum())) / n
    if variant != "sc1":
        value += tau * float(np.sum(D * D))
    G = R @ D  # row i: D^T (x_i - D a_i)
    H = np.where(A != 0, np.abs(lam * np.sign(A) - G), np.abs(G) + lam)
    eps = np.where(A != 0, 5.0001e-6 * np.abs(A), 1e-10)
    shift = eps @ np.linalg.norm(D, axis=0)  # bound on ||D e|| per word
    bound = float(np.sum(H * eps) + 0.5 * np.sum(shift**2)) / n
    bound += 5e-9 * abs(printed) + 1e-12
    if not abs(value - printed) <= bound:
        raise CheckFailed(
            f"objective recomputed {value!r}, printed {printed!r}, allowed {bound:.3g}"
        )
    return f"objective {value:.9g} vs printed {printed:.9g} (|diff| <= {bound:.2g})"


def kkt_violation(X, D, A, lam, nonneg):
    """Largest stationarity violation over all words' lasso problems."""
    G = (X - A @ D.T) @ D  # row i: D^T (x_i - D a_i)
    on = A > 0 if nonneg else A != 0
    if nonneg:
        off_viol = np.maximum(G - lam, 0.0)
        on_viol = np.abs(G - lam)
    else:
        off_viol = np.maximum(np.abs(G) - lam, 0.0)
        on_viol = np.abs(G - lam * np.sign(A))
    return float(np.where(on, on_viol, off_viol).max())


def check_kkt(X, D, A, lam, nonneg, limit=1e-6):
    worst = kkt_violation(X, D, A, lam, nonneg)
    if not worst <= limit:
        raise CheckFailed(f"KKT violation {worst:.3g} > {limit:g}")
    return f"KKT <= {worst:.3g}"


def check_trace(objectives):
    for a, b in zip(objectives, objectives[1:]):
        if not b <= a + 1e-12 * max(1.0, abs(a)):
            raise CheckFailed(f"objective trace rises: {objectives!r}")
    return f"objective trace non-increasing over {len(objectives)} values"


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _offset_name(offset):
    return "[0]" if offset == 0 else f"[{offset:+d}]"


def check_viterbi(model_path, codes_path, input_path, pred_path, fmt):
    """Every predicted sequence scores within 1e-9 of the best path.

    Sparse-code features are rebuilt from the codes file: at each offset
    o within the model's window, nonzero coefficient j of the word there
    fires indicator `[o]+j` or `[o]-j`.
    """
    model = Model(model_path)
    window = int(model.meta.get("window", "1"))
    codes = read_codes(codes_path)
    index = {lab: i for i, lab in enumerate(model.labels)}
    n_lab = len(model.labels)
    vocab = {word: row for row, word in enumerate(codes)}
    offsets = range(-window, window + 1)
    # per offset: emission row of every word type (last row: word without a code)
    tables = {o: np.zeros((len(vocab) + 1, n_lab)) for o in offsets}
    for word, row in vocab.items():
        idx, val = codes[word]
        for o in offsets:
            tag = _offset_name(o)
            for i, v in zip(idx, val):
                weights = model.emissions.get(f"{tag}{'+' if v > 0 else '-'}{i}")
                if weights is not None:
                    tables[o][row] += weights
    source = read_corpus(input_path, fmt)
    pred = read_corpus(pred_path, fmt)
    if len(source) != len(pred):
        raise CheckFailed(f"{len(pred)} predicted sentences for {len(source)} input sentences")
    trans = model.transitions
    worst = 0.0
    tokens = 0
    for sent, out in zip(source, pred):
        if [f for f, _ in sent] != [f for f, _ in out]:
            raise CheckFailed("predicted file changes the word forms")
        ids = np.array([vocab.get(f, len(vocab)) for f, _ in sent])
        try:
            path = np.array([index[t] for _, t in out])
        except KeyError as exc:
            raise CheckFailed(f"predicted label {exc} is not a model label") from None
        em = tables[0][ids].copy()
        for o in range(1, window + 1):
            em[:-o] += tables[o][ids[o:]]
            em[o:] += tables[-o][ids[:-o]]
        delta = em[0]
        for t in range(1, len(ids)):
            delta = np.max(delta[:, None] + trans, axis=0) + em[t]
        best = float(delta.max())
        score = float(em[np.arange(len(ids)), path].sum() + trans[path[:-1], path[1:]].sum())
        gap = best - score
        if not gap <= 1e-9 * max(1.0, abs(best)):
            raise CheckFailed(f"predicted path scores {score!r}, best path {best!r}")
        worst = max(worst, gap)
        tokens += len(ids)
    return f"{len(pred)} sentences / {tokens} tokens are best paths (largest gap {worst:.2g})"


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def _split(tag):
    return ("O", "") if tag == "O" else (tag[0], tag[2:])


def _chunk_end(prev, cur, prev_type, cur_type):
    return (
        prev in "ES"
        or (prev in "BI" and cur in "BSO")
        or (prev != "O" and prev_type != cur_type)
    )


def _chunk_start(prev, cur, prev_type, cur_type):
    return (
        cur in "BS"
        or (prev in "ESO" and cur in "EI")
        or (cur != "O" and prev_type != cur_type)
    )


def conll_chunks(tags):
    """Chunks (start, end, type) under the CoNLL shared-task scorer's rules.

    Reads IOB1, BIO and IOBES alike: an I- after O or after another type
    opens a chunk, B- always opens one, E-/S- close theirs.
    """
    chunks = set()
    start = None
    prev, prev_type = "O", ""
    for i, tag in enumerate(list(tags) + ["O"]):
        cur, cur_type = _split(tag)
        if start is not None and _chunk_end(prev, cur, prev_type, cur_type):
            chunks.add((start, i - 1, prev_type))
            start = None
        if _chunk_start(prev, cur, prev_type, cur_type):
            start = i
        prev, prev_type = cur, cur_type
    return chunks


def chunk_f1(gold_tags, pred_tags):
    """(f1, precision, recall) over sentences of tags."""
    correct = n_gold = n_pred = 0
    for g, p in zip(gold_tags, pred_tags):
        gc, pc = conll_chunks(g), conll_chunks(p)
        correct += len(gc & pc)
        n_gold += len(gc)
        n_pred += len(pc)
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f1, precision, recall


def accuracy(gold_tags, pred_tags):
    total = sum(len(g) for g in gold_tags)
    return sum(a == b for g, p in zip(gold_tags, pred_tags) for a, b in zip(g, p)) / total


def _tags(sents, tagmap=None):
    if tagmap is None:
        return [[t for _, t in s] for s in sents]
    return [[tagmap[t] for _, t in s] for s in sents]


def task_score(task, gold_path, pred_path, fmt, tagmap_path=None):
    """POS token accuracy, or NER entity (f1, precision, recall)."""
    tagmap = read_tagmap(tagmap_path) if tagmap_path else None
    gold = _tags(read_corpus(gold_path, fmt), tagmap)
    pred = _tags(read_corpus(pred_path, fmt))
    if [len(s) for s in gold] != [len(s) for s in pred]:
        raise CheckFailed("gold and predicted files differ in shape")
    if task == "pos":
        return (accuracy(gold, pred),)
    return chunk_f1(gold, pred)


def check_eval(task, gold_path, pred_path, fmt, stdout, tagmap_path=None):
    """The printed score equals the recount to its 6 printed decimals."""
    recount = task_score(task, gold_path, pred_path, fmt, tagmap_path)
    keys = ("accuracy",) if task == "pos" else ("f1", "precision", "recall")
    for key, value in zip(keys, recount):
        printed = _printed(stdout, key)
        if not abs(printed - value) <= 5e-7 + 1e-12:
            raise CheckFailed(f"eval printed {key} {printed}, recount gives {value!r}")
    return f"eval {keys[0]} {recount[0]:.6f} matches recount"


def majority_baseline(task, train_path, gold_path, fmt, tagmap_path=None, first_n=None):
    """Score of tagging each word with its most frequent training label.

    Words unseen in training get the most frequent label overall.
    """
    tagmap = read_tagmap(tagmap_path) if tagmap_path else None
    train = read_corpus(train_path, fmt)[:first_n]
    counts = {}
    overall = Counter()
    for sent, tags in zip(train, _tags(train, tagmap)):
        for (form, _), tag in zip(sent, tags):
            counts.setdefault(form, Counter())[tag] += 1
            overall[tag] += 1

    def best(counter):
        return min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]

    fallback = best(overall)
    lookup = {form: best(c) for form, c in counts.items()}
    test = read_corpus(gold_path, fmt)
    gold = _tags(test, tagmap)
    pred = [[lookup.get(form, fallback) for form, _ in sent] for sent in test]
    if task == "pos":
        return accuracy(gold, pred)
    return chunk_f1(gold, pred)[0]


def check_beats_baseline(task, stdout, baseline):
    score = _printed(stdout, "accuracy" if task == "pos" else "f1")
    if not score > baseline:
        raise CheckFailed(f"task score {score:.6f} does not beat the majority baseline {baseline:.6f}")
    return f"task score {score:.6f} > majority baseline {baseline:.6f}"
