"""Seeded synthetic inputs for the pipeline benchmark.

Everything here is a function of (workload spec, seed); the program under
test only ever sees the files written by :func:`write_inputs`.

Each workload has one fixed grammar, drawn from ``GRAMMAR_SEED``: the
planted atoms, every word's classes, atoms and weights, the word
frequencies and the label chain. The seed draws the noise on every word
vector and the sentences of the training and test sets. Scores and
objectives then vary from seed to seed only as much as a resample of the
same language makes them, so a narrow bound on them still holds across
seeds.

Word vectors are built from a planted dictionary: every word class owns a
few atoms, a word mixes two atoms of its class (two classes for an
ambiguous word) with two atoms from a shared pool, and Gaussian noise is
added on top so that the lasso solves are not trivially sparse.

Labels follow a Markov chain and a share of the word types is ambiguous,
so a per-word lookup cannot reach full accuracy and context matters.
"""

from __future__ import annotations

import bisect
import os

import numpy as np

# Fine tag -> universal tag; two fine tags per universal tag, as in a
# treebank tag map folded to the 12 universal categories.
UNIVERSAL = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "NUM", "CONJ", "PRT", ".", "X")
FINE_TAGS = tuple(f"{u if u != '.' else 'PUNCT'}_{j}" for u in UNIVERSAL for j in (1, 2))
TAGMAP = {f: f.rsplit("_", 1)[0].replace("PUNCT", ".") for f in FINE_TAGS}

ENTITY_TYPES = ("LOC", "MISC", "ORG", "PER")

ATOMS_PER_CLASS = 3
SHARED_ATOMS = 24
NOISE = 0.04
# Share of word types that belong to two classes.
POS_AMBIGUOUS = 0.4
NER_AMBIGUOUS = 0.2
# Share of the NER vocabulary made of entity words.
ENTITY_SHARE = 0.7
GRAMMAR_SEED = 20161222


def _unit_columns(rng, k, m):
    D = rng.standard_normal((k, m))
    return D / np.linalg.norm(D, axis=0)


class _Vocabulary:
    """Word forms with their class sets and planted-atom embeddings."""

    def __init__(self, rng, noise_rng, k, n_classes):
        self.rng = rng
        self.noise_rng = noise_rng
        self.k = k
        self.atoms = _unit_columns(rng, k, n_classes * ATOMS_PER_CLASS + SHARED_ATOMS)
        self.n_classes = n_classes
        self.forms = []
        self.vectors = []

    def add(self, prefix, classes):
        rng = self.rng
        picks = []
        for c in classes:
            block = c * ATOMS_PER_CLASS + rng.choice(ATOMS_PER_CLASS, size=2, replace=False)
            picks.extend(block.tolist())
        shared = self.n_classes * ATOMS_PER_CLASS + rng.choice(SHARED_ATOMS, size=2, replace=False)
        coefs = np.concatenate([
            rng.uniform(0.3, 0.6, size=len(picks)),
            rng.uniform(0.1, 0.25, size=2) * rng.choice((-1.0, 1.0), size=2),
        ])
        vec = self.atoms[:, picks + shared.tolist()] @ coefs
        vec += NOISE * self.noise_rng.standard_normal(self.k)
        form = f"{prefix}{len(self.forms)}"
        self.forms.append(form)
        self.vectors.append(vec)
        return form


def _cdf(weights):
    cdf = np.cumsum(weights)
    return (cdf / cdf[-1]).tolist()


def _draw(rng, cdf):
    """Index drawn from a cumulative distribution (much faster than rng.choice)."""
    return min(bisect.bisect_right(cdf, rng.random()), len(cdf) - 1)


def _zipf_cdf(n, rng):
    w = 1.0 / np.arange(1, n + 1) ** 0.8
    return _cdf(w[rng.permutation(n)])


def _rngs(spec, seed):
    """(grammar generator, sample generator) of one workload."""
    return (np.random.default_rng([GRAMMAR_SEED, spec["stream"]]),
            np.random.default_rng([seed, spec["stream"]]))


def make_pos(spec, seed):
    """Fine-tag CoNLL-X corpora plus embeddings for exactly ``spec["vocab"]`` word types."""
    grammar, rng = _rngs(spec, seed)
    n_tags = len(FINE_TAGS)
    vocab = _Vocabulary(grammar, rng, spec["k"], n_tags)
    lists = [[] for _ in range(n_tags)]
    for i in range(spec["vocab"]):
        t = i % n_tags
        if grammar.random() < POS_AMBIGUOUS:
            other = int(grammar.integers(n_tags - 1))
            other += other >= t
            form = vocab.add("p", (t, other))
            lists[t].append(form)
            lists[other].append(form)
        else:
            lists[t].append(vocab.add("p", (t,)))
    word_cdfs = [_zipf_cdf(len(ws), grammar) for ws in lists]
    start_cdf = _cdf(grammar.dirichlet(np.ones(n_tags)))
    trans_cdfs = [_cdf(row) for row in grammar.dirichlet(np.full(n_tags, 0.15), size=n_tags)]

    def sample(n_tokens):
        sents = []
        total = 0
        while total < n_tokens:
            length = int(rng.integers(6, 25))
            tag = _draw(rng, start_cdf)
            sent = []
            for _ in range(length):
                form = lists[tag][_draw(rng, word_cdfs[tag])]
                sent.append((form, FINE_TAGS[tag]))
                tag = _draw(rng, trans_cdfs[tag])
            sents.append(sent)
            total += length
        return sents

    return vocab, sample(spec["train_tokens"]), sample(spec["test_tokens"])


def make_ner(spec, seed):
    """IOB1 CoNLL-2003 corpora with 4 entity types and cue words."""
    grammar, rng = _rngs(spec, seed)
    n_types = len(ENTITY_TYPES)
    # classes: 0 plain word, 1..4 cue word of a type, 5..8 entity word of a type
    vocab = _Vocabulary(grammar, rng, spec["k"], 1 + 2 * n_types)
    plain = [vocab.add("n", (0,)) for _ in range(int(spec["vocab"] * (1 - ENTITY_SHARE)))]
    cues = [[vocab.add("n", (1 + t,)) for _ in range(6)] for t in range(n_types)]
    entities = [[] for _ in range(n_types)]
    for t in range(n_types):
        for _ in range(max(4, int(spec["vocab"] * ENTITY_SHARE) // n_types)):
            draw = grammar.random()
            if draw < NER_AMBIGUOUS / 2:
                other = int(grammar.integers(n_types - 1))
                other += other >= t
                form = vocab.add("n", (1 + n_types + t, 1 + n_types + other))
                entities[t].append(form)
                entities[other].append(form)
            elif draw < NER_AMBIGUOUS:
                form = vocab.add("n", (1 + n_types + t, 0))
                entities[t].append(form)
                plain.append(form)
            else:
                entities[t].append(vocab.add("n", (1 + n_types + t,)))
    plain_cdf = _zipf_cdf(len(plain), grammar)
    entity_cdfs = [_zipf_cdf(len(ws), grammar) for ws in entities]
    span_cdf = _cdf([0.45, 0.3, 0.15, 0.1])

    def span(sent, t, span_id):
        for _ in range(1 + _draw(rng, span_cdf)):
            sent.append((entities[t][_draw(rng, entity_cdfs[t])], t, span_id))

    def sample(n_tokens):
        sents = []
        total = 0
        while total < n_tokens:
            length = int(rng.integers(8, 22))
            sent = []  # (form, entity type or None, span id)
            span_id = 0
            while len(sent) < length:
                after_span = bool(sent) and sent[-1][1] is not None
                if not after_span and rng.random() < 0.3:
                    t = int(rng.integers(n_types))
                    if rng.random() < 0.6:
                        sent.append((cues[t][int(rng.integers(6))], None, -1))
                    span(sent, t, span_id)
                    span_id += 1
                    if rng.random() < 0.08:
                        # a second span of the same type right after: B- in IOB1
                        span(sent, t, span_id)
                        span_id += 1
                else:
                    sent.append((plain[_draw(rng, plain_cdf)], None, -1))
            sents.append(_iob1(sent))
            total += len(sent)
        return sents

    return vocab, sample(spec["train_tokens"]), sample(spec["test_tokens"])


def _iob1(tokens):
    """IOB1 tags: I- throughout, B- only where a span follows one of its type."""
    out = []
    prev_type, prev_span = None, -1
    for form, etype, span in tokens:
        if etype is None:
            tag = "O"
        else:
            name = ENTITY_TYPES[etype]
            tag = ("B-" if prev_type == etype and prev_span != span else "I-") + name
        out.append((form, tag))
        prev_type, prev_span = etype, span
    return out


def _write_embeddings(path, vocab):
    with open(path, "w", encoding="utf-8") as fh:
        for form, vec in zip(vocab.forms, vocab.vectors):
            fh.write(form + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")


def _write_conllx(path, sents):
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sents:
            for i, (form, tag) in enumerate(sent, start=1):
                fh.write(f"{i}\t{form}\t_\t{tag.split('_')[0]}\t{tag}\t_\t_\t_\t_\t_\n")
            fh.write("\n")


def _write_conll2003(path, sents, per_doc=20):
    with open(path, "w", encoding="utf-8") as fh:
        for i, sent in enumerate(sents):
            if i % per_doc == 0:
                fh.write("-DOCSTART- -X- -X- O\n\n")
            for form, tag in sent:
                fh.write(f"{form} NN I-NP {tag}\n")
            fh.write("\n")


def write_inputs(spec, seed, directory):
    """Generate one workload's inputs into ``directory``; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "embeddings": os.path.join(directory, "vectors.txt"),
        "train": os.path.join(directory, "train.conll"),
        "test": os.path.join(directory, "test.conll"),
    }
    if spec["task"] == "pos":
        vocab, train, test = make_pos(spec, seed)
        _write_conllx(paths["train"], train)
        _write_conllx(paths["test"], test)
        paths["tagmap"] = os.path.join(directory, "fine-to-universal.map")
        with open(paths["tagmap"], "w", encoding="utf-8") as fh:
            fh.write("# fine\tuniversal\n")
            for fine in FINE_TAGS:
                fh.write(f"{fine}\t{TAGMAP[fine]}\n")
    else:
        vocab, train, test = make_ner(spec, seed)
        _write_conll2003(paths["train"], train)
        _write_conll2003(paths["test"], test)
    _write_embeddings(paths["embeddings"], vocab)
    paths["test_tokens"] = sum(len(s) for s in test)
    return paths
