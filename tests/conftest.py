"""Shared fixtures: tiny embedding files and the synthetic labeling task."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sparsetag.corpus import Dataset, Token, write_dataset
from sparsetag.crf import _scaled_forward_backward
from sparsetag.features import WordTypes


PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def load_pipebench(name):
    """The benchmark's module ``pipebench/<name>.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location(f"pipebench_{name}", PIPEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_embedding_file(path, words, vectors, header=False):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(words)} {len(vectors[0])}\n")
        for word, vec in zip(words, vectors):
            fh.write(word + " " + " ".join(f"{v:.8f}" for v in vec) + "\n")


@pytest.fixture
def tiny_embedding_file(tmp_path):
    path = tmp_path / "tiny.vec"
    path.write_text("a 1.0 0.0\nb 0.0 1.0\n", encoding="utf-8")
    return path


def sentence_forward_backward(emissions, transitions):
    """(logZ, unary (T,L), pairwise (T-1,L,L) marginals) of one sentence.

    The batch kernel with unit batch sizes: each step's pairwise sum is then
    the sentence's pairwise marginal.
    """
    return _scaled_forward_backward(emissions, np.ones(len(emissions), dtype=np.int64), transitions)


def per_position(batch_positions):
    """Hand-built sentences as (types, type ids), one type per position.

    Each position is a sequence of (name, value) pairs. It becomes a type
    of its own, at the one offset 0 with no tag, as fr_w / fr_wc positions
    do, so its emissions are its pairs' rows added in order from zero.
    """
    types = WordTypes([(0, "")])
    ids = [
        [types.add([name for name, _ in pos], [value for _, value in pos]) for pos in sent]
        for sent in batch_positions
    ]
    return types, ids


def make_dataset(tagged_sentences, task="pos"):
    return Dataset(
        sentences=[
            [Token(form=f, label=t) for f, t in sent] for sent in tagged_sentences
        ],
        task=task,
    )


def make_sequence_task(seed=7, n_labels=6, atoms_per_label=4, active=3,
                       words_per_label=100, n_train=2000, n_test=400):
    """Synthetic corpus whose labels are recoverable from sparse codes.

    Every label owns a block of orthonormal directions (so the generating
    dictionary is identifiable); a word's embedding is a positive
    combination of a few directions from its label's block, flipped to -x
    for a random half of the words. Sign-and-index code features recover
    the label either way, while a linear scorer on the raw coordinates
    cannot serve +x and -x at once.
    """
    rng = np.random.default_rng(seed)
    k = n_labels * atoms_per_label
    basis = np.linalg.qr(rng.standard_normal((k, k)))[0].T
    words = []
    vectors = []
    word_label = {}
    for lab in range(n_labels):
        block = np.arange(lab * atoms_per_label, (lab + 1) * atoms_per_label)
        for i in range(words_per_label):
            name = f"w{lab}_{i}"
            pick = rng.choice(block, size=active, replace=False)
            coefs = rng.uniform(0.6, 1.4, size=active)
            vec = coefs @ basis[pick]
            vec /= np.linalg.norm(vec)
            if rng.random() < 0.5:
                vec = -vec
            words.append(name)
            vectors.append(vec)
            word_label[name] = f"L{lab}"

    def sample_sentences(count):
        sents = []
        for _ in range(count):
            length = int(rng.integers(5, 13))
            forms = [words[int(rng.integers(len(words)))] for _ in range(length)]
            sents.append([(f, word_label[f]) for f in forms])
        return sents

    return {
        "words": words,
        "vectors": np.array(vectors),
        "train": sample_sentences(n_train),
        "test": sample_sentences(n_test),
    }


@pytest.fixture(scope="session")
def sequence_task_files(tmp_path_factory):
    """The synthetic task written out as files for CLI-level runs."""
    root = tmp_path_factory.mktemp("synthtask")
    task = make_sequence_task()
    emb = root / "synth.vec"
    write_embedding_file(emb, task["words"], task["vectors"])
    train = root / "train.conll"
    test = root / "test.conll"
    write_dataset(train, make_dataset(task["train"]), "conllx")
    write_dataset(test, make_dataset(task["test"]), "conllx")
    return {"root": root, "embeddings": emb, "train": train, "test": test}
