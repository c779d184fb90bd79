"""learn-dict -> train -> tag -> eval through ``cli.main``, checked from outside.

The inputs come from the benchmark's generator (``pipebench/gen.py``) at
sizes far below its workloads, and every output is checked by
``pipebench/checks.py``, which parses the files itself and recomputes
each number with NumPy: the dictionary's constraint, the printed
objective, Viterbi optimality of every predicted path under the model
file, and the printed score.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsetag
from sparsetag import cli
from sparsetag.corpus import write_dataset

from conftest import load_pipebench, make_dataset, write_embedding_file

gen = load_pipebench("gen")
checks = load_pipebench("checks")

# (spec, format). At seed 1 these sizes leave each trained model more than
# 0.05 above the majority baseline (POS accuracy 0.837 against 0.770, NER
# F1 0.734 against 0.683), so that check counts too.
CHAINS = {
    "pos-sc1": (
        dict(task="pos", stream=1, k=16, vocab=96, train_tokens=900, test_tokens=400,
             m=32, lam=0.1, variant="sc1", epochs=1, max_iterations=40),
        "conllx",
    ),
    "ner-sc4": (
        dict(task="ner", stream=3, k=32, vocab=200, train_tokens=2500, test_tokens=800,
             m=64, lam=0.1, variant="sc4", epochs=2, max_iterations=100, first_n=150),
        "ner2003",
    ),
}


def _run(capsys, argv):
    assert cli.main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_passes_every_independent_check(name, tmp_path, capsys):
    spec, fmt = CHAINS[name]
    inputs = gen.write_inputs(spec, 1, tmp_path / "inputs")
    out = {f: tmp_path / f for f in ("dict.txt", "codes.txt", "model.txt", "pred.conll")}
    task, tagmap = spec["task"], inputs.get("tagmap")
    learn = _run(capsys, [
        "learn-dict", "--embeddings", inputs["embeddings"], "--m", spec["m"],
        "--lambda", spec["lam"], "--variant", spec["variant"], "--epochs", spec["epochs"],
        "--seed", 1, "--out-dict", out["dict.txt"], "--out-codes", out["codes.txt"],
    ])
    train = [
        "train", "--task", task, "--scheme", "sc", "--train", inputs["train"], "--format", fmt,
        "--codes", out["codes.txt"], "--max-iterations", spec["max_iterations"],
        "--out", out["model.txt"],
    ]
    evaluate = ["eval", "--gold", inputs["test"], "--pred", out["pred.conll"], "--format", fmt,
                "--task", task]
    if tagmap:
        train += ["--tagmap", tagmap]
        evaluate += ["--tagmap", tagmap]
    else:
        train += ["--iobes", "--first-n", spec["first_n"]]
    _run(capsys, train)
    _run(capsys, [
        "tag", "--model", out["model.txt"], "--input", inputs["test"], "--format", fmt,
        "--codes", out["codes.txt"], "--out", out["pred.conll"],
    ])
    scored = _run(capsys, evaluate)

    checks.check_feasible(out["dict.txt"], out["codes.txt"])
    checks.check_objective(inputs["embeddings"], out["dict.txt"], out["codes.txt"], learn)
    checks.check_viterbi(out["model.txt"], out["codes.txt"], inputs["test"], out["pred.conll"], fmt)
    checks.check_eval(task, inputs["test"], out["pred.conll"], fmt, scored, tagmap)
    baseline = checks.majority_baseline(
        task, inputs["train"], inputs["test"], fmt, tagmap, spec.get("first_n")
    )
    checks.check_beats_baseline(task, scored, baseline)


def _outputs_by_blas_threads(tmp_path, argv, names):
    """The bytes of the files ``names`` that ``sparsetag.cli`` writes into a
    fresh directory ``out`` when run with ``argv(out)``, once with one and
    once with two BLAS threads."""
    src = str(Path(sparsetag.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "sparsetag.cli", *map(str, argv(out))],
                       env=env, check=True, capture_output=True, timeout=120)
        written.append([(out / name).read_bytes() for name in names])
    return written


def _learn_dict_bytes_by_blas_threads(tmp_path, spec, m, variant):
    """The dict.txt and codes.txt bytes of a 2-epoch learn-dict at seed 1,
    run with one and with two BLAS threads."""
    inputs = gen.write_inputs(spec, 1, tmp_path / "inputs")
    return _outputs_by_blas_threads(tmp_path, lambda out: [
        "learn-dict", "--embeddings", inputs["embeddings"], "--m", m, "--lambda", 0.1,
        "--variant", variant, "--epochs", 2, "--seed", 1,
        "--out-dict", out / "dict.txt", "--out-codes", out / "codes.txt",
    ], ["dict.txt", "codes.txt"])


def test_learn_dict_output_does_not_depend_on_blas_threads(tmp_path):
    """learn-dict at the ner-tag shape (m = k = 64, sc4), where FISTA codes
    all 522 words as one block through matrix products, and the rows
    certification rejects go on in smaller blocks, writes the same bytes
    with one and with two BLAS threads."""
    # the benchmark's ner-tag spec with fewer tokens: the vectors, drawn
    # before the corpora, are the same 522 as the workload's at seed 1
    spec = dict(task="ner", stream=3, k=64, vocab=500, train_tokens=300, test_tokens=100)
    one, two = _learn_dict_bytes_by_blas_threads(tmp_path, spec, 64, "sc4")
    assert one == two


def test_learn_dict_output_does_not_depend_on_blas_threads_at_paper_shape(tmp_path):
    """The same at the dict-paper shape (m = 1024 > k = 64, sc1, 256 words),
    where no Gram matrix is formed: each pass codes every word by one
    lockstep feature-sign search in k-space, whose rounds take the
    correlations of 128 rows with all 1,024 atoms in one matrix product."""
    spec = dict(task="pos", stream=1, k=64, vocab=256, train_tokens=300, test_tokens=100)
    one, two = _learn_dict_bytes_by_blas_threads(tmp_path, spec, 1024, "sc1")
    assert one == two


def test_train_output_does_not_depend_on_blas_threads(tmp_path, capsys):
    """train at the ner-tag shape (sc4 codes with m = 64, --iobes
    --first-n 150), where the 431 word types in use and their 64 code
    attributes make a dense type table, writes the same model.txt with one
    and with two BLAS threads: its products add over the 431 types."""
    # the benchmark's ner-tag spec with a smaller test set: vectors and
    # training set are the workload's at seed 1
    spec = dict(task="ner", stream=3, k=64, vocab=500, train_tokens=2500, test_tokens=100)
    inputs = gen.write_inputs(spec, 1, tmp_path / "inputs")
    codes = tmp_path / "codes.txt"
    _run(capsys, [
        "learn-dict", "--embeddings", inputs["embeddings"], "--m", 64, "--lambda", 0.1,
        "--variant", "sc4", "--epochs", 2, "--seed", 1,
        "--out-dict", tmp_path / "dict.txt", "--out-codes", codes,
    ])
    one, two = _outputs_by_blas_threads(tmp_path, lambda out: [
        "train", "--task", "ner", "--scheme", "sc", "--train", inputs["train"],
        "--format", "ner2003", "--codes", codes, "--iobes", "--first-n", 150,
        "--max-iterations", 30, "--out", out / "model.txt",
    ], ["model.txt"])
    assert one == two


def test_train_output_does_not_depend_on_blas_threads_with_1100_dense_attributes(tmp_path):
    """The same for the dense scheme on 1100-dimensional vectors: each type
    then has 1100 attributes, which the type table's product adds up. Two
    labels keep the parameters below 10,000, the length from which
    OpenBLAS threads OWL-QN's dot products."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(250)]
    vectors = rng.standard_normal((len(words), 1100))
    write_embedding_file(tmp_path / "vectors.txt", words, vectors)
    sentences = []
    for _ in range(150):
        forms = [words[i] for i in rng.integers(len(words), size=int(rng.integers(4, 12)))]
        sentences.append([(form, "A" if vectors[int(form[1:]), 0] > 0 else "B") for form in forms])
    write_dataset(tmp_path / "train.conll", make_dataset(sentences), "conllx")
    one, two = _outputs_by_blas_threads(tmp_path, lambda out: [
        "train", "--task", "pos", "--scheme", "dense", "--train", tmp_path / "train.conll",
        "--format", "conllx", "--embeddings", tmp_path / "vectors.txt",
        "--max-iterations", 30, "--out", out / "model.txt",
    ], ["model.txt"])
    assert one == two
