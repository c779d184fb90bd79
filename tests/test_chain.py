"""learn-dict -> train -> tag -> eval through ``cli.main``, checked from outside.

The inputs come from the benchmark's generator (``pipebench/gen.py``) at
sizes far below its workloads, and every output is checked by
``pipebench/checks.py``, which parses the files itself and recomputes
each number with NumPy: the dictionary's constraint, the printed
objective, Viterbi optimality of every predicted path under the model
file, and the printed score.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsetag
from sparsetag import cli

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"pipebench_{name}", PIPEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load("gen")
checks = _load("checks")

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


def test_learn_dict_output_does_not_depend_on_blas_threads(tmp_path):
    """learn-dict at the ner-tag shape (m = k = 64, sc4), where FISTA seeds
    each mini-batch through matrix products, writes the same bytes with one
    and with two BLAS threads."""
    # the benchmark's ner-tag spec with fewer tokens: the vectors, drawn
    # before the corpora, are the same 522 as the workload's at seed 1
    spec = dict(task="ner", stream=3, k=64, vocab=500, train_tokens=300, test_tokens=100)
    inputs = gen.write_inputs(spec, 1, tmp_path / "inputs")
    src = str(Path(sparsetag.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([
            sys.executable, "-m", "sparsetag.cli", "learn-dict",
            "--embeddings", str(inputs["embeddings"]), "--m", "64", "--lambda", "0.1",
            "--variant", "sc4", "--epochs", "2", "--seed", "1",
            "--out-dict", str(out / "dict.txt"), "--out-codes", str(out / "codes.txt"),
        ], env=env, check=True, capture_output=True, timeout=120)
        written.append([(out / name).read_bytes() for name in ("dict.txt", "codes.txt")])
    assert written[0] == written[1]
