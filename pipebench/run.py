#!/usr/bin/env python3
"""Benchmark of the sparsetag pipeline: learn-dict -> train -> tag -> eval.

Run from the root of a checkout:

    python3 pipebench/run.py --workload dict-paper --seed 1 --seconds 55 --trace 0

``--trace 0`` runs the chain as a user does, one ``python -m sparsetag.cli``
process per subcommand, in rounds until ``--seconds`` are used, and
prints the end-to-end metrics (medians over rounds). ``--trace 1`` runs
the same chain inside this process through ``sparsetag.cli.main``, with
spans around the layer functions (see spans.py), and prints the
per-layer metrics. Every output is checked by checks.py.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is one CLI
subcommand call or one correctness check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pipebench_work")

# One thread everywhere, so timings do not depend on what else the machine runs.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SPARSETAG_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Each workload is sized so that one layer does most of its work; see
# README.md for why and for the measured split. ``repeats`` runs short
# stages several times per round so their median does not rest on one
# sub-second window.
WORKLOADS = {
    # 256 words fill exactly one lasso batch; fewer would cost as much per
    # sweep and overstate the per-word cost of the sparse step.
    "dict-paper": dict(
        task="pos", stream=1, k=64, vocab=256, train_tokens=1500, test_tokens=1500,
        m=1024, lam=0.1, variant="sc1", epochs=1, max_iterations=30,
        repeats={"learn-dict": 1, "train": 1, "tag": 2, "eval": 1},
    ),
    "ner-tag": dict(
        task="ner", stream=3, k=64, vocab=500, train_tokens=2500, test_tokens=10000,
        m=64, lam=0.1, variant="sc4", epochs=2, max_iterations=30, first_n=150,
        repeats={"learn-dict": 1, "train": 2, "tag": 1, "eval": 1},
    ),
}

STAGES = ("learn-dict", "train", "tag", "eval")
FORMATS = {"pos": "conllx", "ner": "ner2003"}
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND = 1
CLI_TIMEOUT_S = 170


class Ops:
    """Counts operations; a failed check also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, ok, what, is_check=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not is_check
            print(f"FAILED {what}", file=sys.stderr)

    def check(self, fn, *args):
        from checks import CheckFailed

        try:
            detail = fn(*args)
        except CheckFailed as exc:
            self.record(False, f"{fn.__name__}: {exc}", is_check=True)
            return None
        self.record(True, fn.__name__)
        return detail


# ---------------------------------------------------------------------------
# Inputs and command lines
# ---------------------------------------------------------------------------


def stage_argv(spec, seed, inputs, out):
    """The four subcommands of one chain, as argument lists."""
    fmt = FORMATS[spec["task"]]
    files = {name: os.path.join(out, name) for name in ("dict.txt", "codes.txt", "model.txt", "pred.conll")}
    train = [
        "train", "--task", spec["task"], "--scheme", "sc", "--train", inputs["train"],
        "--format", fmt, "--codes", files["codes.txt"], "--window", "1",
        "--max-iterations", str(spec["max_iterations"]), "--out", files["model.txt"],
    ]
    evaluate = [
        "eval", "--gold", inputs["test"], "--pred", files["pred.conll"], "--format", fmt,
        "--task", spec["task"],
    ]
    if spec["task"] == "pos":
        train += ["--tagmap", inputs["tagmap"]]
        evaluate += ["--tagmap", inputs["tagmap"]]
    else:
        train += ["--iobes", "--first-n", str(spec["first_n"])]
    return files, {
        "learn-dict": [
            "learn-dict", "--embeddings", inputs["embeddings"], "--m", str(spec["m"]),
            "--lambda", str(spec["lam"]), "--variant", spec["variant"],
            "--epochs", str(spec["epochs"]), "--seed", str(seed),
            "--out-dict", files["dict.txt"], "--out-codes", files["codes.txt"],
        ],
        "train": train,
        "tag": [
            "tag", "--model", files["model.txt"], "--input", inputs["test"], "--format", fmt,
            "--codes", files["codes.txt"], "--out", files["pred.conll"],
        ],
        "eval": evaluate,
    }


def file_checks(ops, spec, inputs, files, stdout, baseline):
    """The checks on one chain's output files; returns the printed task score."""
    import checks

    task = spec["task"]
    fmt = FORMATS[task]
    tagmap = inputs.get("tagmap")
    ops.check(checks.check_feasible, files["dict.txt"], files["codes.txt"])
    ops.check(checks.check_objective, inputs["embeddings"], files["dict.txt"], files["codes.txt"],
              stdout["learn-dict"])
    ops.check(checks.check_viterbi, files["model.txt"], files["codes.txt"], inputs["test"],
              files["pred.conll"], fmt)
    ops.check(checks.check_eval, task, inputs["test"], files["pred.conll"], fmt, stdout["eval"], tagmap)
    ops.check(checks.check_beats_baseline, task, stdout["eval"], baseline)
    score = checks.read_printed(stdout["eval"], "accuracy" if task == "pos" else "f1")
    return score, checks.read_printed(stdout["learn-dict"], "objective")


FILE_CHECKS = 5


def majority_baseline(spec, inputs):
    import checks

    return checks.majority_baseline(spec["task"], inputs["train"], inputs["test"], FORMATS[spec["task"]],
                                    inputs.get("tagmap"), spec.get("first_n"))


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_python(args, log_dir, env):
    """Run ``python args`` to completion.

    Returns (wall seconds, exit code, peak RSS in KiB, stdout, stderr).
    """
    out_path = os.path.join(log_dir, "child.out")
    err_path = os.path.join(log_dir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return seconds, proc.returncode, usage.ru_maxrss, stdout, stderr


def setup_probe(log_dir, env):
    """Wall time of one CLI process that does no work."""
    seconds, code, _, _, err = run_python(["-m", "sparsetag.cli", "--help"], log_dir, env)
    if code != 0:
        raise RuntimeError(f"sparsetag.cli --help exited {code}: {err.strip()}")
    return seconds


def import_probe(log_dir, env):
    """Seconds to import sparsetag.cli, measured inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import sparsetag.cli; print(time.perf_counter() - t)"
    _, rc, _, out, err = run_python(["-c", code], log_dir, env)
    if rc != 0:
        raise RuntimeError(f"importing sparsetag.cli failed: {err.strip()}")
    return float(out)


def machine_probe():
    """Fixed work in pure Python and in BLAS, to tell a slow machine from a slow program."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    loop_s = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((300, 300))
    start = time.perf_counter()
    for _ in range(20):
        a = a @ a
        a /= np.abs(a).max()
    return loop_s, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def untraced_run(spec, seed, inputs, out, seconds, ops):
    env = child_env()
    files, argv = stage_argv(spec, seed, inputs, out)
    baseline = majority_baseline(spec, inputs)
    setup_probe(out, env)  # warm the bytecode cache; not counted
    setups = [setup_probe(out, env) for _ in range(SETUP_PROBES_FIRST)]
    rounds = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        times, stdout, rss, broken = {}, {}, 0, False
        for stage in STAGES:
            samples = []
            for _ in range(spec["repeats"][stage]):
                if broken:
                    ops.record(False, f"{stage}: skipped after an earlier failure")
                    continue
                secs, code, maxrss, text, err = run_python(["-m", "sparsetag.cli", *argv[stage]], out, env)
                ops.record(code == 0, f"{stage} exited {code}: {err.strip()}")
                broken = code != 0
                samples.append(secs)
                rss = max(rss, maxrss)
                stdout[stage] = text
            times[stage] = statistics.median(samples) if samples else math.nan
        if broken:
            for _ in range(FILE_CHECKS):
                ops.record(False, "check skipped after a failed subcommand")
        else:
            score, objective = file_checks(ops, spec, inputs, files, stdout, baseline)
            rounds.append(dict(times=times, rss_kb=rss, score=score, objective=objective))
        setups += [setup_probe(out, env) for _ in range(SETUP_PROBES_PER_ROUND)]
        longest = max(longest, time.perf_counter() - round_start)
        if time.perf_counter() + longest > deadline:
            break

    if not rounds:
        return {}

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    print(f"rounds {len(rounds)}; majority baseline {baseline:.6f}; stage medians "
          + " ".join(f"{s}={med(lambda r: r['times'][s]):.3f}" for s in STAGES)
          + f"; longest round {longest:.2f} s")
    return {
        "pipeline_s": (med(lambda r: sum(r["times"].values())), "s"),
        "learn_dict_s": (med(lambda r: r["times"]["learn-dict"]), "s"),
        "train_s": (med(lambda r: r["times"]["train"]), "s"),
        "tag_tokens_per_s": (med(lambda r: inputs["test_tokens"] / r["times"]["tag"]), "tokens/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (med(lambda r: r["rss_kb"] / 1024.0), "MB"),
        "task_score": (med(lambda r: r["score"]), "fraction"),
        "dict_objective": (med(lambda r: r["objective"]), "1"),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


OBJECTIVE_CALLS = 5


def traced_run(spec, seed, inputs, out, seconds, ops, workload):
    import numpy as np

    import checks

    env = child_env()
    import_s = statistics.median([import_probe(out, env) for _ in range(5)])
    sys.path.insert(0, SRC)
    import sparsetag
    import sparsetag.cli

    if not os.path.abspath(sparsetag.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"sparsetag imported from {sparsetag.__file__}, not from {SRC}")
    files, argv = stage_argv(spec, seed, inputs, out)
    baseline = majority_baseline(spec, inputs)
    tracer = spans.Tracer()
    tracer.install(sparsetag)
    per_round = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    try:
        while True:
            round_start = time.perf_counter()
            lo = len(tracer.spans)
            stdout, broken = {}, False
            for stage in STAGES:
                if broken:
                    ops.record(False, f"{stage}: skipped after an earlier failure")
                    continue
                buf = io.StringIO()
                span = tracer.begin("cli." + stage)
                try:
                    with contextlib.redirect_stdout(buf):
                        code = sparsetag.cli.main(argv[stage])
                except SystemExit as exc:
                    code = exc.code
                finally:
                    tracer.end(span)
                ops.record(code == 0, f"{stage} returned {code}")
                broken = code != 0
                stdout[stage] = buf.getvalue()
            if broken:
                for _ in range(FILE_CHECKS + 2):
                    ops.record(False, "check skipped after a failed subcommand")
                break
            table = tracer.last["embeddings.load_embeddings"]
            dictionary, codes = tracer.last["sparse_coding.learn_dictionary"]
            batch = tracer.last["crf.compile_batch"]
            model = tracer.last["crf.train"]
            extra = tracer.begin("bench.extra")
            start = time.perf_counter()
            tracer.call("sparse_coding.encode", sparsetag.sparse_coding.encode, dictionary, table)
            encode_s = time.perf_counter() - start
            params = np.concatenate([model.emissions.ravel(), model.transitions.ravel()])
            objective_s = []
            for _ in range(OBJECTIVE_CALLS):
                start = time.perf_counter()
                sparsetag.crf.smooth_objective(params, batch, model.c2)
                objective_s.append(time.perf_counter() - start)
            tracer.end(extra)
            hi = len(tracer.spans)

            file_checks(ops, spec, inputs, files, stdout, baseline)
            ops.check(checks.check_trace, dictionary.objectives)
            ops.check(checks.check_kkt, table.vectors, dictionary.atoms, codes.to_dense(),
                      dictionary.lam, dictionary.variant == "sc4")

            totals, self_times = spans.round_metrics(tracer.spans, lo, hi)
            values = layer_values(totals, self_times)
            values["sparse_coding.encode_words_per_s"] = len(table) / encode_s
            values["crf.objective_eval_s"] = statistics.median(objective_s)
            chain = sum(spans.total(totals, "cli." + s)[0] for s in STAGES)
            values["_split"] = {
                "sparse_coding_self_share": self_times["sparse_coding"] / chain,
                "crf_train_share": values["crf.train_s"] / chain,
                "crf_train_share_of_train": values["crf.train_s"] / spans.total(totals, "cli.train")[0],
                "tag_share": spans.total(totals, "cli.tag")[0] / chain,
                "traced_chain_s": chain,
            }
            values["_reference"] = {
                "nnz_per_word": codes.total_nonzeros() / len(codes),
                "features_per_token": batch.matrix.nnz / batch.n_positions,
                "feature_count": len(model.feature_index),
                "labels": len(model.labels),
                "train_tokens": batch.n_positions,
                "objective_evals": values["crf.objective_evals"],
            }
            per_round.append(values)
            longest = max(longest, time.perf_counter() - round_start)
            if time.perf_counter() + longest > deadline:
                break
    finally:
        tracer.restore()
        tracer.dump(os.path.join(out, f"spans-{workload}.json"))
    if not per_round:
        return {}
    print(f"rounds {len(per_round)}; majority baseline {baseline:.6f}")
    for key in ("_split", "_reference"):
        medians = {k: statistics.median(r[key][k] for r in per_round) for k in per_round[0][key]}
        print(key[1:] + " " + json.dumps(medians, sort_keys=True))
    per_round[0]["cli.import_s"] = import_s
    return {name: (statistics.median(r[name] for r in per_round if name in r), unit)
            for name, unit in PER_LAYER_UNITS}


PER_LAYER_UNITS = [
    ("cli.import_s", "s"),
    ("embeddings.load_s", "s"),
    ("sparse_coding.learn_s", "s"),
    ("sparse_coding.encode_words_per_s", "words/s"),
    ("sparse_coding.load_codes_s", "s"),
    ("corpus.read_tokens_per_s", "tokens/s"),
    ("corpus.write_tokens_per_s", "tokens/s"),
    ("features.train_tokens_per_s", "tokens/s"),
    ("features.tag_tokens_per_s", "tokens/s"),
    ("crf.compile_s", "s"),
    ("crf.objective_eval_s", "s"),
    ("crf.objective_evals", "count"),
    ("crf.train_s", "s"),
    ("crf.decode_tokens_per_s", "tokens/s"),
    ("crf.load_model_s", "s"),
    ("evaluation.score_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in spans.LAYERS]


def layer_values(totals, self_times):
    def secs(name, top=None):
        return spans.total(totals, name, top)[0]

    def rate(name, top=None):
        seconds, count, _ = spans.total(totals, name, top)
        return count / seconds

    values = {
        "embeddings.load_s": secs("embeddings.load_embeddings"),
        "sparse_coding.learn_s": secs("sparse_coding.learn_dictionary"),
        "sparse_coding.load_codes_s": secs("sparse_coding.load_codes"),
        "corpus.read_tokens_per_s": rate("corpus.read_dataset"),
        "corpus.write_tokens_per_s": rate("corpus.write_dataset"),
        "features.train_tokens_per_s": rate("features.sentence_features", "cli.train"),
        "features.tag_tokens_per_s": rate("features.sentence_features", "cli.tag"),
        "crf.compile_s": secs("crf.compile_batch", "cli.train"),
        "crf.objective_evals": spans.total(totals, "crf.smooth_objective", "cli.train")[2],
        "crf.train_s": secs("crf.train"),
        "crf.decode_tokens_per_s": rate("crf.decode"),
        "crf.load_model_s": secs("crf.load_model"),
        "evaluation.score_s": secs("evaluation.token_accuracy") + secs("evaluation.entity_f1"),
    }
    for layer, value in self_times.items():
        values[f"{layer}.self_s"] = value
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsetag", "cli.py")):
        print(f"pipebench: no sparsetag sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    import gen

    spec = WORKLOADS[args.workload]
    out = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    inputs = gen.write_inputs(spec, args.seed, os.path.join(out, "inputs"))
    ops = Ops()
    loop_s, blas_s = machine_probe()
    print(f"machine probe before: python_loop_s={loop_s:.4f} blas_matmul_s={blas_s:.4f}")
    if args.trace:
        metrics = traced_run(spec, args.seed, inputs, out, args.seconds, ops, args.workload)
    else:
        metrics = untraced_run(spec, args.seed, inputs, out, args.seconds, ops)
    loop_s, blas_s = machine_probe()
    print(f"machine probe after: python_loop_s={loop_s:.4f} blas_matmul_s={blas_s:.4f}")
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad or not metrics:
        print(f"pipebench: no finite value for {bad or 'any metric'}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
