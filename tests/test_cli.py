import argparse
import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetag import cli
from sparsetag.corpus import read_conll_ner, write_dataset
from sparsetag.embeddings import load_embeddings
from sparsetag.sparse_coding import kkt_violation, load_codes, load_dictionary

from conftest import make_dataset, make_sequence_task, write_embedding_file


@pytest.fixture(scope="module")
def small_task_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-task")
    task = make_sequence_task(
        seed=3, n_labels=3, atoms_per_label=4, active=2,
        words_per_label=30, n_train=120, n_test=40,
    )
    emb = root / "small.vec"
    write_embedding_file(emb, task["words"], task["vectors"])
    train = root / "train.conll"
    test = root / "test.conll"
    write_dataset(train, make_dataset(task["train"]), "conllx")
    write_dataset(test, make_dataset(task["test"]), "conllx")
    return {"root": root, "embeddings": emb, "train": train, "test": test}


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestLearnDict:
    def test_writes_artifacts_with_kkt_certificates(self, small_task_files, tmp_path, capsys):
        out_dict = tmp_path / "d.txt"
        out_codes = tmp_path / "c.txt"
        code = run(
            "learn-dict", "--embeddings", small_task_files["embeddings"],
            "--m", 12, "--lambda", 0.1, "--variant", "sc1", "--epochs", 4,
            "--seed", 1, "--out-dict", out_dict, "--out-codes", out_codes,
        )
        assert code == 0
        assert "sparsity" in capsys.readouterr().out
        dictionary = load_dictionary(out_dict)
        codes = load_codes(out_codes, m=dictionary.m)
        table = load_embeddings(small_task_files["embeddings"])
        assert np.all(np.linalg.norm(dictionary.atoms, axis=0) <= 1 + 1e-9)
        # file coefficients are 6-significant-digit; certificate at matching slack
        for word in table.words[:10]:
            idx, val = codes.get(word)
            alpha = np.zeros(dictionary.m)
            alpha[idx] = val
            vec = table.lookup(word)
            assert kkt_violation(dictionary.atoms, vec, alpha, 0.1) <= 1e-5

    def test_missing_embeddings_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("learn-dict", "--m", 4, "--out-dict", tmp_path / "d", "--out-codes", tmp_path / "c")
        assert exc.value.code == 2

    def test_sc4_codes_have_no_negatives(self, small_task_files, tmp_path):
        out_codes = tmp_path / "c4.txt"
        code = run(
            "learn-dict", "--embeddings", small_task_files["embeddings"],
            "--m", 12, "--lambda", 0.3, "--variant", "sc4", "--epochs", 3,
            "--out-dict", tmp_path / "d4.txt", "--out-codes", out_codes,
        )
        assert code == 0
        content = out_codes.read_text(encoding="utf-8")
        assert ":-" not in content
        assert ":" in content  # some coefficients exist

    def test_reproducible_byte_identical(self, small_task_files, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out_dict = tmp_path / f"d{tag}.txt"
            out_codes = tmp_path / f"c{tag}.txt"
            assert run(
                "learn-dict", "--embeddings", small_task_files["embeddings"],
                "--m", 8, "--lambda", 0.2, "--variant", "sc3", "--epochs", 3,
                "--seed", 7, "--out-dict", out_dict, "--out-codes", out_codes,
            ) == 0
            outputs.append((out_dict.read_bytes(), out_codes.read_bytes()))
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def trained_sc_model(small_task_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-model")
    out_dict = root / "dict.txt"
    out_codes = root / "codes.txt"
    assert run(
        "learn-dict", "--embeddings", small_task_files["embeddings"],
        "--m", 12, "--lambda", 0.1, "--variant", "sc1", "--epochs", 4,
        "--seed", 1, "--out-dict", out_dict, "--out-codes", out_codes,
    ) == 0
    model = root / "model.txt"
    assert run(
        "train", "--task", "pos", "--scheme", "sc",
        "--train", small_task_files["train"], "--format", "conllx",
        "--codes", out_codes, "--window", 1, "--out", model,
    ) == 0
    return {"model": model, "codes": out_codes, "dict": out_dict}


class TestTrainTagEval:
    def test_scheme_without_resource_exits_2(self, small_task_files, tmp_path, capsys):
        code = run(
            "train", "--task", "pos", "--scheme", "wi_sc",
            "--train", small_task_files["train"], "--format", "conllx",
            "--out", tmp_path / "m",
        )
        assert code == 2
        assert "requires --codes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--c1", "nan"), ("--c1", "inf"), ("--c2", "nan"), ("--c2", "-inf"),
        ("--tolerance", "nan"), ("--tolerance", "-1e-05"),
    ])
    def test_bad_setting_exits_1_before_the_corpus_is_read(self, tmp_path, capsys, flag, value):
        # the corpus would fail to parse, so the message shows what ran first
        train = tmp_path / "train.conll"
        train.write_text("no tab-separated columns here\n", encoding="utf-8")
        model = tmp_path / "m"
        code = run(
            "train", "--task", "pos", "--scheme", "wi", "--train", train, "--format", "conllx",
            f"{flag}={value}", "--out", model,
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"sparsetag: {flag[2:]} must be a finite number >= 0, got {float(value)!r}\n"
        )
        assert not model.exists()

    def test_first_n_limits_training(self, small_task_files, tmp_path):
        from sparsetag.corpus import read_conllx, subset_first_n
        from sparsetag.crf import load_model

        model_path = tmp_path / "m"
        code = run(
            "train", "--task", "pos", "--scheme", "wi",
            "--train", small_task_files["train"], "--format", "conllx",
            "--first-n", 5, "--out", model_path,
        )
        assert code == 0
        # only word identities from the first 5 sentences may appear
        allowed = {
            tok.form
            for sent in subset_first_n(read_conllx(small_task_files["train"]), 5).sentences
            for tok in sent
        }
        model = load_model(model_path)
        seen = {name.split("w=", 1)[1] for name in model.feature_index}
        assert seen and seen <= allowed

    def test_train_reports_why_owlqn_stopped(self, small_task_files, tmp_path, capsys):
        from sparsetag.crf import load_model

        model_path = tmp_path / "m"
        code = run(
            "train", "--task", "pos", "--scheme", "wi",
            "--train", small_task_files["train"], "--format", "conllx",
            "--max-iterations", 1, "--out", model_path,
        )
        assert code == 0
        assert capsys.readouterr().err == "owlqn stopped: max_iterations after 1 iteration(s)\n"
        meta = load_model(model_path).meta
        assert (meta["owlqn_stop"], meta["owlqn_iterations"]) == ("max_iterations", "1")

    def test_tag_then_eval_round_trip(self, small_task_files, trained_sc_model, tmp_path, capsys):
        pred = tmp_path / "pred.conll"
        code = run(
            "tag", "--model", trained_sc_model["model"],
            "--input", small_task_files["test"], "--format", "conllx",
            "--codes", trained_sc_model["codes"], "--out", pred,
        )
        assert code == 0
        capsys.readouterr()
        report = tmp_path / "report.tsv"
        code = run(
            "eval", "--gold", small_task_files["test"], "--pred", pred,
            "--format", "conllx", "--task", "pos",
            "--report", report, "--treebank", "synth", "--scheme", "sc",
            "--lambda", 0.1, "--m", 12,
        )
        assert code == 0
        out = capsys.readouterr().out
        accuracy = float(out.split()[1])
        assert accuracy >= 0.9
        content = report.read_text(encoding="utf-8")
        assert "synth" in content and "accuracy" in content

    def test_training_set_fit_via_cmd_eval(self, small_task_files, trained_sc_model, tmp_path, capsys):
        pred = tmp_path / "trainpred.conll"
        assert run(
            "tag", "--model", trained_sc_model["model"],
            "--input", small_task_files["train"], "--format", "conllx",
            "--codes", trained_sc_model["codes"], "--out", pred,
        ) == 0
        capsys.readouterr()
        assert run(
            "eval", "--gold", small_task_files["train"], "--pred", pred,
            "--format", "conllx", "--task", "pos",
        ) == 0
        assert float(capsys.readouterr().out.split()[1]) == 1.0

    def test_tag_with_wrong_resource_exits_2(self, small_task_files, trained_sc_model, tmp_path, capsys):
        code = run(
            "tag", "--model", trained_sc_model["model"],
            "--input", small_task_files["test"], "--format", "conllx",
            "--embeddings", small_task_files["embeddings"], "--out", tmp_path / "p",
        )
        assert code == 2
        assert "requires --codes" in capsys.readouterr().err

    def test_tag_output_matches_in_process_metric(self, small_task_files, trained_sc_model, tmp_path, capsys):
        from sparsetag.corpus import read_conllx
        from sparsetag.crf import load_model, score_sentences
        from sparsetag.evaluation import token_accuracy
        from sparsetag.features import (
            FeatureConfig,
            FeatureResources,
            sentence_features,
            word_types,
        )
        from sparsetag.sparse_coding import load_codes

        pred = tmp_path / "pred.conll"
        assert run(
            "tag", "--model", trained_sc_model["model"],
            "--input", small_task_files["test"], "--format", "conllx",
            "--codes", trained_sc_model["codes"], "--out", pred,
        ) == 0
        capsys.readouterr()
        assert run(
            "eval", "--gold", small_task_files["test"], "--pred", pred,
            "--format", "conllx", "--task", "pos",
        ) == 0
        file_metric = float(capsys.readouterr().out.split()[1])

        model = load_model(trained_sc_model["model"])
        codes = load_codes(trained_sc_model["codes"])
        config = FeatureConfig(scheme="sc", window=1)
        resources = FeatureResources(codes=codes)
        gold = read_conllx(small_task_files["test"])
        batch = [sentence_features([t.form for t in sent], config, resources)
                 for sent in gold.sentences]
        lengths = list(map(len, batch))
        labels = model.decode(score_sentences(model, word_types(config, resources), batch), lengths)
        decoded = [labels[start:start + n] for start, n in zip(np.cumsum([0, *lengths]), lengths)]
        assert token_accuracy(gold, decoded) == pytest.approx(file_metric, abs=5e-7)

    def test_tag_task_mismatch_exits_2(self, small_task_files, trained_sc_model, tmp_path):
        ner_input = tmp_path / "x.ner"
        ner_input.write_text("John B-PER\n\n", encoding="utf-8")
        code = run(
            "tag", "--model", trained_sc_model["model"], "--input", ner_input,
            "--format", "ner2002", "--codes", trained_sc_model["codes"],
            "--out", tmp_path / "p",
        )
        assert code == 2

    def test_task_format_mismatch_exits_2(self, small_task_files, tmp_path):
        code = run(
            "train", "--task", "ner", "--scheme", "wi",
            "--train", small_task_files["train"], "--format", "conllx",
            "--out", tmp_path / "m",
        )
        assert code == 2

    def test_eval_task_format_mismatch_exits_2_before_reading(self, small_task_files, capsys):
        # the CoNLL-X gold file would fail to parse as ner2003
        test = small_task_files["test"]
        code = run("eval", "--gold", test, "--pred", test, "--format", "ner2003", "--task", "pos")
        assert code == 2
        assert capsys.readouterr().err == (
            "sparsetag: task pos requires a POS corpus format, got ner2003\n"
        )

    def test_eval_tagmap_outside_task_pos_exits_2_before_reading(self, tmp_path, capsys):
        gold = tmp_path / "gold.ner"
        write_dataset(gold, make_dataset([[("John", "B-PER"), ("ran", "O")]], task="ner"), "ner2003")
        tagmap = tmp_path / "map.tsv"
        tagmap.write_text("not a tag map\n", encoding="utf-8")
        code = run(
            "eval", "--gold", gold, "--pred", gold, "--format", "ner2003", "--task", "ner",
            "--tagmap", tagmap,
        )
        assert code == 2
        assert capsys.readouterr().err == "sparsetag: --tagmap only applies to task pos\n"

    def test_dense_scheme_pipeline(self, small_task_files, tmp_path, capsys):
        model = tmp_path / "dense-model"
        assert run(
            "train", "--task", "pos", "--scheme", "dense",
            "--train", small_task_files["train"], "--format", "conllx",
            "--embeddings", small_task_files["embeddings"], "--out", model,
        ) == 0
        pred = tmp_path / "pred.conll"
        assert run(
            "tag", "--model", model, "--input", small_task_files["test"],
            "--format", "conllx", "--embeddings", small_task_files["embeddings"],
            "--out", pred,
        ) == 0


class TestBrownScheme:
    def test_cluster_features_train_and_tag(self, small_task_files, tmp_path, capsys):
        # clusters that encode the label in the path prefix
        clusters = tmp_path / "paths"
        table_words = [
            line.split()[0]
            for line in open(small_task_files["embeddings"], encoding="utf-8")
        ]
        with open(clusters, "w", encoding="utf-8") as fh:
            for word in table_words:
                label_id = int(word[1])  # words are named wL_i
                path = format(label_id, "02b") + "0101"
                fh.write(f"{path}\t{word}\t1\n")
        model = tmp_path / "brown-model"
        assert run(
            "train", "--task", "pos", "--scheme", "brown",
            "--train", small_task_files["train"], "--format", "conllx",
            "--clusters", clusters, "--window", 2, "--out", model,
        ) == 0
        pred = tmp_path / "pred.conll"
        assert run(
            "tag", "--model", model, "--input", small_task_files["test"],
            "--format", "conllx", "--clusters", clusters, "--out", pred,
        ) == 0
        capsys.readouterr()
        assert run(
            "eval", "--gold", small_task_files["test"], "--pred", pred,
            "--format", "conllx", "--task", "pos",
        ) == 0
        accuracy = float(capsys.readouterr().out.split()[1])
        assert accuracy == 1.0  # cluster prefixes are fully label-informative


class TestNerPipeline:
    @pytest.fixture()
    def ner_files(self, tmp_path):
        sents = [
            [("John", "B-PER"), ("lives", "O"), ("in", "O"), ("New", "B-LOC"), ("York", "I-LOC")],
            [("Mary", "B-PER"), ("works", "O"), ("at", "O"), ("Acme", "B-ORG")],
            [("Paris", "B-LOC"), ("is", "O"), ("big", "O")],
        ] * 12
        train = tmp_path / "train.ner"
        test = tmp_path / "test.ner"
        write_dataset(train, make_dataset(sents, task="ner"), "ner2002")
        write_dataset(test, make_dataset(sents[:6], task="ner"), "ner2002")
        return {"train": train, "test": test}

    def test_iobes_training_and_eval(self, ner_files, tmp_path, capsys):
        model = tmp_path / "ner-model"
        assert run(
            "train", "--task", "ner", "--scheme", "wi",
            "--train", ner_files["train"], "--format", "ner2002",
            "--iobes", "--out", model,
        ) == 0
        pred = tmp_path / "pred.ner"
        assert run(
            "tag", "--model", model, "--input", ner_files["test"],
            "--format", "ner2002", "--out", pred,
        ) == 0
        # predictions come out in the 17-tag scheme; spans still align
        tags = {tok.label for s in read_conll_ner(pred, fmt="2002").sentences for tok in s}
        assert any(t.startswith(("S-", "E-")) for t in tags)
        capsys.readouterr()
        assert run(
            "eval", "--gold", ner_files["test"], "--pred", pred,
            "--format", "ner2002", "--task", "ner",
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("f1 ")
        assert float(out.split()[1]) == 1.0

    @pytest.mark.parametrize("fmt", ["ner2002", "ner2003"])
    def test_tag_input_with_a_malformed_last_tag_exits_1(self, ner_files, tmp_path, capsys, fmt):
        # tag reads its input without the IOB1 normalization, which rewrites
        # labels it does not keep, yet every line is still checked
        model = tmp_path / "ner-model"
        assert run(
            "train", "--task", "ner", "--scheme", "wi",
            "--train", ner_files["train"], "--format", "ner2002", "--out", model,
        ) == 0
        text = ner_files["test"].read_text(encoding="utf-8")
        bad = tmp_path / "bad.ner"
        bad.write_text(text + "Rome X-LOC\n", encoding="utf-8")
        pred = tmp_path / "pred.ner"
        capsys.readouterr()
        assert run("tag", "--model", model, "--input", bad, "--format", fmt, "--out", pred) == 1
        lineno = text.count("\n") + 1
        assert capsys.readouterr().err == f"sparsetag: {bad}:{lineno}: malformed NER tag 'X-LOC'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.ner", "ner-model", "test.ner", "train.ner",
        ]

    @pytest.mark.parametrize("iobes", [False, True])
    def test_first_n_normalizes_only_the_kept_sentences(self, tmp_path, capsys, monkeypatch,
                                                        iobes):
        # IOB1: an entity that does not follow one of its type starts with I-
        kept = "Ann I-PER\nmet O\nBob I-PER\nLee I-PER\n\nin O\nRome I-LOC\n\n"
        dropped = "Eve I-PER\nsaw O\nOslo I-LOC\n\nParis I-LOC\nB-ORG B-ORG\n\n"
        full, head = tmp_path / "full.ner", tmp_path / "head.ner"
        full.write_text("-DOCSTART- O\n\n" + kept + dropped, encoding="utf-8")
        head.write_text(kept, encoding="utf-8")
        from sparsetag import corpus

        respan = corpus._respan
        rewritten = []
        monkeypatch.setattr(corpus, "_respan",
                            lambda sent, iobes: rewritten.append(sent) or respan(sent, iobes))
        outputs = []
        for path, first_n in ((full, ["--first-n", 2]), (head, [])):
            model = tmp_path / f"model-{path.stem}"
            rewritten.clear()
            assert run(
                "train", "--task", "ner", "--scheme", "wi", "--train", path,
                "--format", "ner2003", *first_n, *(["--iobes"] if iobes else []), "--out", model,
            ) == 0
            outputs.append((model.read_bytes(), capsys.readouterr().err, len(rewritten)))
        # the same model and messages; the two kept sentences are rewritten
        # once to BIO, and once more to IOBES
        assert outputs[0] == outputs[1]
        assert outputs[0][2] == (4 if iobes else 2)
        # a malformed line among the dropped sentences is still reported
        full.write_text(kept + dropped.replace("B-ORG B-ORG", "B-ORG X-ORG"), encoding="utf-8")
        assert run(
            "train", "--task", "ner", "--scheme", "wi", "--train", full, "--format", "ner2003",
            "--first-n", 2, "--out", tmp_path / "bad-model",
        ) == 1
        assert capsys.readouterr().err == f"sparsetag: {full}:14: malformed NER tag 'X-ORG'\n"
        assert not (tmp_path / "bad-model").exists()

    def test_iobes_singletons_train_as_two_entities(self, tmp_path, capsys):
        train = tmp_path / "train.ner"
        train.write_text("Ann S-PER\nBob S-PER\nmet O\n\n", encoding="utf-8")
        model = tmp_path / "ner-model"
        assert run(
            "train", "--task", "ner", "--scheme", "wi",
            "--train", train, "--format", "ner2002", "--iobes", "--out", model,
        ) == 0
        assert "repaired" not in capsys.readouterr().err
        labels = [ln for ln in model.read_text(encoding="utf-8").splitlines()
                  if ln.startswith("labels ")]
        assert labels == ["labels O S-PER"]


class TestEvalReport:
    # 3 of 5 tags right; 2 of 3 entities right on each side, so P = R = F1 = 2/3
    CASES = {
        "pos": ("conllx", "accuracy", 3 / 5,
                [[("a", "DET"), ("dog", "NOUN"), ("ran", "VERB")], [("it", "PRON"), ("sat", "VERB")]],
                [[("a", "DET"), ("dog", "VERB"), ("ran", "VERB")], [("it", "PRON"), ("sat", "NOUN")]]),
        "ner": ("ner2002", "f1", 2 / 3,
                [[("John", "B-PER"), ("met", "O"), ("Acme", "B-ORG")], [("New", "B-LOC"), ("York", "I-LOC")]],
                [[("John", "B-PER"), ("met", "O"), ("Acme", "B-LOC")], [("New", "B-LOC"), ("York", "I-LOC")]]),
    }

    @pytest.mark.parametrize("task", sorted(CASES))
    def test_report_row_is_the_scored_row(self, tmp_path, capsys, task):
        from sparsetag.evaluation import REPORT_COLUMNS, report_row

        fmt, metric, value, gold_sents, pred_sents = self.CASES[task]
        gold, pred, report = tmp_path / "gold", tmp_path / "pred", tmp_path / "report.tsv"
        write_dataset(gold, make_dataset(gold_sents, task=task), fmt)
        write_dataset(pred, make_dataset(pred_sents, task=task), fmt)
        assert run(
            "eval", "--gold", gold, "--pred", pred, "--format", fmt, "--task", task,
            "--report", report, "--treebank", "synth", "--scheme", "sc",
            "--lambda", 0.1, "--m", 12, "--sparsity", 0.95,
        ) == 0
        assert capsys.readouterr().out.startswith(f"{metric} {value:.6f}")
        row = report_row("synth", task, "sc", 0.1, 12, 0.95, metric, value)
        assert report.read_text(encoding="utf-8") == "\t".join(REPORT_COLUMNS) + "\n" + row + "\n"


class TestCoverage:
    def test_seventy_percent(self, tmp_path, capsys):
        words = [f"w{i}" for i in range(7)]
        emb = tmp_path / "cov.vec"
        write_embedding_file(emb, words, np.eye(7))
        data = tmp_path / "cov.conll"
        sentence = [(f"w{i}", "X") for i in range(10)]
        write_dataset(data, make_dataset([sentence] * 10), "conllx")
        assert run(
            "coverage", "--embeddings", emb, "--data", data, "--format", "conllx"
        ) == 0
        out = capsys.readouterr().out
        assert "tokens 70/100 0.700000" in out
        assert "types 7/10 0.700000" in out


class TestImports:
    @staticmethod
    def run_python(*args, check=True):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, *map(str, args)], capture_output=True, text=True, check=check,
            env=dict(os.environ, PYTHONPATH=src),
        )

    def probe(self, code):
        return self.run_python("-c", code).stdout

    def cli_imports(self, *argv):
        """Exit code of ``python -m sparsetag.cli argv`` and the modules loaded at its exit."""
        code = (
            "import runpy, sys\n"
            f"sys.argv = ['sparsetag', *{[str(a) for a in argv]!r}]\n"
            "try:\n"
            "    runpy.run_module('sparsetag.cli', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print(*sys.modules, file=sys.stderr)\n"
        )
        proc = self.run_python("-c", code, check=False)
        return proc.returncode, set(proc.stderr.splitlines()[-1].split())

    def test_cli_import_leaves_out_scipy_sparse(self):
        out = self.probe("import sys, sparsetag.cli; print('scipy.sparse' in sys.modules)")
        assert out.strip() == "False"

    def test_package_and_cli_import_leave_out_numpy(self):
        out = self.probe(
            "import sys\nimport sparsetag\nprint('numpy' in sys.modules)\n"
            "import sparsetag.cli\nprint('numpy' in sys.modules)"
        )
        assert out.split() == ["False", "False"]

    def test_star_import_binds_every_public_name(self):
        out = self.probe(
            "import sparsetag\nfrom sparsetag import *\n"
            "print(all(name in globals() for name in sparsetag.__all__))\n"
            "print(CrfModel.__module__, load_embeddings.__module__, solve_lasso.__module__)"
        )
        assert out.splitlines() == [
            "True", "sparsetag.crf sparsetag.embeddings sparsetag.sparse_coding",
        ]

    # what importing the CLI, --help and a usage error load none of: the
    # layers, and the standard modules only the layers import
    NOT_AT_START_UP = (
        "numpy", "typing", "dataclasses", "tempfile",
        "sparsetag.corpus", "sparsetag.evaluation", "sparsetag.features",
    )
    # site may import these, through a .pth file or otherwise, which hides a
    # start-up import of them from every probe but the one run with -S
    SITE_MODULES = {"typing", "tempfile"}

    def test_cli_import_without_site_leaves_out_numpy_and_typing(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        out = self.run_python(
            "-S", "-c",
            f"import sys\nsys.path.insert(0, {src!r})\nimport sparsetag.cli\n"
            "print('sparsetag._base' in sys.modules, "
            f"*(m in sys.modules for m in {self.NOT_AT_START_UP!r}))",
        ).stdout
        assert out.split() == ["True"] + ["False"] * len(self.NOT_AT_START_UP)

    def test_help_leaves_out_numpy(self):
        code, loaded = self.cli_imports("--help")
        assert code == 0
        assert "sparsetag._base" in loaded
        assert not loaded & (set(self.NOT_AT_START_UP) - self.SITE_MODULES)

    def test_eval_leaves_out_numpy(self, small_task_files):
        test = small_task_files["test"]
        code, loaded = self.cli_imports(
            "eval", "--gold", test, "--pred", test, "--format", "conllx", "--task", "pos",
        )
        assert code == 0
        assert "sparsetag.evaluation" in loaded
        assert "numpy" not in loaded

    def test_usage_errors_leave_out_numpy(self, small_task_files, tmp_path):
        test = small_task_files["test"]
        for argv in [
            ("tag", "--format", "conllx"),
            ("bogus",),
            ("train", "--task", "pos", "--scheme", "sc", "--train", small_task_files["train"],
             "--format", "conllx", "--out", tmp_path / "model.txt"),
            ("eval", "--gold", test, "--pred", test, "--format", "ner2003", "--task", "pos"),
            ("eval", "--gold", test, "--pred", test, "--format", "ner2003", "--task", "ner",
             "--tagmap", test),
        ]:
            code, loaded = self.cli_imports(*argv)
            assert code == 2, argv
            assert "sparsetag._base" in loaded
            assert not loaded & (set(self.NOT_AT_START_UP) - self.SITE_MODULES), argv

    def test_learn_dict_leaves_out_the_corpus_layers(self, small_task_files, tmp_path):
        code, loaded = self.cli_imports(
            "learn-dict", "--embeddings", small_task_files["embeddings"], "--m", 4,
            "--epochs", 1, "--out-dict", tmp_path / "d.txt", "--out-codes", tmp_path / "c.txt",
        )
        assert code == 0
        assert "sparsetag.sparse_coding" in loaded
        assert not loaded & {"sparsetag.corpus", "sparsetag.evaluation", "sparsetag.features"}

    def test_tag_leaves_out_scipy_sparse(self, small_task_files, trained_sc_model, tmp_path):
        # importing scipy.sparse costs a large share of a short tag run
        argv = [
            "tag", "--model", str(trained_sc_model["model"]),
            "--input", str(small_task_files["test"]), "--format", "conllx",
            "--codes", str(trained_sc_model["codes"]), "--out", str(tmp_path / "pred.conll"),
        ]
        out = self.probe(
            "import sys\nfrom sparsetag import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('scipy.sparse' in sys.modules)"
        )
        assert out.strip().splitlines() == ["tagged 40 sentences", "False"]

    def test_train_leaves_out_scipy(self, small_task_files, trained_sc_model, tmp_path):
        # training builds its design matrix with NumPy alone
        argv = [
            "train", "--task", "pos", "--scheme", "sc", "--train", str(small_task_files["train"]),
            "--format", "conllx", "--codes", str(trained_sc_model["codes"]),
            "--max-iterations", "5", "--out", str(tmp_path / "model.txt"),
        ]
        out = self.probe(
            "import sys\nfrom sparsetag import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('scipy' in sys.modules, 'scipy.sparse' in sys.modules)"
        )
        assert out.strip().splitlines()[-1] == "False False"


def _parse(parser, argv):
    """(parsed arguments or exit code, stdout, stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _full_parser():
    """The CLI's parser as plain argparse builds it, every subcommand's arguments added."""
    cli_parser = cli._build_parser()
    parser = argparse.ArgumentParser(prog=cli_parser.prog, description=cli_parser.description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_arguments in cli._SUBCOMMANDS:
        add_arguments(sub.add_parser(name, help=summary))
    return parser


SUBCOMMANDS = [name for name, _, _ in cli._SUBCOMMANDS]


def _option_strings(name):
    """The option strings of one subcommand, -h and --help included."""
    parser = argparse.ArgumentParser()
    cli._SUBCOMMANDS[SUBCOMMANDS.index(name)][2](parser)
    return sorted(parser._option_string_actions)


class TestParser:
    """The parser adds only the invoked subcommand's arguments, and parses
    as one built with every argument does."""

    def test_only_the_invoked_subcommand_gets_its_arguments(self, monkeypatch):
        added = []
        monkeypatch.setattr(cli, "_SUBCOMMANDS", tuple(
            (name, summary, lambda p, name=name, add=add: (added.append(name), add(p)))
            for name, summary, add in cli._SUBCOMMANDS
        ))
        for argv, expected in [(["--help"], []), (["bogus"], []), (["tag", "--help"], ["tag"]),
                               (["eval", "--task", "pos"], ["eval"])]:
            added.clear()
            _parse(cli._build_parser(), argv)
            assert added == expected, argv

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["-h", "train"],
        *([name, "--help"] for name in SUBCOMMANDS), *([name] for name in SUBCOMMANDS),
    ])
    def test_help_and_errors_match_the_full_parser(self, argv):
        lazy = _parse(cli._build_parser(), argv)
        assert lazy == _parse(_full_parser(), argv)
        assert isinstance(lazy[0], int)
        assert lazy[1] or lazy[2]

    # values an argument may take or reject; __file__ is a path that exists
    VALUES = [
        "1", "2", "0.5", "-1", "nan", "x", "pos", "ner", "sc", "wi", "conllx", "ner2003",
        "text", "sc4", __file__, "/no/such/path", "--", "-h", "train", "eval",
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_argv_parses_as_with_every_argument(self, data):
        name = data.draw(st.sampled_from(SUBCOMMANDS))
        tokens = st.sampled_from(_option_strings(name) + self.VALUES)
        argv = [name, *data.draw(st.lists(tokens, max_size=12))]
        assert _parse(cli._build_parser(), argv) == _parse(_full_parser(), argv)

    def test_console_script_path_matches_the_full_parser(self, monkeypatch):
        import os
        import subprocess
        import sys

        # argparse wraps help at $COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv in (["--help"], ["train", "--help"], ["bogus"], []):
            proc = subprocess.run(
                [sys.executable, "-c",
                 f"import sys\nsys.argv[1:] = {argv!r}\n"
                 "from sparsetag.cli import main\nsys.exit(main())"],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == _parse(_full_parser(), argv)


class TestAnalyzeBasis:
    def test_sc1_norms_in_tsv(self, trained_sc_model, tmp_path, capsys):
        out = tmp_path / "basis.tsv"
        assert run(
            "analyze-basis", "--dict", trained_sc_model["dict"],
            "--codes", trained_sc_model["codes"], "--out", out,
        ) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("# pearson ")
        assert lines[1] == "basis\tl2_norm\tusage_frequency"
        for line in lines[2:]:
            _, norm, freq = line.split("\t")
            assert float(norm) <= 1 + 1e-9
            assert 0.0 <= float(freq) <= 1.0

    @pytest.mark.parametrize(
        "text, where",
        [
            ("2 2 sc1 x 0\n1 0\n0 1\n", ":1: bad dictionary header"),
            ("2 2 sc1 0.1 0\n1 0\n0 one\n", ":3: basis 1: could not convert"),
            ("1000000000 2 sc1 0.1 0\n1 0\n", ":3: basis 1: has 0 values"),
            ("1 2 sc1 nan -1\n1 0\n", ":1: lambda must be a finite number > 0"),
            ("2 2 sc9 0.1 0\n1 0\n0 1\n", ":1: variant must be one of"),
            ("2 2 sc1 0.1 0\n1 0\n0 inf\n", ":3: basis 1: non-finite value"),
        ],
    )
    def test_malformed_dictionary_exits_1_with_location(self, tmp_path, capsys, text, where):
        bad = tmp_path / "bad-dict.txt"
        bad.write_text(text, encoding="utf-8")
        codes = tmp_path / "codes.txt"
        codes.write_text("w 0:0.5\n", encoding="utf-8")
        assert run("analyze-basis", "--dict", bad, "--codes", codes, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sparsetag: {bad}{where}")
        assert err.count("\n") == 1


def _assert_one_line_error(capsys, where):
    err = capsys.readouterr().err
    assert err.startswith(f"sparsetag: {where}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestRejectedEntries:
    """Entries the codes and embedding tables reject name their file and line."""

    @pytest.mark.parametrize("text, lineno, message", [
        ("w 0:1\nw 1:1\n", 2, "duplicate word 'w'"),
        ("w 0:1\nv 1:1 0:1\n", 2, "indices not strictly increasing for 'v'"),
        ("w -1:1\n", 1, "index out of range for 'w'"),
        ("w 0:1\nv 1:0\n", 2, "zero or non-finite coefficient for 'v'"),
        ("w 0:1\nw\t0:1.0\n", 2, "word 'w\\t0:1.0' holds whitespace"),
    ])
    def test_codes_entry(self, tmp_path, capsys, text, lineno, message):
        dictionary = tmp_path / "dict.txt"
        dictionary.write_text("2 2 sc1 0.1 0\n1 0\n0 1\n", encoding="utf-8")
        codes = tmp_path / "codes.txt"
        codes.write_text(text, encoding="utf-8")
        assert run("analyze-basis", "--dict", dictionary, "--codes", codes,
                   "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"sparsetag: {codes}:{lineno}: {message}\n"

    def test_codes_file_without_a_word(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_bytes(b"")
        data = tmp_path / "data.conll"
        data.write_text("1\ta\t_\tA\tA\n2\tb\t_\tB\tB\n\n", encoding="utf-8")
        model = tmp_path / "m"
        assert run("train", "--task", "pos", "--scheme", "sc", "--train", data,
                   "--format", "conllx", "--codes", codes, "--out", model) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"sparsetag: {codes}: no codes found\n")
        assert not model.exists()

    def test_duplicate_embedding_word(self, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("a 1 2\nb 3 4\na 5 6\n", encoding="utf-8")
        data = tmp_path / "data.conll"
        data.write_text("1\ta\t_\tA\tA\n\n", encoding="utf-8")
        assert run("coverage", "--embeddings", vectors, "--data", data,
                   "--format", "conllx") == 1
        assert capsys.readouterr().err == (
            f"sparsetag: {vectors}:3: duplicate word in vocabulary: 'a'\n"
        )

    def test_empty_cluster_path(self, tmp_path, capsys):
        clusters = tmp_path / "paths"
        clusters.write_text("01\ta\t1\n\tb\t1\n", encoding="utf-8")
        data = tmp_path / "data.conll"
        data.write_text("1\ta\t_\tA\tA\n2\tb\t_\tB\tB\n\n", encoding="utf-8")
        assert run("train", "--task", "pos", "--scheme", "brown", "--train", data,
                   "--format", "conllx", "--clusters", clusters, "--out", tmp_path / "m") == 1
        assert capsys.readouterr().err == (
            f"sparsetag: {clusters}:2: path '' is not a non-empty bit string\n"
        )


class TestUndecodableInput:
    def test_codes_file_exits_1(self, tmp_path, capsys):
        dictionary = tmp_path / "dict.txt"
        dictionary.write_text("2 2 sc1 0.1 0\n1 0\n0 1\n", encoding="utf-8")
        codes = tmp_path / "codes.txt"
        codes.write_bytes(b"w 0:0.5\n\xff 1:0.5\n")
        assert run("analyze-basis", "--dict", dictionary, "--codes", codes,
                   "--out", tmp_path / "o") == 1
        _assert_one_line_error(capsys, f"{codes}:2")

    def test_corpus_file_exits_1(self, tmp_path, capsys):
        gold = tmp_path / "gold.ner"
        gold.write_text("Ann B-PER\n\n", encoding="utf-8")
        pred = tmp_path / "pred.ner"
        pred.write_bytes(b"Ann\xff B-PER\n\n")
        assert run("eval", "--gold", gold, "--pred", pred,
                   "--format", "ner2002", "--task", "ner") == 1
        _assert_one_line_error(capsys, f"{pred}:1")

    def test_line_number_exact_past_the_first_read_chunk(self, tmp_path, capsys):
        # 3000 lines (24 kB) come before the bad byte, more than one
        # buffered read; CRLF and CR endings count one line each
        gold = tmp_path / "gold.ner"
        gold.write_text("Ann B-PER\n\n", encoding="utf-8")
        pred = tmp_path / "pred.ner"
        pred.write_bytes(b"Ann B-PER\r\n" * 1000 + b"Ann B-PER\r" * 2000 + b"Bo\xffb O\n")
        assert run("eval", "--gold", gold, "--pred", pred,
                   "--format", "ner2002", "--task", "ner") == 1
        _assert_one_line_error(capsys, f"{pred}:3001")

    def test_model_file_exits_1(self, tmp_path, capsys):
        model, data = _wi_model_files(tmp_path)
        model.write_bytes(model.read_bytes().replace(b"c2 0.001", b"c2 0.\xe9"))
        assert run("tag", "--model", model, "--input", data, "--format", "conllx",
                   "--out", tmp_path / "pred") == 1
        _assert_one_line_error(capsys, f"{model}:4")


_WI_MODEL = """sparsetag-crf 1
[meta]
c1 1
c2 0.001
labels A B
scheme wi
task pos
window 1
[transitions]
A B 0.5
[emissions]
[0]w=x A 1.5
"""


def _wi_model_files(tmp_path, replace=None):
    """A hand-written word-identity model (line N of ``replace`` swapped) and a corpus."""
    lines = _WI_MODEL.split("\n")
    for lineno, text in (replace or {}).items():
        lines[lineno - 1] = text
    model = tmp_path / "model.txt"
    model.write_text("\n".join(lines), encoding="utf-8")
    data = tmp_path / "data.conll"
    data.write_text("1\tx\t_\tA\tA\n2\ty\t_\tB\tB\n\n", encoding="utf-8")
    return model, data


class TestMalformedModel:
    @pytest.mark.parametrize("lineno, text, message", [
        (10, "A C 0.5", "label 'C' is not in the model's labels"),
        (12, "[0]w=x C 1.5", "label 'C' is not in the model's labels"),
        (10, "A B heavy", "'heavy' is not a number"),
        (12, "[0]w=x A nan", "weight 'nan' is not finite"),
        (10, "A B", "expected 'from_label to_label weight', found 2 field(s)"),
        (12, "[0]w=x A 1.5 2", "expected 'feature label weight', found 4 field(s)"),
        (4, "c2 small", "'small' is not a number"),
        (3, "c1 nan", "c1 'nan' is not finite"),
        (4, "c2 -5", "c2 '-5' is negative"),
        (4, "c2 1_0", "'1_0' is not a number"),
        (10, "A B 1_0.5", "'1_0.5' is not a number"),
        (8, "window one", "window 'one' is not one of 1, 2"),
        (8, "window 3", "window '3' is not one of 1, 2"),
        (6, "scheme zz", "scheme 'zz' is not one of sc, dense, brown, fr_w, fr_wc, wi, wi_sc"),
        (7, "task zz", "task 'zz' is not one of pos, ner"),
        (8, "lowercase zz", "lowercase 'zz' is not one of 0, 1"),
    ])
    def test_tag_exits_1_with_location(self, tmp_path, capsys, lineno, text, message):
        model, data = _wi_model_files(tmp_path, {lineno: text})
        assert run("tag", "--model", model, "--input", data, "--format", "conllx",
                   "--out", tmp_path / "pred") == 1
        err = capsys.readouterr().err
        assert err == f"sparsetag: {model}:{lineno}: {message}\n"
