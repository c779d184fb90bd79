import numpy as np
import pytest

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
        from sparsetag.crf import load_model
        from sparsetag.evaluation import token_accuracy
        from sparsetag.features import FeatureConfig, FeatureResources, sentence_features
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
        decoded = [
            model.decode(sentence_features([t.form for t in sent], config, resources))
            for sent in gold.sentences
        ]
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
    def probe(code):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout

    def test_cli_import_leaves_out_scipy_sparse(self):
        out = self.probe("import sys, sparsetag.cli; print('scipy.sparse' in sys.modules)")
        assert out.strip() == "False"

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
    ])
    def test_codes_entry(self, tmp_path, capsys, text, lineno, message):
        dictionary = tmp_path / "dict.txt"
        dictionary.write_text("2 2 sc1 0.1 0\n1 0\n0 1\n", encoding="utf-8")
        codes = tmp_path / "codes.txt"
        codes.write_text(text, encoding="utf-8")
        assert run("analyze-basis", "--dict", dictionary, "--codes", codes,
                   "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"sparsetag: {codes}:{lineno}: {message}\n"

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
