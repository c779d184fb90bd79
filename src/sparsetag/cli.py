"""Command-line pipeline: dictionary learning, training, tagging, evaluation.

Every subcommand is reproducible (all randomness flows from --seed) and
writes outputs atomically, so an interrupted run never leaves a truncated
artifact. Exit codes: 0 success, 1 runtime failure, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus, evaluation, features
from ._base import VARIANTS, SparsetagError
from ._textfiles import atomic_output

# crf, sparse_coding and embeddings load NumPy, so each subcommand imports
# only the layers it runs: --help, eval and usage errors load none of them.

CORPUS_FORMATS = ("conllx", "conllu", "ner2002", "ner2003")


class UsageError(Exception):
    """Inconsistent flag combination; maps to exit code 2."""


def _existing_path(value):
    if not os.path.exists(value):
        raise argparse.ArgumentTypeError(f"path does not exist: {value}")
    return value


def _task_format_check(task, fmt):
    pos_formats = ("conllx", "conllu")
    if task == "pos" and fmt not in pos_formats:
        raise UsageError(f"task pos requires a POS corpus format, got {fmt}")
    if task == "ner" and fmt in pos_formats:
        raise UsageError(f"task ner requires ner2002 or ner2003, got {fmt}")


def _resources_for(scheme, args, lowercase=False):
    """Load exactly the resources a scheme needs; reject mismatches."""
    needs_codes = scheme in ("sc", "wi_sc")
    needs_table = scheme == "dense"
    needs_clusters = scheme == "brown"
    if needs_codes and not args.codes:
        raise UsageError(f"scheme {scheme} requires --codes")
    if needs_table and not args.embeddings:
        raise UsageError(f"scheme {scheme} requires --embeddings")
    if needs_clusters and not args.clusters:
        raise UsageError(f"scheme {scheme} requires --clusters")
    codes = None
    if needs_codes:
        from . import sparse_coding

        codes = sparse_coding.load_codes(args.codes)
    return features.FeatureResources(
        codes=codes,
        table=load_embeddings(args.embeddings) if needs_table else None,
        clusters=features.load_clusters(args.clusters) if needs_clusters else None,
        lowercase_fallback=lowercase,
    )


def load_embeddings(path, format="text"):
    """:func:`sparsetag.embeddings.load_embeddings`, importing that layer on first use."""
    from . import embeddings

    return embeddings.load_embeddings(path, format=format)


def _extract_all(dataset, config, resources):
    return [
        features.sentence_features([tok.form for tok in sent], config, resources)
        for sent in dataset.sentences
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_learn_dict(args):
    from . import sparse_coding

    table = load_embeddings(args.embeddings, format=args.format)
    config = sparse_coding.SparseCodingConfig(
        variant=args.variant,
        m=args.m,
        lam=getattr(args, "lambda"),
        tau=args.tau,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    dictionary, codes = sparse_coding.learn_dictionary(table, config)
    with atomic_output(args.out_dict) as tmp:
        sparse_coding.save_dictionary(tmp, dictionary)
    with atomic_output(args.out_codes) as tmp:
        sparse_coding.save_codes(tmp, codes)
    sparsity = sparse_coding.sparsity_level(codes, config.m)
    print(f"dictionary m={config.m} k={table.dim} variant={config.variant}")
    print(f"sparsity {sparsity:.6f}")
    print(f"objective {dictionary.objectives[-1]:.9g}")
    return 0


def _load_train_data(args):
    dataset = corpus.read_dataset(
        args.train, args.format, use_cpostag=args.cpostag
    )
    _task_format_check(args.task, args.format)
    if args.first_n is not None:
        dataset = corpus.subset_first_n(dataset, args.first_n)
    if args.tagmap:
        if args.task != "pos":
            raise UsageError("--tagmap only applies to task pos")
        dataset = corpus.map_universal(dataset, corpus.load_tagmap(args.tagmap))
    if args.iobes:
        if args.task != "ner":
            raise UsageError("--iobes only applies to task ner")
        dataset, repaired = corpus.to_iobes(dataset)
        if repaired:
            print(f"repaired {repaired} ill-formed BIO tag(s)", file=sys.stderr)
    return dataset


def _cmd_train(args):
    dataset = _load_train_data(args)
    feat_config = features.FeatureConfig(scheme=args.scheme, window=args.window)
    resources = _resources_for(args.scheme, args, lowercase=args.lowercase)
    batch_features = _extract_all(dataset, feat_config, resources)
    from . import crf  # after the usage checks, so a usage error loads no NumPy

    train_config = crf.TrainConfig(
        c1=args.c1,
        c2=args.c2,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
    )
    meta = {
        "scheme": args.scheme,
        "window": str(args.window),
        "task": args.task,
        "iobes": "1" if args.iobes else "0",
        "lowercase": "1" if args.lowercase else "0",
    }
    model = crf.train(batch_features, dataset.labels(), train_config, meta=meta)
    print(
        f"owlqn stopped: {model.meta['owlqn_stop']} after "
        f"{model.meta['owlqn_iterations']} iteration(s)",
        file=sys.stderr,
    )
    with atomic_output(args.out) as tmp:
        crf.save_model(tmp, model)
    print(
        f"trained {args.scheme} model: {len(model.labels)} labels, "
        f"{len(model.feature_index)} features"
    )
    return 0


def _model_setting(model, path, key, choices, default=None):
    """The model's [meta] value for key, which must be one of choices if present."""
    from .crf import CrfError

    value = model.meta.get(key, default)
    if key in model.meta and value not in choices:
        raise CrfError(
            f"{path}:{model.meta_lines[key]}: {key} {value!r} is not one of {', '.join(choices)}"
        )
    return value


def _cmd_tag(args):
    from . import crf

    model = crf.load_model(args.model)
    scheme = _model_setting(model, args.model, "scheme", features.SCHEMES)
    if scheme is None:
        raise UsageError("model carries no feature scheme metadata")
    task = _model_setting(model, args.model, "task", ("pos", "ner"))
    if task:
        _task_format_check(task, args.format)
    window = int(_model_setting(model, args.model, "window", ("1", "2"), default="1"))
    lowercase = _model_setting(model, args.model, "lowercase", ("0", "1"), default="0") == "1"
    feat_config = features.FeatureConfig(scheme=scheme, window=window)
    resources = _resources_for(scheme, args, lowercase=lowercase)
    dataset = corpus.read_dataset(args.input, args.format, use_cpostag=args.cpostag)
    predictions = []
    for sent in dataset.sentences:
        forms = [tok.form for tok in sent]
        sent_feats = features.sentence_features(forms, feat_config, resources)
        predictions.append(model.decode(sent_feats))
    tagged = corpus.replace_labels(dataset, predictions)
    with atomic_output(args.out) as tmp:
        corpus.write_dataset(tmp, tagged, args.format)
    print(f"tagged {len(dataset)} sentences")
    return 0


def _cmd_eval(args):
    # entity_f1 reads spans as the IOB1 normalization does, so the gold
    # file is scored as written
    gold = corpus.read_dataset(args.gold, args.format, use_cpostag=args.cpostag, normalize=False)
    if args.tagmap:
        gold = corpus.map_universal(gold, corpus.load_tagmap(args.tagmap))
    pred = corpus.read_dataset(args.pred, args.format, normalize=False)
    pred_labels = pred.labels()
    _task_format_check(args.task, args.format)
    if args.task == "pos":
        metrics = evaluation.token_accuracy(gold, pred_labels)
        print(f"accuracy {metrics:.6f}")
    else:
        metrics = evaluation.entity_f1(gold, pred_labels)
        overall = metrics.overall
        print(
            f"f1 {overall.f1:.6f} precision {overall.precision:.6f} "
            f"recall {overall.recall:.6f}"
        )
        for etype in sorted(metrics.per_type):
            score = metrics.per_type[etype]
            print(
                f"  {etype}: f1 {score.f1:.6f} precision {score.precision:.6f} "
                f"recall {score.recall:.6f} ({score.correct}/{score.predicted}/{score.gold})"
            )
    if args.report:
        _, row = evaluation.build_report(
            treebank=args.treebank,
            task=args.task,
            scheme=args.scheme,
            metrics=metrics,
            lam=getattr(args, "lambda"),
            m=args.m,
            sparsity=args.sparsity,
        )
        evaluation.update_report(args.report, row)
    return 0


def _cmd_coverage(args):
    from . import embeddings

    table = load_embeddings(args.embeddings)
    dataset = corpus.read_dataset(args.data, args.format, use_cpostag=args.cpostag)
    report = embeddings.coverage(table, dataset, lowercase_fallback=args.lowercase)
    print(f"tokens {report.tokens_covered}/{report.tokens_total} {report.token_coverage:.6f}")
    print(f"types {report.types_covered}/{report.types_total} {report.type_coverage:.6f}")
    return 0


def _cmd_analyze_basis(args):
    from . import sparse_coding

    dictionary = sparse_coding.load_dictionary(args.dict)
    codes = sparse_coding.load_codes(args.codes, m=dictionary.m)
    report = sparse_coding.basis_statistics(dictionary, codes)
    with atomic_output(args.out) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"# pearson {report.correlation:.6f}\n")
            fh.write("basis\tl2_norm\tusage_frequency\n")
            for j in range(dictionary.m):
                fh.write(f"{j}\t{report.norms[j]:.9g}\t{report.frequencies[j]:.9g}\n")
    print(f"pearson {report.correlation:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsetag",
        description="Sparse-coded word-embedding features for CRF sequence labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn-dict", help="learn a dictionary and sparse codes")
    p.add_argument("--embeddings", required=True, type=_existing_path)
    p.add_argument("--format", default="text", choices=("text", "word2vec-text"))
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--lambda", type=float, default=0.1)
    p.add_argument("--variant", default="sc1", choices=VARIANTS)
    p.add_argument("--tau", type=float, default=1e-5)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-dict", required=True)
    p.add_argument("--out-codes", required=True)
    p.set_defaults(func=_cmd_learn_dict)

    p = sub.add_parser("train", help="train a CRF sequence labeler")
    p.add_argument("--task", required=True, choices=("pos", "ner"))
    p.add_argument("--scheme", required=True, choices=features.SCHEMES)
    p.add_argument("--train", required=True, type=_existing_path)
    p.add_argument("--format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--codes", type=_existing_path)
    p.add_argument("--embeddings", type=_existing_path)
    p.add_argument("--clusters", type=_existing_path)
    p.add_argument("--tagmap", type=_existing_path)
    p.add_argument("--iobes", action="store_true")
    p.add_argument("--first-n", type=int)
    p.add_argument("--window", type=int, default=1, choices=(1, 2))
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.001)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--cpostag", action="store_true",
                   help="use the coarse POS column of CoNLL-X input")
    p.add_argument("--lowercase", action="store_true",
                   help="fall back to lowercased forms for vector/code lookup")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tag", help="label a corpus with a trained model")
    p.add_argument("--model", required=True, type=_existing_path)
    p.add_argument("--input", required=True, type=_existing_path)
    p.add_argument("--format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--codes", type=_existing_path)
    p.add_argument("--embeddings", type=_existing_path)
    p.add_argument("--clusters", type=_existing_path)
    p.add_argument("--cpostag", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True, type=_existing_path)
    p.add_argument("--pred", required=True, type=_existing_path)
    p.add_argument("--format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--task", required=True, choices=("pos", "ner"))
    p.add_argument("--tagmap", type=_existing_path)
    p.add_argument("--cpostag", action="store_true")
    p.add_argument("--report", help="TSV report file to upsert a result row into")
    p.add_argument("--treebank", default="-")
    p.add_argument("--scheme", default="-")
    p.add_argument("--lambda", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--sparsity", type=float, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("coverage", help="embedding coverage of a corpus")
    p.add_argument("--embeddings", required=True, type=_existing_path)
    p.add_argument("--data", required=True, type=_existing_path)
    p.add_argument("--format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--cpostag", action="store_true")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("analyze-basis", help="per-basis norms and usage frequencies")
    p.add_argument("--dict", required=True, type=_existing_path)
    p.add_argument("--codes", required=True, type=_existing_path)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze_basis)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"sparsetag: {exc}", file=sys.stderr)
        return 2
    except (SparsetagError, OSError) as exc:
        print(f"sparsetag: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
