"""Command-line pipeline: dictionary learning, training, tagging, evaluation.

Every subcommand is reproducible (all randomness flows from --seed) and
writes outputs atomically, so an interrupted run never leaves a truncated
artifact. Exit codes: 0 success, 1 runtime failure, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._base import CORPUS_FORMATS, SCHEMES, VARIANTS, SparsetagError
from ._textfiles import atomic_output

# Each subcommand imports only the layers it runs, and the parser holds
# only the invoked subcommand's arguments: --help and usage errors load no
# layer, and eval none of crf, sparse_coding and embeddings, which load NumPy.


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


def _check_resource_flags(scheme, args):
    """Reject a scheme whose resource flag is missing."""
    for needs, flag in ((scheme in ("sc", "wi_sc"), "codes"), (scheme == "dense", "embeddings"),
                        (scheme == "brown", "clusters")):
        if needs and not getattr(args, flag):
            raise UsageError(f"scheme {scheme} requires --{flag}")


def _resources_for(scheme, args, lowercase=False):
    """Load exactly the resources a scheme needs, whose flags
    :func:`_check_resource_flags` has accepted."""
    from . import features

    needs_codes = scheme in ("sc", "wi_sc")
    needs_table = scheme == "dense"
    needs_clusters = scheme == "brown"
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
    from . import features

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


def _check_task_flags(args):
    """Reject a --task that does not fit --format or --tagmap, before any file is read."""
    _task_format_check(args.task, args.format)
    if args.tagmap and args.task != "pos":
        raise UsageError("--tagmap only applies to task pos")


def _check_train_flags(args):
    """Reject flag combinations train cannot run, before any file is read."""
    _check_task_flags(args)
    if args.iobes and args.task != "ner":
        raise UsageError("--iobes only applies to task ner")
    _check_resource_flags(args.scheme, args)


def _load_train_data(args):
    from . import corpus

    # every line is checked on read, but only the kept sentences of a
    # 2003 file are normalized to BIO
    dataset = corpus.read_dataset(
        args.train, args.format, use_cpostag=args.cpostag, normalize=False
    )
    if args.first_n is not None:
        dataset = corpus.subset_first_n(dataset, args.first_n)
    if args.format == "ner2003":
        dataset = corpus.from_iobes(dataset)
    if args.tagmap:
        dataset = corpus.map_universal(dataset, corpus.load_tagmap(args.tagmap))
    if args.iobes:
        dataset, repaired = corpus.to_iobes(dataset)
        if repaired:
            print(f"repaired {repaired} ill-formed BIO tag(s)", file=sys.stderr)
    return dataset


def _cmd_train(args):
    _check_train_flags(args)
    # after the usage checks, so a usage error loads no layer
    from . import crf, features

    # before any file is read, so a bad setting costs no reading
    train_config = crf.TrainConfig(
        c1=args.c1,
        c2=args.c2,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
    )
    dataset = _load_train_data(args)
    feat_config = features.FeatureConfig(scheme=args.scheme, window=args.window)
    resources = _resources_for(args.scheme, args, lowercase=args.lowercase)
    batch_ids = _extract_all(dataset, feat_config, resources)
    meta = {
        "scheme": args.scheme,
        "window": str(args.window),
        "task": args.task,
        "iobes": "1" if args.iobes else "0",
        "lowercase": "1" if args.lowercase else "0",
    }
    types = features.word_types(feat_config, resources)
    model = crf.train(types, batch_ids, dataset.labels(), train_config, meta=meta)
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
    from . import corpus, crf, features

    model = crf.load_model(args.model)
    scheme = _model_setting(model, args.model, "scheme", SCHEMES)
    if scheme is None:
        raise UsageError("model carries no feature scheme metadata")
    task = _model_setting(model, args.model, "task", ("pos", "ner"))
    if task:
        _task_format_check(task, args.format)
    window = int(_model_setting(model, args.model, "window", ("1", "2"), default="1"))
    lowercase = _model_setting(model, args.model, "lowercase", ("0", "1"), default="0") == "1"
    feat_config = features.FeatureConfig(scheme=scheme, window=window)
    _check_resource_flags(scheme, args)
    resources = _resources_for(scheme, args, lowercase=lowercase)
    # the input's own labels are not written, so they are read as they stand
    dataset = corpus.read_dataset(args.input, args.format, use_cpostag=args.cpostag,
                                  normalize=False)
    batch_ids = _extract_all(dataset, feat_config, resources)
    emissions = crf.score_sentences(model, features.word_types(feat_config, resources), batch_ids)
    predictions = model.decode(emissions, list(map(len, batch_ids)))
    with atomic_output(args.out) as tmp:
        corpus.write_dataset(tmp, dataset, args.format, labels=predictions)
    print(f"tagged {len(dataset)} sentences")
    return 0


def _cmd_eval(args):
    _check_task_flags(args)
    from . import corpus, evaluation

    # entity_f1 reads spans as the IOB1 normalization does, so the gold
    # file is scored as written
    gold = corpus.read_dataset(args.gold, args.format, use_cpostag=args.cpostag, normalize=False)
    if args.tagmap:
        gold = corpus.map_universal(gold, corpus.load_tagmap(args.tagmap))
    pred = corpus.read_dataset(args.pred, args.format, normalize=False)
    pred_labels = pred.labels()
    if args.task == "pos":
        metric, value = "accuracy", evaluation.token_accuracy(gold, pred_labels)
        print(f"accuracy {value:.6f}")
    else:
        metrics = evaluation.entity_f1(gold, pred_labels)
        overall = metrics.overall
        metric, value = "f1", overall.f1
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
        row = evaluation.report_row(
            args.treebank, args.task, args.scheme, getattr(args, "lambda"), args.m,
            args.sparsity, metric, value,
        )
        evaluation.update_report(args.report, row)
    return 0


def _cmd_coverage(args):
    from . import corpus, embeddings

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


def _learn_dict_arguments(p):
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


def _train_arguments(p):
    p.add_argument("--task", required=True, choices=("pos", "ner"))
    p.add_argument("--scheme", required=True, choices=SCHEMES)
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


def _tag_arguments(p):
    p.add_argument("--model", required=True, type=_existing_path)
    p.add_argument("--input", required=True, type=_existing_path)
    p.add_argument("--format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--codes", type=_existing_path)
    p.add_argument("--embeddings", type=_existing_path)
    p.add_argument("--clusters", type=_existing_path)
    p.add_argument("--cpostag", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tag)


def _eval_arguments(p):
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


def _coverage_arguments(p):
    p.add_argument("--embeddings", required=True, type=_existing_path)
    p.add_argument("--data", required=True, type=_existing_path)
    p.add_argument("--format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--cpostag", action="store_true")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=_cmd_coverage)


def _analyze_basis_arguments(p):
    p.add_argument("--dict", required=True, type=_existing_path)
    p.add_argument("--codes", required=True, type=_existing_path)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze_basis)


# name, help and the function that adds the arguments of each subcommand,
# in the order top-level help lists them
_SUBCOMMANDS = (
    ("learn-dict", "learn a dictionary and sparse codes", _learn_dict_arguments),
    ("train", "train a CRF sequence labeler", _train_arguments),
    ("tag", "label a corpus with a trained model", _tag_arguments),
    ("eval", "score predictions against gold labels", _eval_arguments),
    ("coverage", "embedding coverage of a corpus", _coverage_arguments),
    ("analyze-basis", "per-basis norms and usage frequencies", _analyze_basis_arguments),
)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments when it first parses.

    Top-level help and errors show only the subcommands' names and help, so
    a run builds the arguments of the one subcommand it invokes.
    """

    def __init__(self, *, arguments, **kwargs):
        super().__init__(**kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            add, self._arguments = self._arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsetag",
        description="Sparse-coded word-embedding features for CRF sequence labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, summary, arguments in _SUBCOMMANDS:
        sub.add_parser(name, help=summary, arguments=arguments)
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
