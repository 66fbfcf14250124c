"""Command-line surface: synth, centers, train, encode, query, eval, bench,
sweep-delta, ablate.

Every command is deterministic given its flags and seeds. Failures print a
single ``error: <type>: <message>`` line on stderr and exit nonzero.

An argument ``@FILE`` anywhere on the line is replaced by the file's lines,
one argument per line (argparse's ``fromfile_prefix_chars``): there is no
``key=value`` form, no comment or blank line, and no ``true``/``false``, as a
flag is either present or absent. The arguments take the place of
``@FILE``, so a flag after it wins and a flag before it loses. A missing
file is a usage error (exit 2), like an unknown flag; ``--config`` is not an
option, and any argument starting with ``@`` names a file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bench import (
    format_benchmark,
    run_ablation,
    run_benchmark,
    sweep_delta,
    train_on_bundle,
)
from .centers import audit_centers, build_center_table, count_classes
from .encoding import ENCODE_MODES, _split_batches, _stream_codes, encode_stream
from .evaluation import _rank_blocks, format_report, mean_average_precision, report_key_values
from .exceptions import FusehashError, InvalidParameterError, ShapeError
from .storage import (
    load_bundle,
    load_codes,
    load_features,
    load_labels,
    load_model,
    store_bundle,
    store_centers,
    store_codes,
    store_model,
)
from .synth import SynthSpec, generate_synthetic, make_noisy_stream
from .training import TrainConfig, fit

# The bundle splits that encode and eval can select.
SPLITS = ("train", "query", "retrieval", "all")


def _parse_list(text: str, kind: type) -> tuple:
    """Comma-separated values of ``kind`` (int or float); empty items are skipped."""
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise InvalidParameterError(f"expected comma-separated {noun}, got {text!r}") from exc


def _write_weight_trace(path, weight_rows) -> None:
    lines = [
        f"{index} " + " ".join(f"{w:.10g}" for w in weights)
        for index, weights in enumerate(weight_rows)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_synth(args) -> int:
    spread: float | tuple[float, ...] = _parse_list(args.spread, float)
    if len(spread) == 1:
        spread = spread[0]
    spec = SynthSpec(
        num_classes=args.classes,
        samples_per_class=args.per_class,
        modality_dims=_parse_list(args.dims, int),
        cluster_spread=spread,
        seed=args.seed,
        train_fraction=args.train_fraction,
        query_fraction=args.query_fraction,
    )
    bundle = generate_synthetic(spec)
    store_bundle(bundle, args.out)
    print(
        f"bundle={args.out} samples={bundle.num_samples} "
        f"modalities={len(bundle.modalities)} classes={args.classes} "
        f"train={len(bundle.train_indices)} query={len(bundle.query_indices)} "
        f"retrieval={len(bundle.retrieval_indices)}"
    )
    return 0


def cmd_centers(args) -> int:
    table = build_center_table(args.bits, args.classes, args.seed)
    audit = audit_centers(table)
    if args.out:
        store_centers(table, args.out)
    status = "PASS" if audit.passed else "FAIL"
    print(
        f"bits={table.code_length} classes={table.num_categories} "
        f"hadamard_order={table.hadamard_order} exact={table.is_exact} "
        f"average_distance={audit.average_distance:.4f} "
        f"min_distance={audit.min_distance} threshold={audit.threshold:.2f} "
        f"distinct_rows={audit.distinct_rows} constant_rows={audit.constant_rows} "
        f"audit={status}"
    )
    return 0 if audit.passed else 1


def cmd_train(args) -> int:
    config = TrainConfig(delta=args.delta, seed=args.seed, num_anchors=args.anchors)
    if args.bundle:
        model, _ = train_on_bundle(load_bundle(args.bundle), args.bits, config)
    elif args.features and args.labels:
        features = [load_features(path) for path in args.features]
        labels = load_labels(args.labels)
        centers = build_center_table(args.bits, count_classes(labels), config.seed)
        model = fit(features, labels, centers, config)
    else:
        raise InvalidParameterError(
            "train needs either --bundle or both --features and --labels"
        )
    store_model(model, args.out)
    weights = ",".join(f"{w:.6f}" for w in model.train_weights)
    print(
        f"model={args.out} modalities={model.num_modalities} bits={model.code_length} "
        f"anchors={model.projections[0].shape[1]} iterations={len(model.objective_trace)} "
        f"converged={model.converged} objective={model.objective_trace[-1]:.6g} "
        f"weights={weights}"
    )
    return 0


def _encode_features(args, model):
    missing = set(_parse_list(args.missing, int)) if args.missing else set()
    for index in missing:
        if index < 0 or index >= model.num_modalities:
            raise InvalidParameterError(
                f"missing modality {index} out of range for {model.num_modalities}"
            )
    if args.bundle:
        bundle = load_bundle(args.bundle)
        mats = bundle.features_at(_split_indices(bundle, args.split))
    else:
        if not args.features:
            raise InvalidParameterError("encode needs either --bundle or --features")
        if len(args.features) != model.num_modalities:
            raise ShapeError(
                f"model has {model.num_modalities} modalities, "
                f"got {len(args.features)} feature files"
            )
        mats = [
            None if (m in missing or path == "-") else load_features(path)
            for m, path in enumerate(args.features)
        ]
    return [None if m in missing else mats[m] for m in range(len(mats))]


def cmd_encode(args) -> int:
    model = load_model(args.model)
    batches = _split_batches(_encode_features(args, model), args.batch_size or None)
    results = encode_stream(model, batches, mode=args.mode)
    codes = _stream_codes(results)
    store_codes(codes, args.out)
    if args.weights_trace:
        _write_weight_trace(args.weights_trace, [r.dynamic_weights for r in results])
    mean_iters = float(np.mean([r.iterations for r in results]))
    print(
        f"codes={args.out} samples={codes.shape[1]} bits={codes.shape[0]} "
        f"batches={len(results)} mode={args.mode} mean_iterations={mean_iters:.2f}"
    )
    return 0


def cmd_query(args) -> int:
    if args.top < 1:
        raise InvalidParameterError(f"--top must be positive, got {args.top}")
    db = load_codes(args.db)
    queries = load_codes(args.queries)
    for start, order, distances in _rank_blocks(queries, db):
        for i, (row_order, row_distances) in enumerate(zip(order, distances), start):
            for rank, index in enumerate(row_order[: args.top], 1):
                print(f"query={i} rank={rank} index={index} distance={row_distances[index]}")
    return 0


def _split_indices(bundle, name: str):
    """Indices of one of ``SPLITS``; "all" is every sample."""
    if name == "all":
        return np.arange(bundle.num_samples)
    return getattr(bundle, f"{name}_indices")


def cmd_eval(args) -> int:
    query_codes = load_codes(args.queries)
    db_codes = load_codes(args.db)
    if args.bundle:
        bundle = load_bundle(args.bundle)
        query_labels = bundle.labels_at(_split_indices(bundle, args.query_split))
        db_labels = bundle.labels_at(_split_indices(bundle, args.db_split))
    elif args.query_labels and args.db_labels:
        query_labels = load_labels(args.query_labels)
        db_labels = load_labels(args.db_labels)
    else:
        raise InvalidParameterError(
            "eval needs either --bundle or both --query-labels and --db-labels"
        )
    report = mean_average_precision(
        query_codes, query_labels, db_codes, db_labels, args.cutoff
    )
    print(format_report(report))
    if args.out:
        Path(args.out).write_text(report_key_values(report, per_query=args.per_query) + "\n")
    return 0


def cmd_bench(args) -> int:
    checks = run_benchmark(seed=args.seed)
    print(format_benchmark(checks))
    return 0 if all(check.passed for check in checks) else 1


def cmd_sweep_delta(args) -> int:
    bundle = load_bundle(args.bundle)
    results = sweep_delta(bundle, args.bits, seed=args.seed, cutoff=args.cutoff)
    for delta, score in results:
        print(f"delta={delta:g} map={score:.6f}")
    scores = [score for _, score in results]
    print(f"map_range={max(scores) - min(scores):.6f}")
    return 0


def cmd_ablate(args) -> int:
    bundle = load_bundle(args.bundle)
    queries = bundle.features_at(bundle.query_indices)
    # Built before fit, so a bad --noise-scale or --batch-size fails first.
    batches, corrupted = make_noisy_stream(queries, args.batch_size, args.noise_scale, args.seed)
    model, _ = train_on_bundle(bundle, args.bits, TrainConfig(delta=args.delta, seed=args.seed))
    result = run_ablation(model, bundle, batches, corrupted, cutoff=args.cutoff)
    if args.weights_trace:
        _write_weight_trace(args.weights_trace, result.adaptive_weights)
    print(
        f"adaptive_map={result.adaptive_map:.6f} fixed_map={result.fixed_map:.6f} "
        f"tracking={result.tracking_fraction:.4f} batches={len(result.corrupted)} "
        f"noise_scale={args.noise_scale:g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusehash",
        description="Multi-modal learning-to-hash: train, encode, and evaluate binary codes.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--dims", default="32,16", help="comma-separated feature dims, one per modality")
    p.add_argument("--spread", default="0.3", help="cluster spread, scalar or one per modality")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.5)
    p.add_argument("--query-fraction", type=float, default=0.25)
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("centers", help="build and audit a hash-center table")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional output file for the table")
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("train", help="fit a model on a bundle or feature files")
    p.add_argument("--bundle", help="bundle directory (train split is used)")
    p.add_argument("--features", nargs="+", help="per-modality feature files")
    p.add_argument("--labels", help="label file, one sample per line")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--anchors", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode features into binary codes")
    p.add_argument("--model", required=True)
    p.add_argument("--bundle", help="bundle directory to encode")
    p.add_argument("--split", choices=SPLITS, default="query")
    p.add_argument("--features", nargs="+", help="per-modality feature files ('-' = missing)")
    p.add_argument("--mode", choices=ENCODE_MODES, default="adaptive")
    p.add_argument("--batch-size", type=int, default=0, help="0 = one batch")
    p.add_argument("--missing", help="comma-separated missing modality indices")
    p.add_argument("--weights-trace", help="write per-batch weights to this file")
    p.add_argument("--out", required=True, help="codes file to write")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("query", help="rank a code database for each query code")
    p.add_argument("--db", required=True, help="database codes file")
    p.add_argument("--queries", required=True, help="query codes file")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="compute retrieval mAP")
    p.add_argument("--queries", required=True, help="query codes file")
    p.add_argument("--db", required=True, help="database codes file")
    p.add_argument("--query-labels", help="label file for the queries")
    p.add_argument("--db-labels", help="label file for the database")
    p.add_argument("--bundle", help="derive labels from this bundle's splits instead")
    p.add_argument("--query-split", choices=SPLITS, default="query")
    p.add_argument("--db-split", choices=SPLITS, default="retrieval")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--per-query", action="store_true", help="include per-query APs in --out")
    p.add_argument("--out", help="write a key-value report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the synthetic acceptance checklist")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep-delta", help="retrain over a range of ridge strengths")
    p.add_argument("--bundle", required=True)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=cmd_sweep_delta)

    p = sub.add_parser("ablate", help="adaptive vs fixed encoding on a noisy stream")
    p.add_argument("--bundle", required=True)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--noise-scale", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--weights-trace", help="write per-batch adaptive weights here")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        # Surface a dead pipe here, inside the handler's reach, instead of
        # during the interpreter's shutdown flush.
        sys.stdout.flush()
        return code
    except FusehashError as exc:
        message = str(exc).replace("\n", "; ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; suppress the
        # interpreter's shutdown flush complaint and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
