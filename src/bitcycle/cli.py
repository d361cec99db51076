"""Command-line front end: train, eval, and expand.

    bitcycle train  --config runs/cifar10.cfg --seed 3 --out runs/s3
    bitcycle eval   --checkpoint runs/s3/checkpoint.bin
    bitcycle expand --config runs/cifar10.cfg

Thread pinning happens here and nowhere else: BLAS libraries size their
pools when numpy first loads, so this module defers every numpy-touching
import until after the environment is set. The effective thread count is
resolved as --threads, then an `--override run.threads=...`, then the
config file, then 1, and must be at least 1; the overrides and the file
go through the same parser as the run's config, which loads no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitcycle",
        description="cyclic low-bit quantization-aware training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="overrides run.seed")
        p.add_argument("--out", default=None, help="overrides run.out_dir")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="set any config key; repeatable")
        p.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP thread count")

    train = sub.add_parser("train", help="execute the full phase plan")
    common(train)
    train.add_argument("--resume", action="store_true",
                       help="continue from the checkpoint in the output directory")
    train.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")

    ev = sub.add_parser("eval", help="score a checkpoint on the eval split")
    ev.add_argument("--checkpoint", required=True, help="path to a checkpoint file")
    ev.add_argument("--data", default=None, help="overrides the data root")
    ev.add_argument("--batch-size", type=int, default=None, help="eval batch size")
    ev.add_argument("--out", default=None, help="directory for eval.csv (default: beside the checkpoint)")
    ev.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP thread count")

    expand = sub.add_parser("expand", help="print the phase plan without training")
    common(expand)
    return parser


_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _scan_threads(args) -> int:
    """Resolve the thread count through the config parser, which loads no numpy."""
    from .config import ConfigError, apply_overrides, parse_config_text, typed_values

    threads = getattr(args, "threads", None)
    if threads is None:
        config = getattr(args, "config", None)
        raw = {}
        if config:
            with open(config) as f:
                raw = parse_config_text(f.read(), origin=config)
        raw = apply_overrides(raw, getattr(args, "override", []))
        threads = typed_values(raw, origin=config or "<config>").get("run.threads", 1)
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    return threads


def _pin_threads(n: int) -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _load_config(args, threads: int):
    from .config import RunConfig

    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"run.out_dir={args.out}")
    overrides.append(f"run.threads={threads}")
    return RunConfig.from_file(args.config, overrides=overrides)


def _cmd_train(args, threads: int) -> int:
    from .schedule import run_schedule

    cfg = _load_config(args, threads)
    log = None if args.quiet else print
    rows = run_schedule(cfg, resume=args.resume, log=log)
    last = rows[-1]
    print(f"done: {len(rows)} epochs across {last.phase + 1} phases; "
          f"final top1={last.eval_top1!r} top5={last.eval_top5!r}")
    return 0


def _cmd_eval(args, threads: int) -> int:
    from .checkpoint import load_checkpoint
    from .config import RunConfig
    from .data import Normalization
    from .metrics import METRICS_HEADER, MetricsRow, _prefix_length
    from .schedule import evaluate, load_datasets, model_from_checkpoint, pooled_weight_error

    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    path = os.path.join(out_dir, "eval.csv")
    fresh = not os.path.exists(path)
    if not fresh:
        _prefix_length(path, METRICS_HEADER, 0)  # refuse a file a row cannot join
    ck = load_checkpoint(args.checkpoint)
    model, cfg = model_from_checkpoint(ck)
    if args.data is not None:
        cfg = RunConfig({**cfg.values, "data.root": args.data})
    _, test = load_datasets(cfg)
    norm = Normalization.from_dict(ck.metadata["normalization"])
    batch_size = args.batch_size or cfg["data.batch_size"]
    top1, top5, loss = evaluate(model, test, batch_size, norm)
    print(f"checkpoint {args.checkpoint}")
    print(f"phase {ck.phase_index} ({ck.metadata.get('part', '?')}), "
          f"bit depth {ck.metadata.get('bit_depth', '?')}, "
          f"after {ck.metadata.get('iteration', '?')} iterations")
    print(f"top1={top1!r} top5={top5!r} loss={loss!r}")

    row = MetricsRow(
        phase=ck.phase_index, part="eval",
        bit_depth=int(ck.metadata.get("bit_depth", 0)),
        epoch=ck.epochs_done, iteration=int(ck.metadata.get("iteration", 0)),
        lr=0.0, train_loss=loss, eval_top1=top1, eval_top5=top5,
        mean_abs_quant_error=pooled_weight_error(model),
    )
    with open(path, "a", newline="") as f:
        if fresh:
            f.write(METRICS_HEADER + "\n")
        f.write(row.csv_line() + "\n")
    return 0


def _cmd_expand(args, threads: int) -> int:
    from .schedule import load_datasets, plan_phases

    cfg = _load_config(args, threads)
    phases = plan_phases(cfg)
    try:
        train, _ = load_datasets(cfg)
        per_epoch = len(train.labels) // cfg["data.batch_size"]
    except Exception:
        per_epoch = None

    print(f"{'index':>5}  {'part':<13}  {'bits':>4}  {'epochs':>6}  {'iterations':>10}")
    total_epochs = 0
    total_iters = 0
    for p in phases:
        iters = "-" if per_epoch is None else str(p.epochs * per_epoch)
        print(f"{p.index:>5}  {p.part:<13}  {p.bit_depth:>4}  {p.epochs:>6}  {iters:>10}")
        total_epochs += p.epochs
        if per_epoch is not None:
            total_iters += p.epochs * per_epoch
    tail = "-" if per_epoch is None else str(total_iters)
    print(f"{len(phases)} phases, {total_epochs} epochs, {tail} iterations")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": _cmd_train, "eval": _cmd_eval, "expand": _cmd_expand}
    try:
        threads = _scan_threads(args)
        _pin_threads(threads)
        # ConfigError and CheckpointError are ValueErrors
        return handlers[args.command](args, threads)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
