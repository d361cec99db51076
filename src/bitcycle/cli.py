"""Command-line front end: train, eval, and expand.

    bitcycle train  --config runs/cifar10.cfg --seed 3 --out runs/s3
    bitcycle eval   --checkpoint runs/s3/checkpoint.bin
    bitcycle expand --config runs/cifar10.cfg

Thread pinning happens here and nowhere else: BLAS libraries size their
pools when numpy first loads, so this module defers every numpy-touching
import until after the environment is set. The config is read once, by
`config.file_values`, which loads no numpy: the file, then `--override`
and the `--seed`/`--out` shorthands on top. `--threads` then replaces
run.threads, and the count defaults to 1 and must be at least 1. The
threads are pinned from those values, and the same values build the
command's RunConfig (`eval` reads no config file).
"""

from __future__ import annotations

import argparse
import os
import sys

# config loads no numpy, so it may load before the threads are pinned
from .config import ConfigError, RunConfig, file_values


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


def _pin_threads(n: int) -> None:
    if n < 1:
        raise ConfigError(f"threads must be at least 1, got {n}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _cmd_train(args, values: dict) -> int:
    from .schedule import run_schedule

    cfg = RunConfig(values)
    log = None if args.quiet else print
    rows = run_schedule(cfg, resume=args.resume, log=log)
    last = rows[-1]
    print(f"done: {len(rows)} epochs across {last.phase + 1} phases; "
          f"final top1={last.eval_top1!r} top5={last.eval_top5!r}")
    return 0


def _cmd_eval(args, values: dict) -> int:
    from .checkpoint import load_checkpoint
    from .data import Normalization
    from .metrics import MetricsRow, eval_appender
    from .schedule import evaluate, load_split, model_from_checkpoint, plan_phases, pooled_weight_error

    append = eval_appender(args.out or os.path.dirname(os.path.abspath(args.checkpoint)))
    ck = load_checkpoint(args.checkpoint)
    model, cfg = model_from_checkpoint(ck, args.checkpoint)
    norm = Normalization.from_dict(ck.metadata["normalization"])
    if args.data is not None:
        cfg = RunConfig({**cfg.values, "data.root": args.data})
    test = load_split(cfg, "test")
    batch_size = cfg.eval_batch_size() if args.batch_size is None else args.batch_size
    top1, top5, loss = evaluate(model, test, batch_size, norm)
    print(f"checkpoint {args.checkpoint}")
    print(f"phase {ck.phase_index} ({plan_phases(cfg)[ck.phase_index].part}), "
          f"bit depth {model.cfg.bit_depth}, after {ck.metadata['iteration']} iterations")
    print(f"top1={top1!r} top5={top5!r} loss={loss!r}")

    append(MetricsRow(
        phase=ck.phase_index, part="eval", bit_depth=model.cfg.bit_depth,
        epoch=ck.epochs_done, iteration=ck.metadata["iteration"],
        lr=0.0, train_loss=loss, eval_top1=top1, eval_top5=top5,
        mean_abs_quant_error=pooled_weight_error(model),
    ))
    return 0


def _cmd_expand(args, values: dict) -> int:
    from .schedule import load_split, plan_phases

    cfg = RunConfig(values)
    phases = plan_phases(cfg)
    # the plan prints without a corpus on disk; a corpus that is there must load
    per_epoch = None
    if cfg["data.format"] == "synthetic" or cfg.data_root():
        try:
            per_epoch = len(load_split(cfg, "train")) // cfg["data.batch_size"]
        except FileNotFoundError:
            pass

    def iterations(epochs: int) -> str:
        return "-" if per_epoch is None else str(epochs * per_epoch)

    print(f"{'index':>5}  {'part':<13}  {'bits':>4}  {'epochs':>6}  {'iterations':>10}")
    for p in phases:
        print(f"{p.index:>5}  {p.part:<13}  {p.bit_depth:>4}  {p.epochs:>6}  {iterations(p.epochs):>10}")
    total = sum(p.epochs for p in phases)
    print(f"{len(phases)} phases, {total} epochs, {iterations(total)} iterations")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": _cmd_train, "eval": _cmd_eval, "expand": _cmd_expand}
    try:
        values = {}
        if args.command != "eval":
            overrides = list(args.override)
            if args.seed is not None:
                overrides.append(f"run.seed={args.seed}")
            if args.out is not None:
                overrides.append(f"run.out_dir={args.out}")
            values = file_values(args.config, overrides)
        if args.threads is not None:
            values["run.threads"] = args.threads
        _pin_threads(values.setdefault("run.threads", 1))
        # ConfigError and CheckpointError are ValueErrors
        return handlers[args.command](args, values)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
