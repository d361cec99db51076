"""Does the cyclic schedule actually help? Three arms, three seeds.

Arm (a) trains a 1-bit model directly from random init. Arm (b) first
trains the same architecture with real weights, then fine-tunes at 1 bit
from that checkpoint. Arm (c) runs the full cyclic schedule: soft transfer
from 4 bits, three (2,1) cycles, a 2-bit tail, then the final 1-bit phase.
All arms spend the same 8 epochs in their final 1-bit configuration and are
scored on held-out top-1. The corpus is the built-in synthetic one, so the
whole study is a couple of minutes on one core. Every arm is
configs/synthetic_benefit.cfg with a few keys overridden.

Alongside the final scores, the study tracks the accuracy reached at the
end of each 1-bit re-entry inside arm (c); on a healthy run that sequence
climbs cycle over cycle.

Run as: python demos/benefit_study.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from bitcycle.config import RunConfig
from bitcycle.schedule import run_schedule

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "synthetic_benefit.cfg")
FINAL_EPOCHS = RunConfig.from_file(CONFIG)["schedule.final_epochs"]
SEEDS = (0, 1, 2)


def train(out_dir, *overrides):
    """One arm: the study's config with key=value overrides on top."""
    return run_schedule(RunConfig.from_file(CONFIG, [*overrides, f"run.out_dir={out_dir}"]))


def one_bit_reentries(rows):
    ends = {}
    for r in rows:
        if r.part == "cyclic" and r.bit_depth == 1:
            ends[r.phase] = r.eval_top1
    return [ends[p] for p in sorted(ends)]


if __name__ == "__main__":
    root = Path(tempfile.mkdtemp(prefix="bitcycle_study_"))
    finals = {"direct": [], "warm": [], "ctmq": []}
    reentries = []
    try:
        for seed in SEEDS:
            single = ["schedule.mode=single", f"schedule.epochs={FINAL_EPOCHS}", f"run.seed={seed}"]
            print(f"seed {seed}: direct 1-bit...", flush=True)
            rows = train(root / f"direct_{seed}", *single, "schedule.bit_depth=1")
            finals["direct"].append(rows[-1].eval_top1)

            print(f"seed {seed}: real-weight warm start...", flush=True)
            train(root / f"real_{seed}", *single, "schedule.bit_depth=32")
            rows = train(root / f"warm_{seed}", *single, "schedule.bit_depth=1",
                         f"schedule.initial_weights={root / f'real_{seed}' / 'checkpoint.bin'}")
            finals["warm"].append(rows[-1].eval_top1)

            print(f"seed {seed}: cyclic schedule...", flush=True)
            rows = train(root / f"ctmq_{seed}", f"run.seed={seed}")
            finals["ctmq"].append(rows[-1].eval_top1)
            reentries.append(one_bit_reentries(rows))

        print("\nfinal 1-bit top-1 by arm:")
        for arm in ("direct", "warm", "ctmq"):
            per_seed = "  ".join(f"{v:.4f}" for v in finals[arm])
            print(f"  {arm:>6}: {per_seed}   mean {np.mean(finals[arm]):.4f}")

        means = np.mean(np.asarray(reentries), axis=0)
        print("\n1-bit re-entry top-1 inside the cyclic arm, mean over seeds:")
        print("  " + " -> ".join(f"{v:.4f}" for v in means))
    finally:
        shutil.rmtree(root)
