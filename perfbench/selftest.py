"""Fault-injection self-test: shows the benchmark's quality metrics and
checks can fail.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seed N]

Faults are injected from outside by rebinding rbmkit functions in every
module namespace that holds them, exactly as the tracer does:

- zero-negative-phase: cd_k, pcd_step and fepcd_step return zeroed
  negative statistics. Every test_error.* (disc784) and
  neg_exact_loglik.* (oracle-small) loss should worsen by more than its
  bound in BENCHMARK.json.
- logz-plus-1: oracle.partition_function returns log Z + 1. The
  neg_exact_loglik.* losses move by one nat; oracle-check is reported too.
- logz-times-1.01: oracle.partition_function returns 1.01 log Z, a
  parameter-dependent error that oracle-check's finite-difference
  identity should see.

A fault counts as caught when at least one of the metrics or checks it
targets fails. Exit code 0 when every fault is caught.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import rebind, unbind  # noqa: E402
from workloads import WORKLOADS, Recorder, load_rbmkit  # noqa: E402


def _loss_bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"] if m["name"].startswith("loss.")}


def zero_negative_phase(rk) -> list:
    def zeros_like(stats):
        return rk.model.GradientStats(np.zeros_like(stats.vh), np.zeros_like(stats.v),
                                      np.zeros_like(stats.h), stats.count)

    cd_k, pcd_step, fepcd_step = (rk.samplers.cd_k, rk.samplers.pcd_step,
                                  rk.samplers.fepcd_step)

    def bad_cd_k(*args, **kwargs):
        pos, neg = cd_k(*args, **kwargs)
        return pos, zeros_like(neg)

    def bad_pcd_step(*args, **kwargs):
        neg, pool = pcd_step(*args, **kwargs)
        return zeros_like(neg), pool

    def bad_fepcd_step(*args, **kwargs):
        neg, pool = fepcd_step(*args, **kwargs)
        return zeros_like(neg), pool

    return (rebind("cd_k", cd_k, bad_cd_k) + rebind("pcd_step", pcd_step, bad_pcd_step)
            + rebind("fepcd_step", fepcd_step, bad_fepcd_step))


def shifted_logz(rk, fn) -> list:
    original = rk.oracle.partition_function
    return rebind("partition_function", original, lambda p: fn(original(p)))


FAULTS = {
    "zero-negative-phase": (zero_negative_phase, ("disc784", "oracle-small")),
    "logz-plus-1": (lambda rk: shifted_logz(rk, lambda z: z + 1.0), ("oracle-small",)),
    "logz-times-1.01": (lambda rk: shifted_logz(rk, lambda z: 1.01 * z), ("oracle-small",)),
}


def run_cycle(rk, wl, seed, workdir):
    """Losses and failed checks of one set-up + cycle."""
    rec = Recorder()
    state = wl.setup(rk, workdir, seed)
    _, out = wl.cycle(rk, state, rec)
    wl.checks(rec, out)
    rows, _ = wl.report(rec, out)
    losses = {slot: (name, value) for slot, name, value, _ in rows
              if slot and slot.startswith("loss.")}
    return losses, [name for name, ok, _ in rec.checks if not ok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fault-injection self-test")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rk = load_rbmkit()
    bounds = _loss_bounds()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        clean = {w: run_cycle(rk, WORKLOADS[w], args.seed, workdir)
                 for w in ("disc784", "oracle-small")}
        for w, (_, failed) in clean.items():
            if failed:
                print(f"clean {w} already fails checks: {failed}")
                return 1
        caught_all = True
        for fault, (inject, targets) in FAULTS.items():
            caught = False
            for w in targets:
                undo = inject(rk)
                try:
                    losses, failed = run_cycle(rk, WORKLOADS[w], args.seed, workdir)
                finally:
                    unbind(undo)
                for slot, (name, value) in losses.items():
                    base = clean[w][0][slot][1]
                    change = (value - base) / base
                    hit = change > bounds[slot]
                    caught |= hit
                    print(f"{fault}: {w} {name} [{slot}] {base:.4f} -> {value:.4f} "
                          f"({change:+.1%}, bound {bounds[slot]:.0%}) "
                          f"{'BEYOND BOUND' if hit else 'within bound'}")
                for name in failed:
                    print(f"{fault}: {w} check FAIL {name}")
                if not failed:
                    print(f"{fault}: {w} all checks pass")
                caught |= bool(failed)
            print(f"{fault}: {'CAUGHT' if caught else 'NOT CAUGHT'}")
            caught_all &= caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if caught_all else 1


if __name__ == "__main__":
    sys.exit(main())
