"""rbmkit benchmark: four workloads, end-to-end metrics and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics, where metrics holds every
end-to-end metric of BENCHMARK.json. With --trace 1 it holds every
per-layer metric instead. Lines above it name each metric the way the
workload defines it, with units, plus the environment and every check.
`--workload all` runs each workload in its own child process, one after
the other. See perfbench/README.md for what each metric means on each
workload.
"""

from __future__ import annotations

import os

# One BLAS thread: rbmkit runs threads=1 and the machine's cores are the
# only other resource, so a second BLAS thread would only add contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Recorder, load_rbmkit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
MIN_REPS = 2
MIN_SETUPS = 5
SLOT_UNITS = {"speed": "1/s", "query_per_s": "1/s", "loss": "1"}
REFERENCE_S = 0.010


def _fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _blas_threads():
    """Thread count OpenBLAS reports, or the environment setting."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "seed": seed}


def _code_hash() -> str:
    h = hashlib.sha256()
    for pattern in ("src/rbmkit/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, "rb") as fh:
                h.update(path[len(ROOT):].encode() + fh.read())
    return h.hexdigest()[:16]


def _check_stored_digest(rec, workload: str, seed: int, digest: str):
    """Compare with the digest an earlier run of the same code and seed
    stored in this checkout, or store this one."""
    path = os.path.join(STATE_DIR, "digests.json")
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {}
    key = f"{workload}:{seed}:{_code_hash()}"
    if key in stored:
        rec.check("digest equals earlier runs with this seed", stored[key] == digest,
                  f"{stored[key][:12]} vs {digest[:12]}")
        return
    stored[key] = digest
    fd, tmp = tempfile.mkstemp(dir=STATE_DIR)
    with os.fdopen(fd, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_workload(wl, rk, seed: int, seconds: float, trace: bool):
    """Repeat set-up + cycle for `seconds`; returns (recorder, metrics,
    report lines), with metrics None when an operation raised."""
    rec = Recorder()
    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=STATE_DIR)
    digests, out = [], None
    setup_times, walls, snaps = [], {False: [], True: []}, []
    tracer = Tracer() if trace else None
    # Each repetition is a set-up followed by a cycle, so set-up times are
    # sampled across the whole run; a traced run alternates untraced and
    # traced repetitions.
    modes = (False, True) if trace else (False,)
    try:
        start, last = time.perf_counter(), 0.0
        while (len(walls[False]) < MIN_REPS
               or time.perf_counter() - start + last <= seconds):
            rec.reference()
            t_rep = time.perf_counter()
            for traced in modes:
                if traced:
                    tracer.reset()
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    with rec.op():
                        state = wl.setup(rk, workdir, seed)
                    if not traced:
                        setup_times.append(time.perf_counter() - t0)
                    digest, out = wl.cycle(rk, state, rec)
                    walls[traced].append(time.perf_counter() - t0)
                finally:
                    if traced:
                        tracer.restore()
                if traced:
                    snaps.append(tracer.snapshot())
                digests.append(digest)
            last = time.perf_counter() - t_rep
        while not trace and len(setup_times) < MIN_SETUPS:
            t0 = time.perf_counter()
            with rec.op():
                wl.setup(rk, workdir, seed)
            setup_times.append(time.perf_counter() - t0)
    except Exception as exc:  # any failure ends the run with correct=false
        import traceback
        traceback.print_exc()
        rec.check(f"{wl.name} completes", False, f"{type(exc).__name__}: {exc}")
        return rec, None, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec.check("digest identical across repetitions" + (" (traced and untraced)" if trace else ""),
              len(set(digests)) == 1, f"{len(set(digests))} distinct of {len(digests)}")
    _check_stored_digest(rec, wl.name, seed, digests[0])
    wl.checks(rec, out)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = []
    if not trace:
        # The machine's own speed drifts by tens of percent between runs;
        # timings are scaled to a machine on which the reference loop
        # takes REFERENCE_S, and printed unscaled too.
        slowness = np.median(rec.refs) / REFERENCE_S
        rows, tails = wl.report(rec, out)
        setup_s = float(np.median(setup_times))
        metrics = {"setup_s": _metric(setup_s / slowness, "s"),
                   "peak_rss_mb": _metric(rss_mb, "MB")}
        lines.append(f"machine slowness = {slowness:.4f} (reference loop median "
                     f"{1e3 * np.median(rec.refs):.2f} ms over {len(rec.refs)} runs, against "
                     f"{1e3 * REFERENCE_S:.0f} ms); values below are as measured, the result "
                     "line scales [slot] timings to slowness 1")
        lines.append(f"setup_s = {setup_s:.4f} s (median of {len(setup_times)})  [setup_s]")
        lines.append(f"peak_rss_mb = {rss_mb:.1f} MB  [peak_rss_mb]")
        for slot, name, value, unit in rows:
            where = f"  [{slot}]" if slot else ""
            lines.append(f"{name} = {value:.6g} {unit}{where}")
            if slot:
                kind = slot.split(".")[0]
                scale = slowness if kind in ("speed", "query_per_s") else 1.0
                metrics[slot] = _metric(value * scale, SLOT_UNITS[kind])
        for name, key in tails.items():
            n = len(rec.samples[key])
            tail = rec.tail_rate(key)
            lines.append(f"{name} over {n} calls: median {rec.rate(key):.6g} rows/s, "
                         + (f"p{tail[0]:.0f} {tail[1]:.6g} rows/s" if tail
                            else "no percentile with ten calls beyond it"))
        lines.append(f"repetitions = {len(digests)}")
    else:
        metrics = {}
        for key in snaps[0]:
            values = [s[key] for s in snaps]
            value = values[0] if not key.endswith(".self_ms") else float(np.median(values))
            if not key.endswith(".self_ms") and len(set(values)) != 1:
                rec.check(f"{key} repeats exactly", False, str(values))
            if key.startswith("samplers.fepcd."):
                continue
            metrics[key] = _metric(value, "ms" if key.endswith(".self_ms") else "count")
        adv = snaps[0]["samplers.fepcd.advanced"]
        share = snaps[0]["samplers.fepcd.contributed"] / adv if adv else 0.0
        metrics["samplers.fepcd.elite_share"] = _metric(share, "ratio")
        overhead = 100.0 * (np.median(walls[True]) / np.median(walls[False]) - 1.0)
        metrics["trace.overhead_pct"] = _metric(overhead, "%")
        lines.append(f"trace.overhead_pct = {overhead:.2f} % "
                     f"({len(walls[True])} traced vs {len(walls[False])} untraced repetitions)")
    return rec, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "rbmkit")):
        _fail(f"no rbmkit sources under {src}")
    sys.path.insert(0, src)
    try:
        rk = load_rbmkit()
    except ImportError as exc:
        _fail(f"cannot import rbmkit from {src}: {exc}")
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if not 0 <= args.seed < 2**32:
        _fail("seed must lie in [0, 2^32)")

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    rec, metrics, lines = run_workload(WORKLOADS[args.workload], rk, args.seed,
                                       args.seconds, bool(args.trace))
    for line in lines or ():
        print(f"{args.workload}: {line}")
    for name, ok, detail in rec.checks:
        print(f"{args.workload}: check {'PASS' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    correct = metrics is not None and rec.failed == 0
    print(f"{args.workload}: operations attempted {rec.attempted}, failed {rec.failed}")
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics or {}}))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(names, args) -> int:
    """Each workload in its own child process, so each has its own peak RSS."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}/{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
