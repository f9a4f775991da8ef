"""Benchmark of psdsim: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload gram_dense --seed 1 --seconds 30 --trace 0

psdsim is imported from the ``src/`` directory beside ``bench/``. After one
untimed warm-up pass the run evaluates the workload's units round robin for
``--seconds`` seconds, completing at least one full pass; between units it
takes five set-up samples (a fresh-interpreter import of psdsim and a build
of the PsdMatrix inputs), whose medians give ``setup_s``. ``pairs_per_s``
divides the pairs of one pass by the sum of the units' median times. Every
output is compared bit for bit with the unit's first output and the first
outputs are checked for correctness. With ``--trace 1`` the timed phase (without
set-up samples) is followed by one traced build and one traced pass (see
layers.py), whose counts depend only on the seed, and the per-layer
metrics are reported instead.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The full record, with
the environment block, goes to the line before it and to
``BENCH_<workload>[.trace].json`` in the checkout root. Notes on the
workloads and metrics are in NOTES.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, fixed before NumPy loads (here and in every child).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "importlib.import_module(sys.argv[2])\n"
    "print(time.perf_counter() - t)\n"
)


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


# --- environment ------------------------------------------------------------


def _openblas():
    """(threads, config) of each OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment(seed):
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = _openblas()
    return {
        "seed": seed,
        "blas_threads": [b.get("threads") for b in blas],
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
    }


# --- measurement ------------------------------------------------------------


def import_seconds(target):
    """Time `import target` in a fresh interpreter (interpreter start excluded)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), target],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def host_cpu_jiffies():
    """(steal, total) jiffies over all CPUs of the host, or None if unreadable."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


class Run:
    """Round-robin evaluation of a workload's units with output bookkeeping."""

    def __init__(self, wl):
        self.wl = wl
        n = len(wl.units)
        self.times = [[] for _ in range(n)]
        self.first = [None] * n       # first successful output table per unit
        self.evals = [0] * n          # evaluations per unit that returned
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0  # over successful evaluations
        self.cpu_s = 0.0

    def evaluate(self, u):
        """Run unit u once; returns its wall time, or None if it raised."""
        pairs = self.wl.units[u]
        self.attempted += pairs
        cpu0 = time.process_time()
        try:
            dt, table = timed(lambda: self.wl.run(u))
        except Exception:
            traceback.print_exc()
            self.failed += pairs
            return None
        self.evals[u] += 1
        self.wall_s += dt
        self.cpu_s += time.process_time() - cpu0
        if self.first[u] is None:
            self.first[u] = table
        else:
            self.failed += min(pairs, _differing_rows(self.first[u], table))
        return dt

    def loop(self, seconds, side=None, side_count=0):
        """Evaluate units round robin for `seconds`, at least one full pass.

        `side` is called `side_count` times between units, spread evenly
        over the window and inside it.
        """
        start = time.perf_counter()
        end = start + seconds
        n = len(self.wl.units)
        i = done = 0
        while i < n or time.perf_counter() < end:
            dt = self.evaluate(i % n)
            if dt is not None:
                self.times[i % n].append(dt)
            i += 1
            if done < side_count and time.perf_counter() - start >= done * seconds / side_count:
                side()
                done += 1
        for _ in range(done, side_count):
            side()

    def check(self):
        """Check each unit's first output; every evaluation of it shares the verdict."""
        for u, table in enumerate(self.first):
            if table is not None:
                self.failed += min(self.wl.units[u], self.wl.check(u, table)) * self.evals[u]
        self.failed = min(self.failed, self.attempted)  # each evaluation fails at most once

    def pass_seconds(self, stat):
        """One pass: the sum over units of `stat` (min or median) of their times."""
        return sum(stat(t) for t in self.times if t)

    def pairs_per_s(self):
        """Pairs per pass over the sum of unit median times, times the passing share.

        The host's speed moves by up to a factor of two in spells of
        seconds to minutes (see NOTES.md); a median over the whole window
        follows the spells least.
        """
        timed_pairs = sum(p for p, t in zip(self.wl.units, self.times) if t)
        if not timed_pairs:
            return 0.0
        ok = (self.attempted - self.failed) / self.attempted
        return ok * timed_pairs / self.pass_seconds(statistics.median)

    def digest(self):
        h = hashlib.sha256()
        for table in self.first:
            h.update(b"" if table is None else table.tobytes())
        return h.hexdigest()


def _differing_rows(a, b):
    if a.shape != b.shape:
        return len(a)
    return int(np.count_nonzero((a.view(np.uint64) != b.view(np.uint64)).any(axis=1)))


def measure(wl_cls, args, workdir, layers):
    record = {}
    wl = wl_cls(args.seed, workdir)
    imports, builds = [], []

    def setup_sample():
        # spread over the run, so the median sees more than one spell of host load
        imports.append(import_seconds(wl.import_target))
        builds.append(timed(wl.build)[0])

    wl.build()
    run = Run(wl)
    for u in range(len(wl.units)):  # warm-up, untimed
        run.evaluate(u)
    jiffies0 = host_cpu_jiffies()
    run.loop(args.seconds, setup_sample, 0 if args.trace else SETUP_REPEATS)
    jiffies1 = host_cpu_jiffies()
    if jiffies0 and jiffies1:
        record["host_steal_frac"] = ((jiffies1[0] - jiffies0[0])
                                     / max(1, jiffies1[1] - jiffies0[1]))
    if run.wall_s:
        record["cpu_over_wall"] = run.cpu_s / run.wall_s
    if args.trace:
        with layers.Tracer() as tracer:
            wl.build()
            traced_s = sum(run.evaluate(u) or 0.0 for u in range(len(wl.units)))
        untraced_s = run.pass_seconds(statistics.median)
        metrics = tracer.metrics(traced_s / untraced_s - 1.0 if untraced_s else 0.0)
        record["call_tree"] = tracer.tree()
    run.check()
    if not args.trace:
        metrics = {
            "pairs_per_s": run.pairs_per_s(),
            "setup_s": statistics.median(imports) + statistics.median(builds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (run.attempted - run.failed) / run.attempted,
        }
        record["setup"] = {"import_s": imports, "build_s": builds}
    record.update({
        "failed_frac": run.failed / run.attempted,
        "unit_pairs": wl.units,
        "unit_seconds": run.times,
        "pass_seconds": {"min": run.pass_seconds(min),
                         "median": run.pass_seconds(statistics.median)},
        "outputs_sha256": run.digest(),
    })
    return run, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "psdsim" / "__init__.py").is_file():
        return fail(f"no psdsim sources under {SRC}; run from a source checkout")
    if not SPEC_FILE.is_file():
        return fail(f"missing {SPEC_FILE}")
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    import psdsim
    if Path(psdsim.__file__).resolve().parent != SRC / "psdsim":
        return fail(f"imported psdsim from {psdsim.__file__}, not {SRC}")
    import layers
    import workloads

    wl_cls = workloads.WORKLOADS.get(args.workload)
    if wl_cls is None:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run, values, record = measure(wl_cls, args, str(workdir), layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), **result, **record}
    name = f"BENCH_{args.workload}{'.trace' if args.trace else ''}.json"
    (ROOT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key, m in metrics.items():
        print(f"{args.workload:20s} {key:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:20s} {'failed_frac':45s} {record['failed_frac']:.6g} 1")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
