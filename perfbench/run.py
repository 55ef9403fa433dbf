"""inkstone benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload mlm-desk --seed 1 --seconds 25 --trace 0

Run from the repository root. The program under test is imported from
``src/`` next to this directory. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the loop once untraced
and once traced and reports per-layer metrics derived from the spans.
The last line of standard output is one JSON object; a full record and,
for traced runs, the spans go to ``perfbench/out/``. The exit code is 1
when a correctness gate fails and 2 when the program cannot be loaded.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "tokens_per_s": "tok/s",
         "unit_s_p50": "s", "nll_per_token": "nat/tok"}


def load_program():
    """Put this checkout's ``src`` first on the path and import inkstone from it."""
    src = ROOT / "src"
    if not (src / "inkstone" / "__init__.py").is_file():
        raise ImportError(f"no inkstone package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import inkstone

    if Path(inkstone.__file__).resolve().parent != (src / "inkstone").resolve():
        raise ImportError(f"inkstone imported from {inkstone.__file__}, not from {src}")


def machine_record(seed: int) -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line and line.split()[-1].startswith("/")}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_requested": BLAS_THREADS, "blas_threads": threads,
            "commit": commit, "seed": seed}


def timed_loop(wl, seconds: float, first_index: int):
    """Run ops until ``seconds`` have passed, ``min_ops`` ran and a round is complete."""
    results, times, cpu, errors = [], [], [], []
    t_start = time.perf_counter()
    index = first_index
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            r = wl.op(index)
        except Exception:
            r = None
            errors.append((len(results), traceback.format_exc()))
        times.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        results.append(r)
        index += 1
        if (len(results) >= wl.min_ops and len(results) % wl.ops_per_round == 0
                and time.perf_counter() - t_start >= seconds):
            return results, times, cpu, errors


def check(wl, results, errors) -> dict[int, str]:
    """Failure message per failed op; an op fails when it raises or fails its gate."""
    failures = {i: f"raised:\n{tb}" for i, tb in errors}
    done = [i for i, r in enumerate(results) if r is not None]
    for i, verdict in zip(done, wl.gate([results[i] for i in done])):
        if verdict is not None:
            failures[i] = f"failed its gate: {verdict}"
    return failures


def end_to_end(wl, setup_times, results, times) -> dict:
    """The end-to-end metrics of a run in which every op returned."""
    import resource

    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tokens_per_s": sum(r.tokens for r in results) / sum(times),
        "unit_s_p50": statistics.median(t / r.units for r, t in zip(results, times) if r.units),
        "nll_per_token": wl.quality(results),
    }


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns the full record and the summary line."""
    import layers
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    record = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "machine": machine_record(seed)}
    try:
        setup_times = []
        for k in range(1 if trace else SETUP_REPEATS):
            # each set-up starts from nothing, so peak memory is one set-up's
            wl = None
            gc.collect()
            workdir = scratch / f"setup{k}"
            workdir.mkdir()
            t0 = time.perf_counter()
            wl = WORKLOADS[workload]()
            record["inputs"] = wl.setup(workdir, seed)
            setup_times.append(time.perf_counter() - t0)
        wl.op(0)  # warm-up: the first call in a process runs slower
        results, times, cpu, errors = timed_loop(wl, seconds, 1)
        unseen = []
        if trace:
            tracer = layers.Tracer()
            tracer.install(layers.REQUIRED | set(wl.expected))
            try:
                tracer.start()
                t_results, t_times, t_cpu, t_errors = timed_loop(wl, seconds, 1 + len(results))
                tracer.stop()
            finally:
                tracer.uninstall()
            seen = tracer.seen()
            unseen = [n for n in wl.expected if seen.get(n, 0) == 0]
            record["calls"] = seen
            tracer.save(OUT / f"{workload}-seed{seed}-spans.npz")
            errors += [(i + len(results), tb) for i, tb in t_errors]
            results, times, cpu = results + t_results, times + t_times, cpu + t_cpu
        record["ops"] = [{"seconds": t, "cpu_seconds": c, "units": r.units if r else None}
                         for r, t, c in zip(results, times, cpu)]
        failures = check(wl, results, errors)
        record["inputs"].update(wl.observed([r for r in results if r is not None]))
        record["failures"] = {str(i): f for i, f in failures.items()}
        if unseen:
            record["failures"]["trace"] = f"traced functions never called: {unseen}"
        # a raised op leaves nothing to measure
        metrics, units = {}, UNITS
        if not errors and not trace:
            metrics = end_to_end(wl, setup_times, results, times)
        elif not errors:
            n = len(results) - len(t_results)

            def per_unit(rs, ts):
                return sum(ts) / sum(r.units for r in rs)

            metrics = layers.per_layer(
                tracer, units=len(t_results) if wl.unit == "token" else sum(r.units for r in t_results),
                untraced_unit_s=per_unit(results[:n], times[:n]),
                traced_unit_s=per_unit(t_results, t_times))
            units = layers.UNITS
        record["metrics"] = metrics
        summary = {"correct": not record["failures"], "attempted": len(results),
                   "failed": len(failures),
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        return record, summary
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("mlm-desk", "finetune-small", "decode-file"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        load_program()
    except ImportError as e:
        print(f"cannot load the program under test: {e}", file=sys.stderr)
        return 2
    record, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"machine {json.dumps(record['machine'])}")
    print(f"inputs {json.dumps(record['inputs'], ensure_ascii=False)}")
    for name, m in summary["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for where, f in record["failures"].items():
        print(f"FAILED op {where}: {f}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
