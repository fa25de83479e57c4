"""faet benchmark: end-to-end metrics per workload, per-layer timings traced
from outside the package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-stock-short --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` measures the
per-layer metrics, alternating untraced and traced runs of the same work so
that the tracing overhead is reported too, and writes every span to
`.perfbench/trace-<workload>-seed<n>.json`.  The human-readable block
names each measurement as the workload defines it; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  The exit code is 0 when every correctness check passed,
1 when one failed and 2 when the faet sources cannot be found.

The end-to-end metrics are named so that every workload has each of them:

    setup_s       median set-up time (the seed's documents, a fresh model)
    peak_rss_mb   peak resident set size of the process
    docs_per_s    train(): training docs per second, validation included;
                  serving: evaluate() docs per second
    op_ms_p50     training step (Model.batch_loss entry to Adam.step
    op_ms_p90     return), or one predict_doc call when serving
    ckpt_save_ms  save_checkpoint / load_checkpoint of the workload's model
    ckpt_load_ms

BLAS is pinned to one thread before numpy is imported.  glibc malloc is
told to keep the memory a process frees (fixed mmap and trim thresholds)
instead of handing it back to the kernel and faulting it in again: with
glibc's default, self-adjusting thresholds, the page faults of an operation
depend on what the process did before it (one stock checkpoint load
faulted anywhere from 0 to 9000 pages within a run), and on a shared host
the cost of a fault swings several-fold over minutes (on a shared 2-CPU
x86-64 host the same load took 20 ms in one run and 36 ms in another, the
whole difference in page faults).
"""

from __future__ import annotations

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # mallopt parameters, malloc.h
MMAP_THRESHOLD = 32 << 20      # the largest glibc accepts on 64-bit
TRIM_THRESHOLD = (1 << 31) - 1  # never trim the heap top


def keep_freed_memory() -> bool:
    """Fix glibc malloc's thresholds; False where there is no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


MALLOC_PINNED = keep_freed_memory()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-stock-short", "train-small-long", "serve-stock-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "malloc_keeps_freed": MALLOC_PINNED,
        "git_commit": git_commit(),
    }


def print_block(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<26} {m.value:>14.6g} {m.unit:<7} {m.note}")


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "faet" / "__init__.py").is_file():
        print(f"error: faet sources not found in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import faet

    if Path(faet.__file__).resolve().parent != (src / "faet").resolve():
        print(f"error: imported faet from {faet.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print(f"faet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            str(work_dir / "model.faet"))
    except Exception:  # any failure of the program under test is reported
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = result.checks
    print_block("end to end (untraced):", result.report)
    print(f"  {'failed_ops_frac':<26} {checks.failed / checks.attempted:>14.6g}"
          f" {'':<7} {checks.failed} of {checks.attempted} checked "
          "operations")
    for message in checks.messages:
        print(f"  FAILED: {message}")
    if result.layers is not None:
        print_block("per layer (traced; per step, or per scored document "
                    "when serving):", result.layers)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        result.tracer.dump(str(trace_path), {
            "workload": args.workload, "seed": args.seed, "env": env})
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    shown = result.layers if args.trace else result.metrics
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in shown.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd, check=False).returncode
        print(f"[{name}] exit {code}", flush=True)
        status = status or code
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
