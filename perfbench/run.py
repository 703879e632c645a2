"""critiq benchmark.

    python3 perfbench/run.py --workload {train-raw,train-png,score} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The benchmark makes every input from
--seed with `critiq.synth`, imports critiq from the checkout's `src/`, drives
it through its public functions for --seconds seconds, and checks the
outputs (see jobs.py for the workloads). The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The line before it records the machine and
code state. Scratch files live in .perfbench_work/ and are removed at exit;
the full record of each run, and with --trace 1 its spans, are written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
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
    return None


def machine_state(root: Path) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "git_commit": _git_commit(root),
            "src_py_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-raw", "train-png", "score"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "critiq" / "__init__.py").is_file():
        print(f"perfbench: no critiq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    # one BLAS thread unless the caller asks for more: critiq's matrices are
    # small, and a second spinning thread on a shared two-core host makes the
    # step times both slower and less steady; the count is recorded
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import critiq
    if not Path(critiq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported critiq from {critiq.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from perfbench import jobs

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    started = time.time()
    try:
        if args.trace:
            result = jobs.trace(args.workload, args.seed, args.seconds, str(workdir),
                                str(outdir / f"spans-{name}.jsonl"))
        else:
            result = jobs.measure(args.workload, args.seed, args.seconds, str(workdir))
    except Exception:
        # a job that raises (a set-up abort included) is one failed operation
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    emitted = {k: unit for k, (_, unit) in result.metrics.items()}
    if listed != emitted:
        print(f"perfbench: metrics differ from BENCHMARK.json: emitted only "
              f"{sorted(emitted.items() - listed.items())}, listed only "
              f"{sorted(listed.items() - emitted.items())}", file=sys.stderr)
        return 3
    ops = result.ops
    for note in ops.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    line = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_s": time.time() - started,
              "machine": machine_state(ROOT), **result.info, "failures": ops.notes,
              "result": line}
    (outdir / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("machine", "wall_s")} | result.info))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
