"""kfmc benchmark: batch, stream and out-of-sample workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

``--workload`` is ``batch``, ``stream``, ``ose`` or ``all`` (each workload
in turn, in its own process).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics, from spans recorded around the
calls into each ``src/kfmc`` module.  The lines before it name the machine,
the workload's own metrics and the cause of every failed check.  See
README.md in this directory.
"""
T0 = __import__("time").perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB",
                    "main_ms_per_col": "ms", "alt_ms_per_col": "ms",
                    "main_re": "1", "alt_re": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["batch", "stream", "ose", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every workload (smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def pin_threads() -> None:
    """Single-threaded BLAS through the package's own KFMC_THREADS switch."""
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    os.environ["KFMC_THREADS"] = "1"


def blas_info() -> dict:
    """BLAS vendor and the thread count each loaded OpenBLAS reports."""
    import numpy
    import scipy
    info = {"vendor": numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
            "threads": {}}
    prefixes = [f"{p}_get_{{}}{s}" for p in ("scipy_openblas", "openblas")
                for s in ("64_", "")]
    for pkg in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                               pkg.__name__ + ".libs", "*openblas*")
        for path in glob.glob(pattern):
            lib = ctypes.CDLL(path)
            name = next((n for n in prefixes
                         if hasattr(lib, n.format("num_threads"))), None)
            if name is None:
                continue
            info["threads"][pkg.__name__] = int(getattr(lib, name.format("num_threads"))())
            config = getattr(lib, name.format("config"))
            config.restype = ctypes.c_char_p
            info[f"{pkg.__name__}_config"] = config().decode()
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(args, blas) -> dict:
    import numpy
    import scipy
    import kfmc
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "kfmc": kfmc.__version__,
        "blas": blas, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
    }


def _finite(value):
    value = float(value)
    return value if math.isfinite(value) else None


def run_workload(args, workdir: Path) -> dict:
    """Set up, run the timed loop, and return the result record."""
    import workloads
    import tracing
    import_s = time.perf_counter() - T0
    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](size, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    setups = []
    for _ in range(1 if tracer else SETUP_REPS):
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            wl.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setups.append(time.perf_counter() - t0)

    start = time.perf_counter()
    if tracer is None:
        i = 0
        while i < wl.cycle or time.perf_counter() - start < args.seconds:
            wl.rep(i)
            i += 1
        layer = None
    else:
        # alternate an untraced and a traced pass over every input; the spans
        # of the set-up and of the first traced pass are kept, and only the
        # untraced passes' timings stay in the workload's samples
        walls = {False: [], True: []}
        kept = None
        while not walls[True] or time.perf_counter() - start < args.seconds:
            for traced in (False, True):
                if traced:
                    lengths = {k: len(v) for k, v in wl.samples.items()}
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    for i in range(wl.cycle):
                        wl.rep(i)
                finally:
                    walls[traced].append(time.perf_counter() - t0)
                    if traced:
                        tracer.uninstall()
                        if kept is None:
                            kept = list(tracer.spans)
                        tracer.spans.clear()
                        for k, n in lengths.items():
                            del wl.samples[k][n:]
        tracer.spans[:] = kept
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        layer = tracing.per_layer_metrics(tracer.spans, overhead)
        tracer.write_csv(OUT / f"spans-{args.workload}-s{args.seed}.csv")

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = import_s + statistics.median(setups)
    named = {k: (_finite(v), u) for k, (v, u) in wl.named_metrics().items()}
    named["setup_s"] = (setup_s, "s")
    named["peak_rss_mib"] = (peak_rss_mib, "MiB")
    if layer is None:
        generic = wl.generic()
        generic["setup_s"] = setup_s
        generic["peak_rss_mib"] = peak_rss_mib
        metrics = {k: {"value": _finite(generic[k]), "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    else:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {k: {"value": _finite(v), "unit": units[k]}
                   for k, v in layer.items()}
    return {
        "correct": not wl.tally.failures,
        "attempted": wl.tally.attempted,
        "failed": len(wl.tally.failures),
        "metrics": metrics,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failures": wl.tally.failures,
        "setup_runs_s": setups,
        "re_by_input": wl.re,
        "samples_s": wl.samples,
        "trace_notes": tracer.notes if tracer else [],
    }


def print_result(record: dict, header: str) -> None:
    print(header)
    for name, m in record["named"].items():
        print(f"  {name:32s} {m['value']!r:>24} {m['unit']}")
    print(f"  operations attempted {record['attempted']}, failed {record['failed']}")
    for cause in record["failures"][:20]:
        print(f"  FAILED {cause}")
    for note in record.get("trace_notes", []):
        print(f"  trace note: {note}")


def run_all(args) -> int:
    """Each workload in its own process; prints every workload's metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("batch", "stream", "ose"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        record = json.loads((OUT / f"result-{name}-s{args.seed}-t{args.trace}.json")
                            .read_text())
        print_result(record, f"{name}:")
        total["correct"] &= record["correct"]
        total["attempted"] += record["attempted"]
        total["failed"] += record["failed"]
        for k, m in record["named"].items():
            total["metrics"][f"{name}.{k}"] = m
    print(json.dumps(total, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kfmc" / "__init__.py").is_file():
        print(f"kfmc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import kfmc
    if Path(kfmc.__file__).resolve().parent != ROOT / "src" / "kfmc":
        print(f"imported kfmc from {kfmc.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    blas = blas_info()
    if not blas["threads"] or max(blas["threads"].values()) > 1:
        print(f"refusing to run: BLAS threads {blas['threads'] or 'unknown'} "
              "(need exactly 1)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine(args, blas)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print_result(record, f"{args.workload} (seed {args.seed}):")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
