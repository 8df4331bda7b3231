"""crmlab benchmark: one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; crmlab is imported from ``src/``.
The run sets up its inputs from ``--seed`` several times (``setup_s`` is
the import time plus the median set-up), then runs timed passes for about
``--seconds`` seconds and checks every pass's outputs. With ``--trace 0``
it reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is one JSON object; a result file with the machine
facts, the per-pass figures and an output digest goes to
``.perfbench-out/results/``.
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
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3
MIN_PASSES = 2
SCALES = ("full", "tiny")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input size; 'tiny' is for the smoke pass")
    return parser.parse_args(argv)


def _git_sha() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository's sha
    # when the checkout is a plain copy of the sources.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crmlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_facts(crm_lab_threads: str | None, blas_env: dict, load_at_start) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads(),
                 "env_inherited": blas_env},
        "crm_lab_threads": crm_lab_threads,
        "loadavg_at_start": load_at_start,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "crmlab" / "__init__.py").is_file():
        print(f"perfbench: no crmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # tune takes its serial path, the one users get by default.
    crm_lab_threads = os.environ.pop("CRM_LAB_THREADS", None)
    # One thread of load: a BLAS worker on the second core made pass times
    # track the neighbours' load on a shared 2-core host. Set before numpy
    # loads BLAS; a value the caller sets explicitly is kept and recorded.
    blas_env = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import crmlab  # noqa: F401  (timed: part of setup_s)
    import scipy.optimize  # noqa: F401  (solve_logging_nll_exact's lazy import)
    import workloads
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    recorder = tracing.Recorder()
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.scale, recorder, work)
        setup_times = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t)

        passes = run_passes(wl, recorder, args)
        failures = wl.run_failures()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    outcomes = [p["outcome"] for p in passes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(min(len(o.failures), o.attempted) for o in outcomes)
    failures += [f for o in outcomes for f in o.failures]
    digests = {o.digest for o in outcomes if not o.failures}
    if wl.REPEATS_OUTPUTS and len(digests) > 1:
        failures.append("outputs differ between passes of one seed")
    first = outcomes[0]
    wall_s = _median([p["wall"] for p in untraced])

    end_to_end = {
        "setup_s": import_s + _median(setup_times),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # A failed first pass has no outputs to score; correct is false then.
        "policy_reward": first.quality.get("policy_reward", 0.0),
        "certified_risk": first.quality.get("certified_risk", 0.0),
    }
    extra = {"error_rate": failed / attempted if attempted else 1.0}
    for name, work_per_pass in wl.work_done().items():
        extra[name] = work_per_pass / wall_s if wall_s > 0 else 0.0

    if args.trace:
        metrics = layer_metrics(recorder, passes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(
            "metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(units))}")

    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "machine": machine_facts(crm_lab_threads, blas_env, load_at_start),
        "import_s": import_s, "setup_reps_s": setup_times,
        "passes": [{"wall_s": p["wall"], "traced": p["traced"],
                    "attempted": p["outcome"].attempted,
                    "failures": p["outcome"].failures} for p in passes],
        "end_to_end": end_to_end, "extra": extra,
        "output_sha256": first.digest,
        "quality": first.quality,
        "failures": failures,
        "result": result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        recorder.write(results_dir / f"{stem}.spans.json")

    print(f"workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} passes={len(passes)} attempted={attempted} "
          f"failed={failed} correct={str(correct).lower()}")
    for failure in failures[:20]:
        print(f"  failure: {failure}")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e_units.update(error_rate="ratio", rows_per_s="rows/s",
                     record_epochs_per_s="1/s", trials_per_s="1/s")
    for name, value in {**end_to_end, **extra}.items():
        print(f"  {name:<22} {value:.6g} {e2e_units[name]}")
    if args.trace:
        for name in units:
            print(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


def run_passes(wl, recorder, args) -> list[dict]:
    """Timed passes for about ``args.seconds``; traced runs alternate.

    A pass starts only when the median pass so far still fits in the
    budget, after a minimum of ``MIN_PASSES``.
    """
    installation = tracing.Installation(recorder)
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            installation.install()
            recorder.enabled = True
            pass_span = recorder.open(tracing.PASS_SPAN)
        t = time.perf_counter()
        try:
            raw = wl.run_pass()
        finally:
            wall = time.perf_counter() - t
            if traced:
                recorder.close(pass_span, time.perf_counter())
                recorder.enabled = False
                installation.remove()
        passes.append({"wall": wall, "traced": traced,
                       "span": pass_span if traced else None,
                       "outcome": wl.check(raw)})
        elapsed = time.perf_counter() - start
        typical = _median([p["wall"] for p in passes])
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            return passes


def layer_metrics(recorder, passes) -> dict:
    """Median over traced passes of each per-layer metric."""
    spans = recorder.spans
    starts = [p["span"] for p in passes if p["traced"]] + [len(spans)]
    per_pass = [tracing.pass_metrics(spans, lo, hi)
                for lo, hi in zip(starts, starts[1:])]
    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    traced = [p["wall"] for p in passes if p["traced"]]
    untraced = [p["wall"] for p in passes if not p["traced"]]
    metrics["trace.overhead_ratio"] = _median(traced) / _median(untraced)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
