"""gkhyper benchmark: time to an estimate, with a layer trace taken from outside.

    python3 perfbench/run.py --workload heat-estimate --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a source checkout; the package is imported from its
``src`` directory. The workload seed makes the run configs of four problem
instances (config seeds 4*seed .. 4*seed+3) and goes nowhere else. Set-up is
timed ten times, and again before each solve, and its median reported. Solves
(set-up, then optimize and reconstruct, or the monitor sweep) run one after
another, round robin over the instances, at least until instance 0 has been
solved twice. Their number is fixed by ``--seconds`` and the workload's
nominal solve time, never by the clock, so a seed always makes the same solves
and the same failures. Every solve is checked. ``--trace 1`` makes one
untraced and one traced set-up and solve of instance 0 and reports per-layer
figures instead of the end-to-end ones. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md
in this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("heat-estimate", "ray-estimate", "ray-monitor")
# several instances per run average out the optimizer's path, which moves
# eval_ms by ~25% between single heat instances
INSTANCES = 4
SETUP_REPEATS = 10
# every instance once, then instance 0 again for the determinism check
MIN_SOLVES = INSTANCES + 1
# typical solve time with set-up on a 2-CPU x86 host at 2 BLAS threads; a run
# makes seconds // NOMINAL_SOLVE_S solves, so that it lasts about --seconds
NOMINAL_SOLVE_S = {"heat-estimate": 3.0, "ray-estimate": 6.0, "ray-monitor": 5.0}
END_TO_END_UNITS = {"setup_s": "s", "eval_ms": "ms", "peak_rss_mb": "MB"}


def _pin_blas_threads() -> int:
    # the thread count changes the BLAS reduction order and with it the
    # optimizer's path, so it is fixed before numpy loads
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _import_package():
    src = ROOT / "src"
    if not (src / "gkhyper" / "__init__.py").is_file():
        sys.exit(f"error: no gkhyper sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import gkhyper

    if Path(gkhyper.__file__).resolve().parent != (src / "gkhyper").resolve():
        sys.exit(f"error: gkhyper was imported from {gkhyper.__file__}, not from {src}")


def _environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": nproc,
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("iters_per_eval"):
        return "ratio"
    return "count"


def _write_spans(workload: str, seed: int, setup_spans, solve_spans) -> Path:
    out = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.json.gz"
    out.parent.mkdir(exist_ok=True)
    payload = {phase: [[s.name, s.parent, s.start, s.end, s.attrs] for s in spans]
               for phase, spans in (("setup", setup_spans), ("solve", solve_spans))}
    with gzip.open(out, "wt") as fh:
        json.dump(payload, fh)
    return out


def solve_count(name: str, seconds: float, trace: bool) -> int:
    """Untraced solves of a run; with --trace 1 the traced solve is the repeat."""
    if trace:
        return 1
    return max(MIN_SOLVES, int(seconds // NOMINAL_SOLVE_S[name]))


def _instance(j: int) -> int:
    """Instance solved j-th: round robin, so instance 0 repeats at j = INSTANCES."""
    return j % INSTANCES


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    import logging

    from perfbench import tracer as tr
    from perfbench import workloads as wls

    # clipped circulant-embedding eigenvalues are logged on every covariance
    # build; they are expected at these correlation lengths
    logging.getLogger("gkhyper.covariance").setLevel(logging.ERROR)

    cfgs = [wls.make_config(ROOT, name, seed * INSTANCES + i, tiny) for i in range(INSTANCES)]
    # each set-up is dropped before the next, so peak RSS holds one instance
    setup_times = [_timed(lambda: wls.setup(cfgs[j % INSTANCES])) for j in range(SETUP_REPEATS)]

    results = []                # (instance, RunResult) in the order solved
    first = {}                  # instance -> fingerprint of its first solve

    def attempt(i, fn):
        try:
            result = fn()
        except Exception as exc:  # a failing solve is counted, not fatal
            result = wls.RunResult(float("nan"), 0, (), None, [("raised", repr(exc))])
        if result.fingerprint and first.setdefault(i, result.fingerprint) != result.fingerprint:
            result.failures.append(("nondeterministic", "differs from the first solve of "
                                                        f"instance {i}"))
        results.append((i, result))
        return result

    def setup_and_solve(i):
        # the set-up before each solve is timed too, so setup_s samples the
        # host's speed over the whole run, not only at its start
        t0 = time.perf_counter()
        prob, model = wls.setup(cfgs[i])
        setup_times.append(time.perf_counter() - t0)
        return wls.solve(name, cfgs[i], prob, model)

    # the number of solves never depends on the clock: a seed makes the same
    # solves, and so the same attempted and failed counts, on any host
    for j in range(solve_count(name, seconds, trace)):
        i = _instance(j)
        if not attempt(i, lambda: setup_and_solve(i)).fingerprint:
            break           # it raised; a retry on the same input would raise again
    untraced = [r for _, r in results if r.fingerprint]

    metrics = {}
    if trace and untraced:
        spans = tr.Tracer()
        with tr.traced(spans):
            prob, model = wls.setup(cfgs[0])
            setup_spans = spans.spans
            spans.reset()
            traced = attempt(0, lambda: wls.solve(name, cfgs[0], prob, model))
        solve_spans = spans.spans
        if traced.fingerprint:
            for applies, k_used in tr.bidiag_applies(solve_spans):
                if applies != 2 * (k_used + 1):
                    traced.failures.append(
                        ("applies", f"a bidiagonalization with k_used={k_used} "
                                    f"made {applies} applies"))
                    break
            layers = tr.layer_metrics(setup_spans, solve_spans, traced.solve_s)
            untraced_0 = [r.solve_s for i, r in results[:-1] if i == 0 and r.fingerprint]
            layers["trace.overhead_s"] = traced.solve_s - statistics.median(untraced_0)
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
            print(f"spans: {_write_spans(name, seed, setup_spans, solve_spans)}")
    elif untraced:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "eval_ms": 1000.0 * statistics.median(r.solve_s / r.evals for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    failed = sum(1 for _, r in results if r.failures)
    correct = not any(kind in wls.WRONG_OUTPUT for _, r in results for kind, _ in r.failures)
    _report(name, seed, setup_times, results, metrics, failed)
    if not untraced or (trace and not metrics):
        print("error: no solve completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def _report(name, seed, setup_times, results, metrics, failed) -> None:
    """Human-readable lines: every end-to-end figure with its unit, then failures."""
    print(f"{name} seed={seed}: {len(results)} solves, {failed} failed")
    done = [r for _, r in results if r.fingerprint]
    if done:
        errors = [r.rel_error for r in done if r.rel_error is not None]
        rows = [("setup_s", statistics.median(setup_times), "s"),
                ("solve_s", statistics.median(r.solve_s for r in done), "s"),
                ("eval_ms", 1000.0 * statistics.median(r.solve_s / r.evals for r in done), "ms"),
                ("evals", statistics.median(r.evals for r in done), "count"),
                ("rel_error", statistics.median(errors) if errors else None, "ratio"),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB"),
                ("fail_frac", failed / len(results), "ratio")]
        for metric, value, unit in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<12} {shown:>12} {unit}")
        print("  instance:evals:solve_s of each solve: "
              + " ".join(f"{i}:{r.evals}:{r.solve_s:.4g}" for i, r in results))
    for metric, entry in metrics.items():
        if metric not in END_TO_END_UNITS:
            print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    for j, (i, r) in enumerate(results):
        for kind, message in r.failures:
            print(f"  solve {j} (instance {i}): {kind}: {message}")


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd + (["--tiny"] if tiny else []), capture_output=True,
                              text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    nproc = _pin_blas_threads()
    _import_package()
    print("env " + json.dumps(_environment(nproc)))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.tiny)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
