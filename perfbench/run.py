"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload learn-sweep --seed 1 --seconds 30 --trace 0

Set-up is timed from process start to the first round: interpreter start
and `import rdlearn` once, then the median of five repetitions of the rest
(cutoff kernel table, configs written and parsed). The run then repeats
whole rounds of the workload until the rounds have taken `--seconds`,
checking each round's outputs outside the timed region, and prints one
JSON object as its last line.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced rounds on the same inputs, reports the
per-layer metrics from the traced ones and writes the spans under
.perfbench/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
MIN_ROUNDS = 2
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    **{f"transition.evaluate.{q}": u for q, u in
       (("calls", "count"), ("points", "count"), ("self_s", "s"))},
    "transition.derivative.points": "count",
    "transition.derivative.self_s": "s",
    **{f"reaction.{f}.{q}": u
       for f in ("mlp_eval", "mlp_jacobian", "mlp_vjp", "mlp_jac_vjp")
       for q, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))},
    "reaction.analytic_eval.rows": "count",
    "reaction.analytic_eval.self_s": "s",
    **{f"consistency.{f}.{q}": u
       for f in ("eval", "jacobian", "value_vjp", "jac_vjp")
       for q, u in (("calls", "count"), ("self_s", "s"))},
    "learn.objective.calls": "count",
    "learn.objective.self_s": "s",
    "learn.gradient.calls": "count",
    "learn.gradient.self_s": "s",
    "learn.solve_level.s": "s",
    "learn.iterations": "count",
    "learn.evals_per_iter": "evals/iter",
    "learn.accept_ratio": "ratio",
    "learn.converged_levels": "count",
    "learn.sup_error_final": "1",
    "learn.d_error_final": "1",
    "rdsolve.solve.calls": "count",
    "rdsolve.solve.self_s": "s",
    "rdsolve.node_steps": "count",
    "rdsolve.step_us": "us",
    "rdsolve.estimate_mass_tolerance.s": "s",
    "rdsolve.mass_audit.s": "s",
    "cli.write_csv.rows": "count",
    "cli.write_csv.bytes": "bytes",
    "cli.write_csv.self_s": "s",
    "cli.finish.self_s": "s",
    "cli.config.s": "s",
    "setup.import_s": "s",
    "setup.kernel_s": "s",
    "sampling.halton_box.points": "count",
    "sampling.halton_box.self_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


def round_layer_metrics(summary: dict) -> dict:
    """Per-layer values of one traced round from its span summary."""
    spans = summary["spans"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    m = {
        "transition.evaluate.calls": get("transition.evaluate", "calls"),
        "transition.evaluate.points": get("transition.evaluate", "n"),
        "transition.evaluate.self_s": get("transition.evaluate", "self_s"),
        "transition.derivative.points": get("transition.derivative", "n"),
        "transition.derivative.self_s": get("transition.derivative", "self_s"),
        "reaction.analytic_eval.rows": get("reaction.analytic_eval", "n"),
        "reaction.analytic_eval.self_s": get("reaction.analytic_eval", "self_s"),
        "learn.objective.calls": get("learn.objective", "calls"),
        "learn.objective.self_s": get("learn.objective", "self_s"),
        "learn.gradient.calls": get("learn.gradient", "calls"),
        "learn.gradient.self_s": get("learn.gradient", "self_s"),
        "learn.solve_level.s": get("learn.solve_level", "s"),
        "learn.converged_levels": get("learn.solve_level", "aux"),
        "rdsolve.solve.calls": get("rdsolve.solve", "calls"),
        "rdsolve.solve.self_s": get("rdsolve.solve", "self_s"),
        "rdsolve.node_steps": get("rdsolve.solve", "n"),
        "rdsolve.estimate_mass_tolerance.s": get("rdsolve.estimate_mass_tolerance", "s"),
        "rdsolve.mass_audit.s": get("rdsolve.mass_audit", "s"),
        "cli.write_csv.rows": get("cli.write_csv", "n"),
        "cli.write_csv.bytes": get("cli.write_csv", "aux"),
        "cli.write_csv.self_s": get("cli.write_csv", "self_s"),
        "cli.finish.self_s": get("cli.finish", "self_s"),
        "cli.config.s": get("cli.config", "s"),
        "sampling.halton_box.points": get("sampling.halton_box", "n"),
        "sampling.halton_box.self_s": get("sampling.halton_box", "self_s"),
    }
    for f in ("mlp_eval", "mlp_jacobian", "mlp_vjp", "mlp_jac_vjp"):
        m[f"reaction.{f}.calls"] = get(f"reaction.{f}", "calls")
        m[f"reaction.{f}.rows"] = get(f"reaction.{f}", "n")
        m[f"reaction.{f}.self_s"] = get(f"reaction.{f}", "self_s")
    for f in ("eval", "jacobian", "value_vjp", "jac_vjp"):
        m[f"consistency.{f}.calls"] = get(f"consistency.{f}", "calls")
        m[f"consistency.{f}.self_s"] = get(f"consistency.{f}", "self_s")
    iterations = get("learn.solve_level", "n")
    objectives = get("learn.objective", "calls")
    m["learn.iterations"] = iterations
    # one gradient plus every objective evaluation (backtracking trials), per iteration
    m["learn.evals_per_iter"] = ((objectives + get("learn.gradient", "calls")) / iterations
                                 if iterations else 0.0)
    m["learn.accept_ratio"] = iterations / objectives if objectives else 0.0
    steps = get("rdsolve.solve", "aux")
    m["rdsolve.step_us"] = 1e6 * get("rdsolve.solve", "self_s") / steps if steps else 0.0
    return m


def execute(workload, seconds: float, trace: bool, pre_setup_s: float = 0.0,
            import_s: float = 0.0, trace_path: str | None = None) -> tuple[dict, list[str]]:
    """Set up, run whole rounds for `seconds`, check; returns (result, report lines)."""
    from rdlearn import transition

    import tracing

    reps, kernel_times = [], []
    for rep in range(SETUP_REPEATS):
        t = time.perf_counter()
        if rep == 0:
            transition.default_kernel()
        else:
            transition.MollifierKernel()
        kernel_times.append(time.perf_counter() - t)
        workload.prepare()
        reps.append(time.perf_counter() - t)
    setup_s = pre_setup_s + statistics.median(reps)

    tracer = tracing.Tracer() if trace else None
    walls, traced_walls, coverage, layer_rounds = [], [], [], []
    failed, errors, wrong = set(), [], []
    rss_before_checks = None
    k, measured = 0, 0.0
    while k < MIN_ROUNDS or measured < seconds:
        traced_round = trace and k % 2 == 1
        wall, finished = 0.0, True
        # each item is timed alone and checked before the next one runs, so
        # no output is held while the program works on the next item
        for i, item in enumerate(workload.items):
            out = os.path.join(workload.workdir, f"round{k}-{i}")
            result = None
            t = time.perf_counter()
            try:
                with tracer.installed(k) if traced_round else nullcontext():
                    t = time.perf_counter()
                    result = workload.run(item, out)
                    wall += time.perf_counter() - t
            except Exception:
                wall += time.perf_counter() - t
                finished = False
                traceback.print_exc(file=sys.stderr)
                failed.update((k, i, op) for op in range(workload.ops_per_item))
                errors.append(f"round {k} item {i}: raised {traceback.format_exc(limit=1).strip()}")
            if rss_before_checks is None:
                rss_before_checks = _peak_rss_mb()
            if result is not None:
                try:
                    found = workload.check(k, item, result, out)
                except Exception:
                    found = [(0, f"check raised {traceback.format_exc(limit=2).strip()}")]
                for op, msg in found:
                    failed.add((k, i, op))
                    wrong.append(f"round {k} item {i}: {msg}")
            del result
            shutil.rmtree(out, ignore_errors=True)
        measured += wall
        # a round with an item that raised did not finish its work, so its time is not reported
        if finished:
            (traced_walls if traced_round else walls).append(wall)
            if traced_round:
                summary = tracer.round_summary(k)
                coverage.append(summary["top_level_s"] / wall)
                layer_rounds.append(round_layer_metrics(summary))
        k += 1
    peak_rss_mb = _peak_rss_mb()
    if not walls or (trace and not traced_walls):
        raise RuntimeError("no round of the workload finished:\n" + "\n".join(errors))

    if trace:
        values = {name: statistics.median(r[name] for r in layer_rounds)
                  for name in layer_rounds[0]}
        quality = getattr(workload, "quality", {})
        values.update({
            "learn.sup_error_final": quality.get("sup_errors", [0.0])[-1],
            "learn.d_error_final": quality.get("d_error_final", 0.0),
            "setup.import_s": import_s,
            "setup.kernel_s": statistics.median(kernel_times),
            "trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls),
            "trace.span_coverage": statistics.median(coverage),
        })
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        if trace_path:
            tracer.write(trace_path + ".spans.csv")
            with open(trace_path + ".layers.json", "w") as fh:
                json.dump({"rounds": layer_rounds, "metrics": metrics}, fh, indent=1)
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    all_walls = walls + traced_walls
    report = [
        f"{workload.name} seed {workload.seed}: {k} rounds, round wall median "
        f"{statistics.median(all_walls):.3f} s (min {min(all_walls):.3f}, max {max(all_walls):.3f}), "
        f"set-up {setup_s:.3f} s, peak RSS {peak_rss_mb:.1f} MB "
        f"({rss_before_checks:.1f} MB after the first item, before any check)",
        f"quality: {workload.summary()}",
    ] + errors + wrong
    result = {
        # `correct` speaks of the operations that did not fail: an operation
        # that raised is counted in `failed`, one whose output fails a check
        # is counted there too and makes the run incorrect
        "correct": not wrong,
        "attempted": k * len(workload.items) * workload.ops_per_item,
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, report


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _since_process_start() -> float:
    """Seconds since this process started (Linux), else 0."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def _parser() -> argparse.ArgumentParser:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv=None) -> int:
    t0 = time.perf_counter()
    before_t0 = _since_process_start()
    # One BLAS thread unless the caller pinned another count; BENCHMARK.json pins 1.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(SRC, "rdlearn", "__init__.py")):
        print(f"perfbench: no rdlearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import rdlearn
    import rdlearn.cli  # noqa: F401
    import_s = time.perf_counter() - t
    if not os.path.abspath(rdlearn.__file__).startswith(SRC + os.sep):
        print(f"perfbench: rdlearn imported from {rdlearn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = _parser().parse_args(argv)
    pre_setup_s = before_t0 + (time.perf_counter() - t0)
    workdir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
    trace_path = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}")
    try:
        result, report = execute(workload, args.seconds, bool(args.trace), pre_setup_s,
                                 import_s, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
