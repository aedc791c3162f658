"""Tests of the benchmark itself: each workload at a tiny size reports exactly
the metrics BENCHMARK.json declares, and each check fails on a corrupted
output."""

import hashlib
import json
import math
import os
import shutil
import sys
import time

import numpy as np
import pytest

import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import workloads  # noqa: E402
from rdlearn import rdsolve  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](run.ROOT, str(tmp_path / "work"), seed, tiny=True)


def first_item(name, tmp_path, i=0):
    wl = tiny(name, tmp_path)
    wl.prepare()
    item = wl.items[i]
    out = str(tmp_path / "round0")
    return wl, item, wl.run(item, out), out


def rewrite_manifest(directory):
    lines = []
    for name in sorted(os.listdir(directory)):
        if name != "manifest.txt":
            with open(os.path.join(directory, name), "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_exactly_the_declared_metrics(name, trace, tmp_path):
    result, report = run.execute(tiny(name, tmp_path), seconds=0, trace=trace)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"], report
    assert result["failed"] == 0
    wl = workloads.WORKLOADS[name]
    assert result["attempted"] == run.MIN_ROUNDS * len(tiny(name, tmp_path).items) * wl.ops_per_item
    if trace:
        assert result["metrics"]["trace.span_coverage"]["value"] > 0.9


def test_learn_checks_fail_on_a_perturbed_parameter(tmp_path):
    wl, seed, status, out = first_item("learn-sweep", tmp_path)
    assert status == 0
    assert wl.check(0, seed, status, out) == []
    path = os.path.join(out, "params_m3.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[-1] = repr(float(lines[-1]) + 0.01)  # the output bias
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    found = " ".join(msg for _, msg in wl.check(2, seed, status, out))
    assert "sup error" in found and "sha256" in found


def test_learn_checks_fail_on_a_low_objective_and_a_changed_rerun(tmp_path):
    wl, seed, status, out = first_item("learn-sweep", tmp_path)
    assert wl.check(0, seed, status, out) == []
    rerun = str(tmp_path / "round1")
    shutil.copytree(out, rerun)
    header, rows = checks.read_csv(os.path.join(rerun, "results.csv"))
    rows[0][1] = "0.5"
    with open(os.path.join(rerun, "results.csv"), "w") as fh:
        fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")
    rewrite_manifest(rerun)
    found = " ".join(msg for _, msg in wl.check(1, seed, status, rerun))
    assert "below residual + misfit" in found and "different manifests" in found


def test_zero_face_and_gradient_checks_fail_on_wrong_values():
    assert checks.zero_face_failures(np.array([0.0]), np.array([-0.5])) == []
    assert checks.zero_face_failures(np.array([0.25]), np.array([0.25])) == []
    assert checks.zero_face_failures(np.array([1e-300]), np.array([-0.5]))
    x = np.linspace(-1.0, 1.0, 7)
    assert checks.gradient_failures(lambda v: v @ v, lambda v: 2.0 * v, x, 0) == []
    assert checks.gradient_failures(lambda v: v @ v, lambda v: 2.02 * v, x, 0)


def test_reference_cutoff_matches_its_plateaus_and_midpoint():
    vals = checks.cutoff(np.array([[0.0, 0.05], [0.2, 0.35]]), 0.2)
    assert vals[0, 0] == 1.0 and vals[0, 1] == 1.0 and vals[1, 1] == 0.0
    assert abs(vals[1, 0] - 0.5) < 1e-14


def test_forward_checks_fail_on_a_negative_state_and_a_failed_audit(tmp_path):
    wl, inp, result, out = first_item("forward-audit", tmp_path)
    assert wl.check(0, inp, result, out) == []
    mlp, wrapped, traj, tol, audit = result
    traj.values[1, 5, 3] = -1e-3
    bad_audit = rdsolve.MassAudit(audit.margins, tol=float(audit.worst) - 1.0)
    found = wl.check(1, inp, (mlp, wrapped, traj, tol, bad_audit), out)
    ops = {op for op, _ in found}
    text = " ".join(msg for _, msg in found)
    assert ops == {0, 2}
    assert "negative" in text and "mass balance" in text and "mass audit failed" in text


def test_network_check_fails_on_a_perturbed_parameter(tmp_path):
    wl, inp, result, out = first_item("forward-audit", tmp_path)
    mlp = result[0]
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(50, 2))
    assert checks.network_failures(mlp.eval, wl.widths, inp.theta, pts) == []
    theta = inp.theta.copy()
    theta[3] += 1e-6
    assert checks.network_failures(mlp.eval, wl.widths, theta, pts)


def test_simulate_checks_fail_on_a_flipped_digit_and_a_negative_minimum(tmp_path):
    wl, item, status, out = first_item("simulate-2d", tmp_path)
    assert status == 0
    assert wl.check(0, item, status, out) == []
    path = os.path.join(out, "trajectory.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    digit = fields[3][4]
    fields[3] = fields[3][:4] + ("1" if digit != "1" else "2") + fields[3][5:]
    lines[1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    found = " ".join(msg for _, msg in wl.check(1, item, status, out))
    assert "sha256" in found and "in-process solve" in found

    diag = os.path.join(out, "diagnostics.csv")
    header, rows = checks.read_csv(diag)
    rows[2][1] = "-0.1"
    with open(diag, "w") as fh:
        fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")
    assert "min_u reaches" in " ".join(msg for _, msg in wl.check(2, item, status, out))


class Flaky:
    """Two items of two operations; the run raises where `raises` says."""

    name = "flaky"
    items = (0, 1)
    ops_per_item = 2
    seed = 0
    quality: dict = {}

    def __init__(self, workdir, raises):
        self.workdir, self.raises, self.calls = workdir, raises, 0

    def prepare(self):
        pass

    def run(self, item, out):
        self.calls += 1
        if self.raises(self.calls, item):
            time.sleep(0.05)
            raise ValueError("flaky")
        return item

    def check(self, k, item, result, out):
        return []

    def summary(self):
        return ""


def test_a_round_that_raised_fails_its_operations_and_is_not_timed(tmp_path):
    wl = Flaky(str(tmp_path), lambda call, item: call == 2)
    result, report = run.execute(wl, seconds=0, trace=False)
    assert (result["attempted"], result["failed"]) == (8, 2)
    assert result["metrics"]["wall_s"]["value"] < 0.05
    assert any("raised" in line for line in report)


def test_a_run_where_no_round_finished_prints_no_result(tmp_path):
    with pytest.raises(RuntimeError, match="no round"):
        run.execute(Flaky(str(tmp_path), lambda call, item: True), seconds=0, trace=False)
