"""Command-line harness tests: strict configs, determinism, exit codes.

The CLI promises byte-identical outputs for identical config and seed, a
named complaint for every config problem (exit 2), and manifests whose
hashes match the files on disk. Everything here runs main() in process
with small grids; the long sweeps live in the acceptance suite.
"""

import hashlib
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import rdlearn
from rdlearn.cli import (ConfigError, ExperimentConfig, _fmt, _parse_levels, _trajectory_blocks,
                         main, shipped_config)
from rdlearn.consistency import wrap
from rdlearn.rdsolve import DiffusionSpec, SpaceTimeGrid, solve
from rdlearn.reaction import make_reaction
from rdlearn.transition import TransitionFunction, default_kernel


SIM_CFG = """\
[domain]
extent = 2.0
species = 1
initial = cosine:0.5,0.4,1

[grid]
nodes = 31
horizon = 0.5
steps = 60

[reaction]
name = fisher-kpp
diffusion = 0.05

[wrapper]
eps = 0.2
"""

LEARN_CFG = """\
[domain]
extent = 1.0
species = 1
initials = ramp:0.1,1.1; constant:0.4

[grid]
nodes = 21
horizon = 0.2
steps = 16

[reaction]
name = fisher-kpp
diffusion = 0.02
widths = 1,4,1

[schedule]
alpha = 2.0
beta = 1.0
gamma = 0.5
lam0 = 10.0
levels = 1,2,3

[measurement]
kind = subsample
strides = 4,2,1

[optimizer]
step = 0.05
max_iters = 30
sup_points = 64
"""


SIM_2D_CFG = """\
[domain]
extent = 1.0,2.0
species = 2
initial = cosine:0.6,0.2,1|cosine:0.2,0.1,2

[grid]
nodes = 9,7
horizon = 0.05
steps = 5

[reaction]
name = gray-scott
diffusion = 0.002,0.001
weights = 1.0,0.5

[wrapper]
eps = 0.2
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.txt")) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip_is_identity():
    cfg = ExperimentConfig.parse(SIM_CFG)
    again = ExperimentConfig.parse(cfg.serialize())
    assert again.sections == cfg.sections
    assert ExperimentConfig.parse(again.serialize()).sections == cfg.sections


def test_unknown_key_and_section_are_named():
    with pytest.raises(ConfigError, match=r"unknown config key schedule\.alpah"):
        ExperimentConfig.parse("[schedule]\nalpah = 2.0\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[gird\]"):
        ExperimentConfig.parse("[gird]\nnodes = 5\n")


def test_typed_getters_name_the_key():
    cfg = ExperimentConfig.parse("[grid]\nnodes = abc\nsteps = 2.5\n")
    with pytest.raises(ConfigError, match=r"grid\.nodes must be a number"):
        cfg.getfloat("grid", "nodes")
    with pytest.raises(ConfigError, match=r"grid\.steps must be an integer"):
        cfg.getint("grid", "steps")
    with pytest.raises(ConfigError, match=r"missing required config key grid\.horizon"):
        cfg.require("grid", "horizon")


def test_levels_flag_grammar():
    assert _parse_levels("--levels", "1..3") == [1, 2, 3]
    assert _parse_levels("--levels", "1,2,5") == [1, 2, 5]
    with pytest.raises(ConfigError, match="levels"):
        _parse_levels("--levels", "one,two")


def test_shipped_configs_parse():
    for name in ("fisher-kpp.cfg", "learn-toy.cfg"):
        with open(shipped_config(name)) as fh:
            cfg = ExperimentConfig.parse(fh.read())
        assert cfg.sections


# ---------------------------------------------------------------------------
# exit codes through main()


def test_bad_gamma_exits_2_and_names_the_key(tmp_path, capsys):
    cfg = write(tmp_path, "[schedule]\nalpha = 2.0\nbeta = 1.0\ngamma = 1.5\n")
    code = main(["wrap-rates", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "schedule.gamma" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "[schedule]\nalpah = 2.0\n")
    code = main(["wrap-rates", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "schedule.alpah" in capsys.readouterr().err


def test_missing_required_key_exits_2(tmp_path, capsys):
    broken = SIM_CFG.replace("nodes = 31\n", "")
    cfg = write(tmp_path, broken)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "grid.nodes" in capsys.readouterr().err


def test_unknown_profile_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, SIM_CFG.replace("cosine:0.5,0.4,1", "sine:0.5"))
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sine" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


TWO_SPECIES_CFG = (SIM_CFG.replace("species = 1", "species = 2")
                   .replace("cosine:0.5,0.4,1", "cosine:0.5,0.4,1|constant:0.2")
                   .replace("fisher-kpp", "gray-scott"))
BAD_WEIGHTS_CFG = SIM_CFG.replace("diffusion = 0.05", "diffusion = 0.05\nweights = 1,2,3")


@pytest.mark.parametrize("command, text, named", [
    ("simulate", TWO_SPECIES_CFG.replace("diffusion = 0.05", "diffusion = 0.1,0.2,0.3"),
     "reaction.diffusion"),
    ("simulate", BAD_WEIGHTS_CFG, "reaction.weights"),
    ("check", BAD_WEIGHTS_CFG, "reaction.weights"),
    ("simulate", SIM_CFG.replace("eps = 0.2", "eps = 0.2\ndelta = 0.3"), "wrapper.delta"),
    ("learn", LEARN_CFG.replace("diffusion = 0.02", "diffusion = 0.02,0.5"),
     "reaction.diffusion must be a number"),
    ("learn", LEARN_CFG.replace("kind = subsample", "kind = spectral"),
     "measurement.kind must be full, subsample or fourier, got 'spectral'"),
    ("learn --levels 2,1", LEARN_CFG, "--levels: levels must be strictly increasing"),
    ("learn --levels 0..2", LEARN_CFG, "--levels: levels start at 1"),
    ("learn", LEARN_CFG.replace("levels = 1,2,3", "levels = 2,1"),
     "schedule.levels: levels must be strictly increasing"),
    ("learn", LEARN_CFG.replace("levels = 1,2,3", "levels = 0..2"),
     "schedule.levels: levels start at 1"),
    ("learn", LEARN_CFG.replace("lam0 = 10.0", "lam0 = 0.0"),
     "config error: schedule.lam0 must be > 0.0, got 0.0"),
    ("learn", LEARN_CFG.replace("lam0 = 10.0", "lam0 = 10.0\nq = 3.0"),
     "config error: unknown config key schedule.q"),
    ("learn", LEARN_CFG + "\n[noise]\ndelta_rule = pow2\n",
     "config error: unknown config section [noise]"),
    ("learn", LEARN_CFG.replace("diffusion = 0.02", "diffusion = 1e-9"),
     "config error: reaction.diffusion: diffusion coefficients (1e-09,) must lie above "
     "the floor 1e-06"),
    ("learn", LEARN_CFG.replace("widths = 1,4,1", "widths = 1,0,1"),
     "config error: reaction.widths must be two or more positive widths from 1 to 1, "
     "got (1, 0, 1)"),
    ("learn", LEARN_CFG.replace("gamma = 0.5", "gamma = 1.0"),
     "config error: schedule: gamma must satisfy 0 < gamma < beta, got gamma=1.0, beta=1.0"),
    ("learn", LEARN_CFG.replace("constant:0.4", "constant:0.05|constant:0.1"),
     "config error: domain.initials needs 1 '|'-separated profiles, got 2"),
    ("wrap-rates", "[schedule]\nlevels = 4,x\n",
     "config error: schedule.levels: levels must be ints, got '4,x'"),
    ("simulate", SIM_CFG.replace("cosine:0.5,0.4,1", "cosine:0.5,0.4"),
     "config error: domain.initial: cosine profile takes base,amp,modes, got 'cosine:0.5,0.4'"),
    ("learn", LEARN_CFG.replace("constant:0.4", "constant:x"),
     "config error: domain.initials: initial profile arguments must be numbers: 'constant:x'"),
    ("simulate", SIM_CFG.replace("fisher-kpp", "none"),
     "config error: wrapper.eps given but reaction.name is 'none'"),
    ("simulate", SIM_CFG.replace("cosine:0.5,0.4,1", "constant:inf"),
     "config error: domain.initial: initial profile arguments must be finite: 'constant:inf'"),
    ("simulate", SIM_CFG.replace("steps = 60", "steps = inf"),
     "config error: grid.steps must be finite, got 'inf'"),
    ("simulate", SIM_CFG.replace("diffusion = 0.05", "diffusion = nan"),
     "config error: reaction.diffusion must be finite, got 'nan'"),
    ("learn", LEARN_CFG.replace("kind = subsample\nstrides = 4,2,1",
                                "kind = fourier\nmodes = 3,5,40"),
     "config error: measurement.modes: modes = 40 exceeds the grid's 21 nodes"),
    ("learn", LEARN_CFG.replace("strides = 4,2,1", "strides = 0,2,1"),
     "config error: measurement.strides: stride must be a positive integer, got 0"),
    ("learn", LEARN_CFG.replace("kind = subsample\nstrides = 4,2,1",
                                "kind = fourier\nmodes = 0,3,3"),
     "config error: measurement.modes: fourier operators need modes >= 1"),
    ("learn", LEARN_CFG.replace("strides = 4,2,1", "strides = 2"),
     "config error: measurement.strides needs one entry per level of schedule.levels "
     "[1, 2, 3], got [2]"),
    ("learn --levels 4", LEARN_CFG,
     "config error: --levels: [4] are not all levels of schedule.levels [1, 2, 3]"),
    ("simulate", SIM_CFG.replace("cosine:0.5,0.4,1", "cosine:0.2,0.4,1"),
     "config error: domain.initial: initial states must be componentwise nonnegative"),
    ("learn", LEARN_CFG.replace("constant:0.4", "constant:-0.05"),
     "config error: domain.initials: initial states must be componentwise nonnegative"),
    ("wrap-rates", "[schedule]\nlevels = 4,8\n",
     "config error: schedule.levels: need at least 3 levels for a rate fit, got 2"),
    ("wrap-rates", "[schedule]\nlevels = 0,4,8\n",
     "config error: schedule.levels: levels start at 1"),
    ("wrap-rates", "[schedule]\nlevels = 8,4,2\n",
     "config error: schedule.levels: levels must be strictly increasing"),
    ("simulate", SIM_CFG.replace("extent = 2.0", "extent = -1.0"),
     "config error: domain.extent must be positive, got [-1.0]"),
], ids=["diffusion", "weights-simulate", "weights-check", "delta", "diffusion-learn", "kind",
        "levels-order-option", "levels-start-option", "levels-order-config",
        "levels-start-config", "lam0", "q", "noise", "diffusion-floor", "widths-positive",
        "gamma-beta", "initials", "levels-wrap-rates", "profile-simulate", "profile-learn",
        "wrapper-without-reaction", "profile-inf", "steps-inf", "diffusion-nan",
        "fourier-modes-above-nodes", "strides-positive", "fourier-modes-positive",
        "strides-per-level", "levels-option-outside-config", "profile-negative-simulate",
        "profile-negative-learn", "levels-wrap-rates-count", "levels-wrap-rates-start",
        "levels-wrap-rates-order", "extent-negative"])
def test_inconsistent_values_exit_2_and_name_the_key(command, text, named, tmp_path, capsys):
    cfg = write(tmp_path, text)
    code = main(command.split() + ["--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory_and_reruns_identically(tmp_path):
    cfg = write(tmp_path, SIM_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0

    with open(os.path.join(out1, "trajectory.csv")) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip()
    assert header == "t,x,species_1"
    assert first.startswith("0,0,")

    m1, m2 = read_manifest(out1), read_manifest(out2)
    assert m1 == m2
    with open(os.path.join(out1, "trajectory.csv"), "rb") as f1, \
            open(os.path.join(out2, "trajectory.csv"), "rb") as f2:
        assert f1.read() == f2.read()


def test_manifest_hashes_match_files(tmp_path):
    cfg = write(tmp_path, SIM_CFG)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    for line in read_manifest(out).splitlines():
        digest, name = line.split("  ")
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_output_prefix_applies_to_all_files(tmp_path):
    cfg = write(tmp_path, SIM_CFG + "\n[output]\nprefix = run7_\n")
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["run7_diagnostics.csv", "run7_manifest.txt",
                     "run7_trajectory.csv"]


def test_simulate_row_count_covers_the_full_grid(tmp_path):
    cfg = write(tmp_path, SIM_CFG)
    out = str(tmp_path / "o")
    main(["simulate", "--config", cfg, "--out", out])
    with open(os.path.join(out, "trajectory.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == 31 * 61


def reference_rows(values, grid):
    """trajectory.csv data lines built row by row, one value at a time."""
    axes = [grid.axis(k) for k in range(grid.ndim)]
    lines = []
    for k, t in enumerate(grid.times()):
        for node in np.ndindex(*grid.nodes):
            row = [t, *(axes[a][i] for a, i in enumerate(node)), *values[(slice(None), k, *node)]]
            lines.append(",".join(format(float(v), ".17g") for v in row) + "\n")
    return "".join(lines)


def cosine(grid, base, amp, modes):
    scaled = [grid.axis(k) / grid.extents[k] for k in range(grid.ndim)]
    wave = np.cos(np.pi * modes * scaled[0])
    if grid.ndim == 2:
        wave = np.outer(wave, np.cos(np.pi * modes * scaled[1]))
    return base + amp * wave


@pytest.mark.parametrize("case", ["fisher-kpp-1d", "gray-scott-2d"])
def test_trajectory_bytes_match_a_row_by_row_reference(case, tmp_path):
    chi = TransitionFunction(0.2, 0.1, default_kernel())
    if case == "fisher-kpp-1d":
        cfg = shipped_config("fisher-kpp.cfg")
        grid = SpaceTimeGrid(2.0, 61, 1.0, 240)
        f, D, c = wrap(make_reaction("fisher-kpp"), chi), DiffusionSpec((0.05,)), None
        u0 = cosine(grid, 0.5, 0.4, 1)[None]
        header = "t,x,species_1\n"
    else:
        cfg = write(tmp_path, SIM_2D_CFG)
        grid = SpaceTimeGrid((1.0, 2.0), (9, 7), 0.05, 5)
        f, D = wrap(make_reaction("gray-scott"), chi), DiffusionSpec((0.002, 0.001))
        c = np.array([1.0, 0.5])
        u0 = np.stack([cosine(grid, 0.6, 0.2, 1), cosine(grid, 0.2, 0.1, 2)])
        header = "t,x,y,species_1,species_2\n"
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    traj = solve(f, D, u0, grid, c=c)
    with open(os.path.join(out, "trajectory.csv"), newline="") as fh:
        assert fh.read() == header + reference_rows(traj.values, grid)


LV_CFG = """\
[domain]
extent = 1.0
species = 2
initial = constant:0.5|cosine:0.1,0.05,1

[grid]
nodes = 11
horizon = 0.2
steps = 10

[reaction]
name = lotka-volterra
diffusion = 0.01

[wrapper]
eps = 0.2
"""


def test_simulate_without_a_wrapper_runs_the_bare_catalog_term(tmp_path):
    """No [wrapper] section: the catalog term is solved as it is. The second
    species starts on the cutoff's plateau, where it would decay bare but
    the wrapped term stops it, so the two runs differ."""
    bare_cfg = write(tmp_path, LV_CFG.replace("[wrapper]\neps = 0.2\n", ""), "bare.cfg")
    wrapped_cfg = write(tmp_path, LV_CFG, "wrapped.cfg")
    bare, wrapped = str(tmp_path / "bare"), str(tmp_path / "wrapped")
    assert main(["simulate", "--config", bare_cfg, "--out", bare]) == 0
    assert main(["simulate", "--config", wrapped_cfg, "--out", wrapped]) == 0
    grid = SpaceTimeGrid(1.0, 11, 0.2, 10)
    u0 = np.stack([np.full(grid.nodes, 0.5), cosine(grid, 0.1, 0.05, 1)])
    traj = solve(make_reaction("lotka-volterra"), DiffusionSpec((0.01, 0.01)), u0, grid)
    with open(os.path.join(bare, "trajectory.csv"), newline="") as fh:
        text = fh.read()
    assert text == "t,x,species_1,species_2\n" + reference_rows(traj.values, grid)
    with open(os.path.join(wrapped, "trajectory.csv"), newline="") as fh:
        assert fh.read() != text


def test_simulate_pure_diffusion_conserves_the_weighted_mass(tmp_path):
    """reaction.name = none is pure diffusion, and with trapezoid weights
    w^T L = 0: the mass_weighted column is constant to rounding."""
    text = SIM_CFG.replace("fisher-kpp", "none").replace("[wrapper]\neps = 0.2\n", "")
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", write(tmp_path, text), "--out", out]) == 0
    diag = np.genfromtxt(os.path.join(out, "diagnostics.csv"), delimiter=",", names=True)
    assert diag.shape == (61,)
    mass = diag["mass_weighted"]
    assert np.max(np.abs(mass - mass[0])) <= 1e-13 * mass[0]


SPECIAL_FLOATS = {-0.0: "-0", 5e-324: "4.9406564584124654e-324", 1e22: "1e+22",
                  float("nan"): "nan", float("inf"): "inf"}


@pytest.mark.parametrize("value", list(SPECIAL_FLOATS), ids=list(SPECIAL_FLOATS.values()))
def test_special_floats_format_as_17_significant_digits(value):
    text = SPECIAL_FLOATS[value]
    assert _fmt(value) == _fmt(np.float64(value)) == format(value, ".17g") == text
    # the per-step block path gives the same text as the row-by-row reference
    grid = SpaceTimeGrid(1.0, 3, 1.0, 1)
    values = np.full((2, 2, 3), value)
    values[1, 1, 2] = 0.1
    assert "".join(_trajectory_blocks(values, grid)) == reference_rows(values, grid)


def test_output_files_follow_the_umask(tmp_path):
    sim = write(tmp_path, SIM_CFG)
    learn = write(tmp_path, LEARN_CFG, "learn.cfg")
    old = os.umask(0o022)
    try:
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        assert main(["learn", "--config", learn, "--out", str(tmp_path / "learn"),
                     "--levels", "2"]) == 0
    finally:
        os.umask(old)
    modes = {(d, name): stat.S_IMODE(os.stat(tmp_path / d / name).st_mode)
             for d in ("sim", "learn") for name in os.listdir(tmp_path / d)}
    assert ("learn", "params_m2.txt") in modes and ("sim", "trajectory.csv") in modes
    assert modes == dict.fromkeys(modes, 0o644)


def test_a_failed_params_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    """A parameter file goes through the same atomic write as the CSVs: a
    writer that fails halfway leaves neither the file nor its temp name."""
    def failing(path, mlp, **meta):
        with open(path, "w") as fh:
            fh.write("# reaction parameter file\n")
        raise OSError("disk full")

    monkeypatch.setattr("rdlearn.cli.save_params", failing)
    cfg = write(tmp_path, LEARN_CFG)
    out = tmp_path / "o"
    assert main(["learn", "--config", cfg, "--out", str(out), "--levels", "2"]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert os.listdir(out) == ["results.csv"]


def test_a_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch, capsys):
    """A rerun into an existing output directory removes the previous
    manifest before it writes, so when it fails after rewriting
    results.csv no manifest is left whose hashes disagree with the files."""
    cfg = write(tmp_path, LEARN_CFG)
    out = tmp_path / "o"
    argv = ["learn", "--config", cfg, "--out", str(out), "--levels", "2"]
    assert main(argv) == 0
    first = (out / "results.csv").read_bytes()

    def failing(path, mlp, **meta):
        raise OSError("disk full")

    monkeypatch.setattr("rdlearn.cli.save_params", failing)
    assert main(argv + ["--seed", "5"]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert (out / "results.csv").read_bytes() != first
    if (out / "manifest.txt").exists():
        for line in read_manifest(out).splitlines():
            digest, name = line.split("  ")
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_an_unwritable_output_directory_exits_1(tmp_path, capsys):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    assert main(["transition", "--out", str(tmp_path / "taken" / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "taken" in err


# ---------------------------------------------------------------------------
# the study subcommands


def test_transition_table(tmp_path):
    out = str(tmp_path / "o")
    assert main(["transition", "--out", out]) == 0
    data = np.genfromtxt(os.path.join(out, "transition.csv"),
                         delimiter=",", names=True)
    assert data.shape[0] == 257
    assert data["value"][0] == 1.0
    assert data["value"][-1] == 0.0


def test_wrap_rates_reports_a_stable_slope(tmp_path):
    cfg = write(tmp_path, "[schedule]\nlevels = 4,8,16\n")
    out = str(tmp_path / "o")
    assert main(["wrap-rates", "--config", cfg, "--out", out]) == 0
    data = np.genfromtxt(os.path.join(out, "rates.csv"),
                         delimiter=",", names=True)
    assert data.shape[0] == 3
    slopes = np.unique(data["fitted_slope"])
    assert slopes.size == 1
    assert -1.15 <= slopes[0] <= -0.85


def test_quasipos_estimates_sit_inside_their_slack(tmp_path):
    out = str(tmp_path / "o")
    assert main(["quasipos", "--out", out]) == 0
    rows = np.genfromtxt(os.path.join(out, "quasipos.csv"), delimiter=",",
                         names=True, dtype=None, encoding="utf-8")
    cube = rows[rows["experiment"] == "unit_cube_layer"]
    assert cube.shape[0] == 3
    assert np.all(np.abs(cube["value"] - cube["reference"]) <= cube["slack"])
    dist = rows[rows["experiment"] == "distance_bound"]
    assert np.all(dist["value"] <= dist["reference"] * (1.0 + 1e-12))


def test_convergence_study_orders(tmp_path):
    out = str(tmp_path / "o")
    assert main(["convergence-study", "--out", out]) == 0
    data = np.genfromtxt(os.path.join(out, "orders.csv"), delimiter=",",
                         names=True, dtype=None, encoding="utf-8")
    orders = dict(zip(data["direction"], data["order"]))
    assert orders["space"] == pytest.approx(2.0, abs=0.2)
    assert orders["time"] == pytest.approx(1.0, abs=0.2)


def test_check_passes_for_wrapped_fisher(tmp_path):
    cfg = write(tmp_path, SIM_CFG)
    out = str(tmp_path / "o")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "conditions.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines == ["condition,ok", "quasipositivity,1", "mass_control,1", "growth,1"]


@pytest.mark.parametrize("box, rows, said", [
    ("-2,-1", ["quasipositivity,skipped", "mass_control,skipped", "growth,1"],
     ["(Q) quasipositivity: skipped (the box reaches no face u_n = 0 of the nonnegative orthant)",
      "(M) mass control: skipped (the box misses the nonnegative orthant)"]),
    ("0.5,2", ["quasipositivity,skipped", "mass_control,1", "growth,1"],
     ["(Q) quasipositivity: skipped (the box reaches no face u_n = 0 of the nonnegative orthant)",
      "(M) mass control [sampled]: "]),
], ids=["below-the-orthant", "off-the-faces"])
def test_check_states_what_it_skipped(box, rows, said, tmp_path, capsys):
    """A check that the box gives no points is skipped: the summary says
    why, conditions.csv has a `skipped` row, and it fails no run."""
    cfg = write(tmp_path, SIM_CFG.replace("diffusion = 0.05", f"diffusion = 0.05\nbox = {box}"))
    out = str(tmp_path / "o")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "conditions.csv")) as fh:
        assert fh.read().splitlines() == ["condition,ok", *rows]
    printed = capsys.readouterr().out.splitlines()
    assert all(any(line.startswith(s) for line in printed) for s in said)


# ---------------------------------------------------------------------------
# learn


def test_learn_levels_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, LEARN_CFG)
    out = str(tmp_path / "o")
    assert main(["learn", "--config", cfg, "--out", out, "--levels", "2"]) == 0
    with open(os.path.join(out, "results.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("m,objective,residual_term,misfit_term,sup_error_f,D_error,"
                        "stop_reason,iterations")
    assert len(lines) == 2
    assert lines[1].startswith("2,")
    with open(os.path.join(out, "params_m2.txt")) as fh:
        head = fh.read().splitlines()[:8]
    assert "# level: 2" in head
    assert "# widths: 1,4,1" in head


def test_learn_levels_flag_runs_a_level_as_the_full_sweep_does(tmp_path):
    """A level's inputs depend only on m: --levels 2 picks level 2 of
    schedule.levels and its stride, and writes the full sweep's level-2 row
    and parameter file, byte for byte."""
    cfg = write(tmp_path, LEARN_CFG)
    full, one = tmp_path / "full", tmp_path / "one"
    assert main(["learn", "--config", cfg, "--out", str(full)]) == 0
    assert main(["learn", "--config", cfg, "--out", str(one), "--levels", "2"]) == 0
    header, *rows = (full / "results.csv").read_text().splitlines()
    assert (one / "results.csv").read_text().splitlines() == [header, rows[1]]
    assert (one / "params_m2.txt").read_bytes() == (full / "params_m2.txt").read_bytes()


def test_learn_says_why_each_level_stopped(tmp_path, capsys):
    cfg = write(tmp_path, LEARN_CFG.replace("max_iters = 30", "max_iters = 4"))
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    levels = [line for line in lines if line.startswith("level ")]
    assert len(levels) == 3
    assert all(line.endswith(", iteration cap after 4 iterations") for line in levels)
    with open(os.path.join(tmp_path, "o", "results.csv")) as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    assert header[-2:] == ["stop_reason", "iterations"]
    assert [row[-2:] for row in rows] == [["iteration cap", "4"]] * 3
    # eps_1 = 1: the ramp (0.5, 1.5) covers the top of the box [0, 1.2];
    # from level 2 on (eps + delta = 1.06, 0.87) it ends inside the box
    warnings = [line for line in lines if line.startswith("warning: ")]
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: level 1: the cutoff is still positive "
                                  "at the top of the reaction box (1.2 < eps + delta = 1.5)")


def test_learn_manifest_is_the_same_under_one_and_two_blas_threads(tmp_path):
    """The network's products run along the points axis, which is the axis
    OpenBLAS splits across threads; the outputs must not depend on the
    split. The run is the shipped learn-toy.cfg at 4 iterations per level,
    so the products have the shipped 7380-point, width-16 shape. The 672
    points of LEARN_CFG could not show a split: there even a width-64
    network gives the same bytes under both thread counts."""
    with open(shipped_config("learn-toy.cfg")) as fh:
        text = fh.read().replace("max_iters = 8000", "max_iters = 4")
    manifests = manifests_under_one_and_two_blas_threads("learn", write(tmp_path, text),
                                                         tmp_path)
    assert len(manifests[0].splitlines()) == 4  # three parameter files, results.csv
    assert manifests[0] == manifests[1]


def test_simulate_manifest_is_the_same_under_one_and_two_blas_threads(tmp_path):
    """A wrapped two-species 1D run: each step solves each species' row
    in place with one `dgttrs` call."""
    manifests = manifests_under_one_and_two_blas_threads(
        "simulate", write(tmp_path, TWO_SPECIES_CFG), tmp_path)
    assert "trajectory.csv" in manifests[0]
    assert manifests[0] == manifests[1]


def manifests_under_one_and_two_blas_threads(command, cfg, tmp_path):
    """`manifest.txt` of `python -m rdlearn.cli command` run in a fresh
    process under 1 and under 2 BLAS threads."""
    src = os.path.dirname(os.path.dirname(rdlearn.__file__))
    path = os.environ.get("PYTHONPATH")
    manifests = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads-{threads}")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": src if not path else src + os.pathsep + path}
        subprocess.run([sys.executable, "-m", "rdlearn.cli", command, "--config", cfg,
                        "--out", out, "--seed", "0"],
                       env=env, check=True, capture_output=True, timeout=300)
        manifests.append(read_manifest(out))
    return manifests


def test_learn_measurement_kinds(tmp_path, capsys):
    """`kind = full` writes the bytes of the stride-1 subsample, `kind =
    fourier` runs, and a modes list of the wrong length is named."""
    def learn(text, name):
        out = str(tmp_path / name)
        return main(["learn", "--config", write(tmp_path, text, name + ".cfg"), "--out", out]), out

    code, stride_1 = learn(LEARN_CFG.replace("strides = 4,2,1", "strides = 1,1,1"), "stride-1")
    assert code == 0
    code, full = learn(LEARN_CFG.replace("kind = subsample\nstrides = 4,2,1", "kind = full"),
                       "full")
    assert code == 0
    names = ["results.csv", "params_m1.txt", "params_m2.txt", "params_m3.txt"]
    for name in names:
        with open(os.path.join(stride_1, name), "rb") as a, open(os.path.join(full, name), "rb") as b:
            assert a.read() == b.read()

    fourier = LEARN_CFG.replace("kind = subsample\nstrides = 4,2,1", "kind = fourier\nmodes = 3,5,7")
    assert learn(fourier, "fourier")[0] == 0
    capsys.readouterr()
    assert learn(fourier.replace("modes = 3,5,7", "modes = 3,5"), "modes")[0] == 2
    assert "measurement.modes" in capsys.readouterr().err


def test_learn_rejects_stride_count_mismatch(tmp_path, capsys):
    cfg = write(tmp_path, LEARN_CFG.replace("strides = 4,2,1", "strides = 4,2"))
    code = main(["learn", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "strides" in capsys.readouterr().err


def test_learn_widths_must_match_species(tmp_path, capsys):
    cfg = write(tmp_path, LEARN_CFG.replace("widths = 1,4,1", "widths = 2,4,2"))
    code = main(["learn", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "widths" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# profile mini-language (through the simulate pipeline)


@pytest.mark.parametrize("profile, check", [
    ("constant:0.7", lambda x, L: np.full_like(x, 0.7)),
    ("ramp:0.1,1.1", lambda x, L: 0.1 + 1.1 * x / L),
    ("cosine:0.5,0.4,2", lambda x, L: 0.5 + 0.4 * np.cos(2 * np.pi * x / L)),
])
def test_profiles_evaluate_as_documented(profile, check, tmp_path):
    from rdlearn.cli import _profile_values

    grid = SpaceTimeGrid(2.0, 31, 0.1, 4)
    cfg_vals = _profile_values(profile, grid)
    np.testing.assert_allclose(cfg_vals, check(grid.axis(0), 2.0), atol=1e-15)


def test_ramp_profile_broadcasts_along_the_second_axis():
    from rdlearn.cli import _profile_values

    grid = SpaceTimeGrid((1.0, 2.0), (9, 7), 0.1, 4)
    vals = _profile_values("ramp:0.0,1.0", grid)
    assert vals.shape == (9, 7)
    np.testing.assert_allclose(vals[:, 0], grid.axis(0))
    np.testing.assert_allclose(vals[3], np.full(7, vals[3, 0]))
