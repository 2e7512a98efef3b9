import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import gkhyper
from gkhyper import estimate, marginal, problems
from gkhyper.cli import _build_problem, main
from gkhyper.config import (ConfigError, EstimateConfig, HyperpriorConfig, KernelConfig,
                            MonitorConfig, ProblemConfig, ReconstructConfig, _has_bool,
                            config_from_dict, load_config)
from gkhyper.covariance import MaternKernel, RegularGrid
from gkhyper.estimate import OptimizeOptions
from gkhyper.gengk import gengk_bidiag, truncate_factorization
from gkhyper.marginal import HyperParams, Hyperprior, objective_exact, objective_gengk
from gkhyper.problems import build_ray_tomo_problem, heat_1d


SMALL_HEAT = {
    "problem": {"name": "heat1d", "n": 64, "noise_level": 0.02},
    "estimate": {
        "k": 10,
        "theta0": [1e-4, 0.5, 0.1],
        "bounds": [[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5]],
        "max_iters": 60,
    },
    "monitor": {"k_max": 12, "n_mc": 5, "theta": [1e-5, 0.4, 0.08]},
    "reconstruct": {"theta": [1e-5, 0.4, 0.08], "k": 10},
    "seed": 0,
}


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def read_csv(path) -> dict[str, np.ndarray]:
    """Read one of the CLI's CSV outputs into named columns."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}


def read_theta_star(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- configuration schema


def test_defaults_roundtrip():
    cfg = config_from_dict({})
    assert cfg.problem.name == "heat1d"
    assert cfg.estimate.k == 22
    cfg.validate()


def test_integer_scalars_accepted():
    cfg = config_from_dict({"seed": 3, "dense_cap": 100})
    assert (cfg.seed, cfg.dense_cap) == (3, 100)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"probem": {}})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"problem": {"name": "heat1d", "bogus": 1}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"problem": {"name": "wave"}})
    with pytest.raises(ConfigError):
        config_from_dict({"estimate": {"k": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"estimate": {"theta0": [1.0, -1.0, 1.0]}})
    with pytest.raises(ConfigError):
        config_from_dict({"hyperprior": {"kind": "gamma", "gamma": -2.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": "abc"})


BAD_THETA = [
    {"estimate": {"theta0": [1e-4, 0.5], "bounds": [[1e-10, 1.0], [1e-3, 10.0]]}},
    {"estimate": {"theta0": [1e-4, 0.5, 0.1, 1.0],
                  "bounds": [[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5], [0.1, 2.0]]}},
    {"estimate": {"bounds": [[1e-10, 1.0], [10.0, 1e-3], [5e-3, 0.5]]}},
    {"estimate": {"theta0": [1e-4, 0.5, 0.9]}},
    {"monitor": {"theta": [1e-5, 0.4, 0.08, 1.0]}},
    {"reconstruct": {"theta": [1e-5, 0.4, 0.08, 1.0]}},
]


@pytest.mark.parametrize("payload", BAD_THETA)
def test_bad_theta_rejected_at_load(payload):
    # wrong length, inverted bounds and a start outside the bounds
    with pytest.raises(ConfigError, match="theta|bounds"):
        config_from_dict(payload)


def test_bad_theta_exits_one_before_any_build(tmp_path, monkeypatch):
    def no_build(cfg):
        raise AssertionError("the problem was built")

    monkeypatch.setattr("gkhyper.cli._build_problem", no_build)
    for i, payload in enumerate(BAD_THETA):
        cfg = write_config(tmp_path, {**SMALL_HEAT, **payload}, name=f"bad{i}.yaml")
        out = tmp_path / f"out{i}"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()


BAD_NUMBERS = [
    {"monitor": {"theta": [float("nan"), 0.4, 0.08]}},
    {"reconstruct": {"theta": [1e-5, float("inf"), 0.08]}},
    {"hyperprior": {"kind": "gamma", "gamma": float("nan")}},
    {"problem": {"name": "heat1d", "n": 64, "noise_level": float("nan")}},
    {"problem": {"name": "heat1d", "n": 64, "kappa": float("inf")}},
    {"problem": {"name": "ray_tomo", "grid": 8, "n_rays": 40, "prior_std": -0.8}},
    {"problem": {"name": "ray_tomo", "grid": 8, "n_rays": 40, "ell": 0.0}},
    {"kernel": {"nu": float("inf")}},
    {"estimate": {"bounds": [[1e-10, 1.0], [1e-3, float("nan")], [5e-3, 0.5]]}},
    {"seed": float("inf")},
    {"problem": {"name": "heat1d", "n": 64.5}},
    {"monitor": {"k_max": 12.5, "theta": [1e-5, 0.4, 0.08]}},
    {"estimate": {"k": "foo"}},
    {"estimate": {"max_iters": 0}},
    {"estimate": {"grad_tol": -1.0}},
    {"seed": 1.5},
    {"dense_cap": 100.9},
    {"seed": "3"},
    {"seed": True},
    {"problem": {"name": "heat1d", "n": 64, "noise_level": True}},
    {"hyperprior": {"kind": "gamma", "gamma": True}},
    {"estimate": {"theta0": [True, 0.5, 0.1]}},
    {"monitor": {"theta": [1e-4, True, 0.08]}},
    {"estimate": {"parameterization": "linear"}},
    # a scale whose square overflows or underflows to 0
    {"problem": {"name": "heat1d", "n": 64, "kappa": 1.0e200}},
    {"problem": {"name": "heat1d", "n": 64, "kappa": 1.0e-200}},
    {"problem": {"name": "ray_tomo", "grid": 8, "n_rays": 40, "prior_std": 1.0e200}},
    {"monitor": {"theta": [1.0e-4, 1.0e160, 0.08]}},
    {"reconstruct": {"theta": [7.7e-6, 1.0e200, 0.185]}},
    {"monitor": {"theta": [1.0e-4, 1.0e-200, 0.08]}},
]


@pytest.mark.parametrize("payload", BAD_NUMBERS)
def test_bad_numbers_exit_one_before_any_build(tmp_path, monkeypatch, capsys, payload):
    # non-finite numbers, fractions and strings in integer fields, values of
    # the wrong type, optimizer limits out of range and a parameterization
    # other than log are configuration errors
    with pytest.raises(ConfigError):
        config_from_dict(payload)

    def no_build(cfg):
        raise AssertionError("the problem was built")

    monkeypatch.setattr("gkhyper.cli._build_problem", no_build)
    cfg = write_config(tmp_path, {**SMALL_HEAT, **payload})
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("configuration error:")


# --- one home for each input rule: the records refuse what the config refuses

BOUNDS = [[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5]]


def _bounds_with(row, col, value):
    bounds = [list(r) for r in BOUNDS]
    bounds[row][col] = value
    return bounds


RECORD_FIELDS = {
    "MaternKernel.nu": lambda x: MaternKernel(x, 1.0, 0.1),
    "MaternKernel.sigma2": lambda x: MaternKernel(1.5, x, 0.1),
    "MaternKernel.ell": lambda x: MaternKernel(1.5, 1.0, x),
    "RegularGrid.spacing": lambda x: RegularGrid((4, 4), (0.25, x)),
    "Hyperprior.gamma_rate/flat": lambda x: Hyperprior("flat", x),
    "Hyperprior.gamma_rate/gamma": lambda x: Hyperprior("gamma", x),
    **{f"OptimizeOptions.bounds[{i}][{j}]":
       (lambda x, i=i, j=j: OptimizeOptions(bounds=_bounds_with(i, j, x)))
       for i in range(3) for j in range(2)},
    "OptimizeOptions.k": lambda x: OptimizeOptions(k=x, bounds=BOUNDS),
    "OptimizeOptions.max_iters": lambda x: OptimizeOptions(max_iters=x, bounds=BOUNDS),
    "OptimizeOptions.grad_tol": lambda x: OptimizeOptions(grad_tol=x, bounds=BOUNDS),
    **{f"HyperParams[{i}]": (lambda x, i=i: HyperParams(np.insert([1e-4, 0.5], i, x)))
       for i in range(3)},
    "HyperParams/2 values": lambda x: HyperParams([1e-4, x]),
    "HyperParams/4 values": lambda x: HyperParams([1e-4, 0.5, 0.1, x]),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_refuse_non_finite_values(name, value):
    with pytest.raises(ValueError):
        RECORD_FIELDS[name](value)


# the keys each section hands to a record; the config's own type rule refuses
# a bool (a record reads True as 1.0), so payloads holding one are left out
RECORD_KEYS = {
    "estimate": {"k", "theta0", "bounds", "parameterization", "max_iters", "grad_tol"},
    "monitor": {"theta"},
    "reconstruct": {"theta"},
    "hyperprior": {"kind", "gamma"},
}
RECORD_PAYLOADS = [
    {name: values} for payload in BAD_THETA + BAD_NUMBERS for name, values in payload.items()
    if name in RECORD_KEYS and set(values) <= RECORD_KEYS[name]
    and not _has_bool(list(values.values()))
]


def _build_records(name, values):
    # straight from the section's values (defaults where the payload has none)
    # to the records, without the config
    if name == "estimate":
        ec = EstimateConfig(**values)
        opts = OptimizeOptions(k=ec.k, max_iters=ec.max_iters, grad_tol=ec.grad_tol,
                               bounds=ec.bounds, parameterization=ec.parameterization)
        opts.check_start(HyperParams(ec.theta0).values)
    elif name == "hyperprior":
        hc = HyperpriorConfig(**values)
        Hyperprior(hc.kind, hc.gamma)
    else:
        section = {"monitor": MonitorConfig, "reconstruct": ReconstructConfig}[name]
        HyperParams(section(**values).theta)


def test_record_payloads_cover_every_record_section():
    assert len(RECORD_PAYLOADS) == 17
    assert {name for payload in RECORD_PAYLOADS for name in payload} == set(RECORD_KEYS)


@pytest.mark.parametrize("payload", RECORD_PAYLOADS)
def test_records_refuse_what_the_config_refuses(payload):
    # the config refuses these by building the records, so the two rules
    # cannot drift apart
    with pytest.raises(ConfigError):
        config_from_dict(payload)
    [(name, values)] = payload.items()
    with pytest.raises((TypeError, ValueError)):
        _build_records(name, values)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
@pytest.mark.parametrize("name", ["k", "max_iters"])
def test_optimize_options_refuse_a_count_that_is_not_an_integer(name, value):
    # k = 2.5 used to build, and the factorization then ran int(2.5) = 2 steps
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        OptimizeOptions(bounds=BOUNDS, **{name: value})
    assert getattr(OptimizeOptions(bounds=BOUNDS, **{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
@pytest.mark.parametrize("name", ["kappa", "noise_level", "prior_std", "ell", "nu"])
def test_problem_and_kernel_sections_refuse_non_finite_values(name, value):
    # called on the sections directly, without RunConfig's finiteness pass
    # before them; noise_level may be 0 (noise-free data)
    section = KernelConfig(nu=value) if name == "nu" else ProblemConfig(**{name: value})
    if name == "noise_level" and value == 0.0:
        section.validate()
        return
    with pytest.raises(ValueError):
        section.validate()


@pytest.mark.parametrize("value", [1e200, 1e-200, 1.4e154, -0.8])
def test_owners_refuse_a_scale_whose_square_is_not_finite_and_positive(monkeypatch, value):
    # the float power of a square that overflows raised OverflowError, and
    # the ray builder read prior_std = -0.8 as +0.8; each owner now refuses
    # the value before any ray is traced
    def no_trace(*args):
        raise AssertionError("a ray was traced")

    monkeypatch.setattr(problems, "_ray_matrix", no_trace)
    for name in ("kappa", "prior_std"):
        with pytest.raises(ValueError, match=name):
            ProblemConfig(**{name: value}).validate()
    with pytest.raises(ValueError, match="kappa"):
        heat_1d(64, kappa=value)
    with pytest.raises(ValueError, match="prior_std"):
        build_ray_tomo_problem(g=8, n_rays=40, prior_std=value)
    with pytest.raises(ValueError, match="theta2|strictly positive"):
        HyperParams([1e-4, value, 0.1])


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_yaml_parse_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("problem: [unclosed")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


# --- CLI workflows


def test_estimate_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, SMALL_HEAT)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_theta_star(out / "theta_star.json")
    assert summary["converged"]
    assert len(summary["theta_star"]) == 3
    rec = read_csv(out / "reconstruction.csv")
    assert set(rec) == {"s_true", "s_hat", "re"}
    assert len(rec["s_true"]) == 64
    iterates = read_csv(out / "iterates.csv")
    assert len(iterates["eval"]) == summary["func_count"]
    # the recorded objective matches the trace minimum
    assert np.isclose(min(iterates["objective"]), summary["objective"])


def test_estimate_reports_objective_at_theta_star(tmp_path, monkeypatch):
    # a stub whose gradient is that of a quadratic centred a fifth of the way
    # to its value's minimiser: L-BFGS-B overshoots to lower values on its
    # first line search and converges at the gradient's stationary point, so
    # the value at theta* is not the lowest evaluation
    x0 = np.log(SMALL_HEAT["estimate"]["theta0"])
    target = np.log([1e-3, 1.0, 0.2])
    stationary = x0 + 0.2 * (target - x0)

    def stub(model, theta, k):
        x = np.log(theta.values)
        return SimpleNamespace(value=float(np.sum((x - target) ** 2)),
                               gradient=2.0 * (x - stationary) / theta.values)

    monkeypatch.setattr(estimate, "objective_gengk", stub)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(write_config(tmp_path, SMALL_HEAT)),
                 "--out", str(out)]) == 0
    summary = read_theta_star(out / "theta_star.json")
    at_star = stub(None, HyperParams(np.array(summary["theta_star"])), None).value
    assert summary["objective"] == at_star
    assert min(entry["objective"] for entry in summary["trace"]) < at_star - 1.0


# monitor tolerance for choosing k: err_mc within this fraction of |objective|
MONITOR_RTOL = 1e-3


def test_estimate_noiseless_pipeline(tmp_path):
    # SMALL_HEAT's k suits 2% noise; without noise k is chosen the way the
    # program prescribes, from the monitor at the first estimate's theta*
    n = 64
    payload = dict(SMALL_HEAT)
    payload["problem"] = {"name": "heat1d", "n": n, "noise_level": 0.0}
    payload["estimate"] = dict(SMALL_HEAT["estimate"],
                               bounds=[[1e-14, 1.0], [1e-3, 10.0], [5e-3, 0.5]])
    cfg = write_config(tmp_path, payload)
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "k0")]) == 0
    summary = read_theta_star(tmp_path / "k0" / "theta_star.json")

    payload["monitor"] = dict(SMALL_HEAT["monitor"], k_max=n,
                              theta=summary["theta_star"])
    cfg = write_config(tmp_path, payload)
    assert main(["monitor", "--config", str(cfg), "--out", str(tmp_path / "mon")]) == 0
    table = read_csv(tmp_path / "mon" / "error_vs_k.csv")
    accurate = table["err_mc"] <= MONITOR_RTOL * abs(summary["objective"])
    assert np.any(accurate)
    k = int(table["k"][np.argmax(accurate)])

    payload["estimate"] = dict(payload["estimate"], k=k)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    rec = read_csv(out / "reconstruction.csv")
    # without noise the recovery is markedly better than the noisy band
    assert rec["re"][0] < 0.10


def test_malformed_config_exits_one_without_outputs(tmp_path):
    cfg = write_config(tmp_path, {"problem": {"name": "heat1d", "bogus_key": 3}})
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def _run_cli(tmp_path, *args):
    # in a process of its own, so that a traceback would show on its stderr
    env = dict(os.environ, PYTHONPATH=str(Path(gkhyper.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "gkhyper.cli", *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)


def test_unreadable_config_exits_one_without_traceback(tmp_path):
    # a directory, and a file that is not UTF-8 text
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(bytes(range(128, 256)))
    out = tmp_path / "out"
    for config in (tmp_path, binary):
        proc = _run_cli(tmp_path, "reconstruct", "--config", str(config), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"configuration error: cannot read {config}: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def test_out_naming_a_file_exits_one_without_traceback(tmp_path):
    # the outputs are written after the solve, into a directory that cannot be made
    cfg = write_config(tmp_path, SMALL_HEAT)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    proc = _run_cli(tmp_path, "reconstruct", "--config", str(cfg), "--out", str(taken))
    assert proc.returncode == 1
    assert proc.stderr.startswith("cannot write outputs: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert taken.read_text() == "kept\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.yaml", "taken"]


def test_unwritable_output_leaves_no_file_of_the_run(tmp_path):
    # the last of estimate's three outputs names a directory: none is written
    cfg = write_config(tmp_path, SMALL_HEAT)
    out = tmp_path / "out"
    (out / "iterates.csv").mkdir(parents=True)
    proc = _run_cli(tmp_path, "estimate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    # the solve may log a clipping warning first; the error is the one last line
    *_, last = proc.stderr.splitlines()
    assert last.startswith("cannot write outputs: ") and "iterates.csv" in last
    assert proc.stderr.endswith(last + "\n") and proc.stderr.count("cannot write") == 1
    assert "Traceback" not in proc.stderr
    assert [path.name for path in out.iterdir()] == ["iterates.csv"]
    assert list((out / "iterates.csv").iterdir()) == []


def test_negative_cli_seed_rejected(tmp_path):
    cfg = write_config(tmp_path, SMALL_HEAT)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out),
                 "--seed", "-3"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["estimate", "--out", "{out}"],
    ["estimate", "--config", "{cfg}", "--out", "{out}", "--seed", "x"],
    ["benchmark", "--config", "{cfg}", "--out", "{out}"],
])
def test_usage_errors_exit_one_without_outputs(tmp_path, args):
    # argparse's own exit code 2 would read as a numerical failure
    cfg = write_config(tmp_path, SMALL_HEAT)
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg, out=out) for a in args]
    assert main(argv) == 1
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "estimate" in capsys.readouterr().out


def test_monitor_outputs_and_bound_column(tmp_path):
    cfg = write_config(tmp_path, SMALL_HEAT)
    out = tmp_path / "mon"
    assert main(["monitor", "--config", str(cfg), "--out", str(out)]) == 0
    table = read_csv(out / "error_vs_k.csv")
    assert len(table["k"]) == 12
    assert np.all(table["prop2_bound"] >= table["abs_err_objective"] - 1e-12)
    assert np.all(np.isfinite(table["err_mc"]))
    assert np.all(table["err_mc"] >= 0)


def test_monitor_errors_equal_full_evaluation(tmp_path):
    # the monitor reads the objective alone; its errors are those of the
    # full objective-and-gradient evaluation at every truncation, bit for bit
    cfg_path = write_config(tmp_path, SMALL_HEAT)
    out = tmp_path / "mon"
    assert main(["monitor", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = read_csv(out / "error_vs_k.csv")

    cfg = load_config(cfg_path)
    _, model = _build_problem(cfg)
    theta = HyperParams(np.asarray(cfg.monitor.theta, dtype=float))
    fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                        model.prior_mean, model.data, cfg.monitor.k_max)
    exact = objective_exact(model, theta)
    assert list(table["k"]) == list(range(1, fact.k + 1))
    for k in range(1, fact.k + 1):
        approx = objective_gengk(model, theta, k, fact=truncate_factorization(fact, k))
        abs_err = abs(exact.value - approx.value)
        assert table["abs_err_objective"][k - 1] == abs_err
        assert table["re_objective"][k - 1] == abs_err / abs(exact.value)
        assert table["re_logdet"][k - 1] == (abs(exact.logdet_term - approx.logdet_term)
                                             / abs(exact.logdet_term))
        assert table["re_quad"][k - 1] == (abs(exact.quad_term - approx.quad_term)
                                           / abs(exact.quad_term))


def test_monitor_takes_no_gradient(tmp_path, monkeypatch):
    # the monitor reads values only: with the gradient refused it writes the
    # same bytes
    cfg = write_config(tmp_path, SMALL_HEAT)
    assert main(["monitor", "--config", str(cfg), "--out", str(tmp_path / "eager")]) == 0

    def refuse(*args):
        raise AssertionError("the gradient was taken")

    monkeypatch.setattr(marginal, "_gengk_gradient", refuse)
    assert main(["monitor", "--config", str(cfg), "--out", str(tmp_path / "lazy")]) == 0
    assert ((tmp_path / "lazy" / "error_vs_k.csv").read_bytes()
            == (tmp_path / "eager" / "error_vs_k.csv").read_bytes())


def test_monitor_single_row(tmp_path):
    payload = dict(SMALL_HEAT)
    payload["monitor"] = {"k_max": 1, "n_mc": 4, "theta": [1e-5, 0.4, 0.08]}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "mon1"
    assert main(["monitor", "--config", str(cfg), "--out", str(out)]) == 0
    table = read_csv(out / "error_vs_k.csv")
    assert len(table["k"]) == 1


def test_monitor_dense_cap_between_m_and_n(tmp_path):
    # m = 80 rays lie under the cap, n = 100 pixels over it: the exact
    # columns are NaN and the Monte Carlo columns are still written
    payload = {
        "problem": {"name": "ray_tomo", "grid": 10, "n_rays": 80,
                    "noise_level": 0.02, "prior_std": 0.8, "ell": 0.1},
        "monitor": {"k_max": 10, "n_mc": 4, "theta": [1e-5, 0.8, 0.1]},
        "dense_cap": 90,
        "seed": 1,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "mon"
    assert main(["monitor", "--config", str(cfg), "--out", str(out)]) == 0
    table = read_csv(out / "error_vs_k.csv")
    assert list(table["k"]) == list(range(1, 11))
    for name in ("re_objective", "abs_err_objective", "re_logdet", "re_quad", "prop2_bound"):
        assert np.all(np.isnan(table[name])), name
    assert np.all(np.isfinite(table["xi_hat"])) and np.all(np.isfinite(table["err_mc"]))


def test_monitor_probes_the_forward_map_once(tmp_path, monkeypatch):
    # the exact columns and xi_0 read one dense assembly: A is probed once, by
    # min(m, n) applies, besides the build's one apply, the 2(k + 1) of the
    # bidiagonalization and the 2 n_mc of the Monte Carlo probes
    models = []

    def keep_model(cfg):
        prob, model = _build_problem(cfg)
        models.append(model)
        return prob, model

    monkeypatch.setattr("gkhyper.cli._build_problem", keep_model)
    payload = {
        "problem": {"name": "ray_tomo", "grid": 10, "n_rays": 80,
                    "noise_level": 0.02, "prior_std": 0.8, "ell": 0.1},
        "monitor": {"k_max": 10, "n_mc": 4, "theta": [1e-5, 0.8, 0.1]},
        "seed": 1,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "mon"
    assert main(["monitor", "--config", str(cfg), "--out", str(out)]) == 0
    table = read_csv(out / "error_vs_k.csv")
    assert np.all(np.isfinite(table["abs_err_objective"]))
    (model,) = models
    k = len(table["k"])
    assert sum(model.forward.matvec_count.snapshot()) == (
        1 + 2 * (k + 1) + 2 * 4 + min(model.nrows, model.ncols))


def test_reconstruct_command(tmp_path):
    cfg = write_config(tmp_path, SMALL_HEAT)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
    rec = read_csv(out / "reconstruction.csv")
    assert len(rec["s_hat"]) == 64


def test_ray_tomo_estimate_smoke(tmp_path):
    payload = {
        "problem": {"name": "ray_tomo", "grid": 10, "n_rays": 80,
                    "noise_level": 0.02, "prior_std": 0.8, "ell": 0.1},
        "hyperprior": {"kind": "gamma", "gamma": 1e-4},
        "estimate": {"k": 30, "theta0": [1e-4, 0.5, 0.1],
                     "bounds": [[1e-10, 1.0], [1e-3, 10.0], [2e-2, 0.3]],
                     "max_iters": 40},
        "seed": 1,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "tomo"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "theta_star.json").exists()


def test_seed_override_changes_noise(tmp_path):
    cfg = write_config(tmp_path, SMALL_HEAT)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "9"]) == 0
    rec_a = read_csv(out_a / "reconstruction.csv")
    rec_b = read_csv(out_b / "reconstruction.csv")
    assert not np.allclose(rec_a["s_hat"], rec_b["s_hat"])
