"""Print a SHA-256 of every `gkhyper estimate`/`monitor`/`reconstruct` output on the
shipped configs, and the exact bits of the objective at three standard theta and
along a truncation sweep.

Usage: python3 scripts/output_digest.py [ROOT [OTHER]]

ROOT is the checkout to run (default: the one holding this script). For each
shipped config it also evaluates `objective_gengk` (at the config's
`estimate.k`) and `objective_exact` at the theta in THETAS, and prints the
value and the three gradient components as `float.hex`, which is exact, and
the value and two gradient components of `objective_rescaled` read from a
`precompute_two_param` factorization taken at the theta's correlation length
with k = `estimate.k`. It does the same for `objective_gengk` read from
truncations of one factorization, taken at the config's `monitor.theta` with
K = `monitor.k_max` steps, at the k in SWEEP_KS and at K. The shipped configs all run on grids,
so it does the same for `objective_gengk` (k = POINT_SET_K) and
`objective_exact` at THETAS on a masked ray g = 8 model, whose geometry is a
point array and whose covariance takes the dense backend. It prints the
SHA-256 of the phantom `s_true` and the noisy `data` of `build_ray_tomo_problem`
at each parameter set in PHANTOMS, with the shipped config's rays, noise, prior
std and ell, and of the CSR arrays (with their dtypes) of `ray_tomo_2d` at each
(g, n_rays) in RAYS, seed 0. Given a second checkout OTHER, both are digested
and only the outputs and numbers that differ between them are printed, one name a line;
the exit status is 1 if any do. BLAS and OpenMP threads are pinned to the CPUs this process may
use, as perfbench does, so that two checkouts digested on one host can be
compared.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THETAS = ((1e-4, 0.5, 0.1), (7.7e-6, 0.45, 0.185), (1e-5, 0.4, 0.9))

# the small-k dgemv path and both sides of a 16-column chunk edge
SWEEP_KS = (1, 3, 16, 17)

POINT_SET_K = 12

# the g = 32 problem of the ray-monitor benchmark at two seeds, and g = 16 on
# every other matern_eval branch: the closed forms at nu = 0.5 and 2.5 (the
# shipped configs take 1.5) and the Bessel form at nu = 1.2; at g = 16 and 32
# the spacing is a power of two, so lags times it equal point-coordinate
# differences, and g = 24 tells the two apart
PHANTOMS = ({"g": 32, "seed": 0}, {"g": 32, "seed": 1},
            {"g": 16, "nu": 0.5}, {"g": 16, "nu": 2.5}, {"g": 16, "nu": 1.2},
            {"g": 24, "seed": 3}, {"g": 24, "nu": 1.2})

# (g, n_rays) of ray_tomo_2d: the shipped ray config, and two larger grids
# where a ray crosses more lines and several tracer batches run
RAYS = ((24, 360), (64, 1440), (128, 8192))

# run by each checkout's own package, so that every number comes from its code
SHOW = """
from gkhyper.marginal import HyperParams, objective_exact, objective_gengk

def show(name, ev):
    for label, x in zip(("value", "grad1", "grad2", "grad3"), (ev.value, *ev.gradient)):
        print(float(x).hex(), f"{name}/{label}")
"""

OBJECTIVES = SHOW + f"""
import sys
from gkhyper.cli import _build_problem
from gkhyper.config import load_config
from gkhyper.estimate import precompute_two_param
from gkhyper.gengk import gengk_bidiag, truncate_factorization
from gkhyper.marginal import objective_rescaled

cfg = load_config(sys.argv[1])
model = _build_problem(cfg)[1]
for theta in {THETAS!r}:
    params = HyperParams(theta)
    show(f"objective_gengk/theta={{theta}}", objective_gengk(model, params, cfg.estimate.k))
    show(f"objective_exact/theta={{theta}}", objective_exact(model, params))
    unit = precompute_two_param(model, theta[2], cfg.estimate.k)
    show(f"objective_rescaled/theta={{theta}}", objective_rescaled(model, params, unit))

theta = HyperParams(cfg.monitor.theta)
k_max = min(cfg.monitor.k_max, model.nrows, model.ncols)
fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                    model.prior_mean, model.data, k_max)
for k in sorted({{k for k in {SWEEP_KS!r} if k <= fact.k}} | {{fact.k}}):
    show(f"sweep/theta={{tuple(cfg.monitor.theta)}}/k={{k}}",
         objective_gengk(model, theta, k, fact=truncate_factorization(fact, k)))
"""

# the pixels of a g = 8 grid whose centres lie in the inscribed disk
POINT_SET = SHOW + f"""
import numpy as np
from gkhyper.marginal import MarginalModel
from gkhyper.problems import build_ray_tomo_problem

centres = (np.arange(8) + 0.5) / 8 - 0.5
mask = np.flatnonzero(np.hypot(*np.meshgrid(centres, centres, indexing="ij")).ravel() < 0.5)
prob = build_ray_tomo_problem(g=8, n_rays=40, noise_level=0.02, seed=0, prior_std=0.8,
                              ell=0.08, mask=mask)
model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry, nu=1.5)
for theta in {THETAS!r}:
    params = HyperParams(theta)
    show(f"objective_gengk/theta={{theta}}", objective_gengk(model, params, {POINT_SET_K}))
    show(f"objective_exact/theta={{theta}}", objective_exact(model, params))
"""

PHANTOM = f"""
import hashlib
from gkhyper.problems import build_ray_tomo_problem

for params in {PHANTOMS!r}:
    prob = build_ray_tomo_problem(n_rays=360, noise_level=0.02, prior_std=0.8, ell=0.08,
                                  **params)
    label = ",".join(f"{{key}}={{value}}" for key, value in params.items())
    for name in ("s_true", "data"):
        print(hashlib.sha256(getattr(prob, name).tobytes()).hexdigest(), f"{{label}}/{{name}}")
"""

RAY_CSR = f"""
import hashlib
from gkhyper.problems import ray_tomo_2d

for g, n_rays in {RAYS!r}:
    mat = ray_tomo_2d(g, n_rays, seed=0)._mat
    for name in ("data", "indices", "indptr"):
        array = getattr(mat, name)
        print(hashlib.sha256(array.tobytes()).hexdigest(),
              f"g={{g}},n_rays={{n_rays}}/{{name}}/{{array.dtype}}")
"""


def _numbers(script: str, args: list, env: dict, cwd: str, prefix: str) -> dict:
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                         check=True, stderr=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         text=True).stdout
    return {f"{prefix}/{name}": bits
            for bits, name in (line.split(" ", 1) for line in out.splitlines())}


def digests(root: Path) -> dict:
    """SHA-256 of every output file of root's CLI on root's shipped configs, and
    the float.hex of root's objective values and gradients."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=nproc,
               OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((root / "configs").glob("*.yaml")):
            for command in ("estimate", "monitor", "reconstruct"):
                out = Path(tmp) / config.stem / command
                subprocess.run([sys.executable, "-m", "gkhyper.cli", command, "--config",
                                str(config), "--out", str(out)], env=env, cwd=tmp,
                               check=True, stderr=subprocess.DEVNULL)
                for path in sorted(out.iterdir()):
                    result[str(path.relative_to(tmp))] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
            result.update(_numbers(OBJECTIVES, [str(config)], env, tmp, config.stem))
        result.update(_numbers(POINT_SET, [], env, tmp, "point_set"))
        result.update(_numbers(PHANTOM, [], env, tmp, "phantom"))
        result.update(_numbers(RAY_CSR, [], env, tmp, "ray_tomo_2d"))
    return result


if len(sys.argv) > 3:
    sys.exit(__doc__)
roots = [Path(arg).resolve() for arg in sys.argv[1:]] or [Path(__file__).parents[1].resolve()]
if len(roots) == 1:
    for name, digest in digests(roots[0]).items():
        print(f"{digest}  {name}")
else:
    first, second = digests(roots[0]), digests(roots[1])
    differ = sorted(name for name in first.keys() | second.keys()
                    if first.get(name) != second.get(name))
    for name in differ:
        print(name)
    sys.exit(1 if differ else 0)
