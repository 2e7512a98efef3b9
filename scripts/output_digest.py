"""Print a SHA-256 of every `gkhyper estimate`/`monitor`/`reconstruct` output on the
shipped configs, and the exact bits of the objective at three standard theta and
along a truncation sweep.

Usage: python3 scripts/output_digest.py [ROOT [OTHER]]

ROOT is the checkout to run (default: the one holding this script). For each
shipped config it also evaluates `objective_gengk` (at the config's
`estimate.k`) and `objective_exact` at the theta in THETAS, and prints the
value and the three gradient components as `float.hex`, which is exact; the
value, log-determinant and quadratic terms of `objective_svd` at the k in
SVD_KS below min(m, n) and at full rank min(m, n); the `objective_exact` value
read with no gradient read, so that a value that depends on whether its
gradient was taken shows by name; the SHA-256 of
`map_reconstruct_exact`; and the value and two gradient components of
`objective_rescaled` read from a
`precompute_two_param` factorization taken at the theta's correlation length
with k = `estimate.k`. From a `precompute_two_param` factorization taken at the
correlation length of the config's `monitor.theta` with k = `estimate.k`, it prints
one SHA-256 over the `float.hex` of the (lambda, RE) curve of
`optimal_lambda_sweep` on the LAMBDA_GRID geomspace with theta1 = `monitor.theta[0]`, so that
a rescaled spectrum's `coefficients()` that moves shows by name. It does the
same for `objective_gengk` read from
truncations of one factorization, taken at the config's `monitor.theta` with
K = `monitor.k_max` steps, at the k in SWEEP_KS and at K; before those, it prints one
SHA-256 over the `float.hex` of the `objective_gengk` value at every k = 1..K, read
from a truncation with no gradient read, so that a value that depends on whether its
gradient was taken shows by name. From that factorization it
prints the SHA-256 of its `u_basis`, `v_basis`, `qv_basis`, `alphas` and `betas`,
so that a moved basis shows by name, the three `verify_relations` residuals as
`float.hex`, and the SHA-256 of `dense_matrix` of the config's forward
operator and of the Q taken at `monitor.theta`, and `mc_xi_estimate`'s `xi_hat` at
every k as `float.hex`, with the config's `monitor` probes and seed, so that a block
apply that moves bits outside the dense oracle shows by name. The shipped configs all run on grids,
so it does the same for `objective_gengk` (k = POINT_SET_K) and the dense
oracles (`objective_exact`, `objective_svd`, `map_reconstruct_exact`) at
THETAS on a masked ray g = 8 model, whose geometry is a point array and
whose covariance takes the dense backend, and the SHA-256 of
`dense_matrix` of its masked forward operator. For the same disk with its pixels
in a shuffled order it prints the SHA-256 of `dense_matrix` of the forward
operator, of `s_true` and of `data`, and `objective_exact` at THETAS, so that a
mask slice that reorders the entries within a row shows by name. It prints the
SHA-256 of the phantom `s_true` and the noisy `data` of `build_ray_tomo_problem`
at each parameter set in PHANTOMS, with the shipped config's rays, noise, prior
std and ell, and of the CSR arrays (with their dtypes) of `ray_tomo_2d` at each
(g, n_rays) in RAYS, seed 0. The forward operator of `build_heat_problem(n)` is a
dense operator up to n = 256 (the shipped heat config's size) and an FFT convolution
above, so at each n in HEAT_SIZES, on both sides of that switch, it prints the SHA-256
of `apply`, `apply_adjoint`, a 5-column `apply_block`, and a 17-column `apply_block`
and `apply_adjoint_block` (across the 16-column chunk edge) of that operator on
seeded inputs, and
`objective_gengk` at THETAS with k = HEAT_K on `build_heat_problem(n)` with the
shipped noise level and seed. The prior covariance Q applies by real transforms on
a 1-d grid and by complex ones on a 2-d grid, so on each grid in Q_GRIDS (1-d n and
2-d g by g, spacing 1/n or 1/g) and at the prior std and correlation length of each
theta in THETAS it prints the SHA-256 of Q's `apply`, `apply_block`, both
outputs of `apply_block_with_theta3_derivative` and `apply_theta3_derivative_block`
on seeded inputs, so that a Q-kernel change shows by name which grids moved (a
checkout without `apply_theta3_derivative_block` digests the second output of
the paired apply, which it must equal). Every operator implements one
block apply per direction, so it prints the SHA-256 of `apply`, `apply_adjoint`,
`apply_block` and `apply_adjoint_block` on seeded inputs for the shipped ray
config's sparse forward operator and for a seeded DENSE_SHAPE `DenseOperator`
and its transpose. Given a second checkout OTHER, both
are digested and only the outputs and numbers that differ between them are printed, one name a line;
the exit status is 1 if any do. BLAS and OpenMP threads are pinned to the CPUs this process may
use, as perfbench does, so that two checkouts digested on one host can be
compared. The `gkhyper estimate` outputs are digested once more at 1 BLAS thread,
as entries named `threads=1/<config>/estimate/<file>`, so that an estimate whose bits
depend on the thread count shows by name.
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

# both sides of the heat operator's switch from the dense matvec to the FFT,
# larger FFT sizes, and the heat-estimate benchmark's n = 2048; k is the
# shipped heat config's
HEAT_SIZES = (256, 257, 1000, 2048, 4096)
HEAT_K = 22

# Q's grids: the shipped heat size and the heat-estimate benchmark's n, the
# shipped ray grid and the ray-monitor benchmark's g
Q_GRIDS = ((256,), (2048,), (24, 24), (32, 32))

# a non-square DenseOperator, taken as it is and transposed
DENSE_SHAPE = (30, 70)

# truncations of objective_svd, besides full rank min(m, n)
SVD_KS = (1, 12, 60)

# the lambda sweep's grid of lambda = 1/theta2: np.geomspace(start, stop, count)
LAMBDA_GRID = (0.1, 20, 14)

# run by each checkout's own package, so that every number comes from its code
SHOW = f"""
import hashlib
from gkhyper.estimate import map_reconstruct_exact
from gkhyper.marginal import HyperParams, objective_exact, objective_gengk, objective_svd
from gkhyper.operators import dense_matrix

def show(name, ev):
    for label, x in zip(("value", "grad1", "grad2", "grad3"), (ev.value, *ev.gradient)):
        print(float(x).hex(), f"{{name}}/{{label}}")

def show_sha(name, array):
    print(hashlib.sha256(array.tobytes()).hexdigest(), name)

def show_dense(model, theta):
    params = HyperParams(theta)
    # a value read with no gradient read, so that a value that depends on
    # whether its gradient was taken shows by name
    print(objective_exact(model, params).value.hex(),
          f"objective_exact/theta={{theta}}/value_without_gradient")
    show(f"objective_exact/theta={{theta}}", objective_exact(model, params))
    full = min(model.nrows, model.ncols)
    for k in sorted({{k for k in {SVD_KS!r} if k < full}} | {{full}}):
        ev = objective_svd(model, params, k)
        for label in ("value", "logdet_term", "quad_term"):
            print(float(getattr(ev, label)).hex(), f"objective_svd/theta={{theta}}/k={{k}}/{{label}}")
    show_sha(f"map_reconstruct_exact/theta={{theta}}", map_reconstruct_exact(model, params))
"""

OBJECTIVES = SHOW + f"""
import sys
import numpy as np
from gkhyper.cli import _build_problem
from gkhyper.config import load_config
from gkhyper.estimate import optimal_lambda_sweep, precompute_two_param
from gkhyper.gengk import gengk_bidiag, truncate_factorization, verify_relations
from gkhyper.marginal import objective_rescaled
from gkhyper.monitor import mc_xi_estimate, normal_matrix_apply

cfg = load_config(sys.argv[1])
prob, model = _build_problem(cfg)
for theta in {THETAS!r}:
    params = HyperParams(theta)
    show(f"objective_gengk/theta={{theta}}", objective_gengk(model, params, cfg.estimate.k))
    show_dense(model, theta)
    unit = precompute_two_param(model, theta[2], cfg.estimate.k)
    show(f"objective_rescaled/theta={{theta}}", objective_rescaled(model, params, unit))

unit = precompute_two_param(model, cfg.monitor.theta[2], cfg.estimate.k)
_, curve = optimal_lambda_sweep(model, unit, prob.s_true, np.geomspace(*{LAMBDA_GRID!r}),
                                cfg.monitor.theta[0])
print(hashlib.sha256(" ".join(float(x).hex() for x in curve.ravel()).encode()).hexdigest(),
      f"lambda_sweep/theta={{tuple(cfg.monitor.theta)}}/curve")

theta = HyperParams(cfg.monitor.theta)
k_max = min(cfg.monitor.k_max, model.nrows, model.ncols)
fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                    model.prior_mean, model.data, k_max)
for name in ("u_basis", "v_basis", "qv_basis", "alphas", "betas"):
    show_sha(f"factorization/theta={{tuple(cfg.monitor.theta)}}/{{name}}", getattr(fact, name))
values = " ".join(
    objective_gengk(model, theta, k, fact=truncate_factorization(fact, k)).value.hex()
    for k in range(1, fact.k + 1))
print(hashlib.sha256(values.encode()).hexdigest(),
      f"sweep/theta={{tuple(cfg.monitor.theta)}}/values_without_gradient")
for k in sorted({{k for k in {SWEEP_KS!r} if k <= fact.k}} | {{fact.k}}):
    show(f"sweep/theta={{tuple(cfg.monitor.theta)}}/k={{k}}",
         objective_gengk(model, theta, k, fact=truncate_factorization(fact, k)))
residuals = verify_relations(fact, model.forward, model.prior_mean, model.data)
for label, residual in zip(("init", "forward", "adjoint"), residuals):
    print(float(residual).hex(),
          f"verify_relations/theta={{tuple(cfg.monitor.theta)}}/{{label}}")

show_sha("dense_matrix/forward", dense_matrix(model.forward))
show_sha(f"dense_matrix/Q/theta={{tuple(cfg.monitor.theta)}}", dense_matrix(fact.q_op))
h_apply = normal_matrix_apply(model.forward, model.noise_cov(theta))
xi_hat = mc_xi_estimate(h_apply, fact.q_op, fact, cfg.monitor.n_mc, seed=cfg.seed,
                        k_max=fact.k, probe_kind=cfg.monitor.probe_kind)
for k, xi in enumerate(xi_hat, 1):
    print(float(xi).hex(), f"mc_xi_estimate/theta={{tuple(cfg.monitor.theta)}}/k={{k}}")
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
    show_dense(model, theta)
show_sha("dense_matrix/forward", dense_matrix(model.forward))

prob = build_ray_tomo_problem(g=8, n_rays=40, noise_level=0.02, seed=0, prior_std=0.8,
                              ell=0.08, mask=np.random.default_rng(0).permutation(mask))
model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry, nu=1.5)
for theta in {THETAS!r}:
    show(f"permuted/objective_exact/theta={{theta}}", objective_exact(model, HyperParams(theta)))
show_sha("permuted/dense_matrix/forward", dense_matrix(model.forward))
show_sha("permuted/s_true", prob.s_true)
show_sha("permuted/data", prob.data)
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

HEAT = SHOW + f"""
import numpy as np
from gkhyper.marginal import MarginalModel
from gkhyper.problems import build_heat_problem

for n in {HEAT_SIZES!r}:
    prob = build_heat_problem(n=n, noise_level=0.02, seed=0)
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((2, n))
    show_sha(f"n={{n}}/apply", prob.forward.apply(x))
    show_sha(f"n={{n}}/apply_adjoint", prob.forward.apply_adjoint(y))
    show_sha(f"n={{n}}/apply_block", prob.forward.apply_block(rng.standard_normal((n, 5))))
    # 17 columns cross the 16-column chunk edge of a block apply
    block_x, block_y = rng.standard_normal((2, n, 17))
    show_sha(f"n={{n}}/apply_block/p=17", prob.forward.apply_block(block_x))
    show_sha(f"n={{n}}/apply_adjoint_block/p=17", prob.forward.apply_adjoint_block(block_y))
    model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry)
    for theta in {THETAS!r}:
        show(f"n={{n}}/objective_gengk/theta={{theta}}",
             objective_gengk(model, HyperParams(theta), {HEAT_K}))
"""

# a 17-column block crosses the 16-column chunk edge of a block apply
Q_APPLIES = f"""
import hashlib
import numpy as np
from gkhyper.covariance import MaternKernel, RegularGrid, build_cov_operator

for shape in {Q_GRIDS!r}:
    grid = RegularGrid(shape, tuple(1.0 / s for s in shape))
    label = f"n={{shape[0]}}" if len(shape) == 1 else f"g={{shape[0]}}"
    rng = np.random.default_rng(grid.size)
    x, block = rng.standard_normal(grid.size), rng.standard_normal((grid.size, 17))
    for theta in {THETAS!r}:
        q = build_cov_operator(grid, MaternKernel(1.5, theta[1] ** 2, theta[2]))
        outs = {{"apply": q.apply(x), "apply_block": q.apply_block(block)}}
        outs["with_theta3/Q"], outs["with_theta3/dQ"] = q.apply_block_with_theta3_derivative(block)
        # a checkout without the dQ/dtheta3-only apply digests the output it
        # must equal, the paired apply's second one
        outs["theta3_derivative"] = (q.apply_theta3_derivative_block(block)
                                     if hasattr(q, "apply_theta3_derivative_block")
                                     else outs["with_theta3/dQ"])
        for name, out in outs.items():
            print(hashlib.sha256(out.tobytes()).hexdigest(), f"{{label}}/theta={{theta}}/{{name}}")
"""

# a 17-column block, as in Q_APPLIES
FORWARD_APPLIES = f"""
import hashlib
import sys
import numpy as np
from gkhyper.cli import _build_problem
from gkhyper.config import load_config
from gkhyper.operators import DenseOperator

mat = np.random.default_rng(0).standard_normal({DENSE_SHAPE!r})
ops = {{"ray": _build_problem(load_config(sys.argv[1]))[1].forward,
        "dense": DenseOperator(mat), "dense_transposed": DenseOperator(mat.T)}}
for label, op in ops.items():
    rng = np.random.default_rng(op.nrows)
    x, y = rng.standard_normal(op.ncols), rng.standard_normal(op.nrows)
    block_x, block_y = rng.standard_normal((op.ncols, 17)), rng.standard_normal((op.nrows, 17))
    outs = {{"apply": op.apply(x), "apply_adjoint": op.apply_adjoint(y),
            "apply_block": op.apply_block(block_x),
            "apply_adjoint_block": op.apply_adjoint_block(block_y)}}
    for name, out in outs.items():
        print(hashlib.sha256(out.tobytes()).hexdigest(), f"{{label}}/{{name}}")
"""


def _numbers(script: str, args: list, env: dict, cwd: str, prefix: str) -> dict:
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                         check=True, stderr=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         text=True).stdout
    return {f"{prefix}/{name}": bits
            for bits, name in (line.split(" ", 1) for line in out.splitlines())}


def _cli_outputs(command: str, config: Path, env: dict, tmp: str, label: str) -> dict:
    out = Path(tmp) / label / command
    subprocess.run([sys.executable, "-m", "gkhyper.cli", command, "--config", str(config),
                    "--out", str(out)], env=env, cwd=tmp, check=True,
                   stderr=subprocess.DEVNULL)
    return {str(path.relative_to(tmp)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def _pinned(env: dict, threads: str) -> dict:
    return dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads)


def digests(root: Path) -> dict:
    """SHA-256 of every output file of root's CLI on root's shipped configs, and
    the float.hex of root's objective values and gradients."""
    env = _pinned(dict(os.environ, PYTHONPATH=str(root / "src")),
                  str(len(os.sched_getaffinity(0))))
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((root / "configs").glob("*.yaml")):
            for command in ("estimate", "monitor", "reconstruct"):
                result.update(_cli_outputs(command, config, env, tmp, config.stem))
            # the estimate again at 1 BLAS thread, under its own names, so that
            # an estimate whose bits follow the thread count shows by name
            result.update(_cli_outputs("estimate", config, _pinned(env, "1"), tmp,
                                       f"threads=1/{config.stem}"))
            result.update(_numbers(OBJECTIVES, [str(config)], env, tmp, config.stem))
        result.update(_numbers(POINT_SET, [], env, tmp, "point_set"))
        result.update(_numbers(PHANTOM, [], env, tmp, "phantom"))
        result.update(_numbers(RAY_CSR, [], env, tmp, "ray_tomo_2d"))
        result.update(_numbers(HEAT, [], env, tmp, "heat"))
        result.update(_numbers(Q_APPLIES, [], env, tmp, "Q"))
        result.update(_numbers(FORWARD_APPLIES, [str(root / "configs" / "ray_tomo.yaml")],
                               env, tmp, "forward"))
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
