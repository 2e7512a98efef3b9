"""Print a SHA-256 of every `gkhyper estimate`/`monitor`/`reconstruct` output on the
shipped configs.

Usage: python3 scripts/output_digest.py [ROOT [OTHER]]

ROOT is the checkout to run (default: the one holding this script). Given a
second checkout OTHER, both are digested and only the outputs that differ
between them are printed, one path a line; the exit status is 1 if any do.
BLAS and OpenMP threads are pinned to the CPUs this process may use, as
perfbench does, so that two checkouts digested on one host can be compared.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def digests(root: Path) -> dict:
    """SHA-256 of every output file of root's CLI on root's shipped configs."""
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
