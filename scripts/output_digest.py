"""Print a SHA-256 of every `gkhyper estimate`/`monitor`/`reconstruct` output on the
shipped configs.

Usage: python3 scripts/output_digest.py [ROOT]

ROOT is the checkout to run (default: the one holding this script). BLAS and
OpenMP threads are pinned to the CPUs this process may use, as perfbench does,
so that two checkouts digested on one host can be compared line by line.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
nproc = str(len(os.sched_getaffinity(0)))
env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=nproc,
           OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
with tempfile.TemporaryDirectory() as tmp:
    for config in sorted((root / "configs").glob("*.yaml")):
        for command in ("estimate", "monitor", "reconstruct"):
            out = Path(tmp) / config.stem / command
            subprocess.run([sys.executable, "-m", "gkhyper.cli", command, "--config",
                            str(config), "--out", str(out)], env=env, cwd=tmp,
                           check=True, stderr=subprocess.DEVNULL)
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp)}")
