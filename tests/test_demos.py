"""Every demo script runs to completion and prints exactly what it printed
when its output was pinned: the sha256 of its stdout.  Demo 05 prints
certified congestion reports, so a change to the pair loop or the
certificates shows here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_realize_and_transform.py": "8130409b6f65eee095a3d44b8517ff5f72c9fef3a3c678fb760e825f92ef64b8",
    "02_uniform_sampling.py": "a3211511712f341dd8eb1ad8dacb689c0e796cfecd0813392cc2e3f0147ba9c6",
    "03_cycle_decomposition.py": "bacb797d0b8bfd79e2ff6091b5022b36a91b204fbcbabd8fb11b625c39bc3ca5",
    "04_friendly_paths.py": "f9328a7a781154aa2afbc2af93aa1345a91916d639975d0ca732cc25534c4777",
    "05_mixing_diagnostics.py": "2d5ddb831c4f9305660f5f0834fb9462dea02164bedc52125cb0fec301569b78",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
