"""The installed runtime needs NumPy only: no module of the package loads SciPy."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# one call into every module, in a fresh interpreter; prints the scipy modules it loaded
PROBE = """
import json
import sys

import plasticwalk as pw
import plasticwalk.cli

bump = pw.CProfile.sine_bump(0.5, 0.2, 16.0)
psi = pw.make_wavepacket(16, 1.0, 8.0, 4.0, 0.3)
h = pw.lattice_hamiltonian_curved(16, 1.0, 0.2, bump)
h.dense()
pw.evolve_exact(h, psi, 0.5)
pw.evolve_crank_nicolson(h, psi, 0.5, 2)
pw.curved_dirac_reference(psi, bump, 0.2, 0.5)
pw.qca_step(pw.QcaState.vacuum(2), 1.0, 0.3).occupations()
spec = pw.ExperimentSpec(alpha=1.0, m=0.2, cprofile=bump, length=16.0, T=0.5, epsilon_list=[0.2, 0.1],
                         x0=8.0, w=4.0, k0=0.3, chirality_mix=0.5)
assert len(pw.run_convergence_sweep(spec).rows) == 2
pw.cli.RunConfig.parse("{}")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_package_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
