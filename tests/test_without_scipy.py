"""MCML+DT, the CLI and the service run with SciPy blocked.

SciPy is imported only inside the three functions that call it (the
a-priori baseline's and ``random_geometric_graph``'s KD-tree, ML+RCB's
``linear_sum_assignment``), so importing the package and running the
MCML+DT paths must never load it.  Each check runs in a fresh
interpreter: the test process itself has SciPy loaded by other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: ``import scipy`` (and every ``scipy.*`` import) raises ImportError
BLOCK = "import sys; sys.modules['scipy'] = None\n"


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_BACKEND", None)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_importing_the_package_loads_no_scipy():
    out = run_python(
        "import sys\n"
        "import repro, repro.cli, repro.service.http\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert out.strip() == "[]"


def test_mcml_dt_cli_trace_without_scipy():
    out = run_python(
        BLOCK
        + "from repro.cli import main\n"
        "code = main(['trace', '--k', '4', '--trace-steps', '2',"
        " '--no-baseline'])\n"
        "print('exit', code)\n"
    )
    assert out.strip().endswith("exit 0")


def test_service_jobs_without_scipy():
    out = run_python(
        BLOCK
        + "from repro.service.client import ServiceClient\n"
        "from repro.service.http import ServerThread\n"
        "srv = ServerThread().start()\n"
        "try:\n"
        "    c = ServiceClient(srv.address)\n"
        "    src = {'kind': 'impact', 'n_steps': 2, 'refine': 0.5}\n"
        "    part = c.partition(4, src)\n"
        "    rec = c.submit('contact-step', 4, src, steps=2)\n"
        "    step = c.result(rec['id'], wait_s=300)\n"
        "    print(part['kind'], len(part['labels']) > 0,"
        " step['kind'], step['steps'])\n"
        "    c.close()\n"
        "finally:\n"
        "    srv.stop()\n"
    )
    assert out.split() == ["partition", "True", "contact-step", "2"]
