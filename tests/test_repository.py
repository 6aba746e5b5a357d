"""Checks that tie the package to the repository's other files: the README's
Python example runs, every name the benchmark's tracer rebinds exists, and
``import ptgfit`` stays light."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ptgfit import competitors, data, distributions, expansions, mle, reproduce

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "0.8133, -6.5878, 0.8410",
        "('alpha', 'beta', 'lam'): AIC 202.09",
        "('tilt', 'lam'): AIC 210.36",
    ]


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
MODULES = {
    "competitors": competitors, "data": data, "distributions": distributions,
    "expansions": expansions, "mle": mle, "reproduce": reproduce,
}


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, *_ in TRACING.SPANS + TRACING.COUNTERS]
    + [("expansions", "quad")],
)
def test_traced_name_is_bound(owner, attr):
    # the tracer rebinds the attribute in its owner's own namespace
    assert attr in TRACING._resolve(MODULES, owner).__dict__


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # scipy.stats alone roughly doubles the resident memory of an import
    src = str(Path(distributions.__file__).resolve().parents[1])
    code = (
        "import sys, ptgfit; "
        "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"
