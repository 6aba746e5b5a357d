"""Checks that tie the package to the repository's other files: the README's
Python example runs, every name the benchmark's tracer rebinds exists,
``import ptgfit`` stays light, and every module uses what it imports."""

import ast
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


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter on this checkout's source; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(distributions.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.strip()


def test_import_and_fit_load_no_scipy():
    # numpy is the only runtime dependency: importing scipy.stats for a fit
    # cost more time and memory than the fit itself
    code = (
        "import sys, ptgfit; "
        "ptgfit.fit([0.5, 1.0, 1.7, 2.2, 3.1], 'pte', ptgfit.FitOptions(n_starts=2)); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert _fresh_python(code) == "[]"


def test_cli_runs_without_scipy():
    # a scipy import anywhere on these paths raises ModuleNotFoundError
    commands = [
        *(f"fit --model {tag} --data embedded:I" for tag in ("pte", "ptw", "exp", "me", "moe")),
        "gof --model pte --data embedded:II",
        "props --model pte --params 0.5,2,1",
        "reproduce",
        *(f"{cmd} --model {tag} --params {params} --format csv"
          for cmd in ("sample", "curves") for tag, params in (("me", "1.5"), ("pte", "0.5,2,1"))),
    ]
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from ptgfit.cli import main\n"
        "codes = []\n"
        f"for argv in {[c.split() for c in commands]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(codes)"
    )
    # reproduce exits 3: the 8 documented dataset-II gate failures
    assert _fresh_python(code) == str([0] * 7 + [3] + [0] * 4)


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "ptgfit").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda path: path.name if path.parent.name == "ptgfit" else f"scripts/{path.name}",
)
def test_every_import_is_used(path):
    # a linter's unused-import rule (F401) with the stdlib: an imported name
    # is used in its module, exported by __all__, or marked "# noqa: F401"
    # (the names only the benchmark's tracer rebinds)
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))
    unused = [
        f"{path.name}:{alias.lineno}: {alias.asname or alias.name.split('.')[0]}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
        and "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    assert unused == []
