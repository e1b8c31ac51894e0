"""numpy is the package's only runtime dependency.

The scan reads the imports of every module; the run checks that the CLI
loads no scipy, which a development install may well have.  A bare check
for third-party modules in ``sys.modules`` would flag modules that the
interpreter or numpy load on their own (``_distutils_hack``, ``certifi``,
numpy's Cython runtime), so the run looks for scipy alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spinsplice

PACKAGE = Path(spinsplice.__file__).parent


def test_absolute_imports_are_stdlib_or_numpy():
    outside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert not outside


def test_cli_runs_load_no_scipy(tmp_path):
    script = (
        "import sys\n"
        "from spinsplice.cli import main\n"
        f"assert main(['two-spin', '--out', {str(tmp_path / 'two_spin')!r}]) == 0\n"
        f"assert main(['reproduce', 'fig7', '--steps', '4', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout.splitlines()[-1] == "[]"
