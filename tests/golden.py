"""The golden table: pinned numbers of every pipeline output.

Each entry of ``RUNS`` is one command through ``cli.main``: the six
``reproduce`` targets at ``--steps 30`` and each ``configs/*.json`` at
``--steps 60``.  ``collect`` runs one into a directory and reads back what
it wrote, file by file: a CSV's preamble, column names and cells (numbers as
floats, statuses as strings), a JSON file's leaves, and of a manifest its
output names and the ``health`` entries that are not work counts.
``tests/golden/<run>.json`` holds the table, and ``compare`` lists where a
fresh run departs from it: statuses, names, shapes and integers exactly,
optimizer parameters (and the pulse and polynomial shapes drawn from them)
within a relative PARAM_RTOL, every other number within FIDELITY_ATOL.

Regenerate the table from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden.py

and record the regeneration, its reason and the largest change per file,
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from spinsplice import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REPRODUCE_STEPS = 30
CONFIG_STEPS = 60
FIDELITY_ATOL = 1e-12
PARAM_RTOL = 1e-6
PARAM_ATOL = 1e-12  # a parameter at zero
# health entries that count work (or bound it) rather than describe the result
WORK_COUNTS = {"rounds", "evaluations", "taylor_matvecs", "max_norm_dt", "value_blocks", "vector_blocks"}
PARAM_NAME = re.compile(r"param|g_pulse|g_polynomial")


def _config_command(path: Path) -> str:
    return json.loads(path.read_text())["mode"].replace("_", "-")


RUNS = {
    **{f"reproduce_{target}": ["reproduce", target, "--steps", str(REPRODUCE_STEPS)]
       for target in ("table1", "fig3", "fig6", "fig7", "fig8", "fig9")},
    **{f"config_{path.stem}": [_config_command(path), "--config", str(path), "--steps", str(CONFIG_STEPS)]
       for path in sorted((ROOT / "configs").glob("*.json"))},
}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> dict:
    lines = path.read_text().splitlines()
    preamble = [line for line in lines if line.startswith("# ")]
    header, *rows = csv.reader(lines[len(preamble):])
    return {"preamble": preamble, "columns": header, "rows": [[_cell(c) for c in row] for row in rows]}


def _read_json(path: Path) -> dict:
    data = json.loads(path.read_text())
    if path.name == "manifest.json":
        health = data.get("health", {})
        return {"outputs": sorted(data["outputs"]),
                "health": {k: v for k, v in health.items() if k not in WORK_COUNTS},
                "health_keys": sorted(health)}
    return data


def collect(run: str, out_dir: Path) -> dict:
    """Run one entry of RUNS into ``out_dir``; every file it wrote, by
    relative path, as the table records it (a script as None)."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([*RUNS[run], "--out", str(out_dir)])
    if status != 0:
        raise RuntimeError(f"{run} exited {status}")
    readers = {".csv": _read_csv, ".json": _read_json}
    return {str(p.relative_to(out_dir)): readers.get(p.suffix, lambda _: None)(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def compare(expected, actual, path: str = "") -> list[str]:
    """Where ``actual`` departs from ``expected``, one line each."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        if "columns" in expected:  # a CSV table: each cell is compared under its column's name
            expected, actual = _by_column(expected), _by_column(actual)
        return [line for key in expected for line in compare(expected[key], actual[key], f"{path}/{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [line for i, (e, a) in enumerate(zip(expected, actual)) for line in compare(e, a, f"{path}/{i}")]
    if isinstance(expected, float) and isinstance(actual, float):
        return [] if _close(expected, actual, bool(PARAM_NAME.search(path))) else [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual and type(expected) is type(actual) else [f"{path}: {actual!r} != {expected!r}"]


def _by_column(table: dict) -> dict:
    """A CSV table with each row as its cells by column name, and the row widths."""
    return {**table, "rows": [dict(zip(table["columns"], row)) for row in table["rows"]],
            "widths": [len(row) for row in table["rows"]]}


def _close(expected: float, actual: float, param: bool) -> bool:
    if param:
        return abs(actual - expected) <= PARAM_RTOL * abs(expected) + PARAM_ATOL
    return abs(actual - expected) <= FIDELITY_ATOL


def _dump(table: dict) -> str:
    """Sorted, indented JSON with each innermost list (a CSV row, a column
    list) on one line."""
    text = json.dumps(table, indent=1, sort_keys=True)
    return re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m.group())), text) + "\n"


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for run in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN_DIR / f"{run}.json").write_text(_dump(collect(run, Path(tmp))))
        print(f"wrote {GOLDEN_DIR / run}.json", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
