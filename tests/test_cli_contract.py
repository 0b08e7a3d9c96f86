"""Every config either runs or is refused with one error line.

The CLI runs in-process over a fixed mutation table: each golden-matrix
config, at one trial, has each of its fields, nested fields and list
elements included, replaced in turn by each value of MUTATIONS.  Whatever
the value, no exception escapes `main` and the exit code is 0, 1, 2 or 3.
Exit 2 prints exactly one `error:` line and writes nothing to `--out`, and
exit 1 comes only with a failed row in report.json.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
import traceback
from pathlib import Path

import pytest

from covlearn.cli import main
from test_golden import matrix

MUTATIONS = {
    "null": None,
    '"2"': "2",
    "-1": -1,
    "0": 0,
    "1.5": 1.5,
    "[]": [],
    "{}": {},
    "true": True,
    "Infinity": math.inf,
    "NaN": math.nan,
    "-10**30": -(10**30),
    "10**30": 10**30,
}

# (field, mutation) -> why the pair is left out of the table
SKIPPED = {
    (field, "10**30"): "asks for that much work; each such run went on past 10 s"
    for field in ("trials", "max_terms", "count")
}

with tempfile.TemporaryDirectory() as _tmp:
    ENTRIES = list(matrix(Path(_tmp)))


def _paths(value, path=()):
    """The path of every field and list element under value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replaced(cfg: dict, path: tuple, value) -> dict:
    cfg = copy.deepcopy(cfg)
    inner = cfg
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return cfg


def _broken_contract(verb: str, cfg: dict, work: Path) -> str | None:
    """Runs the config in a fresh output directory; returns how the run
    broke the contract, or None."""
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main([verb, "--config", str(cfg_path), "--out", str(out)])
    except BaseException:
        return traceback.format_exc(limit=-3)
    lines = stderr.getvalue().splitlines()
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    if code == 2:
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if len(lines) != 1 or not lines[0].startswith("error:") or written:
            return f"exit 2 with stderr {lines} after writing {written}"
    if code == 1:
        report = json.loads((out / "report.json").read_text())
        if all(row["success"] for row in report["rows"]):
            return "exit 1 with no failed row"
    return None


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_mutation_runs_or_is_refused(tmp_path, entry, mutation):
    verb, cfg = matrix(tmp_path)[entry]
    if verb != "generate":
        cfg = dict(cfg, trials=1)
    work = tmp_path / "run"
    work.mkdir()
    broken = {}
    for path in _paths(cfg):
        if (path[-1], mutation) in SKIPPED:
            continue
        how = _broken_contract(verb, _replaced(cfg, path, MUTATIONS[mutation]), work)
        if how is not None:
            broken[".".join(map(str, path))] = how
    assert not broken, broken
