"""Rewrites tests/golden/manifest.json from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate only after an intended change of outputs.  The script prints the
entries it changed, added and removed against the manifest it overwrites,
and for each changed entry the fields that moved (exit, files, lp, report,
stdout, stderr); list them in CHANGES.md.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import MANIFEST, run_matrix, versions  # noqa: E402


def differences(old: dict, new: dict) -> dict[str, list[str]]:
    """Names of the manifest entries that changed, were added or removed."""
    return {
        "changed": sorted(k for k in old.keys() & new.keys() if old[k] != new[k]),
        "added": sorted(new.keys() - old.keys()),
        "removed": sorted(old.keys() - new.keys()),
    }


def moved(old: dict, new: dict) -> list[str]:
    """The fields of one manifest entry whose values differ."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def main() -> None:
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest = {"versions": versions(), "runs": run_matrix()}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['runs'])} runs to {MANIFEST}")
    if old.get("versions", manifest["versions"]) != manifest["versions"]:
        print(f"versions: {old['versions']} -> {manifest['versions']}")
    runs = old.get("runs", {})
    for kind, names in differences(runs, manifest["runs"]).items():
        print(f"{len(names)} {kind}")
        for name in names:
            if kind == "changed":
                fields = moved(runs[name], manifest["runs"][name])
                print(f"  {name}: {', '.join(fields)}")
            else:
                print(f"  {name}")


if __name__ == "__main__":
    main()
