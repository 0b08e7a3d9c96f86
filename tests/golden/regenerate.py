"""Rewrites tests/golden/manifest.json from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate only after an intended change of outputs, and list the entries
that changed (git diff of the manifest) in CHANGES.md.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import MANIFEST, run_matrix, versions  # noqa: E402


def main() -> None:
    manifest = {"versions": versions(), "runs": run_matrix()}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['runs'])} runs to {MANIFEST}")


if __name__ == "__main__":
    main()
