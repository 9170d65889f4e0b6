"""``python -m benchmarks.perf`` (or ``python benchmarks/perf/__main__.py``)."""

import os
import pathlib
import sys

# String hashes are randomised per process, and with them the iteration
# order of sets inside the rewrite engine and the layout of every dict:
# run-to-run noise the benchmark can remove. The server child inherits it.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

ROOT = pathlib.Path(__file__).resolve().parents[2]
# The package is not installed: make ``repro`` and ``benchmarks`` importable
# wherever the command is started from.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
