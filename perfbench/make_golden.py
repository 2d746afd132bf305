"""Record the golden stdout of the benchmark's CLI commands.

    python3 perfbench/make_golden.py

Writes golden_cli.json from the germtrace under src/.  CLI stdout is
byte-deterministic by contract, so the file changes only when an output
format changes on purpose.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from germtrace import cli  # noqa: E402

golden = {}
for argv in workloads.cli_commands():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"germtrace {' '.join(argv)} exited {code}")
    golden[workloads.cli_key(argv)] = buf.getvalue()
with open(workloads.HERE / "golden_cli.json", "w", encoding="utf-8") as fh:
    json.dump(golden, fh, indent=1, sort_keys=True)
    fh.write("\n")
