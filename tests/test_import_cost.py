"""`import dgtrace` loads only the code a process runs.  Every CLI batch
and benchmark pass is a fresh process that pays the import first, so the
package defines its value types as plain classes (no `dataclasses`, which
pulls in `inspect`, `ast`, `dis` and `tokenize`) and leaves the workspace
parser to the CLI, which imports `dgtrace.workspace` itself.  The guard
compares a bare interpreter's modules with those after `import dgtrace`,
so a `site` that loads one of these itself does not fail it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_AT_IMPORT = {"dataclasses", "inspect", "dgtrace.workspace"}


def _modules_after(statement: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.split())


def test_import_dgtrace_loads_no_dataclasses_inspect_or_workspace():
    new = _modules_after("import dgtrace") - _modules_after("pass")
    assert {"dgtrace.linalg", "dgtrace.pairing"} <= new
    assert not new & NOT_AT_IMPORT, sorted(new & NOT_AT_IMPORT)
