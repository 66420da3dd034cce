"""Start-up cost of a bare orbitcodes process: importing the package and
its CLI loads no module that only a few calls need."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: dataclasses (which brings inspect, ast, dis and tokenize), tempfile (only
#: --out writes a file) and random (only selfcheck draws).
UNNEEDED = ("dataclasses", "inspect", "tempfile", "random")


def test_cli_import_loads_no_unneeded_module():
    # -S: no site module, so nothing but the import itself loads modules.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import orbitcodes, orbitcodes.cli; "
            f"print(sorted(m for m in {UNNEEDED!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"
