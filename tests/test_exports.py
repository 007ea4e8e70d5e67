"""The package's public names, and what importing it loads."""

import subprocess
import sys
from pathlib import Path

import commonground

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_exists():
    missing = [name for name in commonground.__all__ if not hasattr(commonground, name)]
    assert missing == []
    namespace = {}
    exec("from commonground import *", namespace)
    assert set(commonground.__all__) <= namespace.keys()


def test_import_loads_no_code_generation_modules():
    """Importing the package loads neither ``dataclasses`` nor ``inspect``,
    whose import and generated methods would be most of a cold start.  The
    child runs without ``site`` or the ``PYTHON*`` variables and puts this
    checkout's ``src`` on its path itself, so nothing installed decides the
    result."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import commonground; "
            "print(commonground.__file__); "
            "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    where, loaded = done.stdout.splitlines()
    assert Path(where).resolve().parent == SRC / "commonground"
    assert loaded == ""
