import os
import subprocess
import sys
import types
from pathlib import Path

import mg1lab

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_all_names_exist_and_none_is_a_module():
    assert len(mg1lab.__all__) == len(set(mg1lab.__all__))
    for name in mg1lab.__all__:
        assert hasattr(mg1lab, name), name
        assert not isinstance(getattr(mg1lab, name), types.ModuleType), name


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process may have loaded scipy already
    code = (
        "import sys; import mg1lab; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
