"""Import-time guards: each command runs in a fresh process, so what
importing tileconn loads is part of every command's cost."""

import os
import pkgutil
import subprocess
import sys

import tileconn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tileconn.__file__)))
MODULES = ["tileconn"] + [f"tileconn.{m.name}" for m in pkgutil.iter_modules(tileconn.__path__)]


def loaded_after(imports, watched):
    """The modules of watched that a fresh interpreter holds after imports;
    -S keeps site hooks from loading modules of their own."""
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in imports)
        + f"print(' '.join(m for m in {watched!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_every_module_is_found():
    assert {"tileconn.cli", "tileconn.lattice", "tileconn.render", "tileconn.sweep"} <= set(MODULES)


def test_no_module_loads_dataclasses_or_inspect():
    assert loaded_after(MODULES, ["dataclasses", "inspect"]) == []


def test_cli_defers_what_only_render_and_sweep_use():
    assert loaded_after(["tileconn.cli"], ["json", "tileconn.render", "tileconn.sweep"]) == []
