import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def rng():
    """Seeded RNG for sampled checks; HESSE_MOORE_SEED overrides."""
    seed = int(os.environ.get("HESSE_MOORE_SEED", "20260823"))
    return random.Random(seed)


@pytest.fixture
def patch_everywhere(monkeypatch):
    """patch(module, name, make_fault) replaces hesse_moore.module.name by
    make_fault(original) in every hesse_moore namespace that holds the
    original, as `from ... import` copies it, and returns those namespaces."""

    def patch(module, name, make_fault):
        original = getattr(importlib.import_module(f"hesse_moore.{module}"), name)
        fault = make_fault(original)
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "hesse_moore" or mod_name.startswith("hesse_moore."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, fault)
                        patched.append(mod_name)
        return patched

    return patch


@pytest.fixture
def fresh_python():
    """run(code) runs code in a fresh interpreter under -W error, with
    the package imported from src/, and returns the JSON that its last
    line of stdout prints."""

    def run(code):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    return run
