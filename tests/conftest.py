import importlib
import os
import random
import sys

import pytest


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
