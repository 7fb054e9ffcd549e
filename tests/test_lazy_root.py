"""``import hesse_moore`` loads the curve layer only; the factorization
layer loads when one of its names is first read from the package."""

import textwrap

LOADED_ON_USE = ("heisenberg", "ulrich", "ext", "cli", "verify")

PROBE = textwrap.dedent(f"""
    import json
    import sys

    def loaded():
        return [m for m in {LOADED_ON_USE!r} if "hesse_moore." + m in sys.modules]

    import hesse_moore
    out = {{"import": loaded()}}
    before = set(sys.modules)
    try:
        hesse_moore.no_such_name
    except AttributeError as exc:
        out["unknown"] = [str(exc), sorted(set(sys.modules) - before)]
    hesse_moore.ext_space
    out["ext_space"] = loaded()
    print(json.dumps(out))
""")


def test_import_loads_the_curve_layer_only(fresh_python):
    assert fresh_python(PROBE) == {
        "import": [],
        "unknown": ["module 'hesse_moore' has no attribute 'no_such_name'", []],
        "ext_space": ["ulrich", "ext"],
    }
