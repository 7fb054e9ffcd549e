"""The CLI's exit-code contract, checked on seeded generated argvs.

The generator walks cli.OPTIONS, the table of the options each action
reads.  For each action in turn it draws a base argv: a well-formed
value for every required option and for some of the optional ones.  A
base that exits 0 or 1 then gets one variant of each kind that applies:
- one option the action reads given a malformed value;
- one required option left out;
- one option the action does not read added;
- one option moved before its action;
- a --C whose cells are not forms of degree --deg, over a field F_p.

The rules:
- every exit is 0, 1 or 2 (argparse's SystemExit(2) counts as 2), and
  nothing else propagates;
- exit 2 leaves stdout empty;
- exit 0 prints one JSON line with status "ok", exit 1 one with "error";
- every variant of a base that exits 0 or 1 exits 2.

The values stay small, so the 2^61 - 1 point scans do not run, and
`verify` is left out.  Each argv runs in process.  Tier-1 runs COUNT
argvs; to run more, under -W error:

    PYTHONPATH=src python -W error tests/test_cli_contract.py 10000
"""

import contextlib
import io
import json
import random
import sys
from itertools import cycle

from hesse_moore import cli
from hesse_moore.field import validate_modulus
from hesse_moore.poly import monomials

COUNT = 300
SEED = 31

ACTIONS = [
    (group, action, options)
    for group, (_, _, actions) in cli.OPTIONS.items() if group != "verify"
    for action, options in actions.items()
]
# every option of the table, with a converter it is read with
EVERY_OPTION = {flag: spec[0] for *_, options in ACTIONS for flag, spec in options.items()}

# the field accepts the first five; the rest are domain errors (exit 1)
MODULI = (7, 13, 19, 31, 37) * 3 + (5, 11, 12, 25, 0, -7)
INTS = {
    "--p": MODULI,
    "--lambda": range(-30, 31),
    "--n": range(-2, 10),
    "--d": range(-3, 10),
    "--j": range(-3, 10),
    "--deg": range(3),
    "--m": range(-2, 2),
}
MALFORMED = {
    int: ("x", "1.5", "", "1,2", "0x10"),
    cli.triple: ("1,2", "1,2,3,4", "0,x,1", "", "1.0,2,3"),
    cli.shifts: ("1,y", "", "0,,1", "1.5"),
    cli.grid: ("notjson", "[[1,2,3],[1,2,3],[1,2,3]]", '[["0","0"],["0"],["0"]]', "{}", '"x0"',
               "[" * 100_000),
    cli.sign: ("neither", "", "MINUS"),
}


def _residue(rng):
    return rng.choice((0, 0, 1, 2, 3, -1, rng.randrange(100), rng.getrandbits(70)))


def _form(rng, degree):
    """A form of the degree in HomForm.parse's syntax, or 0."""
    terms = []
    for exps in rng.sample(monomials(degree), rng.randrange(min(3, len(monomials(degree))))):
        variables = "".join(f"*x{i}^{e}" for i, e in enumerate(exps) if e)
        terms.append(f"{rng.randrange(1, 40)}{variables}")
    return " + ".join(terms) or "0"


def _value(rng, group, flag, convert, degree):
    """A well-formed value of flag, read with convert by an action of group."""
    if convert is cli.triple:
        return ",".join(str(_residue(rng)) for _ in range(3))
    if convert is cli.shifts:
        return ",".join(str(m) for m in rng.choices(INTS["--m"], k=rng.randrange(1, 4)))
    if convert is cli.grid:
        return json.dumps([[_form(rng, degree) for _ in range(3)] for _ in range(3)])
    if convert is cli.sign:
        return rng.choice(("minus", "plus"))
    if (group, flag) == ("hesse", "--n"):  # any multiplier: the ladder is log-cost
        return str(rng.choice((rng.randrange(-100, 100), rng.getrandbits(64))))
    return str(rng.choice(INTS[flag]))


def _bad_cells(rng, degree):
    """A --C of the right shape whose one bad cell is no form of the degree."""
    cells = [[_form(rng, degree) for _ in range(3)] for _ in range(3)]
    bad = rng.choice((f"1*x0^{degree + 1}", "x0", "1*y0", "1*x0^", "1*x1^1 +"))
    cells[rng.randrange(3)][rng.randrange(3)] = bad
    return json.dumps(cells)


def _argv(group, action, opts):
    argv = [group, action]
    for flag, value in opts.items():
        # --flag=value keeps a value such as -1,2,3 from reading as an option
        argv += [f"{flag}={value}"] if value.startswith("-") or not value else [flag, value]
    return argv


def run(argv):
    """Exit code and stdout of one in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        except Exception as exc:  # the contract lets nothing else propagate
            raise AssertionError(f"{' '.join(argv)} raised {exc!r}") from exc
    return code, out.getvalue()


def broken_rule(code, out, variant):
    """The contract rule that one run breaks, as text, or None."""
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 2:
        return "exit 2 with stdout" if out else None
    if variant:
        return f"{variant} exits {code}, not 2"
    lines = out.splitlines()
    if len(lines) != 1 or json.loads(lines[0]).get("status") != ("ok", "error")[code]:
        return f"exit {code} with stdout {out[:200]!r}"
    return None


def _variants(rng, group, action, options, opts, degree):
    """(kind, argv) for each variant kind that applies to the base."""
    flag = rng.choice(list(options))
    malformed = dict(opts, **{flag: rng.choice(MALFORMED[options[flag][0]])})
    yield "a malformed " + flag, _argv(group, action, malformed)
    required = [f for f, (_, default) in options.items() if default is cli.REQUIRED]
    if required:
        flag = rng.choice(required)
        yield "no " + flag, _argv(group, action, {f: v for f, v in opts.items() if f != flag})
    flag = rng.choice(sorted(set(EVERY_OPTION) - set(options)))
    unread = dict(opts, **{flag: _value(rng, group, flag, EVERY_OPTION[flag], degree)})
    yield "an unread " + flag, _argv(group, action, unread)
    flag = rng.choice(list(opts))
    rest = _argv(group, action, {f: v for f, v in opts.items() if f != flag})
    moved = _argv(group, action, {flag: opts[flag]})[2:]
    yield flag + " before the action", rest[:1] + moved + rest[1:]
    if "--C" in options:
        try:
            validate_modulus(int(opts["--p"]))
        except ValueError:
            return
        bad_cells = dict(opts, **{"--C": _bad_cells(rng, degree)})
        yield "cells not of degree", _argv(group, action, bad_cells)


def generated_runs(count, seed):
    """Yield (argv, code, stdout, variant) for count generated argvs; the
    variant names how the argv breaks a well-formed base, or is None."""
    rng = random.Random(seed)
    done = 0
    for group, action, options in cycle(ACTIONS):
        opts = {}
        for flag in rng.sample(list(options), len(options)):
            if options[flag][1] is cli.REQUIRED or rng.random() < 0.5:
                opts[flag] = None
        # ext class reads linear forms; ulrich reads forms of degree --deg
        degree = 1
        if "--deg" in opts:
            opts["--deg"] = _value(rng, group, "--deg", int, degree)
            degree = int(opts["--deg"])
        for flag in opts:
            if opts[flag] is None:
                opts[flag] = _value(rng, group, flag, options[flag][0], degree)
        argv = _argv(group, action, opts)
        code, out = run(argv)
        yield argv, code, out, None
        done += 1
        if code in (0, 1):
            for variant, argv in _variants(rng, group, action, options, opts, degree):
                code, out = run(argv)
                yield argv, code, out, variant
                done += 1
        if done >= count:
            return


def broken(runs):
    return [
        f"{' '.join(argv)}: {rule}"
        for argv, code, out, variant in runs
        if (rule := broken_rule(code, out, variant))
    ]


def test_every_option_has_well_formed_and_malformed_values():
    for flag, convert in EVERY_OPTION.items():
        assert convert in MALFORMED, flag
        assert convert is not int or flag in INTS, flag


def test_generated_argvs_keep_the_exit_code_contract():
    runs = list(generated_runs(COUNT, SEED))
    assert {argv[1] for argv, *_ in runs} >= {action for _, action, _ in ACTIONS}
    assert {code for _, code, _, _ in runs} == {0, 1, 2}
    assert not broken(runs), "\n".join(broken(runs)[:20])


if __name__ == "__main__":
    found = broken(generated_runs(int(sys.argv[1]) if len(sys.argv) > 1 else COUNT, SEED))
    print("\n".join(found[:50]) or "no broken rule")
    sys.exit(1 if found else 0)
