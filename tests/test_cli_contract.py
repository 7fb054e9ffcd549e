"""The CLI's exit-code contract, checked on seeded generated argvs.

The generator walks cli.OPTIONS, the table of each action's handler and
the options it reads.  For each action in turn it draws a base argv: a well-formed
value for every required option and for some of the optional ones.  A
base that exits 0 or 1 then gets one variant of each kind that applies:
- one option the action reads given a malformed value;
- one required option left out;
- one option the action does not read added;
- one option moved before its action;
- a --C whose cells are not forms of degree --deg, over a field F_p.

The rules:
- every exit is 0, 1 or 2, main returns it, and nothing propagates, a
  SystemExit included;
- exit 2 leaves stdout empty;
- exit 0 prints one JSON line with status "ok", exit 1 one with "error";
- every variant of a base that exits 0 or 1 exits 2.

The exit-3 rule reruns each `ulrich` or `ext` argv that exits 0 with
moore.moore_adjugate transposed: the certificate of the factorization
the library built fails, so it exits 3 and prints exactly the one
"internal" line INTERNAL.

Some bases of the actions that read --a are non-torsion points of
smooth curves, and some --C read at degree 1 are s*M_b + U*A - A*V for
the base's Moore matrix A, its extension representative b and constant
U, V: such a C has a partner D and lies in the m = 0 solution space, so
`ulrich partner` and `ext class` reach exit 0.  `hesse points` and
`hesse torsion6` also draw 2^61 - 1, which they refuse at once as a
domain error; the other values stay small, and `verify` is left out.
Each argv runs in process.  Tier-1 checks the first rules on COUNT
argvs, and the exit-3 rule on FAULT_COUNT argvs of the ulrich and ext
actions, among which each of those actions exits 0.  On more argvs the
script checks both, and that each ulrich and ext action exits 0 at
least once, under -W error:

    PYTHONPATH=src python -W error tests/test_cli_contract.py 10000
"""

import contextlib
import io
import json
import random
import sys
from itertools import cycle

from hesse_moore import cli
from hesse_moore.field import FieldElement, validate_modulus
from hesse_moore.hesse import extension_representative
from hesse_moore.moore import FormMatrix, moore, moore_adjugate
from hesse_moore.poly import monomials

COUNT = 300
SEED = 31

ACTIONS = [
    (group, action, options)
    for group, (_, actions) in cli.OPTIONS.items() if group != "verify"
    for action, (_, options) in actions.items()
]
# every option of the table, with a converter it is read with
EVERY_OPTION = {flag: spec[0] for *_, options in ACTIONS for flag, spec in options.items()}

# the field accepts the first five; the rest are domain errors (exit 1)
MODULI = (7, 13, 19, 31, 37) * 3 + (5, 11, 12, 25, 0, -7)
# refused above p = 100,000, before any point is enumerated
POINT_SCANS = {("hesse", "points"), ("hesse", "torsion6")}
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


def _prime(opts):
    """The drawn --p when the field accepts it, else None."""
    try:
        validate_modulus(p := int(opts["--p"]))
    except ValueError:
        return None
    return p


def _base_point(rng, p):
    """A point with no zero coordinate on a smooth curve of the pencil over F_p."""
    while True:
        a = [rng.randrange(1, p) for _ in range(3)]
        lam = sum(v**3 for v in a) * pow(a[0] * a[1] * a[2], -1, p) % p
        if (lam**3 - 27) % p:
            return a


def _partner_cells(rng, a, p):
    """s*M_b + U*A - A*V, for A the Moore matrix of a, b its extension
    representative, s != 0 and constant U, V: a linear --C with a partner."""
    trip = tuple(FieldElement(v, p) for v in a)
    A, b = moore(trip), extension_representative(trip)
    U, V = (FormMatrix.from_row(3, 0, p, [rng.randrange(p) for _ in range(9)]) for _ in "UV")
    s = FieldElement(rng.randrange(1, p), p)
    return json.dumps((moore(b).scale(s) + U @ A - A @ V).serialize())


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
        except SystemExit as exc:  # main returns every usage error
            code = f"SystemExit({exc.code})"
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
    if "--C" in options and _prime(opts):
        bad_cells = dict(opts, **{"--C": _bad_cells(rng, degree)})
        yield "cells not of degree", _argv(group, action, bad_cells)


def generated_runs(count, seed, actions=ACTIONS):
    """Yield (argv, code, stdout, variant) for count generated argvs of
    the actions; the variant names how the argv breaks a well-formed
    base, or is None."""
    rng = random.Random(seed)
    done = 0
    for group, action, options in cycle(actions):
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
        # every smooth curve over F_7 is its nine flexes, so F_7 has no base point
        p = _prime(opts)
        if (group, action) in POINT_SCANS and rng.random() < 0.25:
            opts["--p"] = str(2**61 - 1)
        elif p and p != 7 and "--a" in opts and rng.random() < 0.5:
            a = _base_point(rng, p)
            opts["--a"] = ",".join(map(str, a))
            if "--C" in opts and degree == 1 and rng.random() < 0.5:
                opts["--C"] = _partner_cells(rng, a, p)
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


INTERNAL = '{"error":"A*B = B*A = f*I fails; not a matrix factorization","status":"internal"}\n'
FACTORIZATION_GROUPS = ("ulrich", "ext")  # each of their actions builds a Moore factorization
# few ulrich and ext bases exit 0, so tier-1 draws more of them for the exit-3 rule
FAULT_COUNT = 1000


@contextlib.contextmanager
def adjugate_transposed():
    """moore.moore_adjugate transposed in every hesse_moore namespace that
    holds it, as `from ... import` copies it; restored on exit."""
    held = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name == "hesse_moore" or module_name.startswith("hesse_moore.")
        for name, value in list(vars(module).items()) if value is moore_adjugate
    ]

    def transposed(a):
        return FormMatrix([list(col) for col in zip(*moore_adjugate(a).entries)])

    for module, name in held:
        setattr(module, name, transposed)
    try:
        yield
    finally:
        for module, name in held:
            setattr(module, name, moore_adjugate)


def runs_under_the_fault(runs):
    """(argv, code, stdout) of each ulrich or ext argv of runs that exits
    0, rerun with moore.moore_adjugate transposed."""
    argvs = [argv for argv, code, _, _ in runs if code == 0 and argv[0] in FACTORIZATION_GROUPS]
    with adjugate_transposed():
        return [(argv, *run(argv)) for argv in argvs]


def broken_under_the_fault(faulted):
    return [
        f"{' '.join(argv)}: exit {code} under the fault with stdout {out[:200]!r}"
        for argv, code, out in faulted
        if (code, out) != (3, INTERNAL)
    ]


def never_ok(runs):
    """Each ulrich or ext action that no argv of runs runs to exit 0."""
    ok = {tuple(argv[:2]) for argv, code, _, _ in runs if code == 0}
    return [
        f"{group} {action} never exits 0"
        for group, action, _ in ACTIONS
        if group in FACTORIZATION_GROUPS and (group, action) not in ok
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


def test_a_failed_certificate_exits_3_where_the_argv_exited_0():
    actions = [entry for entry in ACTIONS if entry[0] in FACTORIZATION_GROUPS]
    faulted = runs_under_the_fault(list(generated_runs(FAULT_COUNT, SEED, actions)))
    assert {tuple(argv[:2]) for argv, *_ in faulted} == {(g, a) for g, a, _ in actions}
    assert not broken_under_the_fault(faulted), "\n".join(broken_under_the_fault(faulted)[:20])


if __name__ == "__main__":
    runs = list(generated_runs(int(sys.argv[1]) if len(sys.argv) > 1 else COUNT, SEED))
    faulted = runs_under_the_fault(runs)
    rules = [
        ("exit-code", runs, broken(runs)),
        ("exit-3", faulted, broken_under_the_fault(faulted)),
        ("exit-0", runs, never_ok(runs)),
    ]
    for rule, checked, found in rules:
        report = "\n".join(found[:50]) or "no broken rule"
        print(f"{rule} rule on {len(checked)} argvs: {report}")
    sys.exit(1 if any(found for *_, found in rules) else 0)
