"""Write the golden stdout table that tests/test_golden_stdout.py replays.

    PYTHONPATH=<tree>/src python tests/golden_stdout.py > tests/golden_stdout.json

Each row holds a command's name, its argv for ``gfrecip.cli.main``, its
exit code and the sha256 of its stdout and of its stderr, from the tree on
PYTHONPATH: run it on the tree whose outputs are the reference.  The
commands are:

- ``factor`` on master polynomials over prime and extension fields, the
  requests that the factorization oracle's arithmetic (gcd, division,
  ``pow_mod``) can move;
- ``verify --theorem T`` for every check at n = 1 and 2 over F_3, F_5 and
  F_9, with several a each, and checks 8, 9 and 10 at n = 3 over F_7 and
  F_9, the sizes the benchmark's small-field sweep runs;
- ``verify --theorem 6`` at n = 1 over F_7^2 and F_5^3 with a ``--modulus``
  that is not the default, whose reduction rows the folds take;
- ``census`` as JSON and as CSV, and ``count --enumerate``;
- one ``classify``, ``parity --verify``, ``recip``, ``transform`` and
  ``invtransform`` over a prime and over an extension field;
- a request that exits 1 and one that exits 3, whose stderr is the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from gfrecip import Field, m_poly
from gfrecip.cli import main
from gfrecip.verify import CHECKS

# (field spec, p, e, a, n) of each factored master polynomial
FACTOR = [("3", 3, 1, "2", 4), ("257", 257, 1, "3", 1), ("3^2", 3, 2, "t+2", 2),
          ("5^3", 5, 3, "t+2", 1), ("7", 7, 1, "3", 3), ("13", 13, 1, "2", 2),
          ("7^2", 7, 2, "t+2", 1), ("13^2", 13, 2, "t+2", 1), ("3^4", 3, 4, "t+2", 1)]
# (field spec, a) of each verify request, for every check at n = 1 and 2
VERIFY = [("3", "1"), ("3", "2"), ("5", "2"), ("5", "4"), ("3^2", "t"), ("3^2", "2"),
          ("3^2", "1+t")]
# (field spec, a) of each verify request for checks 8, 9 and 10 at n = 3
VERIFY_N3 = [("7", "3"), ("3^2", "t")]
# (field spec, modulus) of each verify --theorem 6 --n 1 --a t request with a
# modulus other than the default: t^2 + t + 3 and t^3 + 4t + 2
MODULUS = [("7^2", "3,1,1"), ("5^3", "2,4,0,1")]
# (field spec, a, n) of each count --enumerate request
COUNT = [("5", "2", 3), ("3^2", "t", 2)]
# (field spec, a, f of degree 3, its quadratic transform) for the single-poly
# commands: recip and transform take f, classify, parity and invtransform its
# transform, an a-srm of degree 6
POLY = [("5", "2", "1,3,0,1", "3,0,3,1,4,0,1"),
        ("3^2", "t", "1,t,1+t,1", "2*t,2+2*t,2,2+2*t,t,1+t,1")]
FAILING = [
    ("exit 1: zero a", ["recip", "--field", "5", "--a", "0", "--poly", "1,1"]),
    ("exit 3: master polynomial past the budget",
     ["verify", "--field", "5", "--a", "2", "--theorem", "5", "--n", "8"]),
]


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command in the table."""
    out = []
    for spec, p, e, a, n in FACTOR:
        fld = Field(p, e)
        poly = m_poly(fld, fld.parse(a), n).to_string()
        out.append((f"factor m_poly F_{spec} a={a} n={n}",
                    ["factor", "--field", spec, "--poly", poly]))
    for spec, a in VERIFY:
        for n in ("1", "2"):
            for check in CHECKS:
                out.append((f"verify --theorem {check} F_{spec} a={a} n={n}",
                            ["verify", "--field", spec, "--a", a, "--theorem", check,
                             "--n", n]))
    for spec, a in VERIFY_N3:
        for check in ("8", "9", "10"):
            out.append((f"verify --theorem {check} F_{spec} a={a} n=3",
                        ["verify", "--field", spec, "--a", a, "--theorem", check, "--n", "3"]))
    for spec, modulus in MODULUS:
        out.append((f"verify --theorem 6 F_{spec} modulus={modulus} a=t n=1",
                    ["verify", "--field", spec, "--modulus", modulus, "--a", "t",
                     "--theorem", "6", "--n", "1"]))
    census = ["census", "--fields", "3,5,7,3^2", "--nmax", "2"]
    out += [("census F_3,F_5,F_7,F_9 nmax=2", census),
            ("census F_3,F_5,F_7,F_9 nmax=2 csv", census + ["--csv"])]
    for spec, a, n in COUNT:
        out.append((f"count --enumerate F_{spec} a={a} n={n}",
                    ["count", "--field", spec, "--a", a, "--n", str(n), "--enumerate"]))
    for spec, a, f, srm in POLY:
        for command, poly, extra in (("recip", f, []), ("transform", f, []),
                                     ("classify", srm, []), ("parity", srm, ["--verify"]),
                                     ("invtransform", srm, [])):
            out.append((f"{command} F_{spec} a={a} {poly}",
                        [command, "--field", spec, "--a", a, "--poly", poly, *extra]))
    return out + FAILING


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code of ``main(argv)`` and the sha256 of its stdout and of
    its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


if __name__ == "__main__":
    rows = []
    for name, argv in commands():
        code, out_digest, err_digest = run(argv)
        rows.append({"name": name, "argv": argv, "exit": code, "sha256": out_digest,
                     "stderr_sha256": err_digest})
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")
