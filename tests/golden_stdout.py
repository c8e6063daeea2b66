"""Write the golden stdout table that tests/test_golden_stdout.py replays.

    PYTHONPATH=<tree>/src python tests/golden_stdout.py > tests/golden_stdout.json

Each row holds a command's name, its argv for ``gfrecip.cli.main``, its
exit code and the sha256 of its stdout, from the tree on PYTHONPATH: run
it on the tree whose outputs are the reference.  The commands are the
``factor`` and ``verify`` requests that the factorization oracle's
arithmetic (gcd, division, ``pow_mod``) can move: ``factor`` on master
polynomials over prime and extension fields, and the checks that factor
(6, 8, 9, 10) at n = 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from gfrecip import Field, m_poly
from gfrecip.cli import main

# (field spec, p, e, a, n) of each factored master polynomial
FACTOR = [("3", 3, 1, "2", 4), ("257", 257, 1, "3", 1), ("3^2", 3, 2, "t+2", 2),
          ("5^3", 5, 3, "t+2", 1), ("7", 7, 1, "3", 3), ("13", 13, 1, "2", 2)]
# (field spec, a) of each verify request, for every check in CHECKS
VERIFY = [("3", "2"), ("5", "2"), ("3^2", "t")]
CHECKS = ["6", "8", "9", "10"]


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command in the table."""
    out = []
    for spec, p, e, a, n in FACTOR:
        fld = Field(p, e)
        poly = m_poly(fld, fld.parse(a), n).to_string()
        out.append((f"factor m_poly F_{spec} a={a} n={n}",
                    ["factor", "--field", spec, "--poly", poly]))
    for spec, a in VERIFY:
        for check in CHECKS:
            out.append((f"verify --theorem {check} F_{spec} a={a} n=2",
                        ["verify", "--field", spec, "--a", a, "--theorem", check, "--n", "2"]))
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``main(argv)`` and the sha256 of its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    rows = []
    for name, argv in commands():
        code, digest = run(argv)
        rows.append({"name": name, "argv": argv, "exit": code, "sha256": digest})
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")
