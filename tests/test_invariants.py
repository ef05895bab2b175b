"""Runtime invariants raise typed errors, also under `python -O`, which strips
`assert` statements.  Each violation is forced by monkeypatching in a
subprocess started with -O."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
from ecsmooth import arith, cmcount, curve, ecm
from ecsmooth.ecm import EcmOutcome
from ecsmooth.errors import DivisorFound

print("debug", __debug__)


def expect(label, fn, owner, attr, fake):
    saved = getattr(owner, attr)
    setattr(owner, attr, fake)
    try:
        fn()
    except ArithmeticError as exc:
        print(label, "ArithmeticError", exc)
    else:
        print(label, "no error")
    finally:
        setattr(owner, attr, saved)


e7 = ecm.catalog_curve("e7")
p = next(q for q in range(10**4, 10**5) if arith.is_prime(q) and e7.cm_field.chi(q) == 1)


def raise_bad_divisor(*args):
    raise DivisorFound(4)


expect("hasse", lambda: cmcount.candidate_orders(p, e7.cm_field),
       curve, "hasse_interval", lambda q: (0, 0))
# e7 reads one chi(t) of Cornacchia's t: a t divisible by 7 passes neither sign
cornacchia = arith.cornacchia
expect("eliminated_e7", lambda: cmcount.cm_order(e7, p),
       arith, "cornacchia", lambda q, K: (7 * cornacchia(q, K)[0], cornacchia(q, K)[1]))
# e1, e3 and e8000 check their congruence at t' and -t': with (6t, 6b) neither
# sign passes
for name in ("e1", "e3", "e8000"):
    cat = ecm.catalog_curve(name)
    q = next(q for q in range(10**4, 10**5) if arith.is_prime(q) and cat.cm_field.chi(q) == 1)
    expect(f"eliminated_{name}", lambda: cmcount.cm_order(cat, q),
           arith, "cornacchia", lambda r, K: tuple(6 * v for v in cornacchia(r, K)))
# stage 1 surfaces a divisor by replaying one scalar on the affine chain
expect("ecm_divisor", lambda: ecm.ecm_one_curve(35, ecm.catalog_curve("e8000"), 1.5, 1.2),
       curve, "_affine_scalar_mul", raise_bad_divisor)
expect("split_factor", lambda: ecm.split_step(101, 2, 1, 1.5, 1.5, seed=1),
       ecm, "ecm_one_curve", lambda *args, **kwargs: EcmOutcome(1))
"""


def test_invariants_raise_under_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    results = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    errors = {label: result.split(" ", 1)[0] for label, result in results.items()}
    assert errors == {
        "debug": "False",
        "hasse": "ArithmeticError",
        "eliminated_e7": "ArithmeticError",
        "eliminated_e1": "ArithmeticError",
        "eliminated_e3": "ArithmeticError",
        "eliminated_e8000": "ArithmeticError",
        "ecm_divisor": "ArithmeticError",
        "split_factor": "ArithmeticError",
    }
    for name in ("e7", "e1", "e3", "e8000"):
        message = rf"ArithmeticError no orbit pair of {name} passes its trace rule at p=\d+"
        assert re.fullmatch(message, results[f"eliminated_{name}"])
