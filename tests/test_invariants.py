"""Runtime invariants raise typed errors, also under `python -O`, which strips
`assert` statements.  Each violation is forced by monkeypatching in a
subprocess started with -O."""

import os
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
    except ArithmeticError:
        print(label, "ArithmeticError")
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
split = arith._cornacchia_split
expect("eliminated", lambda: cmcount.cm_order(e7, p),
       arith, "_cornacchia_split", lambda q, K: (7 * split(q, K)[0], split(q, K)[1]))
# e8000 walks its orbit: without the true pair none passes
e8000 = ecm.catalog_curve("e8000")
p8 = next(q for q in range(10**4, 10**5) if arith.is_prime(q) and e8000.cm_field.chi(q) == 1)
true_order8 = curve.naive_count(e8000.curve, p8)
orbit = cmcount._orbit
expect("eliminated_orbit", lambda: cmcount.cm_order(e8000, p8),
       cmcount, "_orbit", lambda q, K: [(t, b) for t, b in orbit(q, K) if q + 1 - t != true_order8])
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
    assert results == {
        "debug": "False",
        "hasse": "ArithmeticError",
        "eliminated": "ArithmeticError",
        "eliminated_orbit": "ArithmeticError",
        "ecm_divisor": "ArithmeticError",
        "split_factor": "ArithmeticError",
    }
