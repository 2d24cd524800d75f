"""Correctness gate applied to every benchmark job against recorded references."""

import json
import math
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Largest accepted error/|value| of a triple central value.  At the
# reference commit it is 5e-7 at level 11 and 5e-8 to 4.2e-6 for the four
# level-26 triples.
LVALUE_ACCURACY = 1e-5


def check_kind(argv):
    """How a job's output is checked: "exact", "lvalue" or "finite"."""
    if argv[0] != "lvalue":
        return "exact"
    return "finite" if "--sym2" in argv else "lvalue"


def load_references(path=REFERENCES):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def failure(argv, code, stdout, references):
    """Why a job's result is wrong, or None when it passes the gate.

    stdout is the job's raw standard output in bytes.
    """
    if code != 0:
        return f"exit status {code}"
    ref = references.get(" ".join(argv))
    if ref is None:
        return "no reference recorded for this job"
    kind = check_kind(argv)
    if kind == "exact":
        # Exact JSON (class sets, eigenvalues, S1/S2, Fourier tables) must
        # stay byte-identical.
        if stdout != ref["stdout"].encode("utf-8"):
            return "stdout differs from the reference"
        return None
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if kind == "finite":
        # The Sym^2 proxy is checked only for exit 0 and finite fields: its
        # Gamma shifts [0, 1, 2] are known to be wrong (ROADMAP item 1), so
        # pinning today's value would count the fix as a failure.
        fields = [out.get(k) for k in ("value", "lambda", "error")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in fields):
            return "Sym2 proxy has a missing or non-finite field"
        return None
    value, error = out.get("value"), out.get("error")
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in (value, error)) or value == 0:
        return "L-value or its error is missing, zero or non-finite"
    if abs(value - ref["value"]) > max(error, ref["error"]):
        return (f"L-value {value!r} differs from the reference "
                f"{ref['value']!r} by more than the reported errors")
    if abs(error / value) >= LVALUE_ACCURACY:
        return f"relative error {abs(error / value):.3g} is not below " \
               f"{LVALUE_ACCURACY:g}"
    return None
