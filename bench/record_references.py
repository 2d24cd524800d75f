"""Record the reference output of every job any benchmark seed can produce.

    python3 bench/record_references.py

Run from the root of a checkout of the commit whose outputs are the
reference; writes bench/references.json.  Exact jobs keep their whole
standard output, triple L-value jobs their value and error, and Sym^2 proxy
jobs only the kind of check (see checks.py).
"""

import json
import sys
import time

from checks import REFERENCES, check_kind
from run import run_child
from workloads import all_jobs


def main():
    references = {}
    for job in all_jobs():
        child = run_child([sys.executable, "-m", "quatperiods.cli", *job],
                          time.monotonic() + 600)
        if child.code != 0:
            sys.exit(f"{' '.join(job)}: exit status {child.code}\n"
                     f"{child.stderr}")
        kind = check_kind(job)
        entry = {"check": kind}
        if kind == "exact":
            entry["stdout"] = child.stdout.decode("utf-8")
        elif kind == "lvalue":
            out = json.loads(child.stdout)
            entry.update(value=out["value"], error=out["error"])
        references[" ".join(job)] = entry
        print(f"{child.wall_s:8.2f} s  {' '.join(job)}", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
