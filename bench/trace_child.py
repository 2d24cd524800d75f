"""Run one quatperiods CLI job with every traced layer wrapped in a span recorder.

    python bench/trace_child.py CLI-ARGS...

Behaves like `python -m quatperiods.cli CLI-ARGS...` (same output and exit
status) and also writes spans.json into the current directory: the job's
spans as [name, start, end, parent, count, key] lists and the lru_cache hits
of each cached layer.
"""

import json
import sys

from spans import Tracer, install
from workloads import LAYERS


def main(argv):
    tracer = Tracer()
    caches = install(tracer, LAYERS)
    from quatperiods import cli
    code = 0
    try:
        cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans,
                       "cache_hits": {name: fn.cache_info().hits
                                      for name, fn in caches.items()}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
