"""One set-up step, run in a fresh interpreter: start the program and
fill a cache.

    python bench/fill.py CACHE_DIR '{"max_instructions": 5000, ...}'

The JSON object holds semantic ``ExperimentConfig`` fields only.  With
an empty ``workloads`` list nothing is profiled, so the step measures
interpreter start and program import alone.  Exits 0 when every
kernel was profiled.
"""

from __future__ import annotations

import json
import os
import sys

from harness import ProgramMissing, require_program


def main(argv: list[str]) -> int:
    cache_dir, fields = argv[0], json.loads(argv[1])
    try:
        require_program()
    except ProgramMissing as exc:
        print(exc, file=sys.stderr)
        return 2
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    from repro.exp.runner import collect_profiles

    from batch import make_config

    if not fields["workloads"]:
        return 0
    run = collect_profiles(make_config(fields))
    for failure in run.failures:
        print(f"fill failed: {failure.name}: {failure.kind}: "
              f"{failure.message}", file=sys.stderr)
    return 0 if run.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
