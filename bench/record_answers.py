#!/usr/bin/env python3
"""Record ``answers.json``: the library's own answers at the current commit.

Run from the repository root, on a commit whose answers are trusted:

    python3 bench/record_answers.py

It maps every parameter-driven job (see ``jobs.keyed_jobs``) to the answer
the library gives.  Jobs on seeded random inputs need no entry: their
answers come from the references in ``reference.py``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from obddlab import core  # noqa: E402

import jobs  # noqa: E402
import reference as ref  # noqa: E402
from harness import JobTimeout, Probe, TimeLimit  # noqa: E402
from run import commit  # noqa: E402

ANSWER_LIMIT_S = 60.0


def keyed_answers() -> dict:
    """The answer of every parameter-driven job; None where a cap is hit."""
    keyed = {}
    for workload in jobs.WORKLOADS:
        for job in jobs.keyed_jobs(workload, None):
            try:
                with TimeLimit(ANSWER_LIMIT_S):
                    keyed[job.key] = job.run(Probe())["answer"]
            except core.CapExceededError:
                keyed[job.key] = None
            except JobTimeout:
                raise SystemExit(f"{job.key} found no answer within {ANSWER_LIMIT_S}s")
    return json.loads(json.dumps(keyed))  # tuples become lists, as on reload


def main() -> int:
    answers = {
        "recorded_at": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "keyed": keyed_answers(),
    }
    with open(ref.ANSWERS_PATH, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ref.ANSWERS_PATH}: {len(answers['keyed'])} answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
