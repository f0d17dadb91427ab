"""Record reference report digests (sha256 of stdout) for the default seed.

    python3 perfbench/record_reference.py

Run from the checkout root.  Runs the first ROUNDS rounds of every workload
with seed 0, checks each job against its closed forms, and writes the digest
of every job that succeeded to perfbench/reference.json.  Later runs compare
every job whose key is recorded byte for byte.  Re-record only when a change
is meant to alter report bytes, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check
import jobs
from run import execute, make_context

DEFAULT_SEED = 0
ROUNDS = {"series-covers": 4, "group-oracles": 6, "verify-corpus": 1}


def main() -> int:
    ctx = make_context(Path.cwd())
    ctx.reference = {}
    digests, skipped = {}, []
    for workload, rounds in ROUNDS.items():
        for round_index in range(rounds):
            for job in jobs.make_round(workload, DEFAULT_SEED, round_index):
                run = execute(job, ctx)
                if run.outcome.wrong:
                    sys.stderr.write(f"{job.id}: {run.outcome.wrong}\n")
                    return 1
                if run.outcome.ok:
                    digests[job.ref_key] = check.digest(run.stdout)
                else:
                    skipped.append(f"{workload} {job.id}: {run.outcome.failure}")
    payload = {
        "seed": DEFAULT_SEED,
        "rounds": ROUNDS,
        "not_recorded": skipped,
        "digests": dict(sorted(digests.items())),
    }
    check.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests, {len(skipped)} failed jobs not recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
