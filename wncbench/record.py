"""Record the digests the correctness gate compares against.

    python3 wncbench/record.py

Runs every operation any seed can draw, plus the reports that charted
hangs are compared with, and writes wncbench/expected.json. Record again
only when a change to the program's output is intended; a speed-up must
leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
import tempfile

import gate
import pool
from run import EXPECTED, ROOT, Runner


def main() -> int:
    ops = [op for op in pool.every_op() if op.kind != pool.HANG]
    ops += [answer["digest_of"] for answer in pool.HANG_ANSWERS.values()
            if "digest_of" in answer]
    expected = {}
    with tempfile.TemporaryDirectory(prefix=".wncbench-", dir=ROOT) as workdir:
        runner = Runner(workdir, {})
        for op in ops:
            outcome, _, _ = runner.execute(op, "plain")
            if outcome.status == "done":
                expected[op.key] = gate.digest(op, outcome)
            verdict, reason = gate.check(op, outcome, expected)
            if verdict != "ok":
                print(f"error: wnc {op.key}: {reason}", file=sys.stderr)
                return 1
            print(f"{expected[op.key]}  wnc {op.key}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
