"""Record what the CLI prints on a fixed list of rings, one JSON line per
command, so that two checkouts can be compared byte for byte.

    PYTHONPATH=src python3 tests/output_scan.py > scan-after.jsonl
    cmp scan-before.jsonl scan-after.jsonl

For each ring of `RINGS` it runs `report E --json` (with
`wall_time_seconds` dropped), `verify E` and `export E --format json
--out -` in process, then `batch --zn 2..400`. Each line holds the
command, its exit code, its stderr and its stdout; a stdout longer than
`SHORT` characters is kept as its length and SHA-256 digest. Refused
expressions are on the list too: their line is the exit code and the
error. The name does not match `test_*.py`, so pytest does not collect
this file. The whole scan takes about half a minute on one core.
"""

import contextlib
import hashlib
import io
import json
import sys

from wnc import cli

SHORT = 4096

SMALL = [f"Z{n}" for n in range(2, 10)] + ["GF(4)"]
FIELDS = [f"GF({p ** k})" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                    37, 41, 43, 47, 53, 59, 61)
          for k in range(2, 13) if p ** k <= 4096]
MATRIX = [
    "M2(Z2)", "M2(Z3)", "M2(Z4)", "M2(Z5)", "M2(Z6)", "M2(Z7)", "M2(Z8)",
    "M3(Z2)", "M2(GF(4))", "M2(GF(8))", "M2(Z2 x Z2)", "M2(Z2 x Z3)",
    "M2(Z2 x Z2 x Z2)", "M2(Z2) x Z2", "M2(Z2) x Z3", "Z3 x M2(Z2)",
    "M2(Z3) x Z2", "M2(Z5) x Z2", "GF(4) x M2(Z2)", "M2(Z2) x M2(Z2)"]
BLOW_UPS = [f"M2(GF(4)) x Z{k}" for k in (2, 3, 4, 6, 9, 12, 16)]
# the nine reports whose clique search stops at its budget
BUDGET_STOPS = [f"M2(GF(4)) x Z{k}" for k in (5, 7, 10, 11, 13, 14, 15)] + [
    "M2(Z5) x Z3", "M2(Z5) x Z6"]
QUOTIENTS_AND_LARGE = [
    "Z12/nil", "Z72/nil", "(Z4 x Z9)/nil", "(Z4 x Z9)/nil x Z3",
    "(Z8 x Z27)/nil", "Z2 x Z4/nil", "Z1000/nil", "Z1000", "Z1009",
    "Z2 x Z1021", "Z4093", "Z4094", "Z4095", "Z3 x Z5 x Z7 x Z13",
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "Z16 x Z48", "Z27 x Z27",
    "Z7 x GF(4) x Z7"]
REFUSED = ["Z8192", "Z1", "GF(10)", "GF(8192)", "M2(Z9)", "M99999(Z2)",
           "M2(Z2 x Z3) x Z2 x Z2 x Z2 x Z2 x Z2", "Z4 x (", "Q5"]
RINGS = ([f"Z{n}" for n in range(2, 301)]
         + [f"{a} x {b}" for a in SMALL for b in SMALL]
         + FIELDS + MATRIX + BLOW_UPS + BUDGET_STOPS + QUOTIENTS_AND_LARGE
         + REFUSED)


def run(argv):
    """(exit code, stdout, stderr) of `wnc argv`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(argv) -> str:
    """The JSON line of one command."""
    code, out, err = run(argv)
    if argv[0] == "report" and code == 0:
        doc = json.loads(out)
        del doc["wall_time_seconds"]
        out = json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n"
    if len(out) > SHORT:
        data = out.encode()
        out = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return json.dumps({"argv": argv, "code": code, "stderr": err,
                       "stdout": out}, ensure_ascii=False)


def main():
    for expr in RINGS:
        for argv in (["report", expr, "--json"], ["verify", expr],
                     ["export", expr, "--format", "json", "--out", "-"]):
            print(record(argv), flush=True)
    print(record(["batch", "--zn", "2..400"]), flush=True)


if __name__ == "__main__":
    sys.exit(main())
