"""Run one `wnc` command line in this process and write what happened.

    python3 child.py RESULT DEADLINE_S MEM_BYTES MODE -- WNC_ARGV...

MODE is `plain` (no instrumentation), `spans` (per-layer spans) or `count`
(ring operation counts). The process limits its own address space and CPU
time, imports `wnc`, then times `wnc.cli.main(WNC_ARGV)` alone. At the
deadline it writes the result with status `overrun` and exits, so a hang is
charged its deadline and its open spans still show where the time went.
Only a hang inside one native call outlives the alarm; the parent kills it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import sys
import time
import traceback

import spans


def main(argv: list[str]) -> None:
    result_path, deadline_s, mem_bytes, mode, sep, *wnc_argv = argv
    if sep != "--" or mode not in ("plain", "spans", "count"):
        raise SystemExit("usage: child.py RESULT DEADLINE_S MEM_BYTES "
                         "plain|spans|count -- WNC_ARGV...")
    deadline_s = float(deadline_s)
    mem_bytes = int(mem_bytes)
    cpu_s = math.ceil(deadline_s) + 5
    resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    import wnc.cli

    tracer = spans.Tracer() if mode == "spans" else None
    if tracer is not None:
        tracer.install()
    counts: dict[str, int] = {}
    if mode == "count":
        spans.count_ring_ops(counts)

    def finish(status, exit_code, op_s):
        doc = {"status": status, "exit": exit_code, "op_s": op_s,
               "trace": tracer.summary() if tracer is not None else None,
               "ops": counts}
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def on_alarm(signum, frame):
        finish("overrun", None, deadline_s)
        sys.stdout.flush()
        os._exit(124)

    signal.signal(signal.SIGALRM, on_alarm)
    status = "done"
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        exit_code = wnc.cli.main(wnc_argv)
    except SystemExit as exc:  # argparse rejected the command line
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except MemoryError:
        status, exit_code = "overrun", None
    except Exception:  # what the installed `wnc` script would print and exit 1 on
        traceback.print_exc()
        exit_code = 1
    op_s = time.perf_counter() - started
    signal.setitimer(signal.ITIMER_REAL, 0)
    sys.stdout.flush()
    finish(status, exit_code, deadline_s if status == "overrun" else op_s)


if __name__ == "__main__":
    main(sys.argv[1:])
