"""The benchmark's workloads: fixed expression pools and the seeded draw.

Each workload is a list of strata. A stratum holds operations of about the
same cost and peak memory, so that every seed gives a pass of about the
same size; the seed picks one operation from each stratum. An operation is
one `wnc` command line, run in a child process of its own.

The pools, their deadlines and their memory limits are fixed here; the
program under test only ever sees the generated command lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Kinds of expected outcome, checked by `gate.check`.
REPORT = "report"      # exit 0, canonical JSON minus wall time matches
EXPORT = "export"      # exit 0, stdout bytes match
BATCH = "batch"        # exit 0, CSV bytes match
REFUSAL = "refusal"    # exit 1 with one recorded `error:` line
HANG = "hang"          # charted hang: an overrun is expected, an answer is checked

MB = 1 << 20
HANG_DEADLINE_S = 3.0


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str
    rings: int          # rings completed when the operation succeeds
    deadline_s: float   # charged in full when the operation overruns
    mem_bytes: int      # address-space limit of the child

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# Deadlines are a few times the longest operation's time, and short enough
# that a pass of hung operations still ends within three minutes.
def _report(expr):
    return Op(("report", expr, "--json"), REPORT, 1, 20.0, 2048 * MB)


def _export(expr):
    return Op(("export", expr, "--format", "json", "--out", "-"), EXPORT, 1,
              20.0, 2048 * MB)


def _batch(lo, hi):
    return Op(("batch", "--zn", f"{lo}..{hi}"), BATCH, hi - lo + 1, 20.0,
              1024 * MB)


def _refusal(expr):
    return Op(("report", expr, "--json"), REFUSAL, 1, 10.0, 1024 * MB)


def _hang(*argv):
    return Op(tuple(argv), HANG, 1, HANG_DEADLINE_S, 1024 * MB)


# The seed picks the start of the census window; the end is fixed, since
# the largest moduli cost the most and the smallest almost nothing, so every
# window of 146 to 150 moduli costs about the same. Each window contains
# Z144, the largest complete graph below 162, so the census peak memory does
# not depend on the seed either. A run repeats the call often enough for a
# steady median.
CENSUS_STARTS = range(2, 7)
CENSUS_END = 151

# Strata are ordered as they run in a pass. Operations in one stratum took
# about equal time and peak memory when the pools were chosen.
WORKLOADS: dict[str, list[list[Op]]] = {
    # Graphs with nearly n^2/2 edges: graph build, sum coloring, properness
    # checks and clique search do the work, classification almost none.
    "dense": [
        [_report("Z1000")],                             # the peak memory
        [_report(e) for e in ("Z16 x Z48", "Z8 x Z96", "Z4 x Z192")],  # K768
        [_report("M2(Z4)"), _report("M2(Z2 x Z2)")],    # noncommutative
        [_report("M2(GF(4))")],                         # clique search
        [_export("Z16 x Z36"), _export("Z4 x Z144")],   # K576 edge iteration
    ],
    # Large rings with |WNC| <= 6 and E ~ 3n: classification, field
    # arithmetic, the quotient pass and the per-vertex BFS do the work.
    # Primes are grouped by cost, which follows the factors of p - 1.
    "sparse": [
        [_report(f"Z{p}") for p in (991, 1009)],
        [_report(f"Z{2 * p}") for p in (509, 521)],
        [_report(f"Z2 x Z{p}") for p in (521, 523)],
        [_report("GF(256)"), _report("GF(343)")],
    ],
    # One batch call over 146 to 150 small rings in one process: per-call
    # overhead in the theorem suite and the CLI shows here.
    "census": [
        [_batch(a, CENSUS_END) for a in CENSUS_STARTS],
    ],
    # Inputs known to hang, and size-cap refusals. The only workload that
    # reaches the cap checks and the searches that have no budget.
    "probes": [
        [_hang("report", "GF(1000000000000000000000007)", "--json")],
        [_hang("report", "M99999(Z2)", "--json")],
        [_hang("report", "Z512", "--four-cliques", "--json")],
        [_hang("report", "M2(Z5)", "--json")],
        [_refusal(e) for e in ("Z5000", "Z4099", "Z8192")],
        [_refusal(e) for e in ("GF(8192)", "GF(6561)", "GF(4913)")],
        [_refusal(e) for e in ("M3(Z3)", "M2(Z9)", "M4(Z2)")],
        [_refusal(e) for e in ("Z3 x Z2053", "Z2 x Z2053", "Z5 x Z821")],
    ],
}

# For charted hangs: what a bounded answer must look like. Every one may
# be refused with a one-line error; an empty entry allows nothing else, as
# the ring is over the size cap. `digest_of` names the recorded report whose
# canonical JSON a report must match once the listed keys are dropped;
# `ring` and `size` are checked where the parent never finishes the report.
HANG_ANSWERS = {
    "report GF(1000000000000000000000007) --json": {},
    "report M99999(Z2) --json": {},
    "report Z512 --four-cliques --json": {
        "digest_of": _report("Z512"), "drop": ["four_cliques"]},
    "report M2(Z5) --json": {"ring": "M2(Z5)", "size": 625},
}


def draw(workload: str, seed: int) -> list[Op]:
    """The operations of one pass: one per stratum, picked by the seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(stratum) for stratum in WORKLOADS[workload]]


def every_op() -> list[Op]:
    """Every operation any seed can draw, each once."""
    seen = {}
    for strata in WORKLOADS.values():
        for stratum in strata:
            for op in stratum:
                seen.setdefault(op.key, op)
    return list(seen.values())
