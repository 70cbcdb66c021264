"""Command-line front end: `wnc report|export|verify|batch`.

Carriers are capped at `rings.SIZE_CAP` (4096) elements. Exit codes: 0
success, 1 tool error (bad expression, cap exceeded, unwritable path,
unknown theorem id or none, stdout closed by its reader, which prints no
traceback), 2 verify found a theorem disagreement, or the command line
(read against `COMMANDS`) cannot be read. With
--allow-known-discrepancies the charted characteristic-2 /
degenerate-degree disagreements downgrade to warnings.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
import types

from . import __version__
from .bitsets import bit_list
from .classify import weakly_nil_clean_set
from .errors import WncError
from .graph import build_wnc_graph, upper_neighbors
from .invariants import UNKNOWN, plain
from .rings import SIZE_CAP, build_ring, format_spec
from .ringexpr import parse_ring_expr
from .theorems import AGREE, DISAGREE, THEOREM_IDS, compute_report


def _realize(expr: str):
    ring = build_ring(parse_ring_expr(expr))
    classification = weakly_nil_clean_set(ring)
    graph = build_wnc_graph(ring, classification)
    return ring, classification, graph


def _names_of(ring, mask):
    return [ring.name(i) for i in bit_list(mask)]


def _search(budget, bound="upper", **facts):
    """A stopped search's JSON block: `facts`, its bound, name and nodes."""
    return {**facts, bound: budget.bound, "search": budget.search,
            "nodes": budget.used}


def cmd_report(args) -> int:
    started = time.perf_counter()
    ring, cls, graph = _realize(args.expr)
    report = compute_report(cls, graph)
    verdicts = report.theorem_verdicts
    four_cliques = report.four_cliques if args.four_cliques else None
    doc = {
        "ring": format_spec(ring.spec),
        "carrier_size": ring.size,
        "is_commutative": ring.is_commutative,
        "idem_set": _names_of(ring, cls.idem),
        "nil_set": _names_of(ring, cls.nil),
        "nc_set": _names_of(ring, cls.nc),
        "wnc_set": _names_of(ring, cls.wnc),
        "class_sizes": {
            "idem": cls.idem.bit_count(),
            "nil": cls.nil.bit_count(),
            "nc": cls.nc.bit_count(),
            "wnc": cls.wnc.bit_count(),
        },
        "is_weakly_nil_clean_ring": cls.wnc == (1 << ring.size) - 1,
        "is_nil_clean_ring": cls.nc == (1 << ring.size) - 1,
        "component_sizes": report.component_sizes,
        "diameter": plain(report.diameter),
        "girth": plain(report.girth),
        "is_bipartite": report.is_bipartite,
        "max_degree": report.max_degree,
        "clique_number": plain(report.clique_number),
        "sum_coloring_colors": report.sum_coloring_colors,
        "chromatic_index": plain(report.chromatic_index),
        "vizing_class": plain(report.vizing_class),
        "theorem_verdicts": [v._asdict() for v in verdicts],
        "tool_version": __version__,
        "wall_time_seconds": round(time.perf_counter() - started, 6),
    }
    stopped = report.stopped  # read after every value it may describe
    if "clique" in stopped:
        doc["clique_search"] = _search(
            stopped["clique"], lower=len(report.clique),
            witness=[ring.name(v) for v in report.clique])
    if four_cliques is UNKNOWN:
        doc["four_cliques"] = _search(stopped["four-cliques"], "count_at_most")
    elif four_cliques is not None:
        doc["four_cliques"] = [[ring.name(v) for v in clique]
                               for clique in four_cliques]
    if args.json:
        _write("-", json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n")
        return 0
    print(f"ring: {doc['ring']}  (size {ring.size}, "
          f"{'commutative' if ring.is_commutative else 'noncommutative'})")
    for label, key in (("idempotents", "idem"), ("nilpotents", "nil"),
                       ("nil clean set", "nc"), ("weakly nil clean set", "wnc")):
        print(f"{label} ({doc['class_sizes'][key]}): " + ", ".join(doc[f"{key}_set"]))
    print(f"weakly nil clean ring: {doc['is_weakly_nil_clean_ring']}"
          f"  nil clean ring: {doc['is_nil_clean_ring']}")
    print(f"component_sizes: {doc['component_sizes']}")
    print(f"diameter: {doc['diameter']}  girth: {doc['girth']}"
          f"  bipartite: {doc['is_bipartite']}")
    print(f"max_degree: {doc['max_degree']}  clique_number: {doc['clique_number']}")
    print(f"sum_coloring_colors: {doc['sum_coloring_colors']}"
          f"  chromatic_index: {doc['chromatic_index']}"
          f"  vizing_class: {doc['vizing_class']}")
    if four_cliques is not None:
        print("four_cliques: unknown" if four_cliques is UNKNOWN else
              f"four_cliques ({len(four_cliques)}): "
              + "  ".join("{" + ",".join(ring.name(v) for v in c) + "}"
                          for c in four_cliques))
    for key in ("clique_search", "four_cliques"):
        if isinstance(doc.get(key), dict):  # a search that ran out of budget
            block = dict(doc[key])
            print(f"{block.pop('search')} search stopped after {block.pop('nodes')}"
                  " nodes; " + ", ".join(
                      f"{k} {'{' + ','.join(v) + '}' if k == 'witness' else v}"
                      for k, v in sorted(block.items())))
    agree = sum(v.status == AGREE for v in verdicts)
    disagree = sum(v.status == DISAGREE for v in verdicts)
    print(f"theorem verdicts: {agree} agree, {disagree} disagree "
          f"(see `wnc verify` for the table)")
    return 0


def _edge_text(graph, opens, labels, close: str, sep: str) -> str:
    """opens[u] + labels[v] + close for each edge {u, v} with u < v, in
    lexicographic order, joined by `sep`. A row is one join of u's upper
    labels by close + sep + opens[u]: no edge gets a string of its own."""
    adj = graph.adjacency
    rows = [u for u in range(graph.vertex_count) if adj[u] >> (u + 1)]
    return sep.join(opens[u] + (close + sep + opens[u]).join(upper) + close
                    for u, upper in upper_neighbors(graph, rows, labels))


def _export_dot(ring, graph) -> str:
    names = ring.names()
    edge_lines = _edge_text(graph, [f'  "{name}" -- "' for name in names],
                            names, '";', "\n")
    lines = ["graph G {", *(f'  "{name}";' for name in names), edge_lines, "}"]
    return "\n".join(filter(None, lines)) + "\n"


def _export_json(ring, graph) -> str:
    ids = range(graph.vertex_count)
    vertices = json.dumps(list(ring.names()), separators=(",", ":"),
                          ensure_ascii=False)
    pairs = _edge_text(graph, [f"[{u}," for u in ids], list(map(str, ids)), "]", ",")
    return f'{{"vertices":{vertices},"edges":[{pairs}]}}\n'


def _export_csv(ring, graph) -> str:
    names = ring.names()
    edge_lines = _edge_text(graph, [f"{name}," for name in names], names, "", "\n")
    return "\n".join(filter(None, ["source,target", edge_lines])) + "\n"


def _write(out: str, payload: str) -> None:
    """Write the payload to the path `out`, or to stdout when it is '-', in
    a loop: one unbuffered write may take part, a closed pipe must raise."""
    if out == "-":
        if not hasattr(sys.stdout, "buffer"):  # a text stream, no bytes below
            sys.stdout.write(payload)
            return
        sys.stdout.flush()
        data = memoryview(payload.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data):]
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise WncError(f"cannot write {out}: {exc}") from exc


# the writer of each `--format`, in the order its usage lists them
EXPORTERS = {"dot": _export_dot, "json": _export_json, "csv": _export_csv}


def cmd_export(args) -> int:
    ring, _, graph = _realize(args.expr)
    _write(args.out, EXPORTERS[args.format](ring, graph))
    return 0


def cmd_verify(args) -> int:
    wanted = THEOREM_IDS
    if args.theorems is not None:
        wanted = [t.strip() for t in args.theorems.split(",") if t.strip()]
        if not wanted:
            raise WncError("no theorem ids given")
        unknown = [t for t in wanted if t not in THEOREM_IDS]
        if unknown:
            raise WncError("unknown theorem id(s): " + ", ".join(unknown))
    ring, cls, graph = _realize(args.expr)
    verdicts = [v for v in compute_report(cls, graph).theorem_verdicts
                if v.theorem in wanted]
    print(f"ring: {format_spec(ring.spec)}  (size {ring.size})")
    # every suite lists every theorem id, so the table is never empty
    width_t = max(len("theorem"), *(len(v.theorem) for v in verdicts))
    width_p = max(len("predicted"), *(len(v.predicted) for v in verdicts))
    print(f"{'theorem':<{width_t}}  {'predicted':<{width_p}}  status     computed")
    failures = 0
    for v in verdicts:
        warn = args.allow_known_discrepancies and v.known_discrepancy
        status = "WARN" if v.status == DISAGREE and warn else v.status
        failures += status == DISAGREE
        print(f"{v.theorem:<{width_t}}  {v.predicted:<{width_p}}  {status:<9}  {v.computed}")
    return 2 if failures else 0


def _parse_zn_range(text: str):
    parts = text.split("..")
    if len(parts) != 2:
        raise WncError(f"invalid range {text!r}; expected A..B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise WncError(f"invalid range {text!r}; expected integers A..B") from exc
    if lo < 2 or hi < lo:
        raise WncError(f"invalid range {text!r}; need 2 <= A <= B")
    return lo, hi


def cmd_batch(args) -> int:
    lo, hi = _parse_zn_range(args.zn)
    if hi > SIZE_CAP:
        raise WncError(f"range end {hi} exceeds the size cap {SIZE_CAP}")
    rows = ["n,wnc_size,is_wnc_ring,girth,diameter,clique_number,vizing_class"]
    for n in range(lo, hi + 1):
        _, cls, graph = _realize(f"Z{n}")
        report = compute_report(cls, graph)
        rows.append(f"{n},{cls.wnc.bit_count()},{str(cls.wnc == (1 << n) - 1).lower()},"
                    f"{report.girth},{report.diameter},{report.clique_number},"
                    f"{report.vizing_class}")
    _write(args.out, "\n".join(rows) + "\n")
    return 0


HELP = ("-h, --help", "show this help and exit", False)
EXPR = ("expr", 'ring expression, e.g. "Z10", "GF(25)", "M2(Z2)"', ...)
ABOUT = ("Weakly nil clean graphs of finite rings: reports, exports, theorem "
         "verification, and Z_n censuses. `wnc COMMAND -h` lists its options.")
# The command lines: per subcommand `cmd`, run by cmd_<cmd>, its help and
# its arguments, each (usage, help, default). "expr" is the positional. An
# option's usage names the value it takes, if any, and {a,b} its choices;
# a flag defaults to False, and `...` marks a required argument.
COMMANDS = {
    "report": ("classes, invariants, and verdict summary", (
        ("--json", "canonical JSON output", False),
        ("--four-cliques", "include the 4-clique census", False), EXPR)),
    "export": ("write the graph as DOT, JSON, or CSV", (
        ("--format {" + ",".join(EXPORTERS) + "}", "", ...),
        ("--out OUT", "output path ('-' for stdout)", ...), EXPR)),
    "verify": ("theorem verdict table (exit 2 on disagreement)", (
        ("--theorems THEOREMS", "comma-separated theorem ids to check", None),
        ("--allow-known-discrepancies",
         "downgrade charted char-2/small-ring disagreements to warnings", False), EXPR)),
    "batch": ("CSV census over a Z_n range", (
        ("--zn A..B", "inclusive modulus range, e.g. 2..100", ...),
        ("--out OUT", "output path (default stdout)", "-"))),
}


def _help(command) -> str:
    """The help of `wnc`, or of one command, its usage line first."""
    if command is None:
        usage = "[-h] {" + ",".join(COMMANDS) + "} ..."
        about, rows = ABOUT, [(name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        about, arguments = COMMANDS[command]
        usage = " ".join([command, "[-h]", *(
            u if default is ... else f"[{u}]" for u, _, default in arguments)])
        rows = [(u, text) for u, text, _ in (HELP, *arguments)]
    width = max(len(u) for u, _ in rows) + 2
    return "\n".join([f"usage: wnc {usage}", "", about, "",
                      *(f"  {u:<{width}}{text}".rstrip() for u, text in rows)])


def _usage_error(command, message: str):
    usage = _help(command).partition("\n")[0]
    print(f"{usage}\nwnc{'' if command is None else ' ' + command}: error: {message}",
          file=sys.stderr)
    raise SystemExit(2)


def _option(arg: str, names):
    """How `arg` reads against the option `names`: None for a value, else
    (name, the text after '=' or None), name "" for an unknown option. A
    name may be cut to a unique prefix; "--" is an unknown option, not the
    end of options; "-1" and "-a b" are values."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    found = [n for n in names if n == arg or eq and n == name] or [
        n for n in names if arg[:2] == "--" and len(name) > 2 and n.startswith(name)]
    if len(found) == 1:
        return found[0], value if eq else None
    return None if " " in arg or re.match(r"^-\d+$|^-\d*\.\d+$", arg) else ("", None)


def parse_args(argv):
    """The namespace of `argv` read against COMMANDS: options before or
    after the positional, `--opt=value`, the last of a repeated option
    winning. -h or --help prints help and exits 0; any other bad line
    prints a usage line and an error to stderr and raises SystemExit(2)."""
    command, names, values, extras = None, dict.fromkeys(("-h", "--help"), HELP), {}, []
    rest = list(argv)
    while rest:
        arg = rest.pop(0)
        option = _option(arg, names)
        if option is None and command is None:
            if arg not in COMMANDS:
                _usage_error(None, f"argument command: invalid choice: {arg!r}")
            command, arguments = arg, COMMANDS[arg][1]
            names.update((a[0].split()[0], a) for a in arguments if a is not EXPR)
            values = {a[0].split()[0]: a[2] for a in arguments}
        elif option is None and values.get("expr") is ...:
            values["expr"] = arg
        elif option is None or not option[0]:  # a value with no place, an unknown option
            extras.append(arg)
        else:
            name, value = option
            usage, _, default = names[name]
            if default is False and value is not None:  # a flag, or help
                _usage_error(command, f"argument {name}: ignored explicit "
                                      f"argument {value!r}")
            if names[name] is HELP:  # one write, so `wnc -h | head -1` exits 0
                sys.stdout.write(_help(command) + "\n")
                raise SystemExit(0)
            if default is False:
                value = True
            elif value is None:
                if not rest or _option(rest[0], names) is not None:
                    _usage_error(command, f"argument {name}: expected one argument")
                value = rest.pop(0)
            choices = usage.partition("{")[2].rstrip("}")
            if choices and value not in choices.split(","):
                _usage_error(command, f"argument {name}: invalid choice: {value!r}")
            values[name] = value
    missing = [name for name, value in values.items() if value is ...]
    if command is None or missing:
        _usage_error(command, "the following arguments are required: "
                     + (", ".join(missing) or "command"))
    if extras:
        _usage_error(command, "unrecognized arguments: " + " ".join(extras))
    # cmd_<cmd> is looked up now, so a wrapped or replaced one is what runs
    func = globals()[f"cmd_{command}"]
    return types.SimpleNamespace(command=command, func=func, **{
        name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except WncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
