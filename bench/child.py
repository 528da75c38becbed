"""One benchmark child process: set up, optionally trace, answer, report.

    python3 bench/child.py STATS --setup-only
    python3 bench/child.py STATS [--trace] --load NAME ... --cli ARGV...
    python3 bench/child.py STATS [--trace] --session OP...

Set-up is interpreter start, `import repstab` (with its CLI) and loading the
descriptors the query names (a --session or --setup-only child loads
those the session uses); the child notes when it is ready.  A --cli
child then runs repstab's CLI on ARGV, whose stdout is the child's stdout.  A
--session child runs the named gate-session ops in order in this one
process.  Timestamps use the system-wide monotonic clock (time.perf_counter
on Linux), so the parent can subtract its spawn time.  Everything else the
parent needs goes to the JSON file STATS.
"""

import json
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    stats_path, argv = argv[0], argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    mode, rest = argv[0], argv[1:]
    loads: list[str] = []
    if mode == "--load":
        split = rest.index("--cli")
        loads, rest, mode = rest[:split], rest[split + 1:], "--cli"

    import repstab.cli
    from repstab import characters, manifolds

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode in ("--session", "--setup-only"):
        from session import OPS
        from workloads import SESSION_MANIFOLDS

        loads = list(SESSION_MANIFOLDS)
    descs = {name: manifolds.load_manifold(name) for name in loads}
    stats = {"ready": time.perf_counter(), "queries": []}

    if mode == "--cli":
        stats["queries"].append(_run_cli(repstab.cli, rest, tracer))
    elif mode == "--session":
        for op in rest:
            stats["queries"].append(_run_op(OPS[op], op, descs, tracer))
    stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats["mn_character_misses"] = characters.mn_character.cache_info().misses
    if tracer is not None:
        stats["trace"] = tracer.summary()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return stats["queries"][0]["code"] if mode == "--cli" else 0


def _perms(tracer) -> int:
    return tracer.counters.get("perms.perms_enumerated", 0) if tracer else 0


def _run_cli(cli, argv, tracer) -> dict:
    if tracer is not None:
        tracer.query = " ".join(argv)
    perms0 = _perms(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        error = None
    except Exception:
        code, error = 70, traceback.format_exc()
    sys.stdout.flush()
    end = time.perf_counter()
    return {"start": start, "end": end, "code": code, "error": error, "perms": _perms(tracer) - perms0}


def _run_op(op, name, descs, tracer) -> dict:
    if tracer is not None:
        tracer.query = name
    perms0 = _perms(tracer)
    start = time.perf_counter()
    try:
        result, error = op(descs), None
    except Exception:
        result, error = None, traceback.format_exc()
    end = time.perf_counter()
    return {"id": name, "start": start, "end": end, "result": result, "error": error, "perms": _perms(tracer) - perms0}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
