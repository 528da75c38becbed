"""repstab benchmark: cold CLI and warm-session workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source tree (src/repstab next to bench/).  One parent
process runs a closed loop with one client: cold workloads start one child
Python per query, the warm workload one child per pass, at most one child
alive at a time.  The seed only permutes the order of a fixed query set.

--trace 0 repeats passes while another fits in S seconds and prints the
end-to-end metrics as medians over passes.  --trace 1 runs one plain pass
and one pass with the tracer's wrappers installed, checks that both answer
byte-identically, and prints the per-layer metrics.  Every answer is checked
against oracle.json; the last stdout line is the result JSON, and the full
record (environment stamp, per-pass and per-query times) goes to
.bench_out/BENCH_<workload>_s<seed>_t<trace>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import INDEPENDENT_OPS, INDEPENDENT_STDOUT, LADDERS, WORKLOADS, pass_orders, query_id

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
ORACLE = BENCH / "oracle.json"
RUN_LIMIT_S = 170.0
SETUP_PROBES = 8  # extra set-up-only children for the warm workload

END_TO_END = {
    "solve_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heaviest_query_s": "s",
}
LAYERS = ("e2", "specht", "stability", "linalg", "characters", "arnold", "manifolds", "configspaces")


class RunFailed(Exception):
    pass


class Runner:
    """Spawns children for one workload and checks their answers."""

    def __init__(self, workload: str, oracle: dict | None):
        self.kind, self.items = WORKLOADS[workload]
        self.oracle = oracle
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        # Children see no PYTHON* settings of the caller, so bytecode caching and
        # stdout buffering are the interpreter defaults; TMPDIR keeps witness
        # files that a failing verify writes inside the tree.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.tmp))
        self.spawned = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, args: list[str], trace: bool):
        """Run one child to completion: (spawn time, stdout, exit code, stats or None)."""
        self.spawned += 1
        stats_path = self.tmp / f"child{self.spawned}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(stats_path)]
        cmd += ["--trace"] if trace else []
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise RunFailed(f"run exceeded {RUN_LIMIT_S:.0f}s")
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            cmd + args, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"child {' '.join(args)} exceeded the run's {RUN_LIMIT_S:.0f}s limit")
        if err:
            sys.stderr.write(err.decode("utf-8", "replace"))
        stats = None
        if stats_path.exists():
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        return spawned, out.decode("utf-8", "replace"), proc.returncode, stats

    def setup_sample(self) -> float:
        spawned, out, code, stats = self.spawn(["--setup-only"], trace=False)
        if code != 0 or stats is None:
            raise RunFailed(f"set-up-only child failed with exit code {code}")
        return stats["ready"] - spawned

    def run_pass(self, order: list, trace: bool) -> dict:
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        queries, children = [], []  # children: (spawn time, stats)
        if self.kind == "cold":
            for argv in order:
                loads = [argv[argv.index("--manifold") + 1]] if "--manifold" in argv else []
                spawned, out, code, stats = self.spawn(["--load", *loads, "--cli", *argv], trace)
                record = {"id": query_id(argv), "stdout": out, "code": code}
                self._finish(record, spawned, stats["queries"][0] if stats else None)
                queries.append(record)
                children.append((spawned, stats))
        else:
            spawned, out, code, stats = self.spawn(["--session", *order], trace)
            if stats is None or code != 0 or out:
                raise RunFailed(f"session child failed with exit code {code}: {out[:200]!r}")
            for q in stats["queries"]:
                record = {"id": q["id"], "result": q["result"]}
                self._finish(record, spawned, q)
                queries.append(record)
            children.append((spawned, stats))
        children = [(spawned, stats) for spawned, stats in children if stats]
        seconds = [q["seconds"] for q in queries]
        return {
            "wall_s": time.perf_counter() - wall0,
            "solve_s": sum(seconds),
            "cpu_s": _cpu_seconds() - cpu0,
            "peak_rss_mb": max((stats["maxrss_kb"] for _, stats in children), default=0) / 1024,
            "heaviest_query_s": max(seconds),
            "setups": [stats["ready"] - spawned for spawned, stats in children],
            "queries": queries,
            "failed": sum(not q["ok"] for q in queries),
            "trace": _merge_traces([stats for _, stats in children]) if trace else None,
        }

    def _finish(self, record: dict, spawned: float, q) -> None:
        """Add time, perms count and the oracle verdict to a query record."""
        if q is None:
            record.update(seconds=time.perf_counter() - spawned, perms=0, ok=False, error="no stats")
            sys.stderr.write(f"{record['id']}: child exited {record.get('code')} without stats\n")
            return
        record.update(seconds=q["end"] - q["start"], perms=q["perms"], error=q["error"])
        if q["error"] is not None:
            sys.stderr.write(f"{record['id']}: uncaught exception\n{q['error']}")
        if self.oracle is None:
            record["ok"] = q["error"] is None
            return
        record["ok"] = q["error"] is None and self.oracle.get(record["id"]) == answer(record)
        if not record["ok"]:
            sys.stderr.write(f"WRONG ANSWER: {record['id']}\n")


def answer(record: dict):
    """What the oracle stores for a query record: an op's result, or stdout and exit code."""
    return record["result"] if "result" in record else {"stdout": record["stdout"], "code": record["code"]}


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _merge_traces(children: list[dict]) -> dict:
    """Sum the children's totals and counters (max for denominator bits)."""
    totals: dict[str, list] = {}
    counters = {"characters.mn_character_misses": sum(stats["mn_character_misses"] for stats in children)}
    spans = []
    for child, trace in enumerate(stats["trace"] for stats in children):
        for stem, values in trace["totals"].items():
            acc = totals.setdefault(stem, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, value in trace["counters"].items():
            if name == "linalg.max_denominator_bits":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        spans += [[*span, child] for span in trace["spans"]]
    return {"totals": totals, "counters": counters, "spans": spans}


# ---------------------------------------------------------------------------
# metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    metrics = {name: statistics.median(p[name] for p in passes) for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def per_layer(plain: dict, traced: dict, attempted: int, failed: int) -> dict:
    trace = traced["trace"]
    totals, counters = trace["totals"], trace["counters"]

    def inclusive(stem):
        return totals.get(stem, [0, 0.0, 0.0])[1]

    def calls(stem):
        return totals.get(stem, [0, 0.0, 0.0])[0]

    def counter(name):
        return counters.get(name, 0)

    metrics = {
        "e2.page_build_s": inclusive("e2.page_build"),
        "e2.page_elements": counter("e2.page_elements"),
        "e2.differential_rank_s": inclusive("e2.differential_rank"),
        "e2.differential_rank_calls": calls("e2.differential_rank"),
        "e2.cohomology_dims_calls": calls("e2.cohomology_dims"),
        "e2.diff_key_calls": counter("e2.diff_key_calls"),
        "e2.invariant_basis_s": inclusive("e2.invariant_basis"),
        "e2.invariant_rank_s": inclusive("e2.invariant_rank"),
        "e2.act_vec_calls": counter("e2.act_vec_calls"),
        "e2.cell_character_s": inclusive("e2.cell_character"),
        "e2.character_backend_s": inclusive("e2.character_backend"),
        "perms.perms_enumerated": counter("perms.perms_enumerated"),
        "specht.project_tabloid_s": inclusive("specht.project_tabloid"),
        "specht.project_tabloid_calls": calls("specht.project_tabloid"),
        "specht.project_tabloid_reuse_ratio": _ratio(
            calls("specht.project_tabloid") - counter("specht.project_tabloid_distinct"),
            calls("specht.project_tabloid"),
        ),
        "specht.isotypic_s": inclusive("specht.isotypic"),
        "specht.sn_span_s": inclusive("specht.sn_span"),
        "specht.character_s": inclusive("specht.character"),
        "specht.specht_module_s": inclusive("specht.specht_module"),
        "specht.specht_module_hit_ratio": _ratio(
            calls("specht.specht_module") - counter("specht.specht_module_misses"),
            calls("specht.specht_module"),
        ),
        "specht.verify_claims_s": inclusive("specht.verify_claims"),
        "specht.monotonicity_witness_s": inclusive("specht.monotonicity_witness"),
        "stability.check_monotone_s": inclusive("stability.check_monotone"),
        "stability.check_uniform_stability_s": inclusive("stability.check_uniform_stability"),
        "stability.rep_isotypic_s": inclusive("stability.rep_isotypic"),
        "stability.rep_sn_span_s": inclusive("stability.rep_sn_span"),
        "stability.rep_character_s": inclusive("stability.rep_character"),
        "stability.property_suite_s": inclusive("stability.property_suite"),
        "linalg.insert_calls": calls("linalg.insert"),
        "linalg.insert_grew_ratio": _ratio(counter("linalg.insert_grew"), calls("linalg.insert")),
        "linalg.insert_s": inclusive("linalg.insert"),
        "linalg.reduce_s": inclusive("linalg.reduce"),
        "linalg.kernel_basis_s": inclusive("linalg.kernel_basis"),
        "linalg.max_denominator_bits": counter("linalg.max_denominator_bits"),
        "characters.decompose_s": inclusive("characters.decompose"),
        "characters.induced_character_s": inclusive("characters.induced_character"),
        "characters.mn_character_misses": counter("characters.mn_character_misses"),
        "arnold.straighten_calls": calls("arnold.straighten"),
        "arnold.straighten_s": inclusive("arnold.straighten"),
        "arnold.top_character_s": inclusive("arnold.top_character"),
        "manifolds.load_s": inclusive("manifolds.load"),
        "configspaces.betti_unordered_s": inclusive("configspaces.betti_unordered"),
        "configspaces.colored_betti_s": inclusive("configspaces.colored_betti"),
        "configspaces.page_reuse_ratio": _ratio(
            counter("configspaces.e2_page_calls") - counter("configspaces.e2_page_misses"),
            counter("configspaces.e2_page_calls"),
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v[2] for stem, v in totals.items() if stem.split(".")[0] == layer)
    metrics["tracing_overhead_s"] = traced["solve_s"] - plain["solve_s"]
    metrics["error_rate"] = _ratio(failed, attempted)
    seconds = {q["id"]: q["seconds"] for q in plain["queries"]}
    perms = {q["id"]: q["perms"] for q in traced["queries"]}
    for prefix, qid in LADDERS.items():
        metrics[f"{prefix}.query_s"] = seconds.get(qid, 0.0)
        metrics[f"{prefix}.perms_enumerated"] = perms.get(qid, 0)
    return metrics


def per_layer_units() -> dict:
    """Units of the per-layer metrics, by the naming convention."""
    names = per_layer(
        {"solve_s": 0.0, "queries": []},
        {"solve_s": 0.0, "queries": [], "trace": {"totals": {}, "counters": {}}},
        1,
        0,
    )
    return {name: _unit(name) for name in names}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "error_rate":
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


# ---------------------------------------------------------------------------
# oracle and environment


def load_oracle(workload: str) -> dict:
    """The recorded answers, after cross-checking the independently stated ones."""
    oracle = json.loads(ORACLE.read_text())[workload]
    for qid, stdout in INDEPENDENT_STDOUT.items():
        if qid in oracle and oracle[qid] != {"stdout": stdout, "code": 0}:
            raise RunFailed(f"oracle disagrees with the stated value for {qid!r}: {oracle[qid]!r}")
    for op, values in INDEPENDENT_OPS.items():
        if op not in oracle:
            continue
        recorded = oracle[op]
        pairs = values.items() if isinstance(values, dict) else enumerate(values)
        for key, value in pairs:
            if recorded[key] != value:
                raise RunFailed(f"oracle disagrees with the stated value for {op} [{key}]")
    return oracle


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# runs


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result line, full record) for one run."""
    env = environment(seed)
    runner = Runner(workload, load_oracle(workload))
    try:
        runner.setup_sample()  # untimed: fills bytecode caches
        orders = pass_orders(runner.items, seed)
        if trace:
            order = next(orders)
            plain = runner.run_pass(order, trace=False)
            traced = runner.run_pass(order, trace=True)
            passes = [plain, traced]
            for a, b in zip(plain["queries"], traced["queries"]):
                if a["id"] != b["id"] or answer(a) != answer(b):
                    b["ok"] = False
                    sys.stderr.write(f"TRACING CHANGED THE ANSWER: {b['id']}\n")
            attempted = sum(len(p["queries"]) for p in passes)
            failed = sum(sum(not q["ok"] for q in p["queries"]) for p in passes)
            metrics = per_layer(plain, traced, attempted, failed)
            units = {name: _unit(name) for name in metrics}
        else:
            setups = [runner.setup_sample() for _ in range(SETUP_PROBES)] if runner.kind == "warm" else []
            passes = []
            started = time.perf_counter()
            while True:
                passes.append(runner.run_pass(next(orders), trace=False))
                elapsed = time.perf_counter() - started
                if elapsed + passes[-1]["wall_s"] > seconds:
                    break
            attempted = sum(len(p["queries"]) for p in passes)
            failed = sum(p["failed"] for p in passes)
            metrics = end_to_end(passes, setups + [s for p in passes for s in p["setups"]])
            units = END_TO_END
    finally:
        runner.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload,
        "trace": trace,
        "environment": env,
        "result": result,
        "passes": [
            {k: v for k, v in p.items() if k not in ("queries", "trace")}
            | {"queries": {q["id"]: q["seconds"] for q in p["queries"]}}
            for p in passes
        ],
    }
    if trace:
        record["trace_totals"] = traced["trace"]["totals"]
        record["trace_counters"] = traced["trace"]["counters"]
        record["spans"] = traced["trace"]["spans"]
    return result, record


def self_test() -> int:
    """Each workload once at minimal pass count, schema checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if want[0] != END_TO_END or want[1] != per_layer_units():
        problems.append("BENCHMARK.json metric names or units differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {proc.returncode})")
                continue
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: exit {proc.returncode}, keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: non-numeric metric value")
            print(f"self-test {label}: attempted={result['attempted']} failed={result['failed']}", flush=True)
    bare = OUT / "self-test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gate-session", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=200,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a tree without src/ did not fail cleanly")
    for problem in problems:
        print("self-test FAIL:", problem)
    print("self-test", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repstab" / "__init__.py").is_file():
        print(f"error: no repstab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": record["environment"], "record": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    if not result["correct"]:
        print(f"error: {result['failed']} of {result['attempted']} answers were wrong", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
