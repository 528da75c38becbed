"""Record oracle.json: every query's stdout and exit code, every op's result.

    python3 bench/record_oracle.py

Runs each workload once, untraced and in its listed order, against the
current src/ tree.  The committed file was recorded at the commit that added
the benchmark; run.py cross-checks it against the values stated in the
acceptance gate and README before trusting it.
"""

import json

from run import ORACLE, Runner, answer
from workloads import WORKLOADS


def main() -> None:
    oracle = {}
    for workload in WORKLOADS:
        runner = Runner(workload, None)
        try:
            passed = runner.run_pass(list(runner.items), trace=False)
        finally:
            runner.close()
        answers = {}
        for q in passed["queries"]:
            if q["error"] is not None:
                raise SystemExit(f"{q['id']}: uncaught exception, nothing recorded")
            answers[q["id"]] = answer(q)
        oracle[workload] = answers
        print(f"{workload}: {len(answers)} answers, {passed['solve_s']:.2f}s", flush=True)
    ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
