"""Tiny-scale self-test of the benchmark.

Run from the repository root: ``python3 perfbench/smoke.py``. It runs every
workload untraced and traced at tiny sizes and checks that each prints
exactly the metrics named in BENCHMARK.json, with their units, and that all
correctness checks pass. Then it certifies investment-baseline play under
the engagement recommender, which is not an equilibrium there: ``verify``
must exit 3 and the benchmark must count failed checks, so the checks are
not vacuous. Exits 0 when everything holds.
"""

import contextlib
import io
import json
import sys

import run

SMOKE = {"certify_samples": 300, "metrics_samples": 3000, "empirics_rows": 3000}
INVESTMENT_UNDER_ENGAGEMENT = {"family": "linear", "alpha": 1.0, "gamma": 0.0,
                               "types": [1.0], "P": 2, "recommender": "engagement",
                               "equilibrium": "investment"}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = run.main(["--workload", w["name"], "--seed", "7",
                               "--seconds", "1", "--trace", str(trace)], sizes=SMOKE)
            tag = f"{w['name']} --trace {trace}"
            if rc != 0:
                problems.append(f"{tag}: exited {rc}")
                continue
            result = json.loads(buf.getvalue().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != wanted[trace]:
                problems.append(f"{tag}: printed {printed}, expected {wanted[trace]}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] > 0):
                problems.append(f"{tag}: checks failed: {result}")
            print(f"ok {tag}: {result['attempted']} checks")

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        result = run.run(run.Certify(cases=(INVESTMENT_UNDER_ENGAGEMENT,)),
                         seed=7, seconds=1, trace=True, sizes=SMOKE)
    error_frac = result["metrics"]["error_frac"]["value"]
    if "verify exited 3" not in err.getvalue() or result["correct"] or error_frac <= 0:
        problems.append(f"negative case not detected: {result}, stderr {err.getvalue()!r}")
    else:
        print(f"ok negative case: verify exited 3, error_frac={error_frac:.3f}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
