"""One workload process: set up, run the CLI commands, report timings.

Usage: ``python3 worker.py SPEC.json`` where the spec (written by
``run.py``) names the configs to build, the CLI argument lists to run, the
monotonic time at which the process was spawned, whether to trace, and the
file to write the result to. Set-up is the time from spawn until
``creatorsim.cli`` is imported and every instance and strategy of the
workload is built; each command is then timed around ``cli.main``. After
the commands the worker reads its own peak resident memory, then times the
reference kernel that ``run.py`` uses to normalise times to the speed of
the machine the benchmark was tuned on.
"""

import json
import resource
import sys
import time


def build_all(cli, config_paths) -> None:
    """Build the instance and strategy of each config as its command will."""
    from argparse import Namespace

    from creatorsim.game import Metric

    for path in config_paths:
        cfg = cli.resolve_config(cli.load_config(path), Namespace())
        inst = cli.build_instance(cfg)
        recs = (["engagement", "investment", "random"]
                if cfg["recommender"] == "all" else [cfg["recommender"]])
        for rec in recs:
            cli.resolve_strategy(inst, cfg["P"], cfg["equilibrium"], Metric(rec))


def reference_s(reps: int = 7) -> float:
    """Median time of a fixed reference kernel, this machine's current speed.

    It mixes the kinds of work the workloads do: a memory-bound random
    gather over 32 MB, cache-resident numpy sorting and searching, and
    interpreter work that allocates many small objects.
    """
    import statistics

    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.random(4_000_000)
    idx = rng.integers(0, big.size, 400_000)
    small = rng.random(100_000)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        big[idx].sum()
        np.searchsorted(np.sort(small), small)
        pairs = [(k, str(k)) for k in range(30_000)]
        sum(int(s) for _, s in pairs)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.monotonic()
    from creatorsim import cli
    t1 = time.monotonic()
    build_all(cli, spec["configs"])
    t2 = time.monotonic()

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    commands = []
    for argv in spec["commands"]:
        start = time.perf_counter()
        rc = cli.main(argv)
        commands.append({"argv": argv, "rc": rc,
                         "wall_s": time.perf_counter() - start})

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import numpy
    import scipy
    result = {
        "reference_s": reference_s(),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": t2 - spec["spawned"],
        "import_s": t1 - t0,
        "build_s": t2 - t1,
        "commands": commands,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "module": cli.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
