"""In-memory span tracer for the traced benchmark run, and the per-layer
figures derived from its spans.

The tracer wraps public callables of the program from outside: each wrapper
is installed where the calling module looks the name up (for example
``metrics.simulate_rounds``), so ``src/`` is never edited. A span records
its name, start, end, parent span and thread, plus the work counts of the
call. Self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time


class Tracer:
    """Records one span per wrapped call; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stacks: dict[int, list[dict]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, tid: int, stack: list[dict]):
        if stack:
            return stack[-1]
        # A pool thread has no open span of its own: the call that submitted
        # its work is the innermost open span of the main thread, which
        # blocks on the pool until the shard returns.
        main = self._stacks.get(self._main)
        return main[-1] if main and tid != self._main else None

    def wrap(self, name: str, fn, counts=None):
        """``counts(arguments, result) -> dict`` adds work counts to the span."""
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            span = {"name": name, "parent": self._parent(tid, stack),
                    "thread": tid, "start": 0.0, "end": 0.0, "counts": {}}
            stack.append(span)
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts:
                span["counts"] = counts(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, counts=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))

    def dump(self) -> list[dict]:
        """Spans as plain records, parents replaced by list indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{**s, "parent": None if s["parent"] is None else index[id(s["parent"])]}
                for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the public callables of each program module where they are used."""
    from creatorsim import (_piecewise, _stats, cli, empirics, equilibrium,
                            game, metrics, model, verify)

    def n_arg(a, r):
        return {"n": int(a["n"])}

    tracer.patch(model.ModelInstance, "min_investment", "model.min_investment")
    tracer.patch(model.ModelInstance, "curve_x_for_engagement",
                 "model.curve_x_for_engagement")
    tracer.patch(_piecewise.PiecewiseLinearCdf, "ppf", "piecewise.ppf")
    tracer.patch(equilibrium.MixedStrategy, "sample", "equilibrium.sample", n_arg)
    tracer.patch(_stats.RunningMoments, "add_samples", "stats.add_samples")
    tracer.patch(verify, "expected_creator_utility", "game.expected_creator_utility",
                 lambda a, r: {"n": int(a["n"]), "P": int(a["P"])})
    tracer.patch(metrics, "simulate_rounds", "game.simulate_rounds", n_arg)
    tracer.patch(game, "_pick_winners", "game._pick_winners",
                 lambda a, r: {"rows": len(a["ts"])})
    tracer.patch(cli, "best_response_gap", "verify.best_response_gap",
                 lambda a, r: {"pool": int(a["n_per_candidate"]) * (int(a["P"]) - 1)})
    for attr in ("estimate_ucq", "estimate_re", "estimate_uw"):
        tracer.patch(metrics, attr, "metrics.estimate",
                     lambda a, r: {"n": int(a["n"]), "threads": int(a["threads"])})
    tracer.patch(empirics, "load_records", "empirics.load_records",
                 lambda a, r: {"records": len(r)})
    tracer.patch(empirics, "spearman_rho", "empirics.spearman_rho")
    tracer.patch(empirics, "conditional_ecdf", "empirics.conditional_ecdf")
    for attr in ("cmd_verify", "cmd_metrics", "cmd_empirics"):
        tracer.patch(cli, attr, "cli.cmd",
                     lambda a, r: {"threads": int(getattr(a["args"], "threads", 1))})


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def _ancestors(spans: list[dict], i: int):
    p = spans[i]["parent"]
    while p is not None:
        yield p
        p = spans[p]["parent"]


def _under(spans: list[dict], i: int, name: str) -> bool:
    """Whether span i has an ancestor called ``name``."""
    return any(spans[p]["name"] == name for p in _ancestors(spans, i))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced workload process."""
    selfs = self_times(spans)

    def of(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def self_s(name):
        return float(sum(selfs[i] for i in of(name)))

    def total(name, key):
        return sum(spans[i]["counts"].get(key, 0) for i in of(name))

    evals = [i for i in of("game.expected_creator_utility")
             if _under(spans, i, "verify.best_response_gap")]
    opponent_draws = sum(spans[i]["counts"]["n"] for i in of("equilibrium.sample")
                         if _under(spans, i, "game.expected_creator_utility"))
    pools = total("verify.best_response_gap", "pool")
    cand_ms = sorted(1e3 * (spans[i]["end"] - spans[i]["start"]) for i in evals)
    estimates = total("metrics.estimate", "n")

    # shard busy time of the multi-threaded metrics command, against the
    # thread time it had: threads x its wall time
    busy = capacity = 0.0
    for c in of("cli.cmd"):
        threads = spans[c]["counts"].get("threads", 1)
        rounds = [i for i in of("game.simulate_rounds") if c in _ancestors(spans, i)]
        if threads > 1 and rounds:
            busy += sum(spans[i]["end"] - spans[i]["start"] for i in rounds)
            capacity += threads * (spans[c]["end"] - spans[c]["start"])

    def pct(xs, q):
        if not xs:
            return 0.0
        if len(xs) == 1:
            return xs[0]
        return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]

    return {
        "equilibrium.sample.calls": len(of("equilibrium.sample")),
        "equilibrium.sample.draws": total("equilibrium.sample", "n"),
        "equilibrium.sample.self_s": self_s("equilibrium.sample"),
        "piecewise.ppf.self_s": self_s("piecewise.ppf"),
        "model.min_investment.self_s": self_s("model.min_investment"),
        "model.curve_x_for_engagement.self_s": self_s("model.curve_x_for_engagement"),
        "verify.evaluations": len(evals),
        "verify.opponent_draws_ratio": opponent_draws / pools if pools else 0.0,
        "verify.best_response_gap.self_s": self_s("verify.best_response_gap"),
        "verify.candidate_ms.p50": pct(cand_ms, 50),
        "verify.candidate_ms.p95": pct(cand_ms, 95),
        "game.expected_creator_utility.calls": len(of("game.expected_creator_utility")),
        "game.expected_creator_utility.self_s": self_s("game.expected_creator_utility"),
        "game.simulate_rounds.rounds": total("game.simulate_rounds", "n"),
        "game.simulate_rounds.self_s": self_s("game.simulate_rounds"),
        "game._pick_winners.rows": total("game._pick_winners", "rows"),
        "game._pick_winners.self_s": self_s("game._pick_winners"),
        "metrics.estimate.calls": len(of("metrics.estimate")),
        "metrics.rounds_per_estimate": (total("game.simulate_rounds", "n") / estimates
                                        if estimates else 0.0),
        "metrics.thread_busy_frac": busy / capacity if capacity else 0.0,
        "stats.add_samples.self_s": self_s("stats.add_samples"),
        "empirics.load_records.self_s": self_s("empirics.load_records"),
        "empirics.records_parsed": total("empirics.load_records", "records"),
        "empirics.spearman_rho.self_s": self_s("empirics.spearman_rho"),
        "empirics.conditional_ecdf.self_s": self_s("empirics.conditional_ecdf"),
        "cli.cmd.self_s": self_s("cli.cmd"),
    }

