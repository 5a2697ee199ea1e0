"""Benchmark of the FailSafe / qMig ledger simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|flood|migration \
        --seed N --seconds S --trace 0|1

The program is driven only through `Scenario.load`,
`ScenarioRunner(scenario, seed=...)` and `.run()`. One pass loads, builds
and runs every scenario of the workload; passes repeat until `--seconds`
is used up. With `--trace 0` the last line of standard output is a JSON
object with the bounded end-to-end metrics; with `--trace 1` each pass is run
once untraced and once with span wrappers installed (see tracing.py), and
the JSON object holds the per-layer metrics. Lines above it give every
metric with its unit and sample count, the simulated statistics as
counts, the correctness checks, and the machine. The exit code is 0 only
when every correctness check passed. See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from generate import GENERATORS
from tracing import IDLE_ON_SOME, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("corpus", "flood", "migration")
MIN_SETUPS = 3  # set-up is timed at least this often per run
MIN_PASSES = 2  # untraced passes per run, so each tick and request is timed twice
PASS_OVERRUN = 1.2  # a pass starts only if it should end within this share of --seconds
# printed with the other end-to-end metrics but left out of the JSON result
# and BENCHMARK.json: fail_ratio is 0 at a correct commit, and the bridge
# percentiles spread up to 0.24 over ten runs on a shared 2-vCPU host,
# too close to the largest bound BENCHMARK.json may set (0.25)
UNBOUNDED = ("fail_ratio", "bridge_p50_ms", "bridge_p99_ms")

perf = time.perf_counter


@dataclass
class PassResult:
    setup_s: float = 0.0
    sim_s: float = 0.0
    txs: int = 0
    ticks_ms: list = field(default_factory=list)
    bridges_ms: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (ok, message)
    digests: dict = field(default_factory=dict)  # scenario -> sha256 of log and stats
    stats: dict = field(default_factory=dict)  # scenario -> simulated counts
    layers: dict = field(default_factory=dict)  # traced passes only


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "csafeloader": hasattr(yaml, "CSafeLoader"),
        "platform": platform.machine(),
    }


def workload_inputs(workload: str, seed: int) -> list[tuple[Path, int | None]]:
    """Scenario files of a workload and the runner seed override for each."""
    if workload == "corpus":
        paths = sorted((SRC / "failsafe" / "scenarios").glob("*.yaml"))
        return [(p, seed) for p in paths]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-{seed}.yaml"
    path.write_text(GENERATORS[workload](seed), encoding="utf-8")
    return [(path, None)]


def build(path: Path, seed: int | None):
    from failsafe.scenario import Scenario, ScenarioRunner

    start = perf()
    runner = ScenarioRunner(Scenario.load(path), seed=seed)
    return runner, perf() - start


def correctness_checks(runner, report) -> list[tuple[bool, str]]:
    """Scenario assertions plus invariants the scenarios do not state."""
    from failsafe.bridge import ESCROW_ADDRESS
    from failsafe.ledger import NATIVE

    checks = [(ok, f"assert: {msg}") for ok, msg in report.assertion_results]
    ledger, dest = runner.ledger, runner.dest_ledger
    minted: Counter = Counter()
    for ev in ledger.events:
        if ev.kind == "Genesis" and ev.get("amount") is not None:
            minted[ev.get("token")] += ev.get("amount")
    fungible = [NATIVE] + [t for t, s in ledger.tokens.items() if s.kind == "fungible"]
    for token in fungible:
        supply = ledger.total_supply(token)
        checks.append((supply == minted[token],
                       f"supply[{token}] = {supply}, genesis {minted[token]}"))
    checks.append((runner.bridge.book.conservation_holds(), "bridge book lock == mint"))
    for token in fungible:
        escrow = ledger.balance_of(ESCROW_ADDRESS, token)
        on_dest = sum(dest.balances.get(token, {}).values())
        checks.append((escrow == on_dest, f"escrow[{token}] = {escrow}, dest supply {on_dest}"))
    return checks


def simulated_stats(runner, report) -> dict:
    """Counts that identify what was simulated; equal on every pass of a seed."""
    return {
        "blocks": report.blocks_built,
        "events": len(runner.ledger.events),
        "outcomes": dict(sorted(Counter(runner.tx_outcomes.values()).items())),
        "intercepts": report.intercept_count,
        "alerts": len(runner.fis.alerts) if runner.fis is not None else 0,
        "rebalances": len(runner.balancer.actions) if runner.balancer is not None else 0,
        "bridges": dict(sorted(Counter(runner.bridge_outcomes.values()).items())),
        "assets_saved": report.assets_saved,
        "assets_lost": report.assets_lost,
    }


def run_pass(inputs, tracer=None) -> PassResult:
    result = PassResult()
    for path, seed in inputs:
        if tracer is not None:
            tracer.install()
        try:
            runner, setup_s = build(path, seed)
            ticks = []
            runner.ledger.block_observers.append(lambda block, events: ticks.append(perf()))
            if tracer is None:
                bridge = runner.bridge.bridge_transfer

                def timed_bridge(request, bridge=bridge):
                    start = perf()
                    try:
                        return bridge(request)
                    finally:
                        result.bridges_ms.append((perf() - start) * 1e3)

                runner.bridge.bridge_transfer = timed_bridge
            start = perf()
            report = runner.run()
            sim_s = perf() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.collect(runner)
        result.setup_s += setup_s
        result.sim_s += sim_s
        result.txs += sum(len(block.txs) for block in runner.ledger.blocks[1:])
        result.ticks_ms.extend((b - a) * 1e3 for a, b in zip([start] + ticks, ticks))
        result.checks.extend(correctness_checks(runner, report))
        stats = simulated_stats(runner, report)
        log = "\n".join(report.log_lines) + "\n" + json.dumps(stats, sort_keys=True)
        result.digests[report.scenario] = hashlib.sha256(log.encode()).hexdigest()
        result.stats[report.scenario] = stats
        del runner, report
    if tracer is not None:
        result.layers = tracer.finish_pass()
    return result


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_sample(passes: list[PassResult], samples: str, p: int) -> tuple[float, str, str]:
    """p-th percentile over samples of each sample's mean time over passes.

    Every pass of one seed runs the same ticks and requests in the same
    order (the digest checks show it), so the i-th sample of each pass
    measures the same work. A `corpus` tick near the median reads 4 to
    10 ms over the passes of one run, and a per-pass percentile jumps
    between neighbouring ticks of unlike work; the mean over passes
    smooths each tick before the percentile picks one.
    """
    series = [getattr(x, samples) for x in passes]
    n = f"{len(series[0])}x{len(passes)} passes"
    if len({len(s) for s in series}) != 1:  # passes differ; the digest checks fail the run
        return percentile([v for s in series for v in s], p), "ms", n
    return percentile([statistics.fmean(col) for col in zip(*series)], p), "ms", n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(passes: list[PassResult], setups: list[float]) -> dict:
    n = f"{len(passes)} passes"
    return {
        "setup_s": (statistics.median(setups), "s", f"{len(setups)} set-ups"),
        "sim_s": (statistics.median(p.sim_s for p in passes), "s", n),
        "tx_per_s": (statistics.median(p.txs / p.sim_s for p in passes), "tx/s", n),
        "tick_p50_ms": per_sample(passes, "ticks_ms", 50),
        "tick_p90_ms": per_sample(passes, "ticks_ms", 90),
        "bridge_p50_ms": per_sample(passes, "bridges_ms", 50),
        "bridge_p99_ms": per_sample(passes, "bridges_ms", 99),
        "peak_rss_mb": (peak_rss_mb(), "MB", "1 process"),
    }


def measure(inputs, seconds: float, tracer=None) -> tuple[list, list, list]:
    """Run passes until the time is used; returns untraced, traced, set-up times."""
    plain, traced = [], []
    min_passes = 1 if tracer is not None else MIN_PASSES
    start = perf()
    while True:
        plain.append(run_pass(inputs))
        if tracer is not None:
            traced.append(run_pass(inputs, tracer))
        elapsed = perf() - start
        per_pass = elapsed / len(plain)
        if len(plain) >= min_passes and elapsed + per_pass > seconds * PASS_OVERRUN:
            break
    setups = [p.setup_s for p in plain]
    while tracer is None and len(setups) < MIN_SETUPS:
        setups.append(sum(build(path, seed)[1] for path, seed in inputs))
    return plain, traced, setups


def digest_checks(passes: list[PassResult]) -> list[tuple[bool, str]]:
    """Every pass of one seed, traced or not, must log the same bytes."""
    first = passes[0].digests
    return [
        (p.digests == first, f"pass {i}: event-log digests equal pass 0")
        for i, p in enumerate(passes[1:], start=1)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "failsafe" / "scenario.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import failsafe

    if Path(failsafe.__file__).resolve().parent != SRC / "failsafe":
        print(f"perfbench: imported failsafe from {failsafe.__file__}", file=sys.stderr)
        return 2

    info = machine_info()
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    inputs = workload_inputs(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        plain, traced, setups = measure(inputs, args.seconds, tracer)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    checks = [c for p in plain + traced for c in p.checks] + digest_checks(plain + traced)
    failed = [msg for ok, msg in checks if not ok]
    print(f"workload={args.workload} seed={args.seed} passes={len(plain)} "
          f"traced_passes={len(traced)} setups={len(setups)}")
    print("passes sim_s=" + ",".join(f"{p.sim_s:.4f}" for p in plain)
          + " setup_s=" + ",".join(f"{x:.4f}" for x in setups))
    for scenario, stats in plain[0].stats.items():
        print(f"stats {scenario} {json.dumps(stats, sort_keys=True)}")
    for scenario, digest in plain[0].digests.items():
        print(f"digest {scenario} {digest}")

    e2e = end_to_end(plain, setups)
    e2e["fail_ratio"] = (len(failed) / len(checks), "ratio", f"{len(checks)} checks")
    for name, (value, unit, n) in e2e.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    print(f"checks attempted={len(checks)} failed={len(failed)}")
    for msg in failed[:20]:
        print(f"FAILED {msg}")

    if tracer is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in e2e.items() if name not in UNBOUNDED}
    else:
        layers = tracer.summarize(traced, plain)
        for name, (value, unit) in layers.items():
            print(f"layer {name} {value:.6g} {unit}")
        for line in tracer.cost_table(traced):
            print(line)
        trace_file = tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv.gz")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items() if name not in IDLE_ON_SOME}

    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
