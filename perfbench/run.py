#!/usr/bin/env python3
"""ottospin benchmark: one closed-loop client per workload, every output
checked, metrics printed by name and unit.

Usage (from the root of a checkout; needs only Python and numpy):

    python3 perfbench/run.py --workload {sweep_cli,tau_scan,mc_cycle} \\
        --seed N --seconds S --trace {0,1}

A run makes the fixed number of requests that ``inputs.request_count``
derives from ``--seconds``: as many as take about that long at the baseline.
With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics of BENCHMARK.json, times in normalized seconds
(see hostspeed.py); with ``--trace 1`` each
request runs once plain and once with layer spans recorded, and the object
carries the per-layer metrics instead.  Lines before it give the
environment and a readable summary.  Spans of a traced run are written to
``.perfbench_out/spans_<workload>_seed<N>.jsonl``.  Exits 2 without a
result when the checkout has no ``src/ottospin``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from hostspeed import Clock  # noqa: E402
import tracing  # noqa: E402
from workloads import CliRunner, InProcessRunner  # noqa: E402

#: Fresh interpreters whose import-plus-input-generation time makes setup_s.
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 120
#: request_tail_s is the highest percentile with this many requests beyond it.
TAIL_BEYOND = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ottospin" / "__init__.py").is_file():
        print(f"error: no ottospin package under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    # everything of the run -- calibration, probes, requests, CLI children --
    # shares one CPU, so that the calibration sees the speed the requests get
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a fixed number of requests, set by --seconds rather than by the clock:
    # a seed makes the same requests in every run of the same code, so that
    # attempted and failed repeat exactly
    count = inputs.request_count(args.workload, args.seconds)

    setup_clock = Clock(SETUP_PROBES + 1)
    probes = []
    for _ in range(SETUP_PROBES):
        setup_clock.tick()
        probes.append(_probe(args.workload, args.seed, count, env))
    setup_clock.tick()
    for probe in probes:
        probe["setup_s"] = (probe["import_s"] + probe["inputs_s"]) * setup_clock.scale()
    for probe in probes:
        if not Path(probe["ottospin_file"]).resolve().is_relative_to(SRC):
            print(f"error: imported {probe['ottospin_file']}, not the checkout's",
                  file=sys.stderr)
            return 2
    requests = inputs.GENERATORS[args.workload](args.seed, count)
    reference = checks.load_reference()
    if args.workload == "sweep_cli":
        runner = CliRunner(ROOT, OUT_DIR, reference)
    else:
        sys.path.insert(0, str(SRC))
        import ottospin

        runner = InProcessRunner(args.workload, ottospin, reference)

    outcomes = []
    clock = Clock((2 if args.trace else 1) * len(requests) + 1)
    for i, inp in enumerate(requests):
        # a traced run measures each input plain and traced, taking turns
        # at going first so that warm caches favour neither
        order = ((False, True) if i % 2 == 0 else (True, False)) if args.trace else (False,)
        for traced in order:
            clock.tick()
            outcomes.append(runner(inp, i, traced))
    clock.tick()
    for outcome in outcomes:
        outcome.norm_s = outcome.wall_s * clock.scale()

    plain = [o for o in outcomes if not o.traced]
    if not any(o.completed for o in plain):
        print("error: no request ran to its end", file=sys.stderr)
        _print_failures(outcomes)
        return 1
    summary = _end_to_end(args.workload, plain, probes)
    if args.trace:
        traced = [o for o in outcomes if o.traced]
        spans = tracing.merge([o.spans for o in traced])
        missing = {name for o in traced for name in o.missing}
        if missing:  # a boundary the package dropped or renamed
            print("boundaries not found, their metrics are null: "
                  + ", ".join(sorted(missing)), file=sys.stderr)
        metrics = _per_layer(args.workload, spans, traced, plain, probes, missing)
        section = contract["per_layer"]
        with (OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl").open("w") as out:
            out.writelines(json.dumps(span) + "\n" for span in spans)
    else:
        metrics = summary
        section = contract["end_to_end"]

    _print_failures(outcomes)
    print("env " + json.dumps(_environment(probes[0], len(cpus)), sort_keys=True))
    _print_summary(args.workload, summary, plain, clock.scale())
    print(json.dumps({
        "correct": not any(o.problems for o in outcomes),
        "attempted": sum(o.points for o in outcomes),
        "failed": sum(o.failed_points for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


def _probe(workload: str, seed: int, count: int, env: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(count)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout)


def _tail(latencies: list[float]) -> tuple[float, float] | None:
    """(value, percentile): the highest percentile with TAIL_BEYOND
    requests beyond it, or None when that percentile would not lie above
    the median (fewer than 2 * TAIL_BEYOND + 2 requests)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 2:
        return None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _end_to_end(workload: str, plain: list, probes: list[dict]) -> dict:
    """End-to-end metrics; times in normalized seconds (see hostspeed)."""
    completed = [o for o in plain if o.completed]
    busy = sum(o.norm_s for o in plain)
    if workload == "sweep_cli":
        rss_mb = statistics.median(o.rss_kb for o in completed) / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "request_p50_s": statistics.median(o.norm_s for o in completed),
        "tau_points_per_s": sum(o.points for o in completed) / busy,
        "mc_samples_per_s": sum(o.mc_samples for o in plain if not o.failed_points) / busy,
        "peak_rss_mb": rss_mb,
        "failed_ratio": sum(o.failed_points for o in plain) / sum(o.points for o in plain),
    }


def _per_layer(workload: str, spans: list, traced: list, plain: list,
               probes: list[dict], missing: set[str]) -> dict:
    metrics = tracing.layer_metrics(spans, len(traced), sum(o.wall_s for o in traced),
                                    missing)
    if workload == "sweep_cli":
        imports = [o.import_s for o in traced if o.import_s is not None]
    else:
        imports = [p["import_s"] for p in probes]
    metrics["cli.import_s"] = statistics.median(imports)
    # compare the plain and the traced run of one input
    metrics["trace.overhead_s"] = statistics.median(
        t.norm_s - p.norm_s for p, t in zip(plain, traced) if p.completed and t.completed)
    return metrics


def _environment(probe: dict, nproc: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "cache_kb": _cache_sizes_kb(),
        "git_sha": _git_sha(),
        "src_sha256": _tree_hash(SRC / "ottospin"),
        "ottospin_version": probe["ottospin_version"],
        "kernel_backend": probe["kernel_backend"],
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes_kb() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1])
    return sizes


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree (the
    tree hash then identifies the code)."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def _tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(directory)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _print_failures(outcomes: list, shown: int = 10) -> None:
    defects = Counter()
    for o in outcomes:
        for name in o.defects:  # a request that stopped lost all its points
            defects[name] += 1 if o.completed else o.failed_points
    for name, points in sorted(defects.items()):
        print(f"known defect {name}: {points} failed tau points show it", file=sys.stderr)
    unexpected = [o for o in outcomes if o.problems]
    for o in unexpected[:shown]:
        print(f"UNEXPECTED failure: {'; '.join(o.problems)[:300]}", file=sys.stderr)
    if len(unexpected) > shown:
        print(f"... {len(unexpected) - shown} more requests failed", file=sys.stderr)


def _print_summary(workload: str, e2e: dict, plain: list, host_scale: float) -> None:
    completed = [o.norm_s for o in plain if o.completed]
    tail = _tail(completed)
    if tail is None:
        tail_text = (f"absent: {len(completed)} requests ran to the end, "
                     f"{2 * TAIL_BEYOND + 2} needed")
    else:
        tail_text = (f"{tail[0]:.6g} s (p{tail[1]:.1f}, {TAIL_BEYOND} of "
                     f"{len(completed)} beyond)")
    failed = sum(o.failed_points for o in plain)
    attempted = sum(o.points for o in plain)
    mc = f"{e2e['mc_samples_per_s']:.6g} 1/s" if e2e["mc_samples_per_s"] else "n/a"
    lines = [
        ("setup_s", f"{e2e['setup_s']:.6g} s (median of {SETUP_PROBES} fresh imports)"),
        ("request_p50_s", f"{e2e['request_p50_s']:.6g} s "
                          f"({len(completed)} of {len(plain)} requests ran to the end)"),
        ("request_tail_s", tail_text),
        ("tau_points_per_s", f"{e2e['tau_points_per_s']:.6g} 1/s"),
        ("mc_samples_per_s", mc),
        ("peak_rss_mb", f"{e2e['peak_rss_mb']:.6g} MB"),
        ("failed_ratio", f"{e2e['failed_ratio']:.4g} ({failed} of {attempted} tau points)"),
        ("raw_p50_s", f"{statistics.median(o.wall_s for o in plain if o.completed):.6g} s "
                      "(wall clock, not normalized)"),
        ("host_scale", f"{host_scale:.4g} (normalized over wall seconds; "
                       "below 1 when the host ran slow)"),
    ]
    print(f"summary {workload} (timed requests)")
    for name, text in lines:
        print(f"  {name:18s} {text}")


if __name__ == "__main__":
    sys.exit(main())
