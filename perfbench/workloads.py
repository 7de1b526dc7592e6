"""One request of each workload, and the checks of its output.

Every request returns an ``Outcome``.  The operations counted are tau
points: a point fails when the program raises or exits nonzero before
delivering it, or when a check of its output fails.  A failure that shows
one of three known defects is counted and explained; any other failure
makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import checks
from inputs import NU_STEP_KHZ, PLANCK_PEV_PER_KHZ
from tracing import Tracer

CLI_TIMEOUT_S = 120.0


def known_defect(exc: Exception) -> str | None:
    """Which known defect an exception shows, if any."""
    if not isinstance(exc, ValueError):
        return None
    if "relative entropy infinite" in str(exc):
        return "relative_entropy_underflow"
    frames = {frame.name for frame in traceback.extract_tb(exc.__traceback__)}
    if "invert_characteristic" in frames and "probabilities sum to" in str(exc):
        return "round_trip_normalization"
    return None


@dataclass
class Outcome:
    wall_s: float
    traced: bool
    points: int
    #: wall_s in normalized seconds, set by the caller (see hostspeed)
    norm_s: float = 0.0
    failed_points: int = 0
    #: the request ran to its end (some of its points may still have failed)
    completed: bool = True
    defects: list[str] = field(default_factory=list)
    #: failures that are not a known defect
    problems: list[str] = field(default_factory=list)
    mc_samples: int = 0
    rss_kb: int = 0
    import_s: float | None = None
    spans: list = field(default_factory=list)
    #: layer boundaries a traced request did not find
    missing: list[str] = field(default_factory=list)


def _count_defects(outcome: Outcome, defects: list[list[str]]) -> None:
    """Fail each point that shows a known defect; a point may show two."""
    for names in defects:
        if names:
            outcome.failed_points += 1
            outcome.defects.extend(names)


def _failed(outcome: Outcome, problems: list[str], completed: bool = True) -> Outcome:
    outcome.failed_points = outcome.points
    outcome.completed = completed
    outcome.problems = problems
    return outcome


# --- sweep_cli ---------------------------------------------------------------

#: Runs the command argv[2:] from a fresh, small interpreter and writes its
#: wall time, exit code and peak RSS to the file argv[1].  A process forked
#: straight from the benchmark would count the benchmark's own resident set
#: in its ru_maxrss (Linux keeps the high-water mark of the address space an
#: exec replaces); one forked from here counts this interpreter's instead,
#: which is far below the CLI's.
_LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as out:
    json.dump({"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
               "rss_kb": usage.ru_maxrss}, out)
"""


def _kill_group(pid: int) -> None:
    """Kill the launcher and the CLI it started."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


class CliRunner:
    """Runs ``ottospin sweep`` cold, one subprocess at a time."""

    def __init__(self, root: Path, work_dir: Path, reference: dict) -> None:
        self.root = root
        self.work_dir = work_dir
        self.reference = reference
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced_cli = Path(__file__).with_name("traced_cli.py")

    def __call__(self, inp: dict, request: int, traced: bool) -> Outcome:
        config = self.work_dir / "sweep.ini"
        config.write_text(inp["text"], encoding="utf-8")
        command = ["sweep", "--config", str(config)]
        if traced:
            argv = [sys.executable, str(self.traced_cli), *command]
        else:
            argv = [sys.executable, "-m", "ottospin.cli", *command]
        out_path, err_path = self.work_dir / "stdout", self.work_dir / "stderr"
        report = self.work_dir / "launch.json"
        report.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-S", "-c", _LAUNCHER, str(report), *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.root,
                                    start_new_session=True)
            watchdog = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                proc.wait()
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        try:
            launched = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # the launcher was killed
            return _failed(Outcome(wall, traced, len(inp["taus"])),
                           [f"launcher exit {proc.returncode}: "
                            + err_path.read_text(encoding="utf-8")[-500:]], completed=False)
        outcome = Outcome(launched["wall_s"], traced, len(inp["taus"]),
                          rss_kb=launched["rss_kb"])
        stdout = out_path.read_text(encoding="utf-8")
        if launched["code"] != 0:
            return _failed(outcome, [f"exit {launched['code']}: "
                                     + err_path.read_text(encoding="utf-8")[-500:]],
                           completed=False)
        if traced:
            payload = json.loads(stdout)
            outcome.import_s = payload["import_s"]
            outcome.spans = payload["spans"]
            outcome.missing = payload["missing"]
            for span in outcome.spans:
                span[4] = request
            if payload["code"] != 0:
                return _failed(outcome, [f"main returned {payload['code']}"],
                               completed=False)
            stdout = payload["stdout"]
        try:
            rows = checks.parse_table(stdout, inp["format"])
        except (ValueError, KeyError, IndexError) as exc:
            return _failed(outcome, [f"unparsable {inp['format']} output: {exc}"])
        problems, defects = checks.check_rows(rows, inp, self.reference)
        if problems:
            return _failed(outcome, problems)
        _count_defects(outcome, defects)
        outcome.mc_samples = len(rows) * inp["mc_samples"]
        return outcome


# --- in-process workloads ----------------------------------------------------

class InProcessRunner:
    """Runs ``tau_scan`` or ``mc_cycle`` requests against the public API."""

    def __init__(self, workload: str, ottospin, reference: dict) -> None:
        self.o = ottospin
        self.reference = reference
        self.request_fn = {"tau_scan": self._tau_scan, "mc_cycle": self._mc_cycle}[workload]
        self.check_fn = {"tau_scan": self._check_tau_scan,
                         "mc_cycle": self._check_mc_cycle}[workload]

    def __call__(self, inp: dict, request: int, traced: bool) -> Outcome:
        tracer = Tracer()
        scope = tracer.request_scope(request) if traced else contextlib.nullcontext()
        try:
            with scope:
                start = time.perf_counter()
                try:
                    result = self.request_fn(inp)
                finally:
                    wall = time.perf_counter() - start
        except Exception as exc:  # every failure is counted, never raised
            defect = known_defect(exc)
            outcome = _failed(Outcome(wall, traced, len(inp["taus"]), spans=tracer.spans,
                                      missing=tracer.missing),
                              [] if defect else [f"{type(exc).__name__}: {exc}"],
                              completed=False)
            outcome.defects = [defect] if defect else []
            return outcome
        outcome = Outcome(wall, traced, len(inp["taus"]), spans=tracer.spans,
                          missing=tracer.missing)
        problems = self.check_fn(inp, result, outcome)
        return _failed(outcome, problems) if problems else outcome

    def _tau_scan(self, inp: dict):
        o = self.o
        cfg = o.parse_config(inp["text"])
        base = o.to_cycle_config(cfg)
        reports = o.sweep_tau(base, inp["taus"])
        # every work atom lies on multiples of h * NU_STEP_KHZ, within
        # +/- (nu_i + nu_f); the grid spans that window
        half_width = round((inp["nu_i"] + inp["nu_f"]) / NU_STEP_KHZ)
        u_grid = o.conjugate_u_grid(PLANCK_PEV_PER_KHZ * NU_STEP_KHZ, 2 * half_width + 2)
        dists = []
        for report in reports:
            protocol = replace(base.protocol, tau_us=report.tau_us)
            work = o.engine_work_distribution(protocol, base.thermal, report.transition_prob)
            heat = o.engine_heat_distribution(protocol, base.thermal, report.transition_prob)
            try:
                recovered = o.invert_characteristic(o.characteristic_function(work, u_grid))
            except ValueError as exc:
                # a known defect fails this point only (recorded by name);
                # the scan goes on
                recovered = known_defect(exc)
                if recovered is None:
                    raise
            dists.append((work, heat, recovered))
        forward = o.evolve_unitary(replace(base.protocol, tau_us=inp["qpt_tau"]),
                                   cfg.n_steps)
        ideal = o.choi_from_unitary(forward)
        mixed = o.mix_processes(ideal, o.depolarizing_process(), inp["noise_mix"])
        diag = {
            "unitality_ideal": o.unitality_defect(ideal),
            "unitality_mixed": o.unitality_defect(mixed),
            "self_distance": o.process_trace_distance(ideal, ideal),
            "mixed_distance": o.process_trace_distance(mixed, ideal),
        }
        return reports, dists, diag

    def _check_tau_scan(self, inp: dict, result, outcome: Outcome) -> list[str]:
        reports, dists, diag = result
        problems, defects = checks.check_rows([asdict(r) for r in reports], inp, None)
        for i, (report, (work, heat, recovered)) in enumerate(zip(reports, dists)):
            if isinstance(recovered, str):
                defects[i].insert(0, recovered)
                recovered = None
            problems += checks.check_distributions(report, work, heat, recovered)
        problems += checks.check_process(diag, inp["noise_mix"])
        _count_defects(outcome, defects)
        return problems

    def _mc_cycle(self, inp: dict):
        o = self.o
        cfg = o.parse_config(inp["text"])
        cycle_cfg = o.to_cycle_config(cfg, cfg.tau_us)
        report, spread = o.cycle_with_uncertainty(
            cycle_cfg, rel_noise=cfg.mc_noise_width, n_samples=cfg.mc_samples,
            seed=cfg.seed)
        return cycle_cfg, report, spread

    def _check_mc_cycle(self, inp: dict, result, outcome: Outcome) -> list[str]:
        o = self.o
        cycle_cfg, report, spread = result
        row = asdict(report)
        row.update({f"{name}_stddev": est.stddev for name, est in spread.items()})
        problems, defects = checks.check_rows([row], inp, self.reference)
        _count_defects(outcome, defects)
        p = report.transition_prob
        work = o.engine_work_distribution(cycle_cfg.protocol, cycle_cfg.thermal, p)
        heat = o.engine_heat_distribution(cycle_cfg.protocol, cycle_cfg.thermal, p)
        problems += checks.check_distributions(report, work, heat, None)
        outcome.mc_samples = inp["mc_samples"]
        return problems
