"""End-to-end benchmark of ``simulate``, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload child is a fresh ``python3 perfbench/child.py`` process
that imports ``squeezed_lasing`` from ``src/`` and runs
``squeezed_lasing.cli.main`` with ``--threads 1``.  The BLAS/OpenMP
thread variables are removed from the child's environment, so the
program runs with its own default threading.  Children run one after
another until ``--seconds`` have passed and at least two have run;
three set-up probes run first.  Every child's artefacts are checked against
``references/<workload>-<seed mod 4>.json``.

With ``--trace 0`` the last stdout line reports wall time, set-up time
and peak RSS (medians over the children); with ``--trace 1`` untraced
and traced children alternate and it reports the per-layer metrics of
the traced ones plus the tracing overhead.  A full record (machine,
child environment, every sample, failures, per-span table) goes to
``.perfbench/results/``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

VARIANTS = 4          # seed mod VARIANTS picks the input shift
SHIFT_STEP = 0.01     # per variant, added to each shifted input
SETUP_PROBES = 3
MIN_CHILDREN = 2      # so a run's median never rests on one child
CHILD_TIMEOUT_S = 150.0
# removed from the child's environment so both commits run with the
# program's own BLAS threading
THREAD_VARS = re.compile(r"^(OMP|OPENBLAS|GOTO|MKL|BLIS|VECLIB|NUMEXPR)_")


@dataclass(frozen=True)
class Workload:
    scenario: str
    fixed: tuple[str, ...]                 # --set KEY=VALUE, as given
    shifted: tuple[tuple[str, float], ...]  # --set KEY=default + shift
    ops: int                               # points, panels or RWA runs
    op_column: str | None = None           # column naming a row's operation

    def simulate_args(self, seed: int, out_dir: Path) -> list[str]:
        shift = (seed % VARIANTS) * SHIFT_STEP
        sets = list(self.fixed) + [f"{key}={round(value + shift, 9)!r}"
                                   for key, value in self.shifted]
        args = [self.scenario, "--preset", "desk", "--threads", "1",
                "--out", str(out_dir)]
        for item in sets:
            args += ["--set", item]
        return args


WORKLOADS = {
    "squeezed_sweep": Workload(
        "squeezed_laser",
        ("sweep.param=c_tilde", "sweep.steps=4", "numerics.field_dim=60"),
        (("sweep.start", 1.5), ("sweep.stop", 6.0)), ops=4),
    "two_qubit": Workload(
        "two_qubit_full", ("numerics.field_dim=40",),
        (("params.c_tilde", 5.0),), ops=1),
    "rwa_validate": Workload(
        "rwa_validate", (), (("params.gt_max", 3.0),), ops=1),
    "wigner_panels": Workload(
        "wigner_panels", (), (("params.c_prime", 10.0),), ops=2,
        op_column="c_prime"),
}


def reference_path(workload: str, seed: int) -> Path:
    return HERE / "references" / f"{workload}-{seed % VARIANTS}.json"


def child_env() -> tuple[dict, dict]:
    """The child's environment, and the record of what was changed."""
    env = {k: v for k, v in os.environ.items() if not THREAD_VARS.match(k)}
    env["PYTHONPATH"] = str(SRC)
    removed = sorted(set(os.environ) - set(env))
    return env, {"PYTHONPATH": "src", "removed": removed}


@dataclass
class Child:
    t0: float
    wall_s: float
    cpu_s: float
    setup_s: float
    rss_mb: float
    exit_code: int
    steal_s: float | None  # CPU time the hypervisor took from this VM
    record: dict
    log: Path


def _steal_s() -> float | None:
    """Machine-wide steal time so far, from /proc/stat, where there is one."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(simulate_args: list[str], work: Path, tag: str, env: dict, *,
              trace: bool = False, setup_only: bool = False) -> Child:
    """One fresh child process, timed from spawn to reaping.

    Its record and its stdout/stderr log go to ``work``.
    """
    work.mkdir(parents=True, exist_ok=True)
    record_path = work / f"{tag}.record.json"
    log = work / f"{tag}.log"
    flags = (["--trace"] if trace else []) + (
        ["--setup-only"] if setup_only else [])
    argv = [sys.executable, str(HERE / "child.py"), str(record_path), *flags,
            "--", *simulate_args]
    record_path.unlink(missing_ok=True)
    steal0 = _steal_s()
    with open(log, "wb") as log_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log_fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
    steal1 = _steal_s()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    setup_s = record.get("t_configured", t1) - t0
    exit_code = proc.returncode if record else (proc.returncode or 1)
    return Child(t0=t0, wall_s=t1 - t0,
                 cpu_s=usage.ru_utime + usage.ru_stime, setup_s=setup_s,
                 rss_mb=usage.ru_maxrss / 1024.0, exit_code=exit_code,
                 steal_s=None if steal0 is None else steal1 - steal0,
                 record=record, log=log)


END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics measured here rather than from spans
TRACE_EXTRAS = {"setup.interpreter_s": "s", "setup.import_s": "s",
                "setup.config_s": "s", "trace.wall_s": "s",
                "trace.overhead_s": "s", "trace.spans": "count"}


def per_layer_units() -> dict[str, str]:
    return {**{name: spec[0] for name, spec in tracing.LAYER_METRICS.items()},
            **TRACE_EXTRAS}


def end_to_end(probes: list[Child], plain: list[Child]) -> dict[str, float]:
    """Medians over the untraced children (and probes, for set-up)."""
    return {
        "wall_s": statistics.median(c.wall_s for c in plain),
        "setup_s": statistics.median(c.setup_s for c in probes + plain),
        "peak_rss_mb": statistics.median(c.rss_mb for c in plain),
    }


def per_layer(probes: list[Child], plain: list[Child],
              traced: list[Child]) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of the traced children, set-up phases, and overhead.

    Also returns the counts that differed between traced children.
    """
    values, mismatched = tracing.combine_runs(
        [tracing.layer_metrics(c.record.get("spans", []),
                               c.record.get("counts", {})) for c in traced])
    timed = [c for c in probes + plain + traced if "t_configured" in c.record]
    phases = {
        "setup.interpreter_s": [c.record["t_start"] - c.t0 for c in timed],
        "setup.import_s": [c.record["t_imported"] - c.record["t_start"]
                           for c in timed],
        "setup.config_s": [c.record["t_configured"] - c.record["t_imported"]
                           for c in timed],
    }
    for name, samples in phases.items():
        values[name] = statistics.median(samples)
    traced_wall = statistics.median(c.wall_s for c in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(
        c.wall_s for c in plain)
    values["trace.spans"] = len(traced[0].record.get("spans", []))
    return values, mismatched


def _tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    reference = json.loads(reference_path(workload_name, seed).read_text())
    env, env_record = child_env()
    scratch = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"

    probes = []
    for k in range(SETUP_PROBES):
        probe = run_child(workload.simulate_args(seed, scratch / "probe"),
                          scratch, f"probe-{k}", env, setup_only=True)
        if probe.exit_code != 0:
            raise RuntimeError(f"set-up probe failed:\n{_tail(probe.log)}")
        probes.append(probe)

    children: list[tuple[Child, bool]] = []
    attempted = 0
    failures: list[dict] = []
    start = time.perf_counter()
    while (len(children) < MIN_CHILDREN
           or time.perf_counter() - start < seconds):
        traced = trace and len(children) % 2 == 1
        tag = f"child-{len(children)}"
        out_dir = scratch / tag
        child = run_child(workload.simulate_args(seed, out_dir), scratch,
                          tag, env, trace=traced)
        failed = check.check_outputs(out_dir, reference, child.exit_code)
        attempted += workload.ops
        if failed:
            failures.append({"child": len(children), "traced": traced,
                             "failed": {str(k): v for k, v in failed.items()},
                             "log_tail": _tail(child.log)})
            print(f"perfbench: {tag}: {len(failed)} operation(s) failed: "
                  f"{failed}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        children.append((child, traced))

    plain = [c for c, traced in children if not traced]
    traced_runs = [c for c, traced in children if traced]
    mismatched: list[str] = []
    spans_table: dict = {}
    if trace:
        values, mismatched = per_layer(probes, plain, traced_runs)
        units = per_layer_units()
        last = traced_runs[-1].record
        spans_table = tracing.layer_table(last.get("spans", []))
        (results / f"{stem}-spans.json").write_text(json.dumps(last))
    else:
        values, units = end_to_end(probes, plain), END_TO_END
    if mismatched:
        print(f"perfbench: counts differ between traced runs: {mismatched}",
              file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)

    failed_ops = sum(len(f["failed"]) for f in failures)
    result = {
        "correct": failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    full = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": probes[0].record.get("machine"),
        "child_env": env_record,
        "simulate_args": workload.simulate_args(seed, Path("OUT")),
        "children": [{"traced": traced, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                      "setup_s": c.setup_s, "peak_rss_mb": c.rss_mb,
                      "steal_s": c.steal_s, "exit_code": c.exit_code}
                     for c, traced in children],
        "probes_setup_s": [c.setup_s for c in probes],
        "failures": failures, "spans": spans_table,
        "count_mismatches": mismatched, "result": result,
    }
    record_file = results / f"{stem}.json"
    record_file.write_text(json.dumps(full, indent=1) + "\n")
    print(f"perfbench: record written to {record_file.relative_to(ROOT)}",
          file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed mod 4 shifts the inputs; 0 is unshifted")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "squeezed_lasing" / "cli.py").is_file():
        print(f"perfbench: {SRC} holds no squeezed_lasing package; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
