"""Benchmark of the infdiag solver, driven the way `infdiag solve` drives it:
IDNET text -> diagram.parse -> solve.solve_diagram (value and policies).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the solver is imported from ./src.  One caller,
one process, one thread, closed loop: the next instance starts when the
previous one is solved.  Each pass solves the whole instance set once, and
passes repeat until S seconds have gone and at least MIN_PASSES were made.
Every answer is checked afterwards, outside the timed region, against a
reference the cluster engine did not produce (see reference.py).

Every time is calibrated for host speed (see speed.py): the fixed probe loop
runs before and after each solve and around each set-up round, and a time
is divided by the probe times around it and given at the reference speed.
solves_per_s is the instance count over the median calibrated pass time.
solve_ms_p50 and solve_ms_p90 are quantiles over the instances of each
instance's median calibrated latency.  setup_s is the median, over at least
SETUP_REPEATS rounds, of one import of the solver in a fresh interpreter
plus input generation, serialization and a warm-up solve; after the first
round, one runs after each untraced pass.  solve_peak_mb is the largest
allocation peak of one solve, taken by tracemalloc in one extra pass over
every MEMORY_STRIDE-th instance after the timed passes.  The run also
prints the uncalibrated wall-clock figures.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracing.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The metric names are those listed in BENCHMARK.json.
"""

import os
import sys

# One thread: pin the native thread pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# Compile from source on every run, so the import share of setup_s does not
# depend on whether an earlier run left bytecode behind.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import infdiag  # noqa: E402

if not Path(infdiag.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"infdiag imported from {infdiag.__file__}, not from {SRC}")

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from infdiag import diagram, solve  # noqa: E402

SETUP_REPEATS = 5
SETUP_PROBES = 9  # probe runs on each side of a set-up round
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import infdiag.diagram, infdiag.solve; print(time.perf_counter() - t)")
MIN_PASSES = 3
MIN_INSTANCES = 100  # so that at least 10 lie beyond the p90
# tracemalloc slows a solve 6-8 fold, so the memory pass solves every
# MEMORY_STRIDE-th instance: in families, one table draw per structure.
MEMORY_STRIDE = 8


class Answers:
    """Distinct answers given for one instance, with how often each came back."""

    def __init__(self) -> None:
        self.reports: dict[tuple, list] = {}  # fingerprint -> [report, count]
        self.errors: list[str] = []

    def record(self, report) -> None:
        key = (report.meu, tuple((p.var, p.rule.scope, p.rule.values.tobytes())
                                 for p in report.policies))
        entry = self.reports.setdefault(key, [report, 0])
        entry[1] += 1


def solve_one(inst, ans) -> None:
    try:
        report = solve.solve_diagram(diagram.parse(inst.text))
    except Exception as exc:  # counted as failed, run continues
        ans.errors.append(f"{type(exc).__name__}: {exc}")
        return
    ans.record(report)


def untraced_pass(instances, answers, latencies) -> tuple[float, float]:
    """Solves each instance once and appends its calibrated latency; returns
    the pass's wall-clock seconds spent solving and its median probe time."""
    wall = 0.0
    probes = [speed.probe()]
    for inst, ans, lat in zip(instances, answers, latencies):
        start = perf_counter()
        solve_one(inst, ans)
        seconds = perf_counter() - start
        probes.append(speed.probe())
        lat.append(speed.calibrated(seconds, probes[-2:]))
        wall += seconds
    return wall, statistics.median(probes)


def memory_pass(instances, answers) -> float:
    """The largest allocation peak of one solve, in MB."""
    gc.collect()
    tracemalloc.start()
    peak = 0
    try:
        for inst, ans in zip(instances, answers):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_one(inst, ans)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_pass(instances, answers, traced) -> None:
    reports, counters = [], []
    traced.install()
    try:
        for inst, ans in zip(instances, answers):
            try:
                report, counter = traced.solve(inst.text)
            except Exception as exc:  # counted as failed, run continues
                ans.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            ans.record(report)
            reports.append(report)
            counters.append(counter)
    finally:
        traced.uninstall()
    traced.end_pass([inst.text for inst in instances], reports, counters)


def import_seconds() -> float:
    """The solver's import time, measured in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def set_up(generate, seed):
    """(instances, calibrated seconds) for one round of set-up: an import of
    the solver in a fresh interpreter, input generation and a warm-up solve."""
    before = speed.probes(SETUP_PROBES)
    imports = import_seconds()
    gc.collect()
    start = perf_counter()
    instances = generate(seed)
    solve.solve_diagram(diagram.parse(instances[0].text))  # warm-up
    seconds = imports + perf_counter() - start
    after = speed.probes(SETUP_PROBES)
    gc.collect()  # so the next timed pass does not collect this round's garbage
    return instances, speed.calibrated(seconds, before + after)


def check(workload: str, instances, answers):
    """(failed solves, reference seconds, shapes); prints every problem."""
    failed = 0
    ref_s = 0.0
    shapes = []
    for inst, ans in zip(instances, answers):
        d = diagram.parse(inst.text)
        shapes.append(workloads.shape(d))
        for err in ans.errors:
            print(f"FAILED {inst.label}: {err}")
        failed += len(ans.errors)
        start = perf_counter()
        try:
            ok = reference.checker(workload, d)
        except Exception as exc:  # the reference gave up: report, do not drop
            n = sum(count for _, count in ans.reports.values())
            print(f"UNCHECKED {inst.label} ({n} solves): {type(exc).__name__}: {exc}")
            failed += n
            continue
        ref_s += perf_counter() - start
        for report, count in ans.reports.values():
            if not ok(report.meu, report.policies):
                print(f"MISMATCH {inst.label}: meu {report.meu!r} ({count} solves)")
                failed += count
    return failed, ref_s, shapes


def describe(shapes) -> str:
    def span(i):
        lo, hi = min(s[i] for s in shapes), max(s[i] for s in shapes)
        return f"{lo:.4g}" if lo == hi else f"{lo:.4g}-{hi:.4g}"
    return (f"{len(shapes)} instances; variables {span(0)}; decisions {span(1)}; "
            f"joint cells {span(2)}; largest input table {span(3)} cells")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (why,) = [w["why"] for w in spec["workloads"] if w["name"] == args.workload]

    generate = workloads.WORKLOADS[args.workload]
    instances, first = set_up(generate, args.seed)
    setups = [first]
    if len(instances) < MIN_INSTANCES:
        raise RuntimeError(f"{len(instances)} instances, need {MIN_INSTANCES}")
    # Freeze what set-up left alive (modules, inputs), so that a collection
    # during a solve scans only what solves allocated.  Unfrozen, which solve
    # paid for rescanning them varied from run to run: families ran about 25%
    # slower and its quartile spread doubled.
    gc.collect()
    gc.freeze()

    answers = [Answers() for _ in instances]
    latencies: list[list[float]] = [[] for _ in instances]  # calibrated, per pass
    wall_s: list[float] = []  # uncalibrated solving time per untraced pass
    probe_s: list[float] = []  # median probe time per untraced pass
    traced = tracing.TracedPasses() if args.trace else None
    traced_s = 0.0
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(wall_s) < MIN_PASSES:
        wall, probe = untraced_pass(instances, answers, latencies)
        wall_s.append(wall)
        probe_s.append(probe)
        if traced:
            t = perf_counter()
            traced_pass(instances, answers, traced)
            traced_s += perf_counter() - t
        else:
            setups.append(set_up(generate, args.seed)[1])
    while not traced and len(setups) < SETUP_REPEATS:
        setups.append(set_up(generate, args.seed)[1])
    plain_passes = len(wall_s)
    # Untraced runs only, and before the references run, so that neither the
    # spans nor the references' allocations count.
    memory = [] if traced else list(range(0, len(instances), MEMORY_STRIDE))
    if memory:
        solve_peak_mb = memory_pass([instances[i] for i in memory],
                                    [answers[i] for i in memory])
    if threading.active_count() != 1:
        raise RuntimeError(f"{threading.active_count()} threads running, expected 1")

    failed, ref_s, shapes = check(args.workload, instances, answers)
    attempted = (plain_passes + (traced.passes if traced else 0)) * len(instances) + len(memory)
    print(f"workload {args.workload} seed {args.seed}: {describe(shapes)}")
    print(f"  why: {why}")
    print(f"  closed loop, 1 caller; {plain_passes} untraced passes in {sum(wall_s):.2f} s"
          + (f", {traced.passes} traced passes in {traced_s:.2f} s" if traced else "")
          + f", {len(memory)} solves under tracemalloc; references {ref_s:.2f} s")

    if traced:
        metrics = traced.metrics(
            overhead_ratio=traced_s / traced.passes / statistics.median(wall_s),
            potential_ve_ms=1e3 * ref_s if args.workload == "random_sweep" else 0.0)
        expected = spec["per_layer"]
    else:
        pass_s = [sum(lat[k] for lat in latencies) for k in range(plain_passes)]
        per_instance = [statistics.median(lat) for lat in latencies]
        q = statistics.quantiles(per_instance, n=10)
        beyond = sum(1 for x in per_instance if x > q[8])
        metrics = {
            "solves_per_s": (len(instances) / statistics.median(pass_s), "1/s"),
            "solve_ms_p50": (1e3 * statistics.median(per_instance), "ms"),
            "solve_ms_p90": (1e3 * q[8], "ms"),
            "solve_peak_mb": (solve_peak_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "correct_share": ((attempted - failed) / attempted, "ratio"),
        }
        print(f"  wall clock, uncalibrated: {len(instances) / statistics.median(wall_s):.6g} "
              f"solves/s median pass, {len(instances) / min(wall_s):.6g} fastest; probe "
              f"{', '.join(f'{1e3 * s:.4f}' for s in probe_s)} ms")
        print(f"  calibrated pass times {', '.join(f'{s:.3f}' for s in pass_s)} s; "
              f"latency: median of {plain_passes} per instance, {len(per_instance)} "
              f"samples, {beyond} beyond p90; set-up rounds "
              f"{', '.join(f'{s:.3f}' for s in setups)} s")
        expected = spec["end_to_end"]
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  failed_share {failed / attempted:.6g} ratio ({failed} of {attempted})")
    named = {m["name"] for m in expected}
    if set(metrics) != named:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ named)} "
                           "disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
