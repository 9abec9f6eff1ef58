"""Benchmark of ace, end to end (``--trace 0``) or per module (``--trace 1``).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: c4_resilient, set_strict_eval, bounds_sweep (see README.md).
A run is a closed loop: one caller, one process, one Python thread,
running the workload's ace command back to back. It runs one untimed
warm-up round, then timed rounds until their ace calls add up to
``--seconds``; every round's outputs are checked after the loop, and the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Intermediate files go to ``.perfbench_work/``
in the checkout.

With ``--trace 1`` the rounds alternate between wrapped (traced) and
plain; the first two traced rounds give the per-layer metrics, and
``trace.overhead`` is the median traced wall time over the median plain
one.
"""

import one_thread  # noqa: F401  (first: fixes the BLAS thread count before numpy loads)

import argparse
import csv
import gzip
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads
from reference import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
STATS_ROUNDS = 2  # traced rounds whose spans give the per-layer metrics
PROBE_TIMEOUT_S = 60
MODULES = ("ace.tensor", "ace.groups", "ace.layers", "ace.constraints", "ace.metrics",
           "ace.tasks", "ace.trainer", "ace.cli", "ace._binio")


@dataclass
class Round:
    k: int
    main: object  # workloads.OpResult
    traced: bool
    faults: list = field(default_factory=list)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter spends setting the workload up."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                          cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S, capture_output=True,
                          text=True)
    return float(done.stdout)


def play_rounds(wl, work: Path, seconds: float, traced_mode: bool, probe=None):
    """The closed loop. Returns (rounds, spans of the first traced rounds, probe times).

    ``probe`` (untraced runs only) is called SETUP_PROBES times, spread over
    the run so that their median does not hang on one moment of the machine.
    """
    tracer = spans.Tracer()
    wrappers = spans.Instrumentation(tracer, MODULES)
    rounds, stats, probes = [], None, []

    def play(k: int, traced: bool) -> Round:
        out = work / f"r{k}"
        argv = wl.main_argv(k, out)
        if traced:
            wrappers.install()
        try:
            main = workloads.invoke(argv, out)
        finally:
            if traced:
                wrappers.remove()
        faults = [workloads.invoke(a, d, quiet=True) for a, d in wl.fault_argvs(work / f"f{k}")]
        return Round(k, main, traced, faults)

    rounds.append(play(0, False))  # warm-up: checked and counted, not timed
    timed, k = 0.0, 1
    while True:
        if probe and len(probes) < SETUP_PROBES and timed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        n_traced = sum(r.traced for r in rounds)
        n_plain = len(rounds) - 1 - n_traced
        if timed >= seconds and (not traced_mode or (n_traced >= STATS_ROUNDS and n_plain >= 1)):
            break
        traced = traced_mode and k % 2 == 1
        if traced and n_traced >= STATS_ROUNDS:
            tracer.reset()  # later traced rounds only count towards trace.overhead
        rounds.append(play(k, traced))
        if traced and n_traced + 1 == STATS_ROUNDS:
            stats = tracer.spans
        timed += rounds[-1].main.wall
        k += 1
    while probe and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return rounds, stats, probes


def check_rounds(wl, rounds):
    """(correct, attempted, failed) after every output check."""
    correct, attempted, failed, good = True, 0, 0, []
    for r in rounds:
        attempted += 1 + len(r.faults)
        if not r.main.ok:
            failed += 1
            print(f"round {r.k}: operation failed: {r.main.error or r.main.stderr.strip()}",
                  file=sys.stderr)
        else:
            try:
                wl.check_main(r.main, r.k)
                good.append(r.main)
            except CheckError as exc:
                correct = False
                print(f"round {r.k}: check failed: {exc}", file=sys.stderr)
        for f in r.faults:
            try:
                wl.check_fault(f)
            except CheckError as exc:
                failed += 1
                if r.k == 0:
                    print(f"known fault operation failed: {exc}", file=sys.stderr)
    try:
        wl.check_all(good)
    except CheckError as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    return correct, attempted, failed


def end_to_end(wl, rounds, probes) -> dict:
    """Medians over the timed rounds and the set-up probes; RSS before any check runs."""
    timed = [r.main for r in rounds[1:]]
    done = [m for m in timed if m.ok]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (statistics.median(m.wall for m in timed), "s"),
        "throughput_per_s": (statistics.median(wl.throughput(m) for m in done) if done else 0.0,
                             "1/s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }


def per_layer(wl, rounds, stats, seed: int, work: Path) -> dict:
    metrics = spans.layer_metrics(stats)
    metrics.update({k: (v, "ms") for k, v in workloads.layer_fwdbwd_ms(seed).items()})
    first = next(r for r in rounds if r.traced)
    ckpt = first.main.out_dir / "checkpoint.bin"
    metrics["binio.checkpoint_bytes"] = (ckpt.stat().st_size if ckpt.is_file() else 0, "bytes")
    traced = statistics.median(r.main.wall for r in rounds[1:] if r.traced)
    plain = statistics.median(r.main.wall for r in rounds[1:] if not r.traced)
    metrics["trace.overhead"] = (traced / plain, "ratio")
    write_spans(stats, work.parent / f"spans-{wl.name}.csv.gz")
    print("self time by span (first traced rounds): name calls total_ms self_ms", file=sys.stderr)
    for name, calls, total, own in spans.self_time_table(stats)[:15]:
        print(f"  {name} {calls} {total:.1f} {own:.1f}", file=sys.stderr)
    return metrics


def write_spans(stats, path: Path) -> None:
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "start_s", "end_s", "parent"])
        for i, s in enumerate(stats):
            out.writerow([i, s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.parent])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("c4_resilient", "set_strict_eval", "bounds_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ace" / "__init__.py").is_file():
        print(f"no ace sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.make(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = None if args.trace else (lambda: probe_setup(args.workload, args.seed))
    rounds, stats, probes = play_rounds(wl, work, args.seconds, bool(args.trace), probe)
    if args.trace:
        metrics = per_layer(wl, rounds, stats, args.seed, work)
    else:
        metrics = end_to_end(wl, rounds, probes)
    correct, attempted, failed = check_rounds(wl, rounds)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
