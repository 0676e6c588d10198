"""rarl benchmark: one workload per run, closed loop, one fixed job per family.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs from the root of a source checkout and imports rarl from ``src/``. It
repeats rounds (one job per ambiguity family) for about T seconds, checks
every output, prints the run context and every metric with its unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over
rounds); with ``--trace 1`` rounds alternate untraced and traced, and the
metrics are the per-layer ones from the traced rounds. Exits non-zero, before
printing a result, if rarl cannot be imported from the checkout, and after
printing it if any check fails.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports are part of it

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from clock import IMPORT_REFERENCE_S, Clock, import_reference_seconds, normalised, sampling  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# A round is not started when it would end past this share of --seconds.
OVERRUN = 1.15


def import_program():
    """Import rarl from the checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "rarl", "__init__.py")):
        sys.exit(f"error: no rarl sources under {SRC}")
    sys.path.insert(0, SRC)
    import rarl

    if os.path.dirname(os.path.dirname(os.path.abspath(rarl.__file__))) != SRC:
        sys.exit(f"error: rarl imported from {rarl.__file__}, not from {SRC}")


def run_context(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def measure_setup(args) -> float:
    """Median set-up time of fresh interpreters: imports, instances, one warm-up per family.

    Each probe reports its own set-up time, which is normalised by the import
    reference (``clock.import_reference_seconds``) timed just before and after it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    raw, norm = [], []
    ref = import_reference_seconds()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd + ["--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        after = import_reference_seconds()
        raw.append(float(done.stdout.split()[-1]))
        norm.append(normalised(raw[-1], ref, after, IMPORT_REFERENCE_S))
        ref = after
    print(f"setup raw_s {' '.join(f'{t:.4f}' for t in raw)}")
    return statistics.median(norm)


def run_round(workload, tracer=None):
    """One job per family, each started when the previous one returns.

    Times are normalised seconds inside rarl calls (``clock.Clock``); the raw
    ones are kept for the printed round lines. Untraced rounds also sample the
    machine's speed inside long calls; traced rounds do not, so that no
    reference pass falls inside a layer span.
    """
    from tracer import FAMILY_CLASSES, installed

    times = {family: [] for family in workload.families}
    raw = {family: [] for family in workload.families}
    outputs = {family: [] for family in workload.families}
    errors = {family: [] for family in workload.families}
    clock = Clock()
    with installed(tracer) if tracer is not None else sampling(clock, FAMILY_CLASSES):
        for family in workload.round_order():
            wall0, norm0 = clock.wall, clock.norm
            try:
                outputs[family].append(workload.run(family, clock))
            except Exception as exc:  # a failed job counts its operations as failed
                errors[family].append(f"{type(exc).__name__}: {exc}")
            times[family].append(clock.norm - norm0)
            raw[family].append(clock.wall - wall0)
    return {
        "wall": clock.norm,
        "raw_wall": clock.wall,
        "times": times,
        "raw": raw,
        "outputs": outputs,
        "errors": errors,
        "tracer": tracer,
    }


def run_rounds(workload, seconds: float, trace: bool) -> list[dict]:
    """Rounds until --seconds is spent; traced runs alternate untraced and traced rounds."""
    from tracer import Tracer

    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload))
        if trace:
            rounds.append(run_round(workload, Tracer()))
        elapsed = time.perf_counter() - start
        step = elapsed / (len(rounds) // (2 if trace else 1))
        if elapsed >= seconds or elapsed + step > OVERRUN * seconds:
            return rounds


def check_rounds(workload, rounds) -> tuple[int, int, list[str]]:
    """Check the first job's outputs; every later job must reproduce them exactly."""
    attempted = failed = 0
    reasons: list[str] = []
    first: dict = {}
    for index, rnd in enumerate(rounds):
        for family in workload.families:
            n_ops = workload.ops(family)
            for error in rnd["errors"][family]:
                attempted += n_ops
                failed += n_ops
                reasons.append(f"round {index} {family}: {error}")
            for out in rnd["outputs"][family]:
                attempted += n_ops
                if family not in first:
                    n_failed, why = workload.check(family, out)
                    first[family] = (workload.fingerprint(out), n_failed)
                    reasons += [f"{family}: {msg}" for msg in why]
                    failed += n_failed
                elif workload.fingerprint(out) != first[family][0]:
                    failed += n_ops
                    reasons.append(f"round {index} {family}: result differs from the first job with the same seed")
                else:
                    failed += first[family][1]
    return attempted, failed, reasons


def end_to_end_metrics(rounds, workload, setup_s: float) -> dict:
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
    }
    for family in workload.families:
        metrics[f"wall_s.{family}"] = (statistics.median(t for r in rounds for t in r["times"][family]), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def tail_percentile(n: int) -> int | None:
    """Highest integer percentile with at least ten samples beyond it (nearest rank)."""
    for pct in range(99, 49, -1):
        if n - -(-pct * n // 100) >= 10:
            return pct
    return None


def op_time_lines(workload, rounds) -> list[str]:
    """Per-operation times from the traced rounds: p50, tail percentile, sample count."""
    import numpy as np

    lines = []
    for family in workload.families:
        samples = []
        for rnd in rounds:
            if rnd["tracer"] is not None:
                scale = rnd["wall"] / rnd["raw_wall"]  # raw span times to normalised seconds
                samples += [scale * dt for dt in rnd["tracer"].op_s.get(family, [])]
                for out in rnd["outputs"][family]:
                    samples += workload.op_seconds(out)
        if not samples:
            continue
        values = np.sort(np.asarray(samples))
        n = len(values)
        text = f"op_s.{family}: n={n} p50={values[-(-n // 2) - 1]:.6f}"
        pct = tail_percentile(n)
        text += f" p{pct}={values[-(-pct * n // 100) - 1]:.6f}" if pct else " (fewer than 20 samples: no tail percentile)"
        lines.append(text)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from layers import family_share_lines, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).setup()
        print(f"{time.perf_counter() - T0!r}")
        return 0

    setup_s = None if args.trace else measure_setup(args)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)  # harness output files
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        rounds = run_rounds(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, reasons = check_rounds(workload, rounds)
    correct = failed == 0

    print("context " + json.dumps(run_context(args.workload, args.seed)))
    for index, rnd in enumerate(rounds):
        times = " ".join(f"{family}={statistics.median(rnd['times'][family]):.6f}" for family in workload.families)
        raw = " ".join(f"{family}={statistics.median(rnd['raw'][family]):.6f}" for family in workload.families)
        kind = "traced" if rnd["tracer"] else "untraced"
        print(f"round {index} {kind} wall={rnd['wall']:.6f} {times} | raw wall={rnd['raw_wall']:.6f} {raw}")
    if args.trace:
        metrics, notes = layer_metrics(workload, rounds)
        reasons += notes
        correct = correct and not notes
        for line in op_time_lines(workload, rounds) + family_share_lines(rounds):
            print(line)
    else:
        metrics = end_to_end_metrics(rounds, workload, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for reason in reasons:
        print(f"FAILED {reason}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
