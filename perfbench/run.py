"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload dds_strong --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json``: the median untraced evaluation time and the median set-up
time of fresh interpreters (both scaled to reference host speed by the
kernel of ``calibrate.py``), the process's peak RSS and the largest
intermediate state space.  With ``--trace 1`` it alternates untraced and
traced evaluations and reports the per-layer metrics of the traced
evaluation with the median wall time, plus the tracing overhead.  Every
evaluation's outputs are checked bit for bit against the pinned values of
:mod:`workloads`; a mismatch or an exception counts as a failed attempt and
its time is never reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record —
environment, inputs, every sample and (traced) the spans — is written to
``.bench_out/<workload>/seed<seed>-trace<t>.json`` under the checkout, the
input of ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: The evaluations run serially; pinning the BLAS pools to one thread keeps
#: them from competing with the process for the machine's cores.  Set before
#: numpy is imported; an explicit setting in the environment wins.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, check  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 3
#: Evaluation rounds per run, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Seconds the calibration kernel (``calibrate.py``) takes on the reference
#: host at full speed.  On a shared virtual machine the whole host slows by
#: up to ~60 % for minutes at a time.  ``setup_s`` and ``eval_s`` are scaled
#: by (this / the kernel's median time next to their samples) ** exponent,
#: so they report the time at reference speed.  The raw wall times stay in
#: the record.
CALIBRATION_REFERENCE_S = 0.12
#: The pipeline slows less than the kernel in a slow phase: the log-log
#: slope of evaluation time on kernel time was 0.72 and 0.83 over ten runs
#: each of ``dds_strong`` and ``dds_branching`` on the reference host.
CALIBRATION_EXPONENT = 0.75

PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
    "workloads.WORKLOADS[{name!r}].build({seed})"
)


class CheckoutError(Exception):
    """The directory holds no source tree to benchmark."""


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no source tree at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise CheckoutError(f"repro was imported from {repro.__file__}, not {SRC}")


def metric_table() -> dict[str, dict[str, list]]:
    """``BENCHMARK.json``'s metric lists: names and units, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: spec[key] for key in ("end_to_end", "per_layer")}


# --------------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    completed = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------- #
# measurements
# --------------------------------------------------------------------------- #
def setup_seconds(workload: Workload, seed: int) -> float:
    """Wall time of a fresh interpreter importing repro and building inputs."""
    code = PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=workload.name, seed=seed)
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
    return elapsed


class Calibrator:
    """The calibration kernel of ``calibrate.py``, in a child process."""

    def __enter__(self) -> "Calibrator":
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        return self

    def seconds(self) -> float:
        """Run the kernel once and return its wall time."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        return float(line)

    def __exit__(self, *exc_info) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def at_reference_speed(samples: list[float], calibration: list[float]) -> float:
    """Median of ``samples`` scaled to a host at reference speed."""
    speed = CALIBRATION_REFERENCE_S / statistics.median(calibration)
    return statistics.median(samples) * speed**CALIBRATION_EXPONENT


def warm_up(reduction: str) -> None:
    """Run the quickstart model once so lazy imports finish before timing."""
    from repro import ArcadeEvaluator, quickstart_model

    evaluator = ArcadeEvaluator(quickstart_model(), reduction=reduction)
    evaluator.availability()
    evaluator.reliability(1000.0)


def evaluate(workload: Workload, seed: int, traced: bool) -> dict:
    """One evaluation: build, time the measures, check them, observe counters.

    Returns ``seconds`` (``None`` when the evaluation failed), ``error``,
    ``outputs``, ``observed`` and, traced, the ``spans``.
    """
    tracer = tracing.Tracer() if traced else None
    try:
        built = workload.build(seed)
        gc.collect()
        started = time.perf_counter()
        if tracer is None:
            outputs = workload.measure(built)
        else:
            with tracer.installed(), tracer.span(tracing.ROOT):
                outputs = workload.measure(built)
        elapsed = time.perf_counter() - started
        observed = workload.observe(built)
    except Exception as error:  # a failed evaluation is counted, not fatal
        return {"seconds": None, "error": f"{type(error).__name__}: {error}"}
    mismatches = check(outputs, workload.pinned)
    if tracer is not None:
        elapsed = tracer.spans[0].duration
    return {
        "seconds": None if mismatches else elapsed,
        "error": "; ".join(mismatches) or None,
        "outputs": outputs,
        "observed": observed,
        "spans": tracer.spans if tracer is not None else None,
        "origin": started,
    }


def per_layer_metrics(traced: list[dict], untraced_median: float) -> tuple[dict, dict]:
    """The breakdown of the traced evaluation with the median wall time."""
    ordered = sorted(traced, key=lambda outcome: outcome["seconds"])
    chosen = ordered[(len(ordered) - 1) // 2]
    metrics = tracing.layer_metrics(chosen["spans"])
    cache = chosen["observed"]["cache"]
    states_in = metrics["lumping.states_in"]
    metrics.update(
        {
            "traced.eval_s": chosen["seconds"],
            "tracing.overhead_s": statistics.median(o["seconds"] for o in traced)
            - untraced_median,
            "composer.cache.hits": cache["hits"],
            "composer.cache.misses": cache["misses"],
            "composer.cache.hit_rate": cache["hit_rate"],
            "lumping.yield": metrics["lumping.states_out"] / states_in if states_in else 0.0,
        }
    )
    return metrics, chosen


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Measure one workload; returns the full record (see the module doc)."""
    import_library()
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    warm_up(inputs["reduction"])
    setup: list[float] = []
    calibration: dict[str, list[float]] = {"setup_s": [], "eval_s": []}
    untraced: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    rounds = 0
    with Calibrator() as calibrator:
        for _ in range(1 if quick else SETUP_PROBES):
            calibration["setup_s"].append(calibrator.seconds())
            setup.append(setup_seconds(workload, seed))

        deadline = time.perf_counter() + seconds
        while True:
            round_started = time.perf_counter()
            for is_traced in ((False, True) if trace else (False,)):
                if not is_traced:
                    calibration["eval_s"].append(calibrator.seconds())
                outcome = evaluate(workload, seed, is_traced)
                if outcome["seconds"] is None:
                    errors.append(outcome["error"])
                else:
                    (traced if is_traced else untraced).append(outcome)
            rounds += 1
            # Stop when another round like the last would overrun the budget.
            finished = time.perf_counter()
            if quick or (rounds >= MIN_ROUNDS and 2 * finished - round_started > deadline):
                break

    attempted = rounds * (2 if trace else 1)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "quick": quick,
        "environment": environment(),
        "inputs": inputs,
        "errors": errors,
        "samples": {
            "setup_s": setup,
            "eval_s": [outcome["seconds"] for outcome in untraced],
            "traced.eval_s": [outcome["seconds"] for outcome in traced],
        },
        "calibration_s": calibration,
    }
    record["error_rate"] = len(errors) / attempted
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors)}
    if not untraced or (trace and not traced):
        record["result"] = {**result, "metrics": {}}
        return record

    eval_median = statistics.median(record["samples"]["eval_s"])
    values = {
        "eval_s": at_reference_speed(record["samples"]["eval_s"], calibration["eval_s"]),
        "setup_s": at_reference_speed(setup, calibration["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "peak_states": max(o["observed"]["peak_states"] for o in untraced),
        "error_rate": record["error_rate"],
    }
    record["outputs"] = untraced[-1]["outputs"]
    if trace:
        layers, chosen = per_layer_metrics(traced, eval_median)
        values.update(layers)
        record["spans"] = tracing.spans_as_records(chosen["spans"], chosen["origin"])
    wanted = metric_table()["per_layer" if trace else "end_to_end"]
    record["result"] = {
        **result,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    return record


def write_record(record: dict, out_dir: Path) -> Path:
    path = out_dir / record["workload"] / f"seed{record['seed']}-trace{record['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: one set-up probe and one evaluation round",
    )
    parser.add_argument("--out", type=Path, default=OUT_DIR, help="record directory")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    path = write_record(record, args.out)
    for line in record["errors"]:
        print(f"perfbench: failed evaluation: {line}", file=sys.stderr)
    print(f"perfbench: record written to {path}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
