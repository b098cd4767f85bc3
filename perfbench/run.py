"""Benchmark harness for strf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness imports strf from ``src/`` of the
tree it sits in, builds the workload's inputs from the seed, and calls the
entry point in a closed loop for about S seconds. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it measures an untraced
phase and then a traced phase of S/2 seconds each and reports the per-layer
metrics, including the tracing overhead between the two phases. Names and
units of both metric sets come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the machine facts, the load seen during the run and the workload's metrics
under their own names.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was

import numpy as np

import tracer as tracing
from tracer import perf
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
# CPU time of other processes during a run, as a share of all cores, above
# which the run is flagged; the harness's own file writes (kernel threads)
# reach about 0.1, one competing busy thread on two cores 0.5
FOREIGN_LOAD_SHARE = 0.2


def import_strf():
    """Import strf from this tree's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    strf = importlib.import_module("strf")
    if Path(strf.__file__).resolve().parent != ROOT / "src" / "strf":
        raise ImportError(f"strf was imported from {strf.__file__}, not from {ROOT / 'src'}")
    return strf


# -- machine facts and the load guard -----------------------------------------


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_within_nproc": threads is not None and threads <= nproc,
    }


def _machine_busy_s():
    """Busy CPU seconds of the whole machine since boot, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (sum(ticks) - ticks[3] - ticks[4]) / os.sysconf("SC_CLK_TCK")


class LoadGuard:
    """Load average before and after, and the CPU time other processes took
    while the run measured (machine busy time minus this process's own)."""

    def __init__(self):
        self.load_before = os.getloadavg()
        self.busy = _machine_busy_s()
        self.own = sum(os.times()[:4])
        self.wall = perf()

    def report(self) -> dict:
        busy = _machine_busy_s()
        own = sum(os.times()[:4]) - self.own
        wall = perf() - self.wall
        share = None
        if busy is not None and self.busy is not None and wall > 0:
            share = max(0.0, (busy - self.busy) - own) / (wall * (os.cpu_count() or 1))
        return {
            "load_before": self.load_before,
            "load_after": os.getloadavg(),
            "foreign_cpu_share": share,
            "foreign_load": share is not None and share > FOREIGN_LOAD_SHARE,
        }


# -- the closed loop -----------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def run_phase(workload, seconds: float, tally: Tally, tracer=None) -> list:
    """Call the entry point until about ``seconds`` have passed: another call
    starts only if a typical call still fits. Returns the calls that ran."""
    calls = []
    reference = workload.reference
    start = perf()
    while True:
        index = tracer.open(tracing.ROOT) if tracer is not None else None
        try:
            call = workload.call()
        except Exception:  # the program failed: count it and end the phase
            traceback.print_exc()
            tally.check(f"{workload.unit} call raised", False)
            break
        finally:
            if tracer is not None:
                tracer.close(index)
        calls.append(call)
        workload.last = call
        failures = [what for what, ok in call.checks if not ok]
        if reference.setdefault(call.key, call.fingerprint) != call.fingerprint:
            failures.append("result differs from the first call with the same input")
        tally.check(f"{workload.unit} {len(calls)}: {', '.join(failures)}", not failures)
        elapsed = perf() - start
        if elapsed + statistics.median(c.wall for c in calls) > seconds:
            return calls
    return calls


def end_to_end(workload, calls, tally) -> dict:
    units = [u for c in calls for u in c.units]
    setups = workload.setup_times or [c.setup for c in calls]
    return {
        "setup_s": statistics.median(setups),
        "unit_ms.p50": 1000.0 * float(np.percentile(units, 50)),
        "unit_ms.p90": 1000.0 * float(np.percentile(units, 90)),
        "clips_per_s": sum(c.clips for c in calls) / sum(c.wall for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": 1.0 - tally.failed / tally.attempted,
    }


def workload_named(workload, values, tally) -> dict:
    """The end-to-end values under the workload's own names, plus what its
    calls computed: name -> (value, unit)."""
    named = {"setup_s": (values["setup_s"], "s")}
    for key, (label, scale, unit) in workload.labels.items():
        named[label] = (values[key] * scale, unit)
    named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    named["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    for label, value, unit in workload.quality():
        named[label] = (value, unit)
    return named


def per_layer(tracer, calls, plain_calls) -> dict:
    """Per-layer metrics of the traced phase. ``*_ms`` values are per unit of
    the workload (train step, clip, retrieval pass); ``*_s`` values and the
    decode and forward counts are per call of the entry point."""
    self_s, bwd_s, incl_s = tracer.totals()
    counts = tracer.counts
    n_units = sum(len(c.units) for c in calls)
    n_calls = len(calls)

    def ms(seconds):
        return 1000.0 * seconds / n_units

    m = {}
    for name in ("kernels.conv_1x7x7", "kernels.conv_1x1x1", "kernels.conv_1x3x3",
                 "kernels.conv_3x1x1", "kernels.maxpool", "factorize.mix", "factorize.pool",
                 "factorize.gram", "factorize.softmax", "factorize.apply", "backbone.bn",
                 "losses.ce", "losses.triplet"):
        m[name + ".fwd_ms"] = ms(self_s[name])
        m[name + ".bwd_ms"] = ms(bwd_s[name])
    elementwise = ("backbone.relu", "backbone.block")
    m["backbone.elementwise.fwd_ms"] = ms(sum(self_s[n] for n in elementwise))
    m["backbone.elementwise.bwd_ms"] = ms(sum(bwd_s[n] for n in elementwise))
    conv_s = sum(self_s[n] + bwd_s[n] for n in self_s if n.startswith("kernels.conv_"))
    m["kernels.conv_gflop"] = counts["kernels.conv_flop"] / 1e9 / n_units
    m["kernels.conv_mbyte"] = counts["kernels.conv_bytes"] / 1e6 / n_units
    m["kernels.conv_gflops_rate"] = counts["kernels.conv_flop"] / 1e9 / conv_s if conv_s else 0.0
    m["tensor.nodes_per_step"] = counts["tensor.nodes"] / n_units
    m["tensor.backward_self_ms"] = ms(self_s["tensor.backward"])
    m["factorize.unit_ms"] = ms(incl_s["factorize.unit"])
    m["optim.step_ms"] = ms(self_s["optim.step"])
    m["synthdata.make_batch_ms"] = ms(self_s["synthdata.make_batch"])
    m["synthdata.load_s"] = self_s["synthdata.load"] / n_calls
    m["synthdata.frames_decoded"] = counts["synthdata.frames_decoded"] / n_calls
    m["evaluation.embed_s"] = incl_s["evaluation.embed"] / n_calls
    m["evaluation.forward_calls"] = counts["evaluation.forward_calls"] / n_calls
    forwards = counts["evaluation.forward_calls"]
    m["evaluation.clips_per_forward"] = counts["evaluation.clips"] / forwards if forwards else 0.0
    m["evaluation.distance_s"] = self_s["evaluation.distance"] / n_calls
    m["evaluation.rank_s"] = self_s["evaluation.rank"] / n_calls
    m["checkpoint.load_s"] = self_s["checkpoint.load"] / n_calls
    m["checkpoint.save_s"] = self_s["checkpoint.save"] / n_calls
    covered = sum(self_s[n] + bwd_s[n] for n in self_s if n != tracing.ROOT)
    wall = sum(s.end - s.start for s in tracer.spans if s.name == tracing.ROOT)
    m["trace.coverage"] = covered / wall
    traced = statistics.median(u for c in calls for u in c.units)
    untraced = statistics.median(u for c in plain_calls for u in c.units)
    m["trace.overhead_ratio"] = traced / untraced - 1.0
    return m


# -- entry ---------------------------------------------------------------------


def measure(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            spans_path: str | None = None):
    """Run one benchmark measurement. Returns (result, report, tracer or None);
    ``result`` is the object the last output line prints."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    strf = import_strf()
    pristine = tracing.snapshot(strf)
    facts = machine_facts()
    guard = LoadGuard()
    tally = Tally()
    tracer = None
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            cls = WORKLOADS[workload_name]
            workload = cls(strf, cls.SIZES[size], seed, workdir)
            for what, passed in workload.setup_checks:
                tally.check(what, passed)
            budget = seconds / 2 if trace else seconds
            tally.check("untraced run has nothing patched", tracing.snapshot(strf) == pristine)
            plain = run_phase(workload, budget, tally)
            tally.check("untraced run has nothing patched", tracing.snapshot(strf) == pristine)
            if trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer, strf):
                    calls = run_phase(workload, budget, tally, tracer)
                tally.check("traced run restored every patched name", tracing.snapshot(strf) == pristine)
            else:
                calls = plain
            if not plain or not calls:
                raise RuntimeError(f"no {workload.unit} of {workload_name} completed")
            values = per_layer(tracer, calls, plain) if trace else end_to_end(workload, plain, tally)
            named = {} if trace else workload_named(workload, values, tally)
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass
    if spans_path and tracer is not None:
        tracer.dump(spans_path)
    metrics_spec = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": facts, "load": guard.report(),
        "samples": {"calls": len(calls), "units": sum(len(c.units) for c in calls),
                    "unit": workload.unit},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    return result, report, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minute inputs, for the harness self-test")
    parser.add_argument("--spans", default=None, help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)
    try:
        result, report, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.size, args.spans)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if report["load"]["foreign_load"]:
        print(f"perfbench: warning: other processes took {report['load']['foreign_cpu_share']:.0%} "
              "of the machine's CPU during this run", file=sys.stderr)
    for name, entry in report["named"].items():
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
