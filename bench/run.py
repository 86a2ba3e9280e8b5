"""cliquecav benchmark: whole-CLI end-to-end runs and a traced per-layer run.

    python3 bench/run.py --workload betti|cavities|census|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

--trace 0 runs the workload's jobs as users do: one `cliquecav` process per
job, one job at a time (a closed loop with a single client), and reports
setup_s, pass_s and peak_rss_mb. --trace 1 runs the same jobs in-process,
alternating untraced and traced passes, and reports per-layer times and
counts plus trace.overhead_s. Every job's output is checked in both modes.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. A record of the run (inputs,
environment, per-job times and stdout sha256) and, for traced runs, the
spans are written under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import jobs as workloads
import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3  # set-up and host-speed probes before the window
PROBE_EVERY_S = 2.0  # and one pair after the first job that ends this long after the last
SPEED_REF_S = 0.15  # host-speed probe time that end-to-end times are scaled to
JOB_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # no job starts, or keeps running, past this point


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class Clock:
    def __init__(self) -> None:
        self.start = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def left(self) -> float:
        return HARD_LIMIT_S - self.elapsed()


def _finish(job: workloads.Job, stdout: bytes, rc: int, seconds: float,
            rss_mb: float | None, note: str | None) -> dict:
    """Save, check and summarize one job's outcome."""
    problems = [note] if note else []
    if rc != job.expect_rc:
        problems.append(f"exit code {rc}, expected {job.expect_rc}")
    if job.stdout_to is not None:
        job.stdout_to.write_bytes(stdout)
    try:
        problems += job.check(stdout.decode("utf-8", "replace"))
    except Exception as exc:  # a malformed document is a wrong output
        problems.append(f"check failed on the output: {exc!r}")
    cache_bytes = job.fresh.stat().st_size if job.fresh and job.fresh.exists() else 0
    return {"job": job.name, "kind": job.kind, "s": seconds, "rss_mb": rss_mb, "rc": rc,
            "sha256": hashlib.sha256(stdout).hexdigest(), "cache_bytes": cache_bytes,
            "problems": problems}


class ProcessRunner:
    """One child process per job, as the `cliquecav` console script runs."""

    def __init__(self, work: Path, clock: Clock) -> None:
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CLIQUECAV_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.stderr_path = work / "stderr.txt"
        self.clock = clock

    def run(self, job: workloads.Job) -> dict:
        timeout = min(JOB_TIMEOUT_S, self.clock.left())
        if timeout <= 0:
            return _finish(job, b"", -1, 0.0, None, "not started: run time limit reached")
        if job.fresh is not None:
            job.fresh.unlink(missing_ok=True)
        killed = threading.Event()
        with open(self.stderr_path, "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", job.code, *job.args], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                stdout = proc.stdout.read()
                # wait4, not wait: it also returns the child's max RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            seconds = perf_counter() - start
            proc.returncode = rc = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-300:].decode("utf-8", "replace").strip()
        note = f"killed after {timeout:.0f} s" if killed.is_set() else None
        result = _finish(job, stdout, rc, seconds, usage.ru_maxrss / 1024, note)
        if result["problems"] and tail:
            result["problems"].append(f"stderr: {tail}")
        return result


class InProcessRunner:
    """Calls cliquecav.cli.main in this process, so a Tracer can see the layers."""

    def __init__(self) -> None:
        spans.ensure_package(ROOT / "src")
        for key in [k for k in os.environ if k.startswith("CLIQUECAV_")]:
            del os.environ[key]
        self.cli = sys.modules["cliquecav.cli"]
        self.tracer: spans.Tracer | None = None

    def run(self, job: workloads.Job) -> dict:
        if job.fresh is not None:
            job.fresh.unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.job = job.name
        out, err = io.StringIO(), io.StringIO()
        note = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(job.args))  # looked up per call: may be traced
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc, note = -1, "raised: " + traceback.format_exc(limit=3)
        seconds = perf_counter() - start
        return _finish(job, out.getvalue().encode("utf-8"), rc, seconds, None, note)


def run_pass(runner, wl: workloads.Workload, after_job=None) -> tuple[float, list[dict]]:
    """Run every job once; the pass time is the sum of the job wall times."""
    results = []
    for job in wl.jobs:
        results.append(runner.run(job))
        if after_job is not None:
            after_job()
    return sum(r["s"] for r in results), results


def keep_passing(window: Clock, seconds: float, walls: list[float], run: Clock) -> bool:
    """Another pass fits in the measuring window (the first always runs)
    and, at twice the slowest pass so far, within the run's time limit."""
    if not walls:
        return True
    return window.elapsed() + statistics.mean(walls) <= seconds and run.left() > 2 * max(walls)


def measure_end_to_end(wl, work: Path, seconds: float):
    runner = ProcessRunner(work, Clock())
    runner.run(wl.setup)  # untimed: writes the bytecode cache, as an install would
    setup, speed = [], []

    def probes() -> None:
        setup.append(runner.run(wl.setup))
        speed.append(runner.run(wl.speed))

    for _ in range(SETUP_SAMPLES):
        probes()
    last_probe = perf_counter()

    def probe() -> None:
        # host speed drifts over seconds, so it is probed across the window
        nonlocal last_probe
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probes()
            last_probe = perf_counter()

    window = Clock()
    passes, walls = [], []
    while keep_passing(window, seconds, walls, runner.clock):
        wall, results = run_pass(runner, wl, probe)
        walls.append(wall)
        passes.append(results)
    samples = {
        "setup_raw_s": [r["s"] for r in setup],
        "pass_raw_s": walls,
        "search_raw_s": [sum(r["s"] for r in p if r["kind"] == "search") for p in passes],
        "recheck_raw_s": [sum(r["s"] for r in p if r["kind"] == "recheck") for p in passes],
        "speed_probe_s": [r["s"] for r in speed],
        "peak_rss_mb": [max(r["rss_mb"] or 0.0 for r in results) for results in passes],
    }
    # wall times at the reference host speed: raw median x reference / probe median
    scale = SPEED_REF_S / statistics.median(samples["speed_probe_s"])
    values = {name.replace("_raw", ""): statistics.median(v) * scale
              for name, v in samples.items() if "_raw_" in name}
    values["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    return values, samples, setup + speed + [r for p in passes for r in p], passes


def measure_traced(wl, work: Path, seconds: float):
    clock = Clock()
    runner = InProcessRunner()
    untraced, traced, tracers, passes = [], [], [], []
    while keep_passing(clock, seconds, [a + b for a, b in zip(untraced, traced)], clock):
        wall, results = run_pass(runner, wl)
        untraced.append(wall)
        passes.append(results)
        tracer = runner.tracer = spans.Tracer()
        tracer.install()
        try:
            wall, results = run_pass(runner, wl)
        finally:
            tracer.uninstall()
            runner.tracer = None
        traced.append(wall)
        passes.append(results)
        tracer.counts["cliques.cache_bytes"] = sum(r["cache_bytes"] for r in results)
        tracers.append(tracer)
    with open(work.parent / f"{work.name}.spans.jsonl", "w", encoding="utf-8") as f:
        for i, tracer in enumerate(tracers):
            tracer.write(f, i)
    per_layer = declared_metrics("per_layer")
    samples = {name: [] for name in per_layer}
    for tracer in tracers:
        values = {**tracer.times(), **tracer.counts}
        solutions, certs = values.get("solver.solutions", 0), values.get("cavities.certificates", 0)
        enum_s = values.get("cliques.enumerate_cliques.s", 0.0)
        values["cliques.per_s"] = values.get("cliques.count", 0) / enum_s if enum_s else 0.0
        values["cavities.rejected"] = solutions - certs
        values["cavities.accept_ratio"] = certs / solutions if solutions else 0.0
        for name in per_layer:
            samples[name].append(values.get(name, 0))
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, samples, [r for p in passes for r in p], passes


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "loadavg_before": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    base = ROOT / ".bench_work"
    work = base / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    try:
        wl = workloads.build(name, seed, ROOT, work, smoke)
        measure = measure_traced if trace else measure_end_to_end
        values, samples, results, passes = measure(wl, work, seconds)
        units = declared_metrics("per_layer" if trace else "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # outputs must not change between passes: the program is deterministic
    first = {r["job"]: r["sha256"] for r in passes[0]}
    for results_of_pass in passes[1:]:
        for r in results_of_pass:
            if r["sha256"] != first[r["job"]]:
                r["problems"].append("stdout differs from the first pass")
    failed = [r for r in results if r["problems"]]
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}

    print(f"== workload {name}  seed {seed}  trace {int(trace)}  smoke {int(smoke)}")
    print("env " + json.dumps(env, sort_keys=True))
    for rec in wl.inputs:
        print("input " + json.dumps(rec, sort_keys=True))
    for metric, value in values.items():
        if metric in units or value:
            print(f"metric {metric} = {value:.6g} {units.get(metric, 's')}")
    for series, v in samples.items():
        if any(v):
            print(f"sample {series}: median {statistics.median(v):.6g}, min {min(v):.6g}, "
                  f"max {max(v):.6g}, n {len(v)}")
    print(f"metric fail_share = {len(failed) / len(results):.6g} ({len(failed)} of "
          f"{len(results)} jobs failed)")
    for r in passes[0]:
        rss = f" rss {r['rss_mb']:.1f} MB" if r["rss_mb"] else ""
        print(f"job {r['job']} {r['s']:.3f} s{rss} rc {r['rc']} sha256 {r['sha256'][:16]}")
    for r in failed[:20]:
        print(f"FAILED {r['job']}: {'; '.join(r['problems'])}")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "env": env, "inputs": wl.inputs, "samples": samples,
              "metrics": metrics, "stdout_sha256": first,
              "passes": passes}
    (base / f"{work.name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": not failed, "attempted": len(results), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring window per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for the smoke test")
    args = parser.parse_args(argv)
    needed = ("BENCHMARK.json", "src/cliquecav/cli.py", "data/sample14.edges")
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a cliquecav checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), args.smoke)
               for n in names}
    if len(results) == 1:
        out = results[args.workload]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
