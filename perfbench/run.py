"""Benchmark of the franel CLI, run in process from the repository root.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0

Each pass runs the workload's job list through `franel.cli.main(argv)`,
one job at a time, and checks every job's result.  Passes repeat while
the next one is expected to end within `--seconds` (at least one runs).
Every end-to-end time is scaled to a reference host speed by
`calibration`, which times a fixed loop just before and after the work.
`wall_s` is the median over untraced passes of the job list's scaled time;
`setup_s` is the median of scaled set-ups timed before the first pass and
after every pass.
With `--trace 0` the last line of stdout holds the end-to-end metrics;
with `--trace 1` untraced and traced passes alternate and it holds the
per-layer metrics named in BENCHMARK.json.  A record of the run (seed,
git SHA, Python version, core count, per-pass times, failures) goes to
`perfbench/out/` and, as one JSON line, to stdout before the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_FIRST = 3  # set-ups timed before the first pass
SETUP_PER_PASS = 2  # and after each pass


def import_franel():
    """Import franel.cli afresh from this checkout's src/ only."""
    for name in [m for m in sys.modules
                 if m == "franel" or m.startswith("franel.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("franel.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError("franel was not imported from %s" % SRC)
    return cli


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "franel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, tiny=False, refs=None):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.refs = refs
        self.workdir = OUT / ("work-%d" % os.getpid())
        self.setup_times = []
        self.passes = []
        self.failures = []
        self.tracer = None
        self.loop_times = []  # calibration loop seconds around the jobs

    # -- set-up ------------------------------------------------------------

    def setup(self, reps=SETUP_FIRST):
        """Import, load references, make inputs: the set-up the passes use.

        `reps - 1` more set-ups are timed at once, and `time_setup` times
        further ones between passes, so that the median of `setup_times`
        spans the run rather than one moment of it.
        """
        with calibration.Clock() as clock:
            self.cli = import_franel()
            refs = self.refs or workloads.Refs.load()
            os.environ["SOURCE_DATE_EPOCH"] = refs.source_date_epoch
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            self.jobs = workloads.build(self.workload, self.seed, refs,
                                        self.workdir, self.tiny)
        self.setup_times.append(clock.scaled)
        self.pi_cache_clear = sys.modules["franel.bigfloat"].pi.cache_clear
        for _ in range(reps - 1):
            self.time_setup()

    def time_setup(self):
        """Time one more full set-up, then put back the one in use."""
        kept = {name: m for name, m in sys.modules.items()
                if name == "franel" or name.startswith("franel.")}
        probe = self.workdir.with_name(self.workdir.name + "-setup")
        with calibration.Clock() as clock:
            import_franel()
            refs = self.refs or workloads.Refs.load()
            shutil.rmtree(probe, ignore_errors=True)
            probe.mkdir(parents=True)
            workloads.build(self.workload, self.seed, refs, probe,
                            self.tiny)
        self.setup_times.append(clock.scaled)
        shutil.rmtree(probe, ignore_errors=True)
        for name in [m for m in sys.modules
                     if m == "franel" or m.startswith("franel.")]:
            del sys.modules[name]
        sys.modules.update(kept)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        shutil.rmtree(self.workdir.with_name(self.workdir.name + "-setup"),
                      ignore_errors=True)

    # -- jobs ----------------------------------------------------------------

    def run_job(self, index, job, pass_no, traced):
        """Run one command; returns its Outcome, failure reason and
        scaled seconds."""
        jobdir = self.workdir / ("j%d" % index)
        job.prepare(jobdir)
        argv = job.argv(jobdir)
        self.pi_cache_clear()
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        close = code = error = None
        # traced passes sample the loop only around the job, not in spans
        with calibration.Clock(None if traced
                               else calibration.PERIOD_S) as clock:
            if traced:
                close = self.tracer.root("cli.main", (pass_no, index))
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = self.cli.main(argv)
            except Exception:  # a crash is a failed job, not a failed run
                error = traceback.format_exc()
            finally:
                if close is not None:
                    close()
        seconds = clock.seconds
        self.loop_times += clock.loops
        outcome = workloads.Outcome(code, stdout.getvalue(),
                                    stderr.getvalue(), seconds, error)
        try:
            failure = job.check(outcome, jobdir)
        except Exception as exc:
            failure = "check raised %s: %s" % (type(exc).__name__, exc)
        if failure:
            self.failures.append({"pass": pass_no, "job": job.name,
                                  "reason": failure})
        return outcome, failure, clock.scaled

    def run_pass(self, traced):
        pass_no = len(self.passes)
        lo = len(self.tracer.spans) if traced else 0
        if traced:
            self.tracer.install()
        t0 = perf_counter()
        try:
            results = [self.run_job(i, job, pass_no, traced)
                       for i, job in enumerate(self.jobs)]
        finally:
            if traced:
                self.tracer.restore()
        record = {"traced": traced, "elapsed_s": perf_counter() - t0,
                  "raw_wall_s": sum(out.seconds for out, _, _ in results),
                  "wall_s": sum(sec for _, _, sec in results),
                  "commands": {}, "jobs": len(results),
                  "failed": sum(1 for _, fail, _ in results if fail)}
        for job, (_, _, sec) in zip(self.jobs, results):
            key = job.command + "_s"
            record["commands"][key] = record["commands"].get(key, 0.0) + sec
        if traced:
            record["span_range"] = (lo, len(self.tracer.spans))
            record["codes"] = [out.code for out, _, _ in results]
        self.passes.append(record)
        return record

    # -- measurement -----------------------------------------------------

    def measure(self, seconds, trace):
        """Run passes for about `seconds`; tracing alternates when on."""
        if trace:
            self.tracer = tracing.Tracer()
        start = perf_counter()
        traced = False
        while True:
            self.run_pass(traced)
            for _ in range(SETUP_PER_PASS):
                self.time_setup()
            done = {p["traced"] for p in self.passes}
            nxt = (not traced) if trace else False
            same = [p for p in self.passes if p["traced"] == nxt] \
                or self.passes
            expected = same[-1]["elapsed_s"]
            need = trace and done != {False, True}
            if not need and perf_counter() - start + expected > seconds:
                break
            traced = nxt

    def attempted(self):
        return sum(p["jobs"] for p in self.passes)

    def failed(self):
        return sum(p["failed"] for p in self.passes)

    def end_to_end(self):
        plain = [p for p in self.passes if not p["traced"]]
        return {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def commands(self):
        """Median scaled seconds per command over the untraced passes."""
        plain = [p for p in self.passes if not p["traced"]]
        return {key: statistics.median(p["commands"][key] for p in plain)
                for key in plain[0]["commands"]}

    def layer_metrics(self, record):
        """Per-layer metrics of one traced pass."""
        lo, hi = record["span_range"]
        spans = self.tracer.spans
        stats = tracing.aggregate(spans, lo, hi)
        out = {}
        for module, attr, _, counts in tracing.TARGETS:
            name = tracing.label(module, attr)
            st = stats.get(name, {})
            for key in ("calls", "total_s", "self_s") + counts:
                out["%s.%s" % (name, key)] = st.get(key, 0)
        root = stats.get("cli.main", {})
        out["cli.main.self_s"] = root.get("self_s", 0.0)
        out["cli.main.total_s"] = root.get("total_s", 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        nullspace = stats.get("linalg.fraction_free_nullspace", {})
        out["linalg.fraction_free_nullspace.useful_ratio"] = ratio(
            nullspace.get("useful", 0), nullspace.get("calls", 0))
        zb = stats.get("telescoper.zeilberger", {})
        out["telescoper.orders.useful_ratio"] = ratio(
            zb.get("solved", 0), zb.get("orders", 0))
        for s in (5, 6, 7):
            out["telescoper.zeilberger.s%d_s" % s] = 0.0
        solved_in = set()
        for rec in spans[lo:hi]:
            if rec[0] == "telescoper.zeilberger":
                solved_in.add(rec[4][1])
                key = "telescoper.zeilberger.s%s_s" % self.jobs[rec[4][1]].s
                if key in out and rec[5]["solved"]:
                    out[key] += rec[2] - rec[1]
        telescopes = [i for i, job in enumerate(self.jobs)
                      if job.command == "telescope"]
        hits = [i for i in telescopes
                if i not in solved_in and record["codes"][i] == 0]
        out["cli.cache.hit_ratio"] = ratio(len(hits), len(telescopes))
        out["cli.cache.recomputed"] = sum(
            1 for i in telescopes
            if i in solved_in and self.jobs[i].cache_seeded)
        return out

    def per_layer(self):
        traced = [p for p in self.passes if p["traced"]]
        per_pass = [self.layer_metrics(p) for p in traced]
        out = {key: statistics.median(m[key] for m in per_pass)
               for key in per_pass[0]}
        plain = self.end_to_end()["wall_s"]
        out["trace.overhead_ratio"] = statistics.median(
            p["wall_s"] for p in traced) / plain
        commands = self.commands()
        for command in workloads.COMMANDS:
            out["cli.main.%s_s" % command] = commands.get(command + "_s", 0.0)
        return out

    # -- reporting -------------------------------------------------------

    def record(self, metrics, seconds, trace):
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": seconds, "trace": trace, "tiny": self.tiny,
            "git_sha": git_sha(), "source_sha256": source_sha256(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "job_names": [job.name for job in self.jobs],
            "jobs": self.attempted(), "failed": self.failed(),
            "fail_ratio": self.failed() / self.attempted(),
            "setup_s": self.setup_times,
            "calibration": {"reference_s": calibration.REFERENCE_S,
                            "loop_s_median":
                                statistics.median(self.loop_times)},
            "passes": [{k: v for k, v in p.items()
                        if k not in ("span_range", "codes")}
                       for p in self.passes],
            "commands": self.commands(),
            "failures": self.failures[:50],
            "metrics": metrics,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.tracer.spans:
                fh.write(json.dumps(rec) + "\n")


def select(values, names):
    """The named metrics, with units, in BENCHMARK.json's order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "franel" / "cli.py").is_file():
        print("error: %s holds no franel package" % SRC, file=sys.stderr)
        return 2
    bench = spec()
    run = Run(args.workload, args.seed)
    try:
        run.setup()
        run.measure(args.seconds, bool(args.trace))
        if args.trace:
            metrics = select(run.per_layer(), bench["per_layer"])
        else:
            metrics = select(run.end_to_end(), bench["end_to_end"])
        OUT.mkdir(exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        record = run.record(metrics, args.seconds, args.trace)
        (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1))
        if args.trace:
            run.write_spans(OUT / (stem + ".spans.jsonl"))
    finally:
        run.cleanup()
    print(json.dumps(record))
    print(json.dumps({"correct": run.failed() == 0,
                      "attempted": run.attempted(), "failed": run.failed(),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
