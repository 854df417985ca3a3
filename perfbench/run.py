#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]
  python3 perfbench/run.py --selftest

W is one of model-resnet18, kernels, serve-mix.  One workload prints a
text report whose last line is the JSON result; `all` runs the three in
turn and ends with a table of the headline figures.  The benchmark is
built with dune from the sources in the checkout; everything a run
writes stays under the checkout (.perfbench/ and _build/).  See
perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

WORKLOADS = ["model-resnet18", "kernels", "serve-mix"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170
# setup_s is the median over this many cold set-ups, each in a fresh
# process: the measured run's own and SETUP_SAMPLES - 1 set-up-only runs.
SETUP_SAMPLES = 5

# The headline figures `all` collects, with the workloads they belong to.
HEADLINE = [
    ("setup_s", WORKLOADS),
    ("compile_s", WORKLOADS),
    ("infer_s", ["model-resnet18"]),
    ("kernel_compiled_ms", ["kernels"]),
    ("kernel_emitted_ms", ["kernels"]),
    ("latency_p50_ms", ["serve-mix"]),
    ("latency_p99_ms", ["serve-mix"]),
    ("warm_latency_p99_ms", ["serve-mix"]),
    ("throughput_rps", ["serve-mix"]),
    ("failed_ratio", WORKLOADS),
    ("peak_rss_mb", WORKLOADS),
]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            die("run from the root of a full checkout (%s is missing)" % needed)
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    rc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    ).returncode
    if rc != 0:
        die("build failed (dune exit %d)" % rc, rc)


def run_exe(args, capture=False, deadline=None):
    """Run the benchmark binary in a fresh scratch directory; return
    (exit code, stdout text or None).  The binary is told when it was
    launched (--t0, on the monotonic clock it reads too), so its set-up
    time runs from process start."""
    run_dir = os.path.join(".perfbench", "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ)
    # the emitted engine's compiler scratch (and ocamlopt's own) stays
    # inside the checkout
    env["TMPDIR"] = os.path.abspath(tmp)
    if deadline is None:
        deadline = time.monotonic() + RUN_TIMEOUT_S
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [EXE] + args + ["--dir", run_dir, "--t0", repr(t0)],
        env=env,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, out


def measured_run(workload, seed, seconds, trace, capture=False):
    """One measured run.  With tracing off, SETUP_SAMPLES - 1 set-up-only
    processes go first and hand their set-up figures, and how many of
    their checks failed, to it."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    args = ["--workload", workload, "--seed", str(seed)]
    if trace == 0:
        samples = []
        for _ in range(SETUP_SAMPLES - 1):
            rc, out = run_exe(args + ["--setup-only"], capture=True, deadline=deadline)
            if rc != 0:
                die("%s set-up exited %d" % (workload, rc), rc)
            samples.append(out.strip().splitlines()[-1])
        args += ["--setup-samples", ",".join(samples)]
    args += ["--seconds", str(seconds), "--trace", str(trace)]
    return run_exe(args, capture=capture, deadline=deadline)


METRIC_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?) (\S+)")


def run_all(seed, seconds):
    figures = {}
    correct = True
    for w in WORKLOADS:
        rc, out = measured_run(w, seed, seconds, 0, capture=True)
        sys.stdout.write(out)
        if rc != 0:
            die("%s exited %d" % (w, rc), rc)
        result = json.loads(out.strip().splitlines()[-1])
        correct = correct and result["correct"]
        figures[w] = {}
        for line in out.splitlines():
            mt = METRIC_LINE.match(line)
            if mt:
                figures[w].setdefault(mt.group(1), (float(mt.group(2)), mt.group(3)))
    print("\nheadline (seed %d, %s s per workload)" % (seed, seconds))
    print("  %-26s" % "metric" + "".join("%18s" % w for w in WORKLOADS))
    for name, owners in HEADLINE:
        cells = []
        unit = ""
        for w in WORKLOADS:
            if w in owners and name in figures[w]:
                value, unit = figures[w][name]
                cells.append("%18.4f" % value)
            else:
                cells.append("%18s" % "-")
        print("  %-26s" % ("%s [%s]" % (name, unit)) + "".join(cells))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload or --selftest is required")
    build()
    if a.selftest:
        rc, _ = run_exe(["--selftest"])
        return rc
    if a.workload == "all":
        return run_all(a.seed, a.seconds)
    rc, _ = measured_run(a.workload, a.seed, a.seconds, a.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
