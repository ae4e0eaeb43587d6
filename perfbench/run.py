#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/bench.ml).

Run from the root of a checkout:

  python3 perfbench/run.py --workload compile --seed 1 --seconds 40 --trace 0

builds bench.exe with dune, runs it, and passes its standard output
through; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. BENCHMARK.json gates the `compile` and `execute`
workloads; `simulate` runs the same way but is not gated. Two more modes:

  python3 perfbench/run.py --report 10 [--workloads compile,simulate] [--seconds 40]
      runs each workload (by default those of BENCHMARK.json) ten times with
      seeds 1..10 and prints, per metric, the median, quartiles and spreads,
      and checks that the exact counts repeat: the evidence behind the
      bounds in BENCHMARK.json.

  python3 perfbench/run.py --self-test
      checks that the output names every metric of BENCHMARK.json with its
      unit, and that a wrong expected output makes operations fail.

Everything the build and the runs write stays inside the checkout: dune's
`_build` and `.perfbench/`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORK = ".perfbench"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    # Users run with the runtime's default GC settings.
    env.pop("OCAMLRUNPARAM", None)
    # Keep dune's cache and temporary files, and the runtime-events ring
    # of traced runs, inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(WORK, "cache"))
    env["TMPDIR"] = os.path.abspath(os.path.join(WORK, "tmp"))
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(WORK)
    return env


def run_child(cmd, timeout, capture):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        env=child_env(),
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s did not finish within %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a dsexpand checkout (no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    for d in (WORK, os.path.join(WORK, "tmp"), os.path.join(WORK, "cache")):
        os.makedirs(d, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"]
    with open(os.devnull) as devnull:
        proc = subprocess.Popen(
            cmd, env=child_env(), stdin=devnull, stdout=sys.stderr, start_new_session=True
        )
        try:
            code = proc.wait(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die("build did not finish within %d s" % BUILD_TIMEOUT_S)
    if code != 0:
        die("build failed")


def bench(workload, seed, seconds, trace, expected_dir=None):
    """One run of bench.exe: (exit code, stdout lines, result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if expected_dir is not None:
        cmd += ["--expected-dir", expected_dir]
    code, out = run_child(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, lines, result


def printed_metrics(lines):
    """The `  name value unit` lines bench.exe prints before its result."""
    values = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                values[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return values


def load_contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# Counts that must repeat exactly in every run of a workload: the
# generated code everywhere, the simulated cycles, and the allocation of
# the workloads that run on one domain.
EXACT = {
    "compile": ["code_bytes", "alloc_mwords"],
    "execute": ["code_bytes"],
    "simulate": ["code_bytes", "sim_cycles", "alloc_mwords"],
}


def report(args):
    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    ok = True
    workloads = args.workloads or ",".join(w["name"] for w in load_contract()["workloads"])
    for workload in workloads.split(","):
        runs = []
        for i in range(args.report):
            seed = args.first_seed + i
            code, lines, result = bench(workload, seed, args.seconds, 0)
            if result is None:
                print("%s seed %d: no result (exit %d)" % (workload, seed, code))
                ok = False
                continue
            values = printed_metrics(lines)
            values["failed"] = (float(result["failed"]), "ops")
            values["attempted"] = (float(result["attempted"]), "ops")
            if not result["correct"]:
                ok = False
            runs.append(values)
            print("%s seed %d: %s" % (workload, seed, json.dumps(result["metrics"])), flush=True)
        if not runs:
            continue
        attempted = sum(r["attempted"][0] for r in runs)
        failed = sum(r["failed"][0] for r in runs)
        print("\n%s: %d runs of %g s, %d operations, fail_ratio %g"
              % (workload, len(runs), args.seconds, attempted, failed / max(attempted, 1)))
        print("  %-22s %12s %12s %12s %8s %8s %8s %s"
              % ("metric", "median", "q1", "q3", "iqr%", "range%", "bound%", "unit"))
        for name in runs[0]:
            if name in ("failed", "attempted"):
                continue
            vals = [r[name][0] for r in runs if name in r]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med * 100 if med else 0.0
            rng = (max(vals) - min(vals)) / med * 100 if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound * 100 / 3:
                flag = "  spread above a third of the bound"
            if name in EXACT.get(workload, []) and len(set(vals)) > 1:
                flag = "  NOT EXACT"
                ok = False
            print("  %-22s %12.6g %12.6g %12.6g %8.2f %8.2f %8s %s%s"
                  % (name, med, q1, q3, iqr, rng,
                     "" if bound is None else "%g" % (bound * 100), runs[0][name][1], flag))
    return 0 if ok else 1


def self_test():
    contract = load_contract()
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            failures.append(what)

    def names_and_units(result, specs):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in specs}
        return got == want

    _, _, clean = bench("compile", 1, 1, 0)
    expect(clean is not None and clean["correct"] and clean["failed"] == 0,
           "a clean run is correct")
    expect(clean is not None and names_and_units(clean, contract["end_to_end"]),
           "an untraced run reports exactly the end-to-end metrics, with their units")

    wrong = os.path.join(WORK, "selftest-expected")
    shutil.rmtree(wrong, ignore_errors=True)
    shutil.copytree(os.path.join("perfbench", "expected"), wrong)
    with open(os.path.join(wrong, "md5.out"), "a") as f:
        f.write("not md5's output\n")
    _, _, bad = bench("compile", 1, 1, 0, expected_dir=wrong)
    fail_ratio = bad["failed"] / bad["attempted"] if bad else 0.0
    expect(bad is not None and 0 < fail_ratio < 1 and not bad["correct"],
           "a wrong expected output for md5 fails md5's operations only "
           "(fail_ratio %g)" % fail_ratio)

    _, _, traced = bench("compile", 1, 1, 1)
    expect(traced is not None and traced["correct"]
           and names_and_units(traced, contract["per_layer"]),
           "a traced run reports exactly the per-layer metrics, with their units")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["compile", "execute", "simulate"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", type=int, metavar="N", help="steadiness report over N seeds")
    ap.add_argument("--workloads", help="comma-separated; default: those of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_test:
        return self_test()
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    if args.report:
        return report(args)
    if args.workload is None:
        die("--workload is required")
    code, lines, result = bench(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    if code != 0:
        return code
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
