"""hsfusion benchmark: one workload run, printed as metrics plus a JSON result line.

Run from the root of a checkout (the directory holding ``src/hsfusion``):

    python3 hsbench/run.py --workload acceptance64 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced round and the
tracing overhead. The last line of standard output is the JSON result;
details (samples, reference figures, environment) go to
``.hsbench_runs/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``...-spans.jsonl`` beside it.
"""

import os

# The measured processes use one BLAS thread; this must precede the numpy import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _load_program(root):
    """Import hsfusion from the checkout's src/, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hsfusion", "__init__.py")):
        sys.exit(f"hsbench: no src/hsfusion under {root}; run from the root of a checkout")
    sys.path.insert(0, src)
    mods = {}
    for name in ("cli", "degradation", "errors", "metrics", "solver", "tensorfile"):
        mods[name] = importlib.import_module("hsfusion." + name)
    if not os.path.abspath(mods["solver"].__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"hsbench: hsfusion was imported from {mods['solver'].__file__}, not {src}")
    return types.SimpleNamespace(**mods)


def environment(root):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds without the dict form of show_config
        blas_id = "unknown"
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": BLAS_THREADS,
        "git_revision": rev,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    # One core for the whole run, children included, so that the host-speed
    # probe and the work it restates share a core (see hostspeed).
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    hs = _load_program(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"hsbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    os.makedirs(workloads.RUN_DIR, exist_ok=True)
    env = environment(root)
    env["pinned_cpu"] = cpu
    for key, val in env.items():
        print(f"env {key}: {val}")

    state, metrics, tracer = workloads.run(hs, args.workload, args.seed, args.seconds, bool(args.trace), root)

    stem = os.path.join(workloads.RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, value in state.reference.items():
        if name != "inclusive_s":
            print(f"reference {name} = {value}")
    for err in state.errors + state.check_errors:
        print(f"error {err}")
    print(f"operations attempted={state.attempted} failed={state.failed} correct={state.correct}")
    result = {
        "correct": state.correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "result": result, "reference": state.reference,
                   "samples": state.samples, "errors": state.errors,
                   "check_errors": state.check_errors}, fh, indent=1)
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
