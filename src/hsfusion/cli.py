"""Command-line pipeline: simulate -> fuse -> eval -> diagnose.

Each command imports the modules it uses when it runs, so a process loads
only what its command needs: ``diagnose`` never loads numpy, ``simulate`` and
``eval`` skip the solver, and ``fuse`` skips the metrics.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

from .config import KEYS, build_run_config, load_config_file
from .errors import FusionError

# the files simulate writes as <name>.cmt and fuse reads from --<name>
_FILES = ("x", "y", "p1", "p2", "p3")


def _add_config_flags(parser):
    group = parser.add_argument_group("run configuration")
    for name, typ in KEYS.items():
        flag = "--" + name.replace("_", "-")
        group.add_argument(flag, dest=name, type=typ, default=None)
    group.add_argument("--config", default=None, help="key=value defaults file")


def _config_from_args(args):
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in KEYS}
    return build_run_config(file_values, overrides)


def _parse_shape(text):
    try:
        shape = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        shape = ()
    if len(shape) != 3:
        raise ValueError(f"expected a I1xI2xI3 shape, got {text!r}")
    if any(d < 1 for d in shape):
        raise ValueError(f"shape entries must be positive, got {text!r}")
    return shape


def _cmd_simulate(args):
    from .degradation import SceneSpec, make_degradation, read_band_table, simulate, synth_scene
    from .tensorfile import load_cube, write_tensor

    cfg = _config_from_args(args)
    if (args.gt is None) == (args.synthetic is None):
        raise ValueError("simulate needs exactly one of --gt or --synthetic")
    if args.synthetic is not None:
        spec = SceneSpec(
            shape=_parse_shape(args.synthetic),
            r=cfg.require_r(),
            blocks=args.blocks,
            seed=cfg.seed,
            spectra=args.spectra,
        )
        z, _, _ = synth_scene(spec)
    else:
        z = load_cube(args.gt)
        if z.ndim != 3:
            raise ValueError(f"ground truth must be 3-way, got ndim={z.ndim}")
    deg = make_degradation(z.shape, cfg.factor, cfg.kernel_size, cfg.sigma,
                           read_band_table(cfg.band_table))
    x, y = simulate(z, deg)
    # every input has passed: only now is anything written
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if args.synthetic is not None:
        write_tensor(os.path.join(out_dir, "z.cmt"), z)
    for name, t in zip(_FILES, (x, y, deg.p1, deg.p2, deg.p3)):
        write_tensor(os.path.join(out_dir, f"{name}.cmt"), t)
    print(
        f"simulate: wrote x{x.shape} y{y.shape} and operators to {out_dir}"
    )
    return 0


def _cmd_fuse(args):
    from .solver import solve
    from .tensorfile import load_cube, write_tensor

    cfg = _config_from_args(args)
    inputs = [load_cube(getattr(args, name)) for name in _FILES]
    # the objective is traced only for the report that holds it
    z_hat, diag = solve(*inputs, cfg.solver_config(), trace_objective=bool(args.report))
    write_tensor(args.out, z_hat)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(diag.to_dict(), fh, indent=1)
    status = "converged" if diag.converged else "not converged (max_iter)"
    final = max(getattr(diag.kkt, key) for key in _PASS_FIELDS[:4])
    print(
        f"fuse: {status} after {diag.iterations} iterations, "
        f"max residual {final:.3e}, tau={diag.tau:.6g} ({diag.tau_mode})"
    )
    return 0


def _cmd_eval(args):
    from .metrics import evaluate
    from .tensorfile import load_cube

    cfg = _config_from_args(args)
    ref = load_cube(args.ref)
    est = load_cube(args.est)
    report = evaluate(ref, est, peak=cfg.peak, ratio=float(cfg.factor))
    text = "".join(f"{f.name}={getattr(report, f.name):.17g}\n" for f in fields(report))
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# the per-iteration traces diagnose writes as CSV columns, and the KKT fields
# its PASS line prints
_TRACES = ("res_x", "res_y", "res_g1", "res_g2", "rho", "objective")
_PASS_FIELDS = ("residual_x", "residual_y", "residual_g1", "residual_g2", "grad_norm",
                "subgrad_dev_g1", "subgrad_dev_g2")


def _report_fault(report, csv):
    """What keeps ``diagnose`` from reading ``report``, or None: every key,
    number and trace length it reads (the traces only with ``csv``), with
    ``converged`` a boolean, ``iterations`` a non-negative integer, ``tau`` a
    number and ``tau_mode`` a string."""
    if not isinstance(report, dict) or not isinstance(report.get("kkt") or {}, dict):
        return "not a JSON object with a 'kkt' object"
    traces = _TRACES if csv else ()
    # exact JSON types: true and false load as bools, which isinstance counts as ints
    iters = report.get("iterations")
    missing = [key for key, ok in (("converged", type(report.get("converged")) is bool),
                                   ("iterations", type(iters) is int and iters >= 0),
                                   ("tau", type(report.get("tau")) in (int, float)),
                                   ("tau_mode", type(report.get("tau_mode")) is str)) if not ok]
    missing += [key for key in traces if key not in report]
    kkt = report.get("kkt") or {}
    if report.get("converged") and kkt.get("passed"):
        missing += [f"kkt.{key}" for key in _PASS_FIELDS if type(kkt.get(key)) not in (int, float)]
    if missing:
        return f"no usable {missing[0]!r}"
    for key in traces:
        trace = report[key]
        if not (isinstance(trace, list) and len(trace) == report["iterations"]
                and all(type(v) in (int, float) for v in trace)):
            return f"{key!r} does not hold one number per iteration"
    return None


def _cmd_diagnose(args):
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed report {args.report}: {exc}") from exc
    fault = _report_fault(report, args.csv)
    if fault:
        raise ValueError(f"malformed report {args.report}: {fault}")
    iters = report["iterations"]
    kkt = report.get("kkt") or {}
    print(
        f"iterations={iters} converged={'yes' if report['converged'] else 'no'} "
        f"tau={report['tau']} tau_mode={report['tau_mode']}"
    )
    if not report["converged"]:
        print("KKT: NOT CONVERGED (max_iter)")
    elif kkt.get("passed"):
        print(
            "KKT: PASS (max residual {:.3e}, grad {:.3e}, subgrad dev {:.3e})".format(
                max(kkt[key] for key in _PASS_FIELDS[:4]),
                kkt["grad_norm"],
                max(kkt["subgrad_dev_g1"], kkt["subgrad_dev_g2"]),
            )
        )
    else:
        checks = ("feasibility_ok", "stationarity_ok", "subgradient_ok", "multipliers_bounded")
        failed = [key.removesuffix("_ok") for key in checks if not kkt.get(key)]
        print(f"KKT: FAIL ({', '.join(failed)})")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(("iter", *_TRACES)) + "\n")
            for it, row in enumerate(zip(*(report[key] for key in _TRACES)), start=1):
                fh.write(f"{it}," + ",".join(f"{v:.17g}" for v in row) + "\n")
        print(f"diagnose: wrote {iters} rows to {args.csv}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hsfusion",
        description="Hyperspectral/multispectral fusion pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="degrade a ground truth or a synthetic scene")
    p_sim.add_argument("--gt", default=None, help="ground-truth .cmt cube")
    p_sim.add_argument("--synthetic", default=None, metavar="I1xI2xI3")
    p_sim.add_argument("--blocks", type=int, default=4)
    p_sim.add_argument("--spectra", choices=("random", "smooth"), default="random")
    p_sim.add_argument("--out-dir", default=".")
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fuse = sub.add_parser("fuse", help="run the fusion solver")
    for name in _FILES:
        p_fuse.add_argument("--" + name, required=True)
    p_fuse.add_argument("--out", default="z_hat.cmt")
    p_fuse.add_argument("--report", default=None)
    _add_config_flags(p_fuse)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_eval = sub.add_parser("eval", help="quality metrics between two cubes")
    p_eval.add_argument("--ref", required=True)
    p_eval.add_argument("--est", required=True)
    p_eval.add_argument("--out", default=None)
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_diag = sub.add_parser("diagnose", help="summarize a fuse report")
    p_diag.add_argument("--report", required=True)
    p_diag.add_argument("--csv", default=None)
    p_diag.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FusionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
