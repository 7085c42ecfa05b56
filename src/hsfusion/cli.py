"""Command-line pipeline: simulate -> fuse -> eval -> diagnose."""

import argparse
import json
import os
import sys

from .config import KEYS, build_run_config, load_config_file, read_band_table
from .degradation import (
    IKONOS_BANDS,
    SceneSpec,
    make_degradation,
    simulate,
    synth_scene,
)
from .errors import FusionError
from .metrics import evaluate
from .solver import solve
from .tensorfile import load_cube, read_tensor, write_tensor


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
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"expected a I1xI2xI3 shape, got {text!r}")
    shape = tuple(int(p) for p in parts)
    if any(d < 1 for d in shape):
        raise ValueError(f"shape entries must be positive, got {text!r}")
    return shape


def _resolve_bands(cfg):
    if cfg.band_table is None:
        return IKONOS_BANDS
    return read_band_table(cfg.band_table)


def _cmd_simulate(args):
    cfg = _config_from_args(args)
    if (args.gt is None) == (args.synthetic is None):
        raise ValueError("simulate needs exactly one of --gt or --synthetic")
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if args.synthetic is not None:
        spec = SceneSpec(
            shape=_parse_shape(args.synthetic),
            r=cfg.require_r(),
            blocks=args.blocks,
            seed=cfg.seed,
            spectra=args.spectra,
        )
        z, _, _ = synth_scene(spec)
        write_tensor(os.path.join(out_dir, "z.cmt"), z)
    else:
        z = load_cube(args.gt)
        if z.ndim != 3:
            raise ValueError(f"ground truth must be 3-way, got ndim={z.ndim}")
    deg = make_degradation(
        z.shape, cfg.factor, cfg.kernel_size, cfg.sigma, _resolve_bands(cfg)
    )
    x, y = simulate(z, deg)
    write_tensor(os.path.join(out_dir, "x.cmt"), x)
    write_tensor(os.path.join(out_dir, "y.cmt"), y)
    write_tensor(os.path.join(out_dir, "p1.cmt"), deg.p1)
    write_tensor(os.path.join(out_dir, "p2.cmt"), deg.p2)
    write_tensor(os.path.join(out_dir, "p3.cmt"), deg.p3)
    print(
        f"simulate: wrote x{x.shape} y{y.shape} and operators to {out_dir}"
    )
    return 0


def _cmd_fuse(args):
    cfg = _config_from_args(args)
    x = load_cube(args.x)
    y = load_cube(args.y)
    p1 = read_tensor(args.p1)
    p2 = read_tensor(args.p2)
    p3 = read_tensor(args.p3)
    z_hat, diag = solve(x, y, p1, p2, p3, cfg.solver_config())
    write_tensor(args.out, z_hat)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(diag.to_dict(), fh, indent=1)
    status = "converged" if diag.converged else "not converged (max_iter)"
    final = max(
        diag.kkt.residual_x,
        diag.kkt.residual_y,
        diag.kkt.residual_g1,
        diag.kkt.residual_g2,
    )
    print(
        f"fuse: {status} after {diag.iterations} iterations, "
        f"max residual {final:.3e}, tau={diag.tau:.6g} ({diag.tau_mode})"
    )
    return 0


def _cmd_eval(args):
    cfg = _config_from_args(args)
    ref = load_cube(args.ref)
    est = load_cube(args.est)
    report = evaluate(ref, est, peak=cfg.peak, ratio=float(cfg.factor))
    lines = [
        f"psnr={report.psnr:.17g}",
        f"ergas={report.ergas:.17g}",
        f"sam={report.sam:.17g}",
        f"ssim={report.ssim:.17g}",
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_diagnose(args):
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed report {args.report}: {exc}") from exc
    for key in ("converged", "iterations", "res_x", "res_y", "res_g1", "res_g2"):
        if key not in report:
            raise ValueError(f"malformed report {args.report}: missing {key!r}")
    iters = report["iterations"]
    kkt = report.get("kkt") or {}
    print(
        f"iterations={iters} converged={'yes' if report['converged'] else 'no'} "
        f"tau={report.get('tau')} tau_mode={report.get('tau_mode')}"
    )
    if not report["converged"]:
        print("KKT: NOT CONVERGED (max_iter)")
    elif kkt.get("passed"):
        print(
            "KKT: PASS (max residual {:.3e}, grad {:.3e}, subgrad dev {:.3e})".format(
                max(
                    kkt["residual_x"],
                    kkt["residual_y"],
                    kkt["residual_g1"],
                    kkt["residual_g2"],
                ),
                kkt["grad_norm"],
                max(kkt["subgrad_dev_g1"], kkt["subgrad_dev_g2"]),
            )
        )
    else:
        checks = ("feasibility_ok", "stationarity_ok", "subgradient_ok", "multipliers_bounded")
        failed = [key.removesuffix("_ok") for key in checks if not kkt.get(key)]
        print(f"KKT: FAIL ({', '.join(failed)})")
    if args.csv:
        rows = zip(
            range(1, iters + 1),
            report["res_x"],
            report["res_y"],
            report["res_g1"],
            report["res_g2"],
            report["rho"],
            report["objective"],
        )
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("iter,res_x,res_y,res_g1,res_g2,rho,objective\n")
            for it, rx, ry, r1, r2, rho, obj in rows:
                fh.write(
                    f"{it},{rx:.17g},{ry:.17g},{r1:.17g},{r2:.17g},"
                    f"{rho:.17g},{obj:.17g}\n"
                )
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
    p_fuse.add_argument("--x", required=True)
    p_fuse.add_argument("--y", required=True)
    p_fuse.add_argument("--p1", required=True)
    p_fuse.add_argument("--p2", required=True)
    p_fuse.add_argument("--p3", required=True)
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
