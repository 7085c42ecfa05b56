"""The three workloads: scenes, timed rounds and output checks.

A workload run is a sequence of rounds. A round is one pass over the
workload's program calls on the same inputs; its first instance is checked
against the oracles, and every later round must reproduce the first round's
outputs bit for bit. Times are taken around the program's public calls
only, leaving out the benchmark's own input preparation and checks, and
are restated at a reference host speed (see hostspeed).

The inputs of a workload are a fixed base scene carried through a symmetry
drawn from the seed: an optional spatial transpose (the scenes are square
and P1 = P2) and a permutation of the bands among those with identical
columns in P3 (bands averaged into the same multispectral band, or into
none). The solver is equivariant under both, so every seed poses the same
problem in different bytes: the iteration count to tolerance and the
quality figures stay put up to rounding, while the inputs still change.
Scenes drawn from other generator seeds do not stay put: at 64x64x32 the
default configuration needs anywhere from 462 to more than 500 iterations.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from oracles import CheckFailed
from hostspeed import HostSpeed
from tracer import Tracer

SCENE_SEED = 14  # the acceptance scene's generator seed
KERNEL_SIZE = 9
SIGMA = 3.3973
RUN_DIR = ".hsbench_runs"


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple
    r: int
    factor: int
    bands: str  # "ikonos" or "landsat7"
    budget: int | None  # fixed iteration budget; None: solve to tolerance, default config
    setup_reps: int = 1  # timed setups per round, for set-up times of milliseconds
    eval_reps: int = 1
    warm_iters: int = 0  # warm-up solve on the workload's own scene; 0: on a small scene


WORKLOADS = {
    w.name: w
    for w in (
        Workload("acceptance64", (64, 64, 32), 3, 4, "ikonos", None, setup_reps=64, eval_reps=64,
                 warm_iters=20),
        Workload("protocol256", (256, 256, 162), 5, 8, "landsat7", 6, setup_reps=3),
        Workload("cli_chain", (96, 96, 48), 3, 4, "ikonos", 20),
    )
}


def symmetric_copy(z, p3, seed):
    """The scene under the seed's symmetry (see the module docstring)."""
    rng = np.random.default_rng(seed)
    if z.shape[0] != z.shape[1]:
        raise ValueError("the transpose symmetry needs a square scene")
    if rng.integers(2):
        z = z.transpose(1, 0, 2)
    groups = {}
    for b in range(p3.shape[1]):
        groups.setdefault(p3[:, b].tobytes(), []).append(b)
    perm = np.arange(p3.shape[1])
    for members in groups.values():
        perm[members] = rng.permutation(members)
    return np.ascontiguousarray(z[:, :, perm])


def settle_allocator():
    """Raise glibc's dynamic mmap threshold to its ceiling, as a long-lived process's is.

    glibc serves blocks above the threshold with fresh mappings (page faults
    on every use) and raises the threshold to the size of each such block
    freed, up to 32 MiB. Left to itself it climbs during a run, so the
    solver's page faults drift from round to round: 518k, 306k, then about
    40k per 462-iteration solve over five rounds of one run. Freeing one
    block just under the ceiling first puts every round in the settled
    state; blocks above it (the 85 MB cubes at 256x256x162) are mapped
    afresh in every round, as in any process. The block's pages are never
    touched, so it adds nothing to the peak resident set. The CLI commands
    run as fresh processes and keep the allocator's start-up behaviour.
    """
    block = np.empty((32 << 20) - (1 << 16), dtype=np.uint8)
    del block


def settle():
    """Collect garbage before a round, so no earlier round's objects are freed inside it."""
    gc.collect()


def _solver_config(hs, wl):
    if wl.budget is None:
        return hs.solver.SolverConfig(r=wl.r)
    return hs.solver.SolverConfig(r=wl.r, max_iter=wl.budget)


def _bands(degradation, wl):
    return getattr(degradation, wl.bands.upper() + "_BANDS")


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _peak_rss_mb(ru_maxrss_kib):
    return ru_maxrss_kib * 1024 / 1e6


@dataclass
class RunState:
    """What a run accumulates: samples, failures, check outcome, reference figures."""

    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    correct: bool = True
    check_errors: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    first: dict | None = None  # digests of the first round's outputs

    def check(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CheckFailed as exc:
            self.correct = False
            self.check_errors.append(str(exc))
            return None

    def same_as_first(self, key, value):
        if self.first[key] != value:
            self.correct = False
            self.check_errors.append(f"round output {key} differs from the first round's")


# ------------------------------------------------------------ in-process


class InProcess:
    """acceptance64 and protocol256: setup, solve and evaluate in this process."""

    def __init__(self, hs, wl, seed):
        self.hs = hs
        self.wl = wl
        self.seed = seed
        self.config = _solver_config(hs, wl)

    def _scene(self):
        dg = self.hs.degradation
        z, _, _ = dg.synth_scene(dg.SceneSpec(shape=self.wl.shape, r=self.wl.r, seed=SCENE_SEED))
        return z, dg.make_degradation(z.shape, self.wl.factor, KERNEL_SIZE, SIGMA, _bands(dg, self.wl))

    def setup(self, speed):
        """Build the solver's inputs; returns them with the set-up's (raw, reference) seconds.

        The symmetry copy between the two timed calls is the benchmark's own
        work and is not timed.
        """
        (z, deg), t_scene = speed.timed(self._scene)
        z = symmetric_copy(z, deg.p3, self.seed)
        (x, y), t_sim = speed.timed(self.hs.degradation.simulate, z, deg)
        return z, deg, x, y, _add(t_scene, t_sim)

    def warm_up(self):
        """Load code paths and grow the heap once, before the first timed round.

        A round at 256x256x162 maps its large arrays afresh every time, so a
        small scene is enough there; a 64x64x32 round reuses the heap, and
        its first round would otherwise pay for growing it.
        """
        settle_allocator()
        hs, wl = self.hs, self.wl
        if wl.warm_iters:
            z, deg = self._scene()
            r, factor, iters = wl.r, wl.factor, wl.warm_iters
        else:
            dg = hs.degradation
            z, _, _ = dg.synth_scene(dg.SceneSpec(shape=(32, 32, 32), r=2, seed=SCENE_SEED))
            deg = dg.make_degradation(z.shape, 4, KERNEL_SIZE, SIGMA, dg.IKONOS_BANDS)
            r, factor, iters = 2, 4, 3
        x, y = hs.degradation.simulate(z, deg)
        z_hat, _ = hs.solver.solve(x, y, deg.p1, deg.p2, deg.p3, hs.solver.SolverConfig(r=r, max_iter=iters))
        hs.metrics.evaluate(z, z_hat, ratio=float(factor))

    def round(self, state, speed):
        """One pass; returns its sample, or None when a program call failed.

        Each time is a (raw, reference) pair of seconds; see hostspeed.
        """
        hs, wl = self.hs, self.wl
        settle()
        state.attempted += 1
        ratio = float(wl.factor)
        try:
            z, deg, x, y, t_setup = self.setup(speed)
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            (z_hat, diag), t_solve = speed.timed(hs.solver.solve, x, y, deg.p1, deg.p2, deg.p3, self.config)
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            report, t_eval = speed.timed(hs.metrics.evaluate, z, z_hat, ratio=ratio)
            sample = {"setup": [t_setup], "solve": [t_solve], "eval": [t_eval],
                      "total": _add(_add(t_setup, t_solve), t_eval)}
            if state.first is None:  # before the extra setups below add to the heap
                sample["peak_rss_mb"] = _peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            # Extra setups and evaluates alternate, so that a round's samples of
            # each spread over seconds of the host's swings, not a burst.
            for i in range(max(wl.setup_reps, wl.eval_reps) - 1):
                if i < wl.setup_reps - 1:
                    sample["setup"].append(self.setup(speed)[4])
                if i < wl.eval_reps - 1:
                    sample["eval"].append(speed.timed(hs.metrics.evaluate, z, z_hat, ratio=ratio)[1])
        except (hs.errors.FusionError, ValueError, ArithmeticError) as exc:
            state.failed += 1
            state.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        sample["iterations"] = diag.iterations
        sample["psnr_db"] = report.psnr
        # kernel time and minor faults around the solve, probes included
        sample["solve_sys_s"] = ru1.ru_stime - ru0.ru_stime
        sample["solve_minor_faults"] = ru1.ru_minflt - ru0.ru_minflt
        metrics = {k: getattr(report, k) for k in ("psnr", "ergas", "sam", "ssim")}
        outputs = {"z_hat": _digest(z_hat), "metrics": repr(sorted(metrics.items())),
                   "iterations": diag.iterations}
        if state.first is None:
            t0 = time.perf_counter()
            self.check_first(state, z, deg, x, y, z_hat, diag, metrics)
            sample["check_s"] = time.perf_counter() - t0
            state.first = outputs
        else:
            for key, value in outputs.items():
                state.same_as_first(key, value)
        return sample

    def check_first(self, state, z, deg, x, y, z_hat, diag, metrics):
        hs, wl = self.hs, self.wl
        state.check(oracles.check_finite, "estimate", z_hat)
        state.check(oracles.check_in_subspace, z_hat, x, wl.r)
        want = state.check(oracles.check_metrics, metrics, z, z_hat, float(wl.factor))
        kkt = diag.kkt
        final = max(kkt.residual_x, kkt.residual_y, kkt.residual_g1, kkt.residual_g2)
        rx, ry = oracles.feasibility(z_hat, x, y, deg.p1, deg.p2, deg.p3)
        if wl.budget is None:
            if not diag.converged:
                state.check(_fail, f"did not converge in {diag.iterations} iterations")
            if not kkt.passed:
                state.check(_fail, f"KKT check failed: {kkt.to_dict()}")
            state.check(oracles.check_feasible, z_hat, x, y, deg.p1, deg.p2, deg.p3, 10.0 * diag.eps)
            if want is not None and not (want["psnr"] >= ACCEPTANCE_PSNR_FLOOR_DB
                                         and want["sam"] <= ACCEPTANCE_SAM_CEILING_DEG):
                state.check(_fail, f"PSNR {want['psnr']:.2f} dB / SAM {want['sam']:.3g} deg "
                                   f"outside the floors {ACCEPTANCE_PSNR_FLOOR_DB} dB / "
                                   f"{ACCEPTANCE_SAM_CEILING_DEG} deg")
        elif diag.iterations != wl.budget or diag.converged:
            state.check(_fail, f"expected {wl.budget} iterations short of tolerance, "
                               f"got {diag.iterations} (converged={diag.converged})")
        bicubic = hs.metrics.bicubic_upsample(x, wl.factor)
        state.reference.update({
            "sam_deg": metrics["sam"],
            "ergas": metrics["ergas"],
            "ssim": metrics["ssim"],
            "final_residual": final,
            "oracle_residual_x": rx,
            "oracle_residual_y": ry,
            "kkt": _kkt_outcome(diag),
            "bicubic_psnr_db": oracles.psnr(z, bicubic, float(z.max())),
        })


ACCEPTANCE_PSNR_FLOOR_DB = 100.0
ACCEPTANCE_SAM_CEILING_DEG = 1e-3


def _fail(message):
    raise CheckFailed(message)


def _kkt_outcome(diag):
    if not diag.converged:
        return "not converged (max_iter)"
    return "pass" if diag.kkt.passed else "fail"


# ------------------------------------------------------------ CLI chain

CLI_COMMANDS = ("simulate", "fuse", "eval", "diagnose")


class Chain:
    """cli_chain: simulate -> fuse -> eval -> diagnose on .cmt files."""

    def __init__(self, hs, wl, seed, root, work_dir):
        self.hs = hs
        self.wl = wl
        self.seed = seed
        self.root = root
        self.dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cfg = os.path.join(work_dir, "run.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(
                f"# cli_chain: {'x'.join(map(str, wl.shape))} scene, fixed budget\n"
                f"r={wl.r}\nfactor={wl.factor}\nkernel_size={KERNEL_SIZE}\n"
                f"sigma={SIGMA}\nband_table={wl.bands}\nmax_iter={wl.budget}\n"
            )
        self.z_path = os.path.join(work_dir, "z.cmt")
        dg = hs.degradation
        z, _, _ = dg.synth_scene(dg.SceneSpec(shape=wl.shape, r=wl.r, seed=SCENE_SEED))
        deg = dg.make_degradation(z.shape, wl.factor, KERNEL_SIZE, SIGMA, _bands(dg, wl))
        hs.tensorfile.write_tensor(self.z_path, symmetric_copy(z, deg.p3, seed))

    def argvs(self, d):
        f = lambda name: os.path.join(d, name)  # noqa: E731
        io_args = ["--x", f("x.cmt"), "--y", f("y.cmt"), "--p1", f("p1.cmt"),
                   "--p2", f("p2.cmt"), "--p3", f("p3.cmt")]
        return [
            ["simulate", "--gt", self.z_path, "--config", self.cfg, "--out-dir", d],
            ["fuse", *io_args, "--config", self.cfg, "--out", f("z_hat.cmt"), "--report", f("report.json")],
            ["eval", "--ref", self.z_path, "--est", f("z_hat.cmt"), "--config", self.cfg, "--out", f("eval.txt")],
            ["diagnose", "--report", f("report.json"), "--csv", f("curves.csv")],
        ]

    def _run_child(self, argv, d, name):
        """Run one command as a child process; returns (exit code, its peak RSS in KiB)."""
        with open(os.path.join(d, name + ".out"), "wb") as out, \
                open(os.path.join(d, name + ".err"), "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "hsfusion.cli", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def _run_in_process(self, argv, d, name, tracer):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = self.hs.cli.main(argv)
            else:
                code = tracer.call("cli." + name, self.hs.cli.main, argv)
        with open(os.path.join(d, name + ".out"), "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
        return code, 0

    def round(self, state, speed, index, in_process=False, tracer=None):
        """One chain; returns its sample, or None when a command failed.

        Each time is a (raw, reference) pair of seconds; the total is the sum
        of the four commands, leaving out the benchmark's own steps between them.
        """
        d = os.path.join(self.dir, f"round{index}")
        os.makedirs(d, exist_ok=True)
        settle()
        sample = {}
        rss = []
        total = (0.0, 0.0)
        for name, argv in zip(CLI_COMMANDS, self.argvs(d)):
            state.attempted += 1
            if in_process:
                (code, maxrss), t = speed.timed(self._run_in_process, argv, d, name, tracer)
            else:
                (code, maxrss), t = speed.timed(self._run_child, argv, d, name)
            if code != 0:
                state.failed += 1
                state.errors.append(f"{name} exited {code}")
                state.attempted += len(CLI_COMMANDS) - CLI_COMMANDS.index(name) - 1
                return None
            sample[name] = t
            total = _add(total, t)
            rss.append(maxrss)
        sample.update({"setup": [sample.pop("simulate")], "solve": [sample.pop("fuse")],
                       "eval": [sample.pop("eval")], "total": total,
                       "peak_rss_mb": _peak_rss_mb(max(rss))})
        with open(os.path.join(d, "report.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        with open(os.path.join(d, "eval.out"), "r", encoding="utf-8") as fh:
            eval_text = fh.read()
        got = state.check(oracles.parse_eval_lines, eval_text) or {}
        sample["iterations"] = report["iterations"]
        sample["psnr_db"] = got.get("psnr", float("nan"))
        with open(os.path.join(d, "z_hat.cmt"), "rb") as fh:
            outputs = {"z_hat": hashlib.sha256(fh.read()).hexdigest(), "eval": eval_text}
        if state.first is None:
            t0 = time.perf_counter()
            self.check_first(state, d, report, got)
            sample["check_s"] = time.perf_counter() - t0
            state.first = outputs
        else:
            for key, value in outputs.items():
                state.same_as_first(key, value)
        return sample

    def check_first(self, state, d, report, got):
        hs, wl = self.hs, self.wl
        f = lambda name: os.path.join(d, name)  # noqa: E731
        try:
            z = oracles.read_cmt(self.z_path)
            x, y, p1, p2, p3, z_hat = (oracles.read_cmt(f(n + ".cmt"))
                                       for n in ("x", "y", "p1", "p2", "p3", "z_hat"))
        except CheckFailed as exc:
            state.check(_fail, str(exc))
            return
        state.check(oracles.check_forward, x, y, z, p1, p2, p3)
        state.check(oracles.check_finite, "estimate", z_hat)
        state.check(oracles.check_in_subspace, z_hat, x, wl.r)
        direct, diag = hs.solver.solve(x, y, p1, p2, p3, _solver_config(hs, wl))
        if not np.array_equal(direct, z_hat):
            diff = float(np.abs(direct - z_hat).max())
            state.check(_fail, f"z_hat.cmt differs from an in-process solve by up to {diff:.3e}")
        if got:
            state.check(oracles.check_metrics, got, z, z_hat, float(wl.factor))
        if report["iterations"] != wl.budget or report["converged"]:
            state.check(_fail, f"expected {wl.budget} iterations short of tolerance, got "
                               f"{report['iterations']} (converged={report['converged']})")
        state.check(oracles.check_diagnose_csv, f("curves.csv"), report)
        with open(f("diagnose.out"), "r", encoding="utf-8") as fh:
            if "KKT: NOT CONVERGED (max_iter)" not in fh.read():
                state.check(_fail, "diagnose did not report the run as not converged")
        kkt = report["kkt"]
        state.reference.update({
            "sam_deg": got.get("sam"),
            "ergas": got.get("ergas"),
            "ssim": got.get("ssim"),
            "final_residual": max(kkt[k] for k in ("residual_x", "residual_y", "residual_g1", "residual_g2")),
            "kkt": _kkt_outcome(diag),
            "bicubic_psnr_db": oracles.psnr(z, hs.metrics.bicubic_upsample(x, wl.factor), float(z.max())),
        })

    def import_seconds(self, n=5):
        """Wall time of a fresh interpreter that imports hsfusion.cli; fastest of n."""
        best = float("inf")
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import hsfusion.cli"], env=self.env,
                           cwd=self.root, check=True)
            best = min(best, time.perf_counter() - t0)
        return best


# ------------------------------------------------------------ metrics


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def medians(samples, which):
    """Median over the run of each time: which=1 for reference seconds, 0 for raw."""
    def med(kind):
        return statistics.median(t[which] for s in samples for t in s[kind])

    out = {k: med(k) for k in ("setup", "solve", "eval")}
    out["total"] = statistics.median(s["total"][which] for s in samples)
    return out


def end_to_end(samples):
    """End-to-end metrics of a run: times are medians of reference seconds (see hostspeed)."""
    t = medians(samples, 1)
    first = samples[0]
    return {
        "setup_s": (t["setup"], "s"),
        "solve_s": (t["solve"], "s"),
        "iter_ms": (1000.0 * t["solve"] / first["iterations"], "ms"),
        "iterations": (first["iterations"], "count"),
        "eval_s": (t["eval"], "s"),
        "total_s": (t["total"], "s"),
        "psnr_db": (first["psnr_db"], "dB"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples if "peak_rss_mb" in s), "MB"),
    }


def per_layer(totals, import_s, overhead_s):
    """Per-layer metrics of one traced round from the tracer's layer totals."""

    def g(layer, i):
        return totals.get(layer, (0, 0.0, 0.0, 0, 0))[i]

    m = {
        "tensor.mode_n_product.calls": (g("tensor.mode_n_product", 0), "count"),
        "tensor.mode_n_product.self_s": (g("tensor.mode_n_product", 1), "s"),
        "tensor.mode_n_product.gflop": (g("tensor.mode_n_product", 3) / 1e9, "GFLOP"),
        "tensor.mode_n_product.mb_moved": (g("tensor.mode_n_product", 4) / 1e6, "MB"),
    }
    for layer in ("tensor.fold", "tensor.unfold", "tensor.shuffle", "tensor.fft_mode3"):
        m[layer + ".self_s"] = (g(layer, 1), "s")
    for layer in ("tsvd.ntpnn_prox", "tsvd.svd", "regularizer.nms_tctv", "solver.grad_a", "solver.residuals"):
        m[layer + ".calls"] = (g(layer, 0), "count")
        m[layer + ".self_s"] = (g(layer, 1), "s")
    for layer in ("solver.step_g", "solver.update_multipliers", "solver.setup", "solver.kkt_check"):
        m[layer + ".self_s"] = (g(layer, 1), "s")
    m["solver.loop_other.self_s"] = (g("solver.solve", 1), "s")
    m["solver.solve.sys_s"] = (g("solver.solve", 3), "s")
    m["solver.solve.minor_faults"] = (g("solver.solve", 4), "count")
    for name in ("psnr", "ergas", "sam", "ssim"):
        m[f"metrics.{name}.self_s"] = (g("metrics." + name, 1), "s")
    for name in ("synth_scene", "make_degradation", "simulate"):
        m[f"degradation.{name}.self_s"] = (g("degradation." + name, 1), "s")
    for name in ("read_tensor", "write_tensor"):
        m[f"tensorfile.{name}.self_s"] = (g("tensorfile." + name, 1), "s")
        m[f"tensorfile.{name}.mb"] = (g("tensorfile." + name, 4) / 1e6, "MB")
    m["cli.import_s"] = (import_s, "s")
    for name in CLI_COMMANDS:
        m[f"cli.{name}.self_s"] = (g("cli." + name, 1), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# ------------------------------------------------------------ run loop


def run(hs, name, seed, seconds, trace, root):
    """Run one workload; returns (RunState, metrics dict name -> (value, unit), tracer or None)."""
    wl = WORKLOADS[name]
    state = RunState()
    work_dir = os.path.join(RUN_DIR, f"{name}-seed{seed}-trace{trace}")
    if name == "cli_chain":
        wk = Chain(hs, wl, seed, root, work_dir)
    else:
        wk = InProcess(hs, wl, seed)
        wk.warm_up()
    tracer = Tracer() if trace else None
    # Probes inside calls, except in traced runs and around CLI child processes.
    speed = HostSpeed(probe_inside=not trace and name != "cli_chain")
    traced_rounds = []  # (total, layer totals) per traced round
    t_begin = time.perf_counter()
    checking = 0.0  # time spent checking outputs, which does not count against the run
    last = 0.0  # the latest round's duration, less its checks, predicts the next one's
    index = 0
    while index == 0 or (trace and index == 1) or last <= seconds - (time.perf_counter() - t_begin - checking):
        traced = trace and index % 2 == 1
        t0 = time.perf_counter()
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            if name == "cli_chain":
                sample = wk.round(state, speed, index, in_process=bool(trace),
                                  tracer=tracer if traced else None)
            else:
                sample = wk.round(state, speed)
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - t0
        index += 1
        if sample is None:
            continue
        checking += sample.get("check_s", 0.0)
        last -= sample.get("check_s", 0.0)
        if traced:
            traced_rounds.append((sample["total"], tracer.layer_totals(first_span)))
        else:
            state.samples.append(sample)
    state.reference["rounds"] = len(state.samples) + len(traced_rounds)
    state.reference["probes"] = speed.count
    if speed.count:
        state.reference["probe_slowness_median"] = float(np.median(speed.values))
    if not state.samples:
        return state, {}, tracer
    raw = medians(state.samples, 0)
    state.reference.update({f"raw_{k}_s": v for k, v in raw.items()})
    if not trace:
        return state, end_to_end(state.samples), tracer
    if not traced_rounds:
        return state, {}, tracer
    traced_rounds.sort(key=lambda r: r[0][1])
    total, totals = traced_rounds[(len(traced_rounds) - 1) // 2]
    untraced = statistics.median(s["total"][1] for s in state.samples)
    import_s = wk.import_seconds() if name == "cli_chain" else 0.0
    state.reference["traced_rounds"] = len(traced_rounds)
    state.reference["inclusive_s"] = {k: v[2] for k, v in sorted(totals.items())}
    return state, per_layer(totals, import_s, total[1] - untraced), tracer
