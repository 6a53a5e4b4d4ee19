"""Benchmark of the nnscontrol library: one workload per run.

    python3 perfbench/run.py --workload eig-large --seed 1 --seconds 30 --trace 0

Run from the repository root. The library is imported from ``src/`` next
to this directory; a checkout without it is refused. Load is a closed
loop: one process, one caller, one BLAS thread. A run sets up its inputs
(five times, for a median set-up time), then makes passes over the same
inputs until ``--seconds`` is spent. Timed values are scaled to a
reference host speed measured in the same run (``Reference``); the
wall-clock values are printed beside them. It checks every answer, prints
a human-readable table, and ends with one JSON line:

  --trace 0  end-to-end metrics (no wrappers installed)
  --trace 1  per-layer metrics from passes with wrappers installed,
             each system analysed untraced and traced in turn to
             measure the overhead;
             all spans are written to perfbench/out/.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# Before numpy is imported: OpenBLAS defaults to one thread per core, which
# makes timings on a small machine depend on what else is running.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("eig-large", "oracle-agreement", "cli-commands", "jordan-defective")

END_TO_END = {
    "setup_s": "s",
    "systems_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Wall-clock times, unscaled, and the reference kernel's own time. They are
# printed by every run and are per-layer metrics of the traced run (taken
# from its untraced passes); they are not gated.
RAW_METRICS = {
    "raw.setup_s": "s",
    "raw.systems_per_s": "1/s",
    "raw.latency_p50_ms": "ms",
    "raw.latency_p90_ms": "ms",
    "reference.kernel_ms": "ms",
}

# Layers whose self time is reported in the JSON line: every gated workload
# calls them. The printed table has every layer's self time.
SELF_TIME_LAYERS = (
    "matrixcore.left_eigensystem",
    "matrixcore.pbh_rank",
    "matrixcore.rank",
    "matrixcore.null_space_basis",
    "numpy.linalg.svd",
    "numpy.linalg.eigvals",
    "conelp.homogeneous_nonzero",
    "controllability.check_nonneg_sparse",
    "controllability.verify_certificate",
    "generators.generate_system",
)
SETUP_REPEATS = 5
# Time of one Reference.run() on the VM where BASELINE.json was taken, and
# how often it runs between the systems of a pass (about 5% of a pass).
REFERENCE_S = 0.04
REFERENCE_EVERY_S = 0.75
MIN_PASSES = 3
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90


def per_layer_units() -> dict[str, str]:
    import tracing

    units = {}
    for module, function in tracing.LAYERS:
        units[f"{tracing.layer_name(module, function)}.calls"] = "count"
    for layer in SELF_TIME_LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units.update(
        {
            "numpy.linalg.svd.gflop_computed": "GFLOP",
            "conelp.feasible_nonneg_solution.member_frac": "ratio",
            "conelp.homogeneous_nonzero.witness_frac": "ratio",
            "oracle.coverage_probe.lp_count": "count",
            "oracle.coverage_probe.covered_frac": "ratio",
            "oracle.inconclusive": "count",
            "trace.overhead_ms_per_system": "ms",
        }
    )
    units.update(RAW_METRICS)
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few small systems and one pass, for the smoke test",
    )
    return parser.parse_args(argv)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "load": "closed loop, 1 process, 1 caller",
    }


class Reference:
    """A fixed kernel timed between the systems of every pass.

    The kernel mixes LAPACK SVDs, small-array arithmetic, JSON writing and
    interpreter loops, like the workloads, and does not call the library.
    Its mean time over a pass, against ``REFERENCE_S``, is the host's speed
    during that pass; timed values are scaled by it (see the README).
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.svd = np.linalg.svd  # captured before a traced pass wraps it
        self.a = rng.standard_normal((48, 48))
        self.t = rng.standard_normal((12, 30))
        self.record = {"a": [[float(v) for v in row] for row in self.a[:16]]}
        self.times: list[float] = []
        self.last = time.perf_counter()

    def run(self) -> None:
        np = self.np
        started = time.perf_counter()
        for _ in range(12):
            self.svd(self.a)
        t = self.t
        for _ in range(375):
            t = t - 1e-3 * np.outer(t[:, 0], t[0])
            t[np.abs(t) > 10] = 0.0
        for _ in range(12):
            json.dumps(self.record, sort_keys=True, indent=2)
        x = 0
        for i in range(50000):
            x += i * i
        self.last = time.perf_counter()
        self.times.append(self.last - started)

    def due(self) -> bool:
        return time.perf_counter() - self.last >= REFERENCE_EVERY_S

    def factor(self, first: int) -> float:
        """REFERENCE_S over the mean kernel time since index ``first``."""
        return REFERENCE_S / statistics.fmean(self.times[first:])


def percentile(values, q: int) -> float:
    """q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


class Pass:
    """The wall-clock time of each system in one pass, and the pass's factor."""

    def __init__(self, latencies: list[float], factor: float) -> None:
        self.latencies = latencies
        self.factor = factor  # REFERENCE_S over the kernel's mean time in the pass

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


class Run:
    """The set-up and the timed passes of one workload."""

    def __init__(self, workload, seed: int, scale: str, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.tracer = tracer
        self.cases = []
        self.setup_times: list[float] = []
        self.reference = Reference()
        self.setup_s = 0.0
        self.raw_setup_s = 0.0
        self.passes: dict[str, Pass] = {}
        self.attempted = 0
        self.failed = 0
        self.inconclusive_first_pass = 0
        self.reasons: dict[str, int] = {}
        self.digests: dict[int, str] = {}  # each case's canonical report, first seen

    def setup(self, import_s: float) -> None:
        """Build the inputs SETUP_REPEATS times; the median counts once."""
        self.reference.run()
        for repeat in range(SETUP_REPEATS):
            if self.tracer is not None:
                self.tracer.pass_label = f"setup{repeat}"
            started = time.perf_counter()
            folder = self.workdir / f"setup{repeat}"
            folder.mkdir()
            self.cases = self.workload.build(self.seed, self.scale, folder)
            self.workload.analyse(self.cases[0])  # warm-up
            self.setup_times.append(time.perf_counter() - started)
            self.reference.run()
        self.raw_setup_s = import_s + statistics.median(self.setup_times)
        self.setup_s = self.raw_setup_s * self.reference.factor(0)

    def one_pass(self, label: str, traced_label: str | None = None) -> float:
        """Analyse and check every case once; return the scaled pass time.

        With ``traced_label``, each case is analysed a second time with the
        tracer installed, right before or after its untraced analysis (the
        order alternates), and those times form the pass ``traced_label``.
        Both passes get the factor of the kernel runs between them.
        """
        reference = self.reference
        first_reference = len(reference.times)
        reference.run()
        plain: list[float] = []
        traced: list[float] = []
        for index, case in enumerate(self.cases):
            if traced_label is None:
                plain.append(self.one_system(index, case))
            elif (index + len(self.passes)) % 2:
                plain.append(self.one_system(index, case))
                traced.append(self.one_traced_system(index, case, traced_label))
            else:
                traced.append(self.one_traced_system(index, case, traced_label))
                plain.append(self.one_system(index, case))
            if reference.due():
                reference.run()
        reference.run()
        factor = reference.factor(first_reference)
        if traced_label is not None:
            self.passes[traced_label] = Pass(traced, factor)
        done = self.passes[label] = Pass(plain, factor)
        return done.seconds * done.factor

    def one_system(self, index: int, case) -> float:
        """Analyse and check one case; return the wall-clock time of the analysis."""
        if self.tracer is not None:
            self.tracer.system = index
        started = time.perf_counter()
        try:
            output = self.workload.analyse(case)
        except Exception as exc:  # a raising analysis is a failed system
            elapsed = time.perf_counter() - started
            outcome = None
            reasons = [f"analysis raised {type(exc).__name__}"]
        else:
            elapsed = time.perf_counter() - started
            outcome = self.workload.check(case, output)
            reasons = list(outcome.reasons)
        if self.tracer is not None:
            self.tracer.system = None
        digest = outcome.canonical if outcome is not None else ""
        if index not in self.digests:
            self.digests[index] = digest
            if outcome is not None:
                self.inconclusive_first_pass += outcome.inconclusive
        elif self.digests[index] != digest:
            reasons.append("report differs from the first pass")
        self.attempted += 1
        if reasons:
            self.failed += 1
            for reason in reasons:
                self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return elapsed

    def one_traced_system(self, index: int, case, label: str) -> float:
        self.tracer.pass_label = label
        self.tracer.install()
        try:
            return self.one_system(index, case)
        finally:
            self.tracer.uninstall()

    def samples(self) -> int:
        return sum(len(p.latencies) for p in self.passes.values())

    def keep_going(self, started: float, seconds: float, passes: list[float]) -> bool:
        if self.scale == "tiny":
            return not passes
        if len(passes) < MIN_PASSES or self.samples() < MIN_SAMPLES:
            return True
        elapsed = time.perf_counter() - started
        return elapsed + statistics.median(passes) <= seconds

    def timings(self, prefix: str) -> dict:
        """End-to-end times over the passes whose label starts with ``prefix``.

        The gated values are scaled by each pass's factor; ``raw.`` values
        are the wall clock as read, and ``reference.kernel_ms`` is the
        median time of the reference kernel over the whole run.
        """
        passes = [p for label, p in self.passes.items() if label.startswith(prefix)]
        scaled = [t * p.factor for p in passes for t in p.latencies]
        raw = [t for p in passes for t in p.latencies]
        count = len(self.cases)
        return {
            "setup_s": self.setup_s,
            "systems_per_s": count / statistics.median(p.seconds * p.factor for p in passes),
            "latency_p50_ms": 1000.0 * statistics.median(scaled),
            "latency_p90_ms": 1000.0 * percentile(scaled, 90),
            "raw.setup_s": self.raw_setup_s,
            "raw.systems_per_s": count / statistics.median(p.seconds for p in passes),
            "raw.latency_p50_ms": 1000.0 * statistics.median(raw),
            "raw.latency_p90_ms": 1000.0 * percentile(raw, 90),
            "reference.kernel_ms": 1000.0 * statistics.median(self.reference.times),
        }

    def report_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests.values()).encode()).hexdigest()


def run_untraced(run: Run, seconds: float) -> dict:
    started = time.perf_counter()
    passes: list[float] = []
    while run.keep_going(started, seconds, passes):
        passes.append(run.one_pass(f"pass{len(passes)}"))
    timings = run.timings("pass")
    metrics = {name: timings[name] for name in END_TO_END if name in timings}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def run_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Paired untraced and traced passes (``Run.one_pass``), while time is left.

    Returns the per-layer metrics (calls and counters of the first traced
    pass, self times as medians over traced passes, wall-clock times of
    the untraced passes) and the full table.
    """
    import tracing

    tracer = run.tracer
    started = time.perf_counter()
    durations: list[float] = []
    counters: dict[str, float] = {}
    while not durations or (
        run.scale == "full"
        and time.perf_counter() - started + statistics.median(durations) <= seconds
    ):
        pair_started = time.perf_counter()
        index = len(durations)
        run.one_pass(f"plain{index}", f"traced{index}")
        durations.append(time.perf_counter() - pair_started)
        pass_counters = tracer.snapshot_counters()
        counters = counters or pass_counters

    pairs = len(durations)
    tables = [tracer.layer_totals(f"traced{i}") for i in range(pairs)]
    setups = [tracer.layer_totals(f"setup{i}") for i in range(SETUP_REPEATS)]
    metrics: dict[str, float] = {}
    table: dict[str, dict] = {}
    for module, function in tracing.LAYERS:
        layer = tracing.layer_name(module, function)
        source = setups if layer == "generators.generate_system" else tables
        calls = source[0].get(layer, (0, 0.0))[0]
        self_ms = 1000.0 * statistics.median(t.get(layer, (0, 0.0))[1] for t in source)
        table[layer] = {"calls": calls, "self_ms": self_ms}
        metrics[f"{layer}.calls"] = calls
        if layer in SELF_TIME_LAYERS:
            metrics[f"{layer}.self_ms"] = self_ms

    def frac(key: str, layer: str) -> float:
        calls = table[layer]["calls"]
        return counters.get(key, 0.0) / calls if calls else 0.0

    metrics["numpy.linalg.svd.gflop_computed"] = counters.get("svd_flops", 0.0) / 1e9
    metrics["conelp.feasible_nonneg_solution.member_frac"] = frac(
        "lp_member", "conelp.feasible_nonneg_solution"
    )
    metrics["conelp.homogeneous_nonzero.witness_frac"] = frac(
        "witness", "conelp.homogeneous_nonzero"
    )
    metrics["oracle.coverage_probe.lp_count"] = counters.get("probe_lp", 0.0)
    metrics["oracle.coverage_probe.covered_frac"] = frac("probe_covered", "oracle.coverage_probe")
    metrics["oracle.inconclusive"] = run.inconclusive_first_pass
    # Each system's traced minus untraced wall time, from analyses run one
    # right after the other; the median over systems and pairs.
    overheads = [
        t - p
        for i in range(pairs)
        for p, t in zip(run.passes[f"plain{i}"].latencies, run.passes[f"traced{i}"].latencies)
    ]
    metrics["trace.overhead_ms_per_system"] = 1000.0 * statistics.median(overheads)
    timings = run.timings("plain")
    metrics.update({name: timings[name] for name in RAW_METRICS})
    return metrics, table


def print_report(run: Run, args, metrics: dict, units: dict, extra: dict) -> None:
    samples = run.samples()
    failed_frac = run.failed / run.attempted
    timings = run.timings("pass" if args.trace == 0 else "plain")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {units.get(name)}")
    if args.trace == 0:
        for name, unit in RAW_METRICS.items():
            print(f"  {name:<45} {timings[name]:>14.6g} {unit} (wall clock, unscaled)")
    for layer, row in extra.get("layers", {}).items():
        print(f"  {layer:<45} {row['calls']:>8d} calls {row['self_ms']:>12.3f} ms self")
    print(f"  {'samples':<45} {samples:>14d} systems analysed over {len(run.passes)} passes")
    print(f"  {'failed_frac':<45} {failed_frac:>14.6g} ({run.failed} of {run.attempted})")
    for reason, count in sorted(run.reasons.items()):
        print(f"    failed: {reason} x{count}")
    if "oracle.inconclusive" not in metrics:
        print(f"  {'oracle.inconclusive':<45} {run.inconclusive_first_pass:>14d} per pass")
    print(f"  {'report_digest':<45} {run.report_digest()}")
    summary = {
        "workload": args.workload,
        "samples": samples,
        "passes": len(run.passes),
        "pass_seconds": {label: p.seconds for label, p in run.passes.items()},
        "pass_factors": {label: p.factor for label, p in run.passes.items()},
        "setup_factor": run.setup_s / run.raw_setup_s,
        "raw": {name: timings[name] for name in RAW_METRICS},
        "reference_s": run.reference.times,
        "failed_frac": failed_frac,
        "failure_reasons": run.reasons,
        "inconclusive_per_pass": run.inconclusive_first_pass,
        "report_digest": run.report_digest(),
        "environment": environment(args.seed),
        **extra,
    }
    print("perfbench-summary " + json.dumps(summary, sort_keys=True, default=str))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nnscontrol" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nnscontrol

    if Path(nnscontrol.__file__).resolve().parent != (SRC / "nnscontrol").resolve():
        print(f"perfbench: imported nnscontrol from {nnscontrol.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - STARTED
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = tracing.Tracer() if args.trace else None
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.scale, workdir, tracer)
    try:
        if tracer is not None:
            tracer.install()
        try:
            run.setup(import_s)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.snapshot_counters()  # the ratios count timed passes only
        if tracer is None:
            metrics = run_untraced(run, args.seconds)
            units = END_TO_END
            extra = {}
        else:
            metrics, table = run_traced(run, args.seconds)
            units = per_layer_units()
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write_spans(span_file)
            extra = {"layers": table, "span_file": str(span_file.relative_to(ROOT))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    print_report(run, args, metrics, units, extra)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
