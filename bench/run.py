"""wrlab benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload small-trials --seed 1 --seconds 20 --trace 0

Run from anywhere; it benchmarks the wrlab sources in `src/` next to this
directory. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A full report, with the
machine facts and every round's timings, goes to `bench/out/`; the traced
run also writes its spans there. See README.md.
"""

import os
import sys

# One BLAS thread, set before numpy loads: with OpenBLAS's default of one
# thread per core the bootstrap's matmuls run in slow, erratic phases and use
# twice the CPU for no wall-time gain (README, "Why BLAS is pinned").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WRLAB_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, RoundOutput, round_seed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description="wrlab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def probe_setup() -> tuple[float, float]:
    """(seconds from process start to ready, import seconds) of one fresh process."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return ready, json.loads(line)["import_s"]


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library when possible."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "wrlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "wrlab_commit": commit, "wrlab_source_sha256": digest.hexdigest(),
            "machine": platform.machine()}


def run_round(workload, seed: int, cli):
    """Run one round's commands, timed; then read their outputs (untimed)."""
    commands = workload.commands(seed)
    for c in commands:
        c.out.unlink(missing_ok=True)
    codes = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for c in commands:
        try:
            codes.append(cli.main(c.argv))
        except Exception:  # a crash fails the command's operations; keep measuring
            traceback.print_exc()
            codes.append(-1)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    out = RoundOutput(seed)
    for c, code in zip(commands, codes):
        if code != 0:
            out.outputs[c.label] = None
            out.failed += c.ops
            continue
        out.outputs[c.label], failed = workload.parse(c)
        out.failed += failed
    return wall, cpu, out


def layer_metrics(tracer, workload, n_rounds: int, walls: dict, useful: list,
                  import_s: float) -> dict:
    from tracing import LAYERS
    agg = tracer.by_name()

    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def mean(*names, scale=1e6):
        c = calls(*names)
        return total(*names) / c * scale if c else 0.0

    def per(x, d):
        return x / d if d else 0.0

    datasets = workload.datasets_per_round * n_rounds
    simulated = workload.simulated_per_round * n_rounds
    m = {}
    for layer in LAYERS:
        rows = [v for k, v in agg.items() if k.startswith(layer + ".")]
        m[f"{layer}.self_s"] = sum(r[2] for r in rows) / n_rounds
        m[f"{layer}.calls"] = sum(r[0] for r in rows) / n_rounds
    generators = ("datagen.gen_binary_continuous_arm", "datagen.gen_tte_composite_arm",
                  "datagen.gen_iphak_arm", "datagen.gen_tte_arm")
    m["datagen.substream_us"] = mean("datagen.substream")
    m["datagen.generate_us"] = per(total(*generators) * 1e6, simulated)
    m["core.tally_us"] = mean("core.tally_columns")
    m["core.verdict_matrices_per_dataset"] = per(calls("core.pairwise_verdicts"), datasets)
    m["core.pairs_per_dataset"] = per(tracer.cells_built,
                                      workload.pairs_per_round * n_rounds)
    for layer in ("core", "inference"):
        peaks = [p for n, p in zip(tracer.names, tracer.peak_alloc) if n.startswith(layer + ".")]
        m[f"{layer}.peak_alloc_mb"] = max(peaks, default=0) / 2**20
    m["inference.score_us"] = mean("inference.score_test_columns")
    m["inference.bootstrap_us"] = mean("inference.bootstrap_columns")
    m["inference.bootstrap_valid_ratio"] = per(tracer.boot_valid, tracer.boot_drawn)
    m["inference.wald_us"] = mean("inference.wald_test_log_wr", "inference.yu_wald_test")
    m["stattests.t_test_us"] = mean("stattests.t_test")
    m["stattests.fisher_exact_us"] = mean("stattests.fisher_exact")
    m["stattests.chi_square_us"] = mean("stattests.chi_square_test")
    m["stattests.log_rank_us"] = mean("stattests.log_rank_test")
    m["ranksim.solve_omega_us"] = mean("ranksim.solve_omega")
    m["ranksim.solve_omega_calls"] = calls("ranksim.solve_omega") / n_rounds
    m["ranksim.solve_omega_useful_ratio"] = statistics.fmean(useful) if useful else 0.0
    m["ranksim.rank_trial_us"] = mean("ranksim.simulate_rank_trial")
    m["engine.loop_self_us"] = per(agg.get("engine.run_scenario", (0, 0.0, 0.0))[2] * 1e6,
                                   simulated)
    m["engine.emit_ms"] = mean("engine.results_to_csv", "engine.results_to_json", scale=1e3)
    m["io.read_dataset_ms"] = mean("io.read_dataset", scale=1e3)
    m["io.read_hierarchy_ms"] = mean("io.read_hierarchy", scale=1e3)
    cli_self = sum(v[2] for k, v in agg.items() if k.startswith("cli."))
    m["cli.self_ms"] = per(cli_self * 1e3, calls("cli.main"))
    m["setup.import_s"] = import_s
    m["trace.overhead_pct"] = 100.0 * (statistics.median(walls["traced"])
                                       / statistics.median(walls["untraced"]) - 1.0)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wrlab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no wrlab sources at {SRC / 'wrlab'}\n")
        return 2
    sys.path.insert(0, str(SRC))
    phases = {}
    mark = time.perf_counter()
    probes = [probe_setup() for _ in range(SETUP_PROBES)]
    phases["setup_probes"], mark = time.perf_counter() - mark, time.perf_counter()

    import wrlab
    import wrlab.cli as cli
    if Path(wrlab.__file__).resolve().parent != SRC / "wrlab":
        sys.stderr.write(f"bench: imported wrlab from {wrlab.__file__}, not {SRC}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT, args.seed)
    workload.prepare()
    phases["prepare"], mark = time.perf_counter() - mark, time.perf_counter()
    _, _, warm = run_round(workload, round_seed(args.seed, 0), cli)
    phases["warm_up"], mark = time.perf_counter() - mark, time.perf_counter()
    rounds = [warm]
    walls = {"untraced": [], "traced": []}
    cpus = []
    tracer = None
    useful = []
    start = time.perf_counter()
    if not args.trace:
        while time.perf_counter() - start < args.seconds:
            wall, cpu, out = run_round(workload, round_seed(args.seed, len(rounds)), cli)
            rounds.append(out)
            walls["untraced"].append(wall)
            cpus.append(cpu)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer
        import tracemalloc
        tracer = Tracer()
        # Untraced and traced rounds alternate, so drift hits both alike.
        while time.perf_counter() - start < args.seconds or not walls["traced"]:
            for traced in (False, True):
                if traced:
                    tracer.omega_keys = set()
                    omega_calls = tracer.by_name().get("ranksim.solve_omega", (0,))[0]
                    tracer.record_spans = not walls["traced"]
                    tracer.install()
                try:
                    wall, _, out = run_round(workload, round_seed(args.seed, len(rounds)), cli)
                finally:
                    tracer.uninstall()
                    tracer.record_spans = False
                rounds.append(out)
                walls["traced" if traced else "untraced"].append(wall)
                if traced:
                    n = tracer.by_name().get("ranksim.solve_omega", (0,))[0] - omega_calls
                    if n:
                        useful.append(len(tracer.omega_keys) / n)
        # Peak allocations in a separate, slower pass with tracemalloc on.
        tracer.alloc = True
        tracemalloc.start()
        tracer.install()
        try:
            _, _, out = run_round(workload, round_seed(args.seed, len(rounds)), cli)
        finally:
            tracer.uninstall()
            tracemalloc.stop()
            tracer.alloc = False
        rounds.append(out)

    phases["measure"], mark = time.perf_counter() - mark, time.perf_counter()
    from checks import CheckError
    correct = True
    try:
        workload.check(rounds)
    except CheckError as exc:
        correct = False
        sys.stderr.write(f"bench: CHECK FAILED: {exc}\n")

    phases["check"] = time.perf_counter() - mark
    attempted = workload.ops_per_round * len(rounds)
    failed = sum(r.failed for r in rounds)
    setup_s = statistics.median(p[0] for p in probes)
    import_s = statistics.median(p[1] for p in probes)
    if args.trace:
        metrics = layer_metrics(tracer, workload, len(walls["traced"]), walls, useful,
                                import_s)
        spans_path = OUT / f"{args.workload}-spans.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                          "spans": tracer.span_records()}))
    else:
        wall = statistics.median(walls["untraced"])
        metrics = {"setup_s": setup_s, "wall_s": wall,
                   "datasets_per_s": workload.datasets_per_round / wall,
                   "cpu_s": statistics.median(cpus), "peak_rss_mb": peak_rss_mb}
    # Names and units come from BENCHMARK.json, so the two cannot drift apart.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from "
                           "BENCHMARK.json")
    report_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "rounds": len(rounds), "round_seconds": walls, "round_cpu_seconds": cpus,
        "setup_probes": [{"ready_s": r, "import_s": i} for r, i in probes],
        "phase_seconds": phases,
        "datasets_per_round": workload.datasets_per_round,
        "ops_per_round": workload.ops_per_round,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": report_metrics,
    }
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-report{suffix}.json").write_text(json.dumps(report, indent=2) + "\n")
    sys.stderr.write(f"bench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
                     f"phases {json.dumps({k: round(v, 2) for k, v in phases.items()})}, "
                     f"machine {json.dumps(report['machine'])}\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
