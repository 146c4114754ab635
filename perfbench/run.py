"""surfaceflow benchmark: closed-loop CLI workloads with per-module layer timings.

Run from the repository root, for example::

    python3 perfbench/run.py --workload flow-sor-65 --seed 1 --seconds 20 --trace 0

One run is one process with numpy's thread pools pinned to one thread.  It
builds its inputs from ``--seed`` in child processes (timed as ``setup_s``),
then drives ``surfaceflow.cli.main`` in-process one frame pair at a time as
a closed loop: the next pair starts when the previous one has returned.
Every output is checked.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The line before it holds the details (sample counts,
fail ratio, layer self times, tracing overhead, machine facts).  Inputs,
outputs and spans live in ``.perfbench_work/`` at the repository root.
Workloads, metrics and predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# must be set before numpy is imported; setup children inherit it
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import CLI_WRAPS, END, INFO, NAME, PAIR, START, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Input noise.  1e-3 keeps CG iteration counts within about 2% of the
# noise-free problem (368 vs 377 at 257^2 on moving-bump); 1e-2 makes
# moving-bump a different problem (EPE 0.024 -> 0.70 px, 233 iterations).
NOISE_SIGMA = "1e-3"
ALPHA = "10"
TOL = "1e-6"
# per-component sigma (px) of the perturbation added to stored flow files
FLOW_SIGMA = 0.1
SETUP_REPEATS = 5
PROBE_ITERATIONS = 40
FLOW_MAGIC = 202021.25


@dataclass(frozen=True)
class Workload:
    kind: str  # "flow": flow + eval per pair; "seq": energy + eval + color
    size: int
    frames: int
    scenes: tuple  # (scene name, EPE ceiling in px), one dataset each
    method: str = ""


# EPE ceilings sit 10% (rotation) to 40% (noise-dominated translation)
# above the largest EPE measured over 3-12 seeds, so a solver that stops
# converging to the same minimiser fails the pair while seed noise does not.
WORKLOADS = {
    # the solver is about 95% of each pair: CG operator applies and iterations
    "flow-cg-257": Workload(
        "flow", 257, 3, (("moving-bump", 0.035), ("paraboloid-rotate", 2.8)), "cg"
    ),
    # small grid: SOR's per-colour full-gradient applies and Python overhead
    "flow-sor-65": Workload(
        "flow",
        65,
        3,
        (("flat-translate", 0.02), ("paraboloid-rotate", 0.7), ("moving-bump", 0.025)),
        "sor",
    ),
    # no solve: load_sequence reads all 130 maps to use 4; reads and writes files
    "seq-eval-257": Workload("seq", 257, 65, (("moving-bump", 0.15),)),
}


@dataclass(frozen=True)
class Job:
    """One frame pair: the CLI calls it makes and how to check them."""

    key: str
    scene: str
    frame: int
    ceiling: float
    calls: tuple
    flow_file: Path  # flow the pair writes (flow) or evaluates (seq)
    truth_file: Path
    manifest: Path
    ppm_file: Path | None = None


def make_jobs(workload: Workload, data: Path, out: Path) -> list[Job]:
    jobs = []
    if workload.kind == "flow":
        for scene, ceiling in workload.scenes:
            manifest = data / scene / "manifest.txt"
            flow_file = out / scene / "flow_0000_0001.flo"
            truth_file = data / scene / "truth_0000_0001.flo"
            calls = (
                ("flow", "--manifest", str(manifest), "--frame", "0",
                 "--method", workload.method, "--alpha", ALPHA, "--tol", TOL,
                 "--out", str(out / scene)),
                ("eval", "--flow", str(flow_file), "--truth", str(truth_file)),
            )
            jobs.append(Job(scene, scene, 0, ceiling, calls, flow_file, truth_file, manifest))
        return jobs
    (scene, ceiling), = workload.scenes
    manifest = data / scene / "manifest.txt"
    for k in range(workload.frames - 1):
        stored = data / "stored" / f"flow_{k:04d}_{k + 1:04d}.flo"
        truth_file = data / scene / f"truth_{k:04d}_{k + 1:04d}.flo"
        ppm = out / f"color_{k:04d}.ppm"
        calls = (
            ("energy", "--manifest", str(manifest), "--frame", str(k),
             "--alpha", ALPHA, "--flow", str(stored)),
            ("eval", "--flow", str(stored), "--truth", str(truth_file)),
            ("color", "--flow", str(stored), "--out", str(ppm)),
        )
        jobs.append(Job(f"{scene}/{k}", scene, k, ceiling, calls, stored, truth_file,
                        manifest, ppm))
    return jobs


def load_program():
    """Import surfaceflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "surfaceflow" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'surfaceflow'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import surfaceflow.cli as cli
    import surfaceflow.io as sfio
    from surfaceflow import geometry, grid, model, solver

    if Path(cli.__file__).resolve().parent != (SRC / "surfaceflow").resolve():
        sys.exit(f"error: surfaceflow imported from {cli.__file__}, not {SRC}")
    # originals, bound before any tracer patches cli or io
    return SimpleNamespace(
        cli=cli,
        io=sfio,
        read_manifest=sfio.read_manifest,
        read_float_image=sfio.read_float_image,
        read_flow=sfio.read_flow,
        write_flow=sfio.write_flow,
        ScalarField=grid.ScalarField,
        VectorField=grid.VectorField,
        build_geometry=geometry.build_geometry,
        problem_from_frames=model.problem_from_frames,
        energy=model.energy,
        energy_gradient=model.energy_gradient,
        solve=solver.solve,
        SolverConfig=solver.SolverConfig,
    )


def call_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_report(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def read_flo(path: Path):
    """The benchmark's own .flo reader; raises ValueError if it does not read back."""
    data = path.read_bytes()
    if len(data) < 12:
        raise ValueError(f"{path}: shorter than a .flo header")
    magic, width, height = struct.unpack_from("<fii", data)
    if magic != FLOW_MAGIC or width <= 0 or height <= 0 or len(data) != 12 + 8 * width * height:
        raise ValueError(f"{path}: not a well-formed .flo file")
    samples = np.frombuffer(data, "<f4", offset=12).reshape(height, width, 2).astype(np.float64)
    if not np.isfinite(samples).all():
        raise ValueError(f"{path}: non-finite samples")
    return samples[..., 0], samples[..., 1]


def numpy_epe(flow: Path, truth: Path) -> float:
    u1, u2 = read_flo(flow)
    v1, v2 = read_flo(truth)
    return float(np.mean(np.sqrt((u1 - v1) ** 2 + (u2 - v2) ** 2)))


# ---------------------------------------------------------------------------
# set-up: one child process per repetition


def build_inputs(workload: Workload, seed: int, data: Path, trace: bool) -> None:
    """Body of a set-up child: imports, render, dataset and flow-file writes."""
    program = load_program()
    tracer = Tracer()
    if trace:
        install_wraps(tracer, program)
    with tracer.span("bench.setup"):
        for index, (scene, _) in enumerate(workload.scenes):
            argv = ("synth", scene, "--out", str(data / scene), "--size", str(workload.size),
                    "--frames", str(workload.frames), "--noise", NOISE_SIGMA,
                    "--seed", str(seed * 100 + index))
            with tracer.span("cli.main"):
                code, _, err = call_cli(program.cli, argv)
            if code != 0:
                sys.exit(f"synth {scene} failed with exit code {code}: {err}")
        if workload.kind == "seq":
            # stored flows: truth plus a seeded white-noise perturbation
            rng = np.random.default_rng([seed, 1])
            (data / "stored").mkdir()
            scene = workload.scenes[0][0]
            for k in range(workload.frames - 1):
                v1, v2 = read_flo(data / scene / f"truth_{k:04d}_{k + 1:04d}.flo")
                u1 = v1 + rng.normal(0.0, FLOW_SIGMA, v1.shape)
                u2 = v2 + rng.normal(0.0, FLOW_SIGMA, v2.shape)
                with tracer.span("io.write_flow"):
                    program.write_flow(data / "stored" / f"flow_{k:04d}_{k + 1:04d}.flo", u1, u2)
    tracer.unwrap_all()
    if trace:
        doc = {"summary": summarize(tracer.spans), "spans": tracer.to_json()}
        (data / "setup_spans.json").write_text(json.dumps(doc))


def timed_setup(name: str, seed: int, data: Path, trace: bool, repeats: int) -> list[float]:
    """Wall time of each set-up child, from process start to exit."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(data, ignore_errors=True)
        data.mkdir(parents=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(data),
                "--workload", name, "--seed", str(seed), "--seconds", "1",
                "--trace", str(int(trace))]
        start = time.perf_counter()
        child = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            sys.exit(f"error: set-up failed with exit code {child.returncode}")
    return times


def flush_to_disk(data: Path) -> None:
    """fsync every input file, so their write-back does not overlap the timed pairs."""
    for path in data.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


# ---------------------------------------------------------------------------
# the closed loop


def install_wraps(tracer: Tracer, program) -> None:
    def count_bytes(record, args, result):
        record[INFO] = {"bytes": os.path.getsize(args[0])}

    def solved(record, args, result):
        record[INFO] = {"iterations": result[1].iterations}

    after = {
        "io.read_float_image": count_bytes,
        "io.read_flow": count_bytes,
        "io.read_manifest": count_bytes,
        "solver.solve": solved,
    }
    for module, attr, name in CLI_WRAPS:
        tracer.wrap(getattr(program, module), attr, name, after.get(name))


class Loop:
    """Runs the workload's pairs, checks each one, and keeps the results."""

    def __init__(self, program, workload: Workload, jobs: list[Job]):
        self.program = program
        self.workload = workload
        self.jobs = jobs
        self.round = len(jobs) if workload.kind == "flow" else 1
        self.first_output: dict[str, tuple] = {}
        self.quality: dict[str, tuple[float, float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.next_job = 0
        self.current: Job | None = None

    def run_phase(self, budget: float, min_pairs: int,
                  tracer: Tracer | None = None) -> list[tuple]:
        """Pairs until ``budget`` seconds have passed, at least ``min_pairs``
        of them and a whole number of rounds; returns (pair id, job, seconds)."""
        done = []
        start = time.perf_counter()
        while (len(done) < min_pairs or len(done) % self.round
               or time.perf_counter() - start < budget):
            job = self.current = self.jobs[self.next_job % len(self.jobs)]
            self.next_job += 1
            pair_id = self.attempted
            self.attempted += 1
            outputs, seconds = self.run_pair(job, pair_id, tracer)
            reasons = self.check(job, outputs)
            if reasons:
                self.failures.append(f"pair {pair_id} ({job.key}): " + "; ".join(reasons))
            done.append((pair_id, job, seconds))
        return done

    def run_pair(self, job: Job, pair_id: int, tracer: Tracer | None):
        cli = self.program.cli
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        outputs = []
        if tracer is not None:
            tracer.pair = pair_id
        start = time.perf_counter()
        try:
            with span("bench.pair"):
                for argv in job.calls:
                    with span("cli.main"):
                        outputs.append(call_cli(cli, argv))
        except Exception as exc:  # a crash in the program fails the pair, not the run
            outputs.append((None, "", f"{type(exc).__name__}: {exc}"))
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.pair = None
        return outputs, seconds

    def check(self, job: Job, outputs: list[tuple]) -> list[str]:
        """The correctness gates; returns the reasons the pair failed."""
        bad = [f"{argv[0]} exited {code}: {err.strip()}"
               for argv, (code, _, err) in zip(job.calls, outputs) if code != 0]
        if bad or len(outputs) != len(job.calls):
            return bad or [outputs[-1][2]]
        texts = tuple(text for _, text, _ in outputs)
        reasons = []
        if self.first_output.setdefault(job.key, texts) != texts:
            reasons.append("output differs from the first run of the same pair")
        reports = [parse_report(text) for text in texts]
        try:
            if self.workload.kind == "flow":
                if reports[0]["converged"] != "true":
                    reasons.append("report says converged=false")
            else:
                reference = self.library_energy(job)
                if float(reports[0]["energy"]) != reference:
                    reasons.append(f"energy {reports[0]['energy']} != library energy() "
                                   f"{reference!r}")
                side = self.workload.size
                if job.ppm_file.stat().st_size != len(f"P6\n{side} {side}\n255\n") + 3 * side * side:
                    reasons.append("color output has the wrong size")
            epe = float(reports[1]["epe_mean"])
            ae = float(reports[1]["angular_error_mean_deg"])
        except (KeyError, ValueError) as exc:
            return reasons + [f"unreadable report: {exc!r}"]
        try:
            own = numpy_epe(job.flow_file, job.truth_file)
        except (OSError, ValueError) as exc:
            return reasons + [f".flo does not read back: {exc}"]
        if abs(epe - own) > 1e-12 * max(1.0, own):
            reasons.append(f"eval epe_mean {epe!r} != numpy EPE {own!r}")
        if epe > job.ceiling:
            reasons.append(f"EPE {epe} above the ceiling {job.ceiling}")
        self.quality.setdefault(job.key, (epe, ae))
        return reasons

    def library_energy(self, job: Job) -> float:
        """energy() of the stored flow, built from the same files as the CLI."""
        p = self.program
        u1, u2 = p.read_flow(job.flow_file)
        problem = self.library_problem(job)
        return p.energy(problem, p.VectorField.from_arrays(problem.spec, u1, u2))

    def library_problem(self, job: Job):
        """The pair's FlowProblem, built by the library as the CLI builds it."""
        p = self.program
        manifest = p.read_manifest(job.manifest)
        spec = manifest.spec
        i, j = job.frame, job.frame + 1

        def field(rel):
            return p.ScalarField(spec, p.read_float_image(manifest.base_dir / rel))

        step = (j - i) * spec.dt
        if manifest.static_surface:
            geom = p.build_geometry(field(manifest.height_paths[0]))
        else:
            geom = p.build_geometry(field(manifest.height_paths[i]),
                                    field(manifest.height_paths[j]), dt=step)
        return p.problem_from_frames(field(manifest.frame_paths[i]),
                                     field(manifest.frame_paths[j]), geom,
                                     alpha=float(ALPHA), dt=step)

    def quality_means(self) -> tuple[float, float]:
        """Mean EPE and AE over the distinct pairs run so far."""
        values = list(self.quality.values())
        if not values:  # every pair failed
            return None, None
        return (statistics.mean(v[0] for v in values), statistics.mean(v[1] for v in values))


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_probe(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe(program, workload: Workload, problem) -> dict:
    """One-off layer timings on a pair's problem, after the timed pairs.

    They run last and on a rebuilt problem: holding a problem's arrays
    alive, or a large solve, changes the allocator's state and with it the
    time of the pairs that follow.
    """
    p = program
    # the flow workloads' config as the CLI builds it; CG where nothing solves
    config = p.SolverConfig(method=workload.method or "cg", tol=float(TOL))
    spec = problem.spec
    u = p.VectorField.from_arrays(spec, np.full(spec.shape, 0.5), np.full(spec.shape, -0.25))
    found = {
        "first_iter_s": median_probe(lambda: p.solve(problem, replace(config, max_iter=1)), 3),
        "apply_s": median_probe(lambda: p.energy_gradient(problem, u)),
        "energy_s": median_probe(lambda: p.energy(problem, u)),
    }
    if workload.kind == "seq":
        # for workloads without a solve: the cost of the next PROBE_ITERATIONS
        many = median_probe(
            lambda: p.solve(problem, replace(config, max_iter=1 + PROBE_ITERATIONS)), 3)
        found["iter_s"] = (many - found["first_iter_s"]) / PROBE_ITERATIONS
    return found


def pair_times(done: list[tuple]) -> dict[str, list[float]]:
    """Pair wall times by scene, in the order they ran."""
    by_scene = {}
    for _, job, seconds in done:
        by_scene.setdefault(job.scene, []).append(seconds)
    return by_scene


def pair_p50(done: list[tuple]) -> float:
    """Median wall time per pair, taken per scene and averaged over scenes.

    Scenes of one workload differ in cost; the median of the pooled times
    would sit between two scenes and follow their extreme samples.
    """
    return statistics.mean(statistics.median(times) for times in pair_times(done).values())


def end_to_end(loop: Loop, done: list[tuple], setup_times: list[float]) -> tuple[dict, dict]:
    times = [seconds for _, _, seconds in done]
    epe, ae = loop.quality_means()
    metrics = {
        "pair_s_p50": metric(pair_p50(done), "s"),
        "pairs_per_s": metric(len(times) / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "epe_mean_px": metric(epe, "px"),
        "ae_mean_deg": metric(ae, "deg"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "pairs": len(times),
        "distinct_pairs": len(loop.quality),
        # the 90th percentile needs ten samples beyond it
        "pair_s_p90": metric(percentile(times, 90), "s") if len(times) >= 100 else None,
        "setup_times_s": setup_times,
        "pair_times_s": pair_times(done),
    }
    return metrics, details


def per_layer(loop: Loop, tracer: Tracer, traced: list[tuple], untraced: list[tuple],
              setup: dict, probes: dict) -> tuple[dict, dict]:
    n = len(traced)
    pair_ids = {pair_id for pair_id, _, _ in traced}
    summary = summarize(tracer.spans, pair_ids)
    total, calls, self_time = summary["total"], summary["calls"], summary["self"]

    def per_pair(*names):
        return sum(total.get(name, 0.0) for name in names) / n

    def completed(*names):
        # a call that raised has no INFO; its pair is already counted as failed
        return [record for record in tracer.spans if record[PAIR] in pair_ids
                and record[NAME] in names and record[INFO] is not None]

    def info_sum(key, *names):
        return sum(record[INFO][key] for record in completed(*names))

    readers = ("io.read_float_image", "io.read_flow", "io.read_manifest")
    iterations = info_sum("iterations", "solver.solve")
    first_iter = statistics.mean(p["first_iter_s"] for p in probes.values())
    apply_s = statistics.mean(p["apply_s"] for p in probes.values())
    solves = {}  # scene -> [(seconds, iterations), ...]
    scene_of = {pair_id: job.scene for pair_id, job, _ in traced}
    for record in completed("solver.solve"):
        solves.setdefault(scene_of[record[PAIR]], []).append(
            (record[END] - record[START], record[INFO]["iterations"]))
    if solves:
        # (solve - first_iter) / (iterations - 1), pooled over the scenes
        iter_s = (sum(statistics.mean(t for t, _ in runs) - probes[scene]["first_iter_s"]
                      for scene, runs in solves.items())
                  / sum(runs[0][1] - 1 for runs in solves.values()))
    else:
        # no solve in the pairs: from the probe solves
        iter_s = statistics.mean(p["iter_s"] for p in probes.values())
    layers = ("cli", "io", "geometry", "model", "solver", "bench")
    setup_total = setup["total"]
    metrics = {
        "solver.solve_s": metric(per_pair("solver.solve"), "s"),
        "solver.iterations": metric(iterations / n, "count"),
        "solver.iter_ms": metric(iter_s * 1e3, "ms"),
        "solver.first_iter_s": metric(first_iter, "s"),
        "solver.applies_per_iter": metric(iter_s / apply_s, "count"),
        "model.apply_ms": metric(apply_s * 1e3, "ms"),
        "model.problem_s": metric(per_pair("model.problem_from_frames"), "s"),
        "model.energy_ms": metric(statistics.mean(p["energy_s"] for p in probes.values()) * 1e3,
                                  "ms"),
        "geometry.build_s": metric(per_pair("geometry.build_geometry"), "s"),
        "io.load_sequence_s": metric(per_pair("io.load_sequence"), "s"),
        "io.read_manifest_s": metric(per_pair("io.read_manifest"), "s"),
        "io.files_read_per_pair": metric(sum(calls.get(r, 0) for r in readers) / n, "count"),
        "io.bytes_read_per_pair": metric(info_sum("bytes", *readers) / n, "B"),
        "io.read_flow_s": metric(per_pair("io.read_flow"), "s"),
        "io.write_flow_s": metric(per_pair("io.write_flow"), "s"),
        "io.colorize_s": metric(per_pair("io.colorize"), "s"),
        "io.write_ppm_s": metric(per_pair("io.write_ppm"), "s"),
        "synth.render_s": metric(setup_total.get("synth.render", 0.0), "s"),
        "io.dataset_write_s": metric(sum(setup_total.get(name, 0.0) for name in
                                         ("io.write_float_image", "io.write_flow",
                                          "io.write_manifest")), "s"),
        "cli.flow_s": metric(per_pair("cli.flow"), "s"),
        "cli.energy_s": metric(per_pair("cli.energy"), "s"),
        "cli.eval_s": metric(per_pair("cli.eval"), "s"),
        "cli.color_s": metric(per_pair("cli.color"), "s"),
    }
    for layer in layers[:-1]:
        metrics[f"{layer}.self_s"] = metric(self_time.get(layer, 0.0) / n, "s")
    traced_p50, untraced_p50 = pair_p50(traced), pair_p50(untraced)
    pair_total = sum(seconds for _, _, seconds in traced)
    metrics["pair.traced_s_p50"] = metric(traced_p50, "s")
    details = {
        "traced_pairs": n,
        "untraced_pairs": len(untraced),
        "untraced_pair_s_p50": untraced_p50,
        "tracing_overhead_s": traced_p50 - untraced_p50,
        "self_share": {layer: self_time.get(layer, 0.0) / pair_total for layer in layers},
        "setup_self_s": setup["self"],
        "probes": probes,
    }
    return metrics, details


# ---------------------------------------------------------------------------
# machine facts


def read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_facts(program, workload: Workload) -> dict:
    model = None
    for line in (read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    llc = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_text(index / "level")
        if read_text(index / "type") in ("Unified", "Data") and level is not None:
            if llc is None or int(level) >= llc["level"]:
                llc = {"level": int(level), "size": read_text(index / "size")}
    field_bytes = workload.size * workload.size * 8
    # load_sequence keeps every frame and height map of a dataset as float64
    maps = {}
    for scene, _ in workload.scenes:
        surface = program.cli.make_scene(scene, size=workload.size).surface
        maps[scene] = workload.frames + (workload.frames if surface.time_dependent else 1)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "field_bytes_float64": field_bytes,
        "loaded_bytes_per_pair_computed": {scene: count * field_bytes
                                           for scene, count in maps.items()},
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_into is not None:
        build_inputs(workload, args.seed, args.setup_into, bool(args.trace))
        return 0
    program = load_program()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    data, out = run_dir / "data", run_dir / "out"
    try:
        setup_times = timed_setup(args.workload, args.seed, data, bool(args.trace),
                                  1 if args.trace else SETUP_REPEATS)
        flush_to_disk(data)
        jobs = make_jobs(workload, data, out)
        out.mkdir()
        loop = Loop(program, workload, jobs)
        if not args.trace:
            # at least one pass over every distinct pair, so EPE covers them all
            done = loop.run_phase(args.seconds, len(jobs))
            metrics, details = end_to_end(loop, done, setup_times)
        else:
            untraced = loop.run_phase(args.seconds / 2, loop.round)
            setup = json.loads((data / "setup_spans.json").read_text())
            tracer = Tracer()
            install_wraps(tracer, program)
            try:
                traced = loop.run_phase(args.seconds / 2, loop.round, tracer)
            finally:
                tracer.unwrap_all()
            try:
                probes = {job.scene: probe(program, workload, loop.library_problem(job))
                          for job in jobs[:loop.round]}
                metrics, details = per_layer(loop, tracer, traced, untraced, setup["summary"],
                                             probes)
            except Exception:
                if not loop.failures:
                    raise
                # the program already failed pairs; report those, not this
                traceback.print_exc()
                metrics, details = {}, {}
            details["epe_mean_px"], details["ae_mean_deg"] = loop.quality_means()
            (run_dir / "spans.json").write_text(json.dumps(
                {"setup": setup["spans"], "pairs": tracer.to_json()}))
        failed = len(loop.failures)
        details.update({
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "attempted": loop.attempted,
            "fail_ratio": metric(failed / loop.attempted, "ratio"),
            "failures": loop.failures[:20],
            "machine": machine_facts(program, workload),
        })
        result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                  "metrics": metrics}
        (run_dir / "result.json").write_text(json.dumps({"result": result, "details": details},
                                                        indent=1))
    finally:
        shutil.rmtree(data, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
    for failure in loop.failures[:20]:
        print(failure, file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
