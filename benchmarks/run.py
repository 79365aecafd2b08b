"""Benchmark of the nvcavity design loop, spectrum fitting and CLI pipeline.

    python3 benchmarks/run.py --workload design|fit|cli --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the toolkit in ``src/`` next to this
directory and works under ``.bench-runs/`` there.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
the metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``).  See README.md in this directory for what each workload
and metric means.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import bench_checks as ck
import bench_inputs as inp
from bench_trace import Tracer, nested_calls, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench-runs"
CLI_MAIN = "import sys; from nvcavity.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPEATS = 3
DESIGN_CASES = 64
CLI_CASES = 16
STEP_TIMEOUT_S = 170


def load_toolkit():
    """Import nvcavity from this checkout's ``src/`` and nowhere else."""
    package = SRC / "nvcavity"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: toolkit source not found at {package}")
    sys.path.insert(0, str(SRC))
    import nvcavity
    import nvcavity.cli  # noqa: F401  (traced with the other modules)
    if Path(nvcavity.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported nvcavity from {nvcavity.__file__}, not {package}")
    return nvcavity


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_child(code):
    """Start and end time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(),
                   check=True, timeout=STEP_TIMEOUT_S)
    return t0, time.perf_counter()


class Tally:
    """Operation counts and timings of one measured phase."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.incorrect = 0

    def add(self, seconds, verdict):
        self.times.append(seconds)
        if verdict == "failed":
            self.failed += 1
        elif verdict == "incorrect":
            self.incorrect += 1


def run_one(workload, case, tally, tracer=None):
    """Time one operation, then check its outputs outside the timed region."""
    workload.tracer = tracer
    if tracer is not None:
        tracer.op = f"{workload.name}-{len(tally.times)}"
    t0 = workload.clock()
    out = workload.run(case)
    dt = workload.clock() - t0
    try:
        verdict = workload.check(case, out)
    except ck.CheckFailed as exc:
        print(f"INCORRECT {workload.name} op {len(tally.times)}: {exc}", file=sys.stderr)
        verdict = "incorrect"
    tally.add(dt, verdict)


def run_ops(workload, rounds, seconds, tracer=None):
    """Run whole rounds of operations until ``seconds`` of them are timed."""
    tally = Tally()
    for ops in rounds:
        for case in ops:
            run_one(workload, case, tally, tracer)
        if sum(tally.times) >= seconds:
            break
    return tally


def cycle(cases, per_round=1):
    while True:
        for i in range(0, len(cases), per_round):
            yield cases[i:i + per_round]


# --- design --------------------------------------------------------------


# In-process operations are timed in CPU time of this process: on a
# shared virtual machine the wall clock also counts the time the host
# runs other guests, which comes and goes over minutes.  These operations
# are single-threaded, so the two agree on an idle machine.
IN_PROCESS_CLOCK = time.process_time


class DesignWorkload:
    """One seeded bow-tie design through every stage of the loop."""

    name = "design"
    clock = staticmethod(IN_PROCESS_CLOCK)

    def __init__(self, nv, seed, workdir):
        self.nv = nv
        self.workdir = workdir
        self.cases = inp.design_cases(seed, DESIGN_CASES)

    def grids(self, case):
        return [("sample", inp.SAMPLE_EXTENTS, inp.SAMPLE_DIMS),
                ("wide", inp.wide_extents(case), inp.WIDE_DIMS)]

    def setup(self):
        """Warm-up: one pass of the first design on 5x5x3 grids."""
        case = self.cases[0]
        self.run(case, [(label, ext, (5, 5, 3)) for label, ext, _ in self.grids(case)])

    def rounds(self):
        return cycle(self.cases, inp.DESIGN_ROUND)

    def run(self, case, grids=None):
        nv = self.nv
        c, fm, spin, cp = nv.circuit, nv.fieldmap, nv.nvspin, nv.coupling
        probe = c.CavityGeometry(plate_area=case["A"], gap=1e-3,
                                 path_length=case["l"], path_width=case["w"])
        gap = c.gap_for_frequency(probe, case["f_target"])
        f_c = c.eigenfrequency(c.CavityGeometry(
            plate_area=case["A"], gap=gap, path_length=case["l"],
            path_width=case["w"])).f_c
        b_tuned = spin.zeeman_tune(spin.SpinSpecies(), spin.NV_AXES,
                                   case["direction"], f_c)
        sheets = fm.bowtie_sheet_pair(case["L"], case["W"], case["G"], 1.0)
        region = fm.SampleRegion(center=inp.REGION_CENTER, extents=inp.REGION_EXTENTS)
        ensemble = cp.EnsembleSpec(density_ppm=case["ppm"], region=region)
        maps = []
        for label, extents, dims in grids or self.grids(case):
            raw = fm.biot_savart_map(sheets, fm.GridSpec.centered(extents, dims))
            norm = fm.normalize_to_vacuum(raw, f_c)
            hom = fm.homogeneity(norm, region)
            report = cp.coupling_report(norm, ensemble, kappa=inp.KAPPA_REF,
                                        gamma_star=inp.GAMMA_REF)
            path = self.workdir / f"{label}.csv"
            fm.export_map(path, norm)
            back = fm.ingest_map(path)
            maps.append((raw, norm, hom, report, back))
        return gap, f_c, b_tuned, maps

    def check(self, case, out):
        gap, f_c, b_tuned, maps = out
        ck.check_design(case, gap, f_c)
        ck.check_zeeman(b_tuned, case["direction"], f_c)
        for k, (raw, norm, hom, report, back) in enumerate(maps):
            nodes = ck.pick_nodes(raw.dims, case["check_seed"] + k, 2)
            ck.check_field_nodes(raw.b, raw.origin, raw.spacing,
                                 (case["L"], case["W"], case["G"]), nodes)
            ck.check_mirror_symmetry(raw.b)
            ck.check_normalization(raw.b, raw.energy_j, norm.b, norm.energy_j,
                                   norm.photon_frequency_hz, f_c)
            stats = ck.region_stats(norm.b, norm.origin, norm.spacing,
                                    inp.REGION_CENTER, inp.REGION_EXTENTS)
            ck.check_homogeneity(hom.as_dict(), stats)
            ck.check_coupling(report.as_dict(), stats, case["ppm"],
                              inp.REGION_EXTENTS, inp.KAPPA_REF, inp.GAMMA_REF)
            ck.check_round_trip(
                (norm.origin, norm.spacing, norm.b, norm.energy_j, norm.photon_frequency_hz),
                (back.origin, back.spacing, back.b, back.energy_j, back.photon_frequency_hz))
        return "ok"


# --- fit -----------------------------------------------------------------


class FitWorkload:
    """read_spectrum -> fit_spectrum -> write_fit_result on seeded spectra."""

    name = "fit"
    clock = staticmethod(IN_PROCESS_CLOCK)

    def __init__(self, nv, seed, workdir):
        self.nv = nv
        self.workdir = workdir
        self.cases = inp.fit_cases(seed)
        self.f_min = inp.F_REF - inp.SPECTRUM_HALF_SPAN
        self.f_max = inp.F_REF + inp.SPECTRUM_HALF_SPAN
        self.optima = {}

    def setup(self):
        """Write every input spectrum as CSV, then fit the first one."""
        sp = self.nv.spectroscopy
        spectra = {case["spectrum"]["name"]: case["spectrum"] for case in self.cases}
        for name, spec in spectra.items():
            clean = sp.spectrum(sp.CoupledSystem(**spec["system"]), self.f_min,
                                self.f_max, inp.SPECTRUM_POINTS)
            scaled = sp.Spectrum(freq_hz=clean.freq_hz,
                                 s21_sq=spec["amplitude"] * clean.s21_sq)
            noisy = sp.with_multiplicative_noise(scaled, inp.NOISE_FRACTION,
                                                 spec["noise_seed"])
            sp.write_spectrum(self.workdir / f"{name}.csv", noisy)
        self.run(self.cases[0])

    def optimum(self, case):
        """Independent least-squares optimum of the case's spectrum, computed
        once per (spectrum, free set) on first use."""
        spec = case["spectrum"]
        key = (spec["name"], case["amplitude_free"])
        if key not in self.optima:
            freq, data = ck.noisy_spectrum(spec["system"], spec["amplitude"],
                                           spec["noise_seed"], inp.SPECTRUM_POINTS,
                                           self.f_min, self.f_max, inp.NOISE_FRACTION)
            self.optima[key] = (freq, data, *ck.lsq_optimum(
                freq, data, spec["system"], spec["amplitude"], case["amplitude_free"]))
        return self.optima[key]

    def rounds(self):
        return cycle(self.cases, len(self.cases))

    def run(self, case):
        sp = self.nv.spectroscopy
        data = sp.read_spectrum(self.workdir / f"{case['spectrum']['name']}.csv")
        free = ck.PARAMS + ("amplitude",) if case["amplitude_free"] else None
        out = self.workdir / f"fit-{case['label']}.json"
        try:
            result = sp.fit_spectrum(data, sp.CoupledSystem(**case["start"]), free=free,
                                     initial_amplitude=case["start_amplitude"])
        except self.nv.errors.FitConvergenceError as exc:
            return data, None, exc, out
        sp.write_fit_result(out, result)
        return data, result, None, out

    def check(self, case, out):
        data, result, error, path = out
        spec = case["spectrum"]
        freq, want, optimum, optimum_residual = self.optimum(case)
        ck.check_spectrum_values("read_spectrum frequencies", data.freq_hz, freq)
        ck.check_spectrum_values(f"read_spectrum {spec['name']}", data.s21_sq, want)
        if error is None:
            with open(path) as fh:
                written = json.load(fh)
            fitted = {k: getattr(result.system, k) for k in ck.PARAMS}
            fitted["amplitude"] = result.amplitude
            for k in ck.PARAMS:
                ck.require(written[f"{k}_Hz"] == fitted[k], f"{path.name}: {k} differs")
        # A fit that raises or misses the optimum is a failed operation;
        # only the fixed poor starts are expected to fail.
        try:
            if error is not None:
                raise ck.CheckFailed(str(error))
            ck.check_fit(fitted, result.residual, spec["system"], optimum,
                         optimum_residual)
        except ck.CheckFailed as exc:
            if case["kind"] != "matrix":
                print(f"unexpected fit failure {case['label']}: {exc}", file=sys.stderr)
            return "failed"
        return "ok"


# --- cli -----------------------------------------------------------------


def subprocess_step(argv, cwd):
    proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], cwd=cwd,
                          env=child_env(), capture_output=True, text=True,
                          timeout=STEP_TIMEOUT_S)
    return proc.returncode, proc.stdout


def in_process_step(nv):
    """Replay a step through ``cli.main`` in this process."""

    def step(argv, cwd):
        here = os.getcwd()
        out = io.StringIO()
        try:
            os.chdir(cwd)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = nv.cli.main(argv)
        finally:
            os.chdir(here)
        return rc, out.getvalue()

    return step


class CliWorkload:
    """The README pipeline, one subprocess per step, in a fresh directory."""

    name = "cli"
    # Wall time: each child's BLAS thread pool spins on whichever core is
    # idle, so the children's CPU time grows when the machine is quiet.
    clock = staticmethod(time.perf_counter)
    tracer = None  # set by run_one; records each child process as a span

    def __init__(self, nv, seed, workdir):
        self.nv = nv
        self.workdir = workdir
        self.cases = inp.cli_cases(seed, CLI_CASES)
        self.step = subprocess_step

    def setup(self):
        """Nothing to warm beyond the interpreter import timed by the caller."""

    def rounds(self):
        return cycle(self.cases)

    def run(self, case):
        tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        steps = []
        for name, argv in inp.cli_steps(case):
            before = ck.listing(tmp)
            t0 = time.perf_counter()
            rc, stdout = self.step(argv, tmp)
            t1 = time.perf_counter()
            if self.tracer is not None and self.step is subprocess_step:
                self.tracer.record(f"process.{name}", t0, t1)
            steps.append((name, rc, stdout, before, ck.listing(tmp)))
        return tmp, steps

    def check(self, case, out):
        tmp, steps = out
        try:
            check_cli_pass(case, tmp, steps)
        finally:
            shutil.rmtree(tmp)
        return "ok"


def cli_float(text, unit):
    """A flag value as the CLI turns it into SI units."""
    return float(text) * unit


def check_cli_pass(case, tmp, steps):
    stdout = {}
    for name, rc, out, before, after in steps:
        ck.check_cli_step(name, rc, out, before, after)
        stdout[name] = out
    f = cli_float(inp.as_ghz(case["f_target"]), 1e9)

    design = json.loads((tmp / "design.json").read_text())
    ck.check_design({**case, "f_target": f}, design["d_m"], design["f_c_Hz"])

    tuned = [line for line in stdout["spins"].splitlines() if line.startswith("tuned_B_T=")]
    ck.require(len(tuned) == 1, "spins printed no tuned_B_T line")
    ck.check_zeeman(float(tuned[0].split("=")[1]), case["direction"], f)
    sweep = np.loadtxt(tmp / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    ck.require(sweep.shape == (81 * 4, 4), f"sweep.csv has shape {sweep.shape}")
    axes = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    direction = np.asarray(case["direction"])
    for b_mag, axis, f_lo, f_hi in sweep[::7]:
        lo, hi = ck.nv_transitions(b_mag * direction, axes[int(axis)])
        ck.require(abs(lo - f_lo) <= ck.ZEEMAN_TOL_HZ and abs(hi - f_hi) <= ck.ZEEMAN_TOL_HZ,
                   f"sweep.csv row at B={b_mag!r} axis {int(axis)} disagrees")

    origin, spacing, b, meta = ck.read_map_csv(str(tmp / "map.csv"))
    ck.require(meta["energy_J"] == ck.PLANCK_H * f and meta["photon_frequency_Hz"] == f,
               "map.csv.meta does not carry one photon at the design frequency")
    sheet_dims = (cli_float(inp.as_mm(case["L"]), 1e-3), cli_float(inp.as_mm(case["W"]), 1e-3),
                  cli_float(inp.as_mm(case["G"]), 1e-3))
    nodes = ck.pick_nodes(b.shape[:3], case["check_seed"], 3)
    scale = ck.field_scale(b, origin, spacing, sheet_dims, nodes[0])
    ck.check_field_nodes(b, origin, spacing, sheet_dims, nodes, scale)
    ck.check_mirror_symmetry(b)
    stats = ck.region_stats(b, origin, spacing, inp.REGION_CENTER, inp.REGION_EXTENTS)
    ck.check_homogeneity(json.loads((tmp / "homogeneity.json").read_text()), stats)

    system = {k: cli_float(inp.as_ghz(v), 1e9) if k.startswith("omega") else cli_float(inp.as_mhz(v), 1e6)
              for k, v in case["system"].items()}
    ck.check_coupling(json.loads((tmp / "coupling.json").read_text()), stats,
                      case["ppm"], inp.REGION_EXTENTS,
                      system["kappa"], system["gamma_star"])

    f_min = cli_float(inp.as_ghz(inp.F_REF - inp.SPECTRUM_HALF_SPAN), 1e9)
    f_max = cli_float(inp.as_ghz(inp.F_REF + inp.SPECTRUM_HALF_SPAN), 1e9)
    spectrum = np.loadtxt(tmp / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
    freq, want = ck.noisy_spectrum(system, 1.0, case["noise_seed"], 2001, f_min, f_max,
                                   inp.NOISE_FRACTION)
    ck.check_spectrum_values("spectrum.csv", spectrum[:, 1], want)
    ck.check_spectrum_values("spectrum.csv frequencies", spectrum[:, 0], freq)

    crossing = np.loadtxt(tmp / "crossing.csv", delimiter=",", skiprows=1, ndmin=2)
    ck.require(crossing.shape == (41 * 201, 3), f"crossing.csv has shape {crossing.shape}")
    row_system = dict(system, omega_c=system["omega_s"] + crossing[:, 0])
    ck.check_spectrum_values("crossing.csv", crossing[:, 2],
                             ck.transmission(row_system, system["omega_s"] + crossing[:, 1]))

    fit = json.loads((tmp / "fit.json").read_text())
    optimum, optimum_residual = ck.lsq_optimum(spectrum[:, 0], spectrum[:, 1], system,
                                               1.0, False)
    fitted = {k: fit[f"{k}_Hz"] for k in ck.PARAMS}
    fitted["amplitude"] = fit["amplitude"]
    ck.check_fit(fitted, fit["residual"], system, optimum, optimum_residual)


# --- main ----------------------------------------------------------------

WORKLOADS = {"design": DesignWorkload, "fit": FitWorkload, "cli": CliWorkload}


def set_up(workload):
    """Median over repeats of (fresh interpreter + import) + in-process set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0, t1 = timed_child("import nvcavity")
        s0 = time.perf_counter()
        workload.setup()
        times.append(t1 - t0 + time.perf_counter() - s0)
    return statistics.median(times)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, seconds):
    setup_s = set_up(workload)
    tally = run_ops(workload, workload.rounds(), seconds)
    correct_ops = len(tally.times) - tally.failed - tally.incorrect
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(correct_ops / sum(tally.times), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(tally.times), "ms"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    times = sorted(tally.times)
    print(f"{workload.name}: {len(times)} ops, {tally.failed} failed, "
          f"{tally.incorrect} incorrect, median {1e3 * statistics.median(times):.1f} ms, "
          f"max {1e3 * times[-1]:.1f} ms", file=sys.stderr)
    if len(times) >= 250:
        # A fixed percentile keeps runs comparable; from 250 operations on
        # p96 leaves at least ten beyond it.
        print(f"{workload.name}: p96 {1e3 * np.percentile(times, 96):.1f} ms",
              file=sys.stderr)
    return tally, metrics


def per_layer(nv, workload, seed, seconds, workdir):
    """Traced run: untraced then traced on the same operations, then one
    README pass as child processes and one replayed in process, so that
    every layer has a figure in every workload's trace."""
    tracer = Tracer(nv)
    set_up(workload)
    if workload.name == "fit":
        with tracer:
            workload.setup()
    # Each operation runs once untraced and once traced, in alternating
    # order, so that the overhead compares like with like.
    plain, traced = Tally(), Tally()
    for ops in workload.rounds():
        for case in ops:
            first_traced = len(plain.times) % 2 == 1
            for use_tracer in (first_traced, not first_traced):
                if use_tracer:
                    with tracer:
                        run_one(workload, case, traced, tracer)
                else:
                    run_one(workload, case, plain)
        if sum(plain.times) + sum(traced.times) >= seconds:
            break
    overhead = 100.0 * (sum(traced.times) / sum(plain.times) - 1.0)

    tracer.op = "coverage"
    for name, code in (("interpreter", "pass"), ("import", "import nvcavity")):
        for _ in range(SETUP_REPEATS):
            tracer.record(f"process.{name}", *timed_child(code))
    cli = CliWorkload(nv, seed, workdir)
    passes = [cli.cases[0]]
    coverage = [] if workload.name == "cli" else [run_ops(cli, [passes], 0, tracer)]
    cli.step = in_process_step(nv)
    with tracer:
        coverage.append(run_ops(cli, [passes], 0, tracer))
    tracer.write(RUNS / f"trace-{workload.name}-seed{seed}.json")

    # Every fit op and every README pass (which ends in a fit) counts once.
    fit_tallies = coverage + ([traced] if workload.name in ("fit", "cli") else [])
    fits = sum(len(t.times) for t in fit_tallies)
    fits_ok = sum(len(t.times) - t.failed - t.incorrect for t in fit_tallies)
    traced.incorrect += plain.incorrect + sum(t.incorrect for t in coverage)
    return traced, layer_metrics(tracer.spans, overhead, fits_ok / fits)


LAYER_TIMES = [
    ("fieldmap", "biot_savart_map"), ("fieldmap", "normalize_to_vacuum"),
    ("fieldmap", "homogeneity"), ("fieldmap", "export_map"), ("fieldmap", "ingest_map"),
    ("coupling", "coupling_report"), ("nvspin", "zeeman_tune"),
    ("nvspin", "write_transition_sweep"), ("circuit", "gap_for_frequency"),
    ("spectroscopy", "fit_spectrum"), ("spectroscopy", "read_spectrum"),
    ("spectroscopy", "write_fit_result"), ("spectroscopy", "spectrum"),
    ("spectroscopy", "with_multiplicative_noise"), ("spectroscopy", "write_spectrum"),
    ("spectroscopy", "avoided_crossing_map"), ("spectroscopy", "write_grid"),
]
CLI_STEPS = ("interpreter", "import", "constants", "design", "spins", "fieldmap",
             "couple", "spectrum", "map2d", "fit")


def layer_metrics(spans, overhead_pct, fit_correct_ratio):
    summary = summarize(spans)

    def mean_s(name):
        calls, seconds, _ = summary[name]
        return seconds / calls

    def attr_mean(name, key):
        calls, _, attrs = summary[name]
        return attrs[key] / calls

    m = {f"{mod}.{fn}_s": metric(mean_s(f"{mod}.{fn}"), "s") for mod, fn in LAYER_TIMES}
    calls, seconds, attrs = summary["fieldmap.biot_savart_map"]
    m["fieldmap.nodes_per_s"] = metric(attrs["nodes"] / seconds, "1/s")
    m["fieldmap.map_csv_bytes"] = metric(attr_mean("fieldmap.export_map", "csv_bytes"), "B")
    m["nvspin.diagonalizations_per_tune"] = metric(
        nested_calls(spans, "nvspin.zeeman_tune", "nvspin.transition_frequencies"), "count")
    m["spectroscopy.fit_iterations"] = metric(
        attr_mean("spectroscopy.fit_spectrum", "iterations"), "count")
    m["spectroscopy.fit_correct_ratio"] = metric(fit_correct_ratio, "1")
    for step in CLI_STEPS:
        m[f"cli.{step}_s"] = metric(mean_s(f"process.{step}"), "s")
    m["fileio.atomic_write_text_s"] = metric(mean_s("_fileio.atomic_write_text"), "s")
    m["fileio.bytes_written"] = metric(attr_mean("_fileio.atomic_write_text", "bytes"), "B")
    m["trace.overhead_pct"] = metric(overhead_pct, "%")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nv = load_toolkit()
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        workload = WORKLOADS[args.workload](nv, args.seed, workdir)
        if args.trace:
            tally, metrics = per_layer(nv, workload, args.seed, args.seconds, workdir)
        else:
            tally, metrics = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": tally.incorrect == 0, "attempted": len(tally.times),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
