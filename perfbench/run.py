"""emovox benchmark: one workload per run, timed end to end or traced per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nested-cv-4class --seed 1 --seconds 30 --trace 0

The run generates its inputs from --seed (perfbench/corpus.py), sets them up
several times (set-up time is reported as the median), then repeats whole
rounds of the workload's CLI commands until --seconds have passed (at least
two rounds).  Every round's outputs are checked (perfbench/checks.py) and
must be byte-identical between rounds.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

--trace 0 runs each command in a fresh interpreter and reports the
end-to-end metrics, with times in reference seconds (see PROBE_LOOPS below).
--trace 1 calls ``emovox.cli.main`` in-process, alternating untraced and
traced rounds, and reports per-layer self times and counts
(perfbench/layers.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# One BLAS thread: each workload is one single-threaded process, and a second
# BLAS thread on a two-core machine adds noise but little speed at these sizes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# CPU speed.  On a shared host the speed of one CPU changes by up to 40 %
# over seconds to minutes, as other tenants load it.  So the benchmark runs
# pinned to one CPU, and while a timed command runs it times a short fixed
# pure-Python loop (the probe) on that CPU every PROBE_INTERVAL_S.  Times
# reported end to end are "reference seconds": wall seconds scaled to a CPU
# on which the probe takes REFERENCE_PROBE_S (about its time on the 2-vCPU
# machine of perfbench/README.md when that machine is not slowed).
PROBE_LOOPS = 20000
PROBE_INTERVAL_S = 0.2
PROBE_SAMPLES = 25           # back-to-back probes when none ran during a command
REFERENCE_PROBE_S = 1.6e-3

SETUPS = 3            # set-ups per run; setup_s is their median
MIN_ROUNDS = 2        # so every run compares output digests between rounds
UBM_COMPONENTS = 16
TV_RANK = 10
IVECTOR_SAMPLE = 3    # rows whose i-vector is re-derived by a dense solve
RATES = (8000, 16000, 44100)

FUSED6 = "articulation+prosody+phonation+i2010pc+ivector+xvector"
# Evaluate configs (default 8x10 grid).  The binary one runs on extract-cold's
# corpus and reads the i2010pc cache entries that the fused extract wrote.
BINARY_CV = dict(scheme="i2010pc", mode="speaker_dependent", k_outer=5, k_inner=5)
FOUR_CLASS_CV = dict(scheme="articulation+prosody+phonation", mode="speaker_independent",
                     k_outer=5, k_inner=5)
WORKLOADS = {
    # Round: cold fused extract (timed for throughput), then a binary nested
    # CV on the cache it filled (timed for evaluate_s).
    "extract-cold": dict(
        classes="BINARY", speakers=10, takes=2, durations=(1.0, 4.0),
        extract=dict(BINARY_CV, scheme=FUSED6, tv_model="tv.emvx",
                     xvector_model="xvector.emvx"),
        evaluate=BINARY_CV, cold=True),
    # Round: one evaluate on the cache warmed in set-up.
    "nested-cv-4class": dict(
        classes="FOUR_CLASS", speakers=8, takes=1, durations=(0.6, 1.2),
        extract=FOUR_CLASS_CV, evaluate=FOUR_CLASS_CV, cold=False),
}

SETUP_LAYERS = ("embeddings.train_ubm_s", "embeddings.train_total_variability_s")


def metric_units(section):
    """(name, unit) of each metric that BENCHMARK.json lists under ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu():
    """Confine this process and every command it starts to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe_s():
    """Seconds one fixed pure-Python loop takes on this CPU now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def speed_scale(probes=()):
    """Factor from wall to reference seconds, from probes of this CPU.

    With fewer than three probes (a command shorter than three probe
    intervals) it probes PROBE_SAMPLES times now instead.
    """
    if len(probes) < 3:
        probes = [probe_s() for _ in range(PROBE_SAMPLES)]
    return REFERENCE_PROBE_S / statistics.median(probes)


class Timed(NamedTuple):
    """One command: wall seconds, peak RSS in MB, exit code, speed scale."""

    wall: float
    rss: float
    code: int
    scale: float = 1.0

    @property
    def ref_s(self):
        return self.wall * self.scale


# A process's peak RSS (ru_maxrss) counts the memory of the process it was
# forked from.  So timed commands are started by this small process, started
# before the benchmark loads NumPy, and their peak RSS is their own.
SPAWNER = """
import json, os, subprocess, sys
for line in sys.stdin:
    cmd, cwd, env = json.loads(line)
    with open(os.path.join(cwd, "cli.log"), "ab") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        _pid, status, usage = os.wait4(proc.pid, 0)
    print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """Runs timed commands through the SPAWNER process, probing the CPU
    while each runs.  A context manager: leaving it ends the process."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()   # the spawner finishes its command, then exits
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd, cwd):
        """Run ``cmd`` in ``cwd`` (output to cli.log there)."""
        probes = []
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps([cmd, cwd, child_env()]) + "\n")
        self.proc.stdin.flush()
        while not select.select([self.proc.stdout], [], [], PROBE_INTERVAL_S)[0]:
            probes.append(probe_s())
        reply = self.proc.stdout.readline()
        wall = time.perf_counter() - start
        code, maxrss_kb = json.loads(reply)
        return Timed(wall, maxrss_kb / 1024.0, code, speed_scale(probes))

    def cli(self, argv, cwd):
        """Run one emovox command in a fresh interpreter."""
        return self.run([sys.executable, "-m", "emovox.cli"] + argv, cwd)


def run_inprocess(argv, cwd):
    """Run one emovox command through ``cli.main`` in this interpreter."""
    from emovox import cli

    old = os.getcwd()
    os.chdir(cwd)
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - start, code
    finally:
        os.chdir(old)


def cli_argv(command):
    """Arguments of ``emovox extract`` or ``evaluate`` in a set-up directory.

    Each command reads its own config, ``extract.cfg`` or ``evaluate.cfg``.
    """
    common = ["--manifest", "manifest.csv", "--config", command + ".cfg"]
    if command == "extract":
        return ["extract"] + common + ["--out-csv", "features.csv"]
    return ["evaluate"] + common + ["--report", "report.txt",
                                    "--metrics-csv", "metrics.csv", "--roc-csv", "roc.csv"]


def dir_bytes(path):
    total = 0
    for base, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


class Workload:
    """One generated corpus, its config and model files, under ``root``."""

    def __init__(self, name, seed, root):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.root = root
        self.rows = []
        self.f0_rows = (0, 0)   # (within 5 %, subharmonic) from the last F0 check

    def audio_s(self):
        return sum(r.duration_s for r in self.rows)

    @property
    def schemes(self):
        return self.spec["extract"]["scheme"].split("+")

    @property
    def models(self):
        return "tv_model" in self.spec["extract"]

    def setup(self, spawner, fresh):
        """Build the inputs and (nested-cv-4class) warm the cache.

        With ``fresh`` the build runs in a child interpreter, timed and
        probed like an emovox command; otherwise in this process, where a
        traced run sees its model training.  Returns the Timed of the build
        and of the warm-up extract (None when the workload has none).
        """
        import checks
        import corpus

        if fresh:
            os.makedirs(self.root)
            build = spawner.run([sys.executable, os.path.abspath(__file__), "--workload",
                                 self.name, "--seed", str(self.seed), "--seconds", "0",
                                 "--build", self.root], self.root)
            checks.require(build.code == 0, "set-up build exited %d" % build.code)
            self.rows = corpus.read_truth(os.path.join(self.root, "truth.csv"))
        else:
            start = time.perf_counter()
            self.build()
            build = Timed(time.perf_counter() - start, 0.0, 0)
        warm = None if self.spec["cold"] else spawner.cli(cli_argv("extract"), self.root)
        return build, warm

    def build(self):
        """Synthesise the corpus; write manifest, truth, configs and models."""
        import corpus

        os.makedirs(self.root, exist_ok=True)
        self.rows = corpus.make_corpus(
            self.root, getattr(corpus, self.spec["classes"]), self.spec["speakers"],
            self.spec["takes"], self.seed, RATES, self.spec["durations"])
        corpus.write_manifest(os.path.join(self.root, "manifest.csv"), self.rows)
        corpus.write_truth(os.path.join(self.root, "truth.csv"), self.rows)
        for command in ("extract", "evaluate"):
            corpus.write_config(os.path.join(self.root, command + ".cfg"),
                                seed=self.seed, cache_dir="cache", **self.spec[command])
        if self.models:
            corpus.train_models(self.root, self.seed, UBM_COMPONENTS, TV_RANK)

    def grid(self):
        cfg = self.spec["evaluate"]
        c = [10.0 ** e for e in range(cfg.get("c_exp_min", -3), cfg.get("c_exp_max", 4) + 1)]
        g = [10.0 ** e for e in range(cfg.get("gamma_exp_min", -6),
                                      cfg.get("gamma_exp_max", 3) + 1)]
        return c, g

    def check_features(self, ivectors):
        """Checks on features.csv; returns (digest, rows present)."""
        import checks

        path = os.path.join(self.root, "features.csv")
        layout = checks.scheme_layout(self.schemes, TV_RANK)
        feats = checks.check_rows(path, self.rows, layout)
        present = [r for r in self.rows if r.path in feats]
        if "prosody" in self.schemes:
            self.f0_rows = checks.check_f0(feats, present, layout)
        if ivectors and "ivector" in self.schemes:
            step = max(1, len(present) // IVECTOR_SAMPLE)
            checks.check_ivectors(feats, present[::step][:IVECTOR_SAMPLE], layout,
                                  os.path.join(self.root, "tv.emvx"), self.root)
        return checks.sha256(path), len(present)

    def check_evaluation(self):
        """Checks on report/metrics/ROC.

        Returns (digests, rows tested, mean UAR, (C, gamma) selected per fold).
        """
        import checks

        report = os.path.join(self.root, "report.txt")
        metrics = os.path.join(self.root, "metrics.csv")
        n_classes = len({r.label for r in self.rows})
        head, tested, cells = checks.check_report(
            report, metrics, self.spec["evaluate"]["mode"], self.grid(), n_classes,
            accuracy=True)
        digests = [checks.sha256(report), checks.sha256(metrics)]
        if n_classes == 2:
            roc = os.path.join(self.root, "roc.csv")
            checks.check_roc(roc, float(head["auc"]))
            digests.append(checks.sha256(roc))
        return tuple(digests), tested, float(head["mean_uar"]), cells

    def model_digests(self):
        import checks

        if not self.models:
            return ()
        return tuple(checks.sha256(os.path.join(self.root, f))
                     for f in ("tv.emvx", "xvector.emvx"))


class Round:
    """Outcome of one round: figures, digests, row counts, command times."""

    def __init__(self):
        self.figures = {}
        self.digests = ()
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0          # reference seconds of the round's commands
        self.uar = None
        self.cells = ()
        self.extract = None         # (audio, reference, wall seconds) of a cold extract
        self.evaluate_s = None      # reference seconds
        self.evaluate_wall = None


def do_round(w, execute, first):
    """One round of the workload's commands, checked.

    ``execute(argv, cwd)`` runs a command and returns (wall, rss, code).
    extract-cold: cold extract, then evaluate on the cache it filled.
    nested-cv-4class: evaluate on the cache warmed in set-up.
    ``attempted`` counts manifest rows per command; ``failed`` the rows a
    command dropped.
    """
    import checks

    out = Round()
    n = len(w.rows)
    rss = []
    if w.spec["cold"]:
        shutil.rmtree(os.path.join(w.root, "cache"), ignore_errors=True)
        extract = execute(cli_argv("extract"), w.root)
        out.seconds += extract.ref_s
        checks.require(extract.code in (0, 1), "extract exited %d" % extract.code)
        digest, present = w.check_features(ivectors=first)
        out.extract = (w.audio_s(), extract.ref_s, extract.wall)
        out.figures["cache_mb"] = dir_bytes(os.path.join(w.root, "cache")) / 1e6
        out.digests = (digest,)
        out.attempted, out.failed = n, n - present
        rss.append(extract.rss)
    evaluate = execute(cli_argv("evaluate"), w.root)
    out.seconds += evaluate.ref_s
    out.evaluate_s = evaluate.ref_s
    out.evaluate_wall = evaluate.wall
    checks.require(evaluate.code in (0, 1), "evaluate exited %d" % evaluate.code)
    digests, tested, out.uar, out.cells = w.check_evaluation()
    rss.append(evaluate.rss)
    out.figures["peak_rss_mb"] = max(rss)
    out.attempted += n
    out.failed += n - tested
    out.digests += digests
    return out


def setups(name, seed, base, count, spawner, fresh=True):
    """Set up ``count`` times; return (last workload, seconds, warm-up figures).

    ``seconds`` holds the (reference, wall) seconds of each set-up: the build
    (``fresh``: in a child interpreter) plus the cache warm-up.  The warm-up
    of nested-cv-4class is a cold ``emovox extract`` in a fresh interpreter;
    its throughput and cache size are that workload's extract_audio_s_per_s
    and cache_mb.
    """
    import checks

    built, seconds, warm_figs = [], [], []
    for i in range(count):
        w = Workload(name, seed, os.path.join(base, "setup%d" % i))
        build, warm = w.setup(spawner, fresh)
        seconds.append((build.ref_s + (warm.ref_s if warm else 0.0),
                        build.wall + (warm.wall if warm else 0.0)))
        if warm is not None:
            checks.require(warm.code == 0, "cache warm-up exited %d" % warm.code)
            digest, _present = w.check_features(ivectors=False)
            warm_figs.append(dict(digest=digest, extract=(w.audio_s(), warm.ref_s, warm.wall),
                                  cache_mb=dir_bytes(os.path.join(w.root, "cache")) / 1e6))
        built.append(w)
    checks.same("model files", [w.model_digests() for w in built])
    checks.same("warm-up features.csv", [f["digest"] for f in warm_figs] or [None])
    return built[-1], seconds, warm_figs


def rounds_for(run, seconds):
    """Whole rounds for ``seconds``, at least MIN_ROUNDS.

    A further round starts only if, taking as long as the last one, it would
    end within ``seconds``, so a run does not overshoot by most of a round.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        rounds.append(run(first=not rounds))
        end = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and 2 * end - begin - start > seconds:
            return rounds


def measure(name, seed, seconds, base, spawner):
    """--trace 0: fresh-process rounds; returns (metrics, rounds)."""
    import checks

    w, setup_s, warm_figs = setups(name, seed, base, SETUPS, spawner)
    rounds = rounds_for(lambda first: do_round(w, spawner.cli, first), seconds)
    checks.same("outputs", [r.digests for r in rounds])
    figures = {"setup_s": statistics.median(ref for ref, _wall in setup_s),
               "evaluate_s": statistics.median(r.evaluate_s for r in rounds)}
    for key in ("peak_rss_mb", "cache_mb"):
        values = [r.figures[key] for r in rounds if key in r.figures]
        figures[key] = statistics.median(values or [f[key] for f in warm_figs])
    extracts = [r.extract for r in rounds if r.extract] or [f["extract"] for f in warm_figs]
    audio = sum(e[0] for e in extracts)
    figures["extract_audio_s_per_s"] = audio / sum(e[1] for e in extracts)
    print("rounds=%d uar=%.4f digests=%s" % (len(rounds), rounds[0].uar,
                                             " ".join(d[:16] for d in rounds[0].digests)))
    print("wall clock: setup_s %.4f extract_audio_s_per_s %.4f evaluate_s %.4f" % (
        statistics.median(wall for _ref, wall in setup_s), audio / sum(e[2] for e in extracts),
        statistics.median(r.evaluate_wall for r in rounds)))
    print("selected (C, gamma): %s" % " ".join("(%s,%s)" % c for c in rounds[0].cells))
    if "prosody" in w.schemes:
        print("f0 rows: %d with mean within 5 %%, %d with subharmonic frames" % w.f0_rows)
    return {m: {"value": figures[m], "unit": u} for m, u in metric_units("end_to_end")}, rounds


def cli_startup_s(spawner, cwd, repeats=3):
    """Interpreter start plus ``import emovox.cli``: median reference seconds
    of fresh processes."""
    import checks

    times = []
    for _ in range(repeats):
        timed = spawner.run([sys.executable, "-c", "import emovox.cli"], cwd)
        checks.require(timed.code == 0, "import emovox.cli exited %d" % timed.code)
        times.append(timed.ref_s)
    return statistics.median(times)


def trace(name, seed, seconds, base, spawner):
    """--trace 1: in-process rounds in pairs, one untraced and one traced.

    Self times are medians over the traced rounds, each round's scaled to
    reference seconds by the mean speed scale of its commands; counts must
    repeat exactly between them.  Spans are written to .perfbench_work at
    the end.
    """
    import checks
    from layers import Tracer

    tracer = Tracer()
    scales = []   # of the commands of the traced round under way

    def untraced(argv, cwd):
        """In-process command, scaled by probes right before and after it."""
        before = speed_scale()
        wall, code = run_inprocess(argv, cwd)
        return Timed(wall, 0.0, code, (before + speed_scale()) / 2)

    def traced(argv, cwd):
        tracer.active = True
        try:
            timed = untraced(argv, cwd)
        finally:
            tracer.active = False
        scales.append(timed.scale)
        return timed

    def pair(first):
        """(untraced round, traced round); every other pair runs traced first."""
        if first:   # one-time costs of running in-process land here, untimed
            run_inprocess(["stats", "--manifest", "manifest.csv", "--out", "stats.txt"],
                          w.root)
        if len(record) % 2:
            t = traced_round()
            return do_round(w, untraced, False), t
        u = do_round(w, untraced, first)
        return u, traced_round()

    def traced_round():
        tracer.reset()
        scales.clear()
        r = do_round(w, traced, False)
        scale = statistics.mean(scales)
        record.append(({k: v * scale for k, v in tracer.self_times().items()},
                       dict(tracer.counts), tracer.spans))
        return r

    tracer.install()
    try:
        before = speed_scale()
        tracer.active = True
        w, _seconds, _warm = setups(name, seed, base, 1, spawner, fresh=False)
        tracer.active = False
        scale = (before + speed_scale()) / 2
        setup_self = {k: v * scale for k, v in tracer.self_times().items()}
        record = []
        pairs = rounds_for(pair, seconds)
    finally:
        tracer.uninstall()
    checks.same("outputs", [r.digests for p in pairs for r in p])
    counts = checks.same("traced counts", [json.dumps(c, sort_keys=True) for _s, c, _sp in record])
    with open(os.path.join(WORK, "trace-%s-%d.json" % (name, seed)), "w") as fh:
        json.dump({"setup": setup_self, "rounds": [sp for _s, _c, sp in record]}, fh)

    counts = json.loads(counts)
    metrics = {}
    for metric, unit in metric_units("per_layer"):
        if metric in SETUP_LAYERS:
            value = setup_self.get(metric[:-2], 0.0)
        elif metric.endswith("_s") and not metric.startswith(("cli.", "trace.")):
            value = statistics.median(s.get(metric[:-2], 0.0) for s, _c, _sp in record)
        else:
            value = counts.get(metric, 0)
        metrics[metric] = {"value": value, "unit": unit}
    metrics["cli.startup_s"]["value"] = cli_startup_s(spawner, w.root)
    metrics["trace.overhead_s"]["value"] = (statistics.median(p[1].seconds for p in pairs)
                                            - statistics.median(p[0].seconds for p in pairs))
    return metrics, [p[0] for p in pairs]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emovox", "cli.py")):
        sys.stderr.write("perfbench: no emovox sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    if args.build:   # the timed set-up's child process
        Workload(args.workload, args.seed, args.build).build()
        return 0
    pin_to_one_cpu()
    with Spawner() as spawner:
        import checks

        base = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        os.makedirs(WORK, exist_ok=True)
        bench = trace if args.trace else measure
        try:
            metrics, rounds = bench(args.workload, args.seed, args.seconds, base, spawner)
        except checks.CheckFailed as exc:
            sys.stderr.write("perfbench: check failed: %s\nperfbench: inputs and outputs "
                             "kept under %s\n" % (exc, base))
            return 1
    shutil.rmtree(base, ignore_errors=True)
    print(json.dumps({"correct": True,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
