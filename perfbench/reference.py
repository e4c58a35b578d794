"""Reference figures for perfbench/README.md, measured with the benchmark's
own generator and command runner.

    python3 perfbench/reference.py [--seed 1]

Prints four tables: cold extraction with workers = 1 vs 2, per-scheme
extraction cost on 2.75 s utterances, nested CV time at 32, 64 and 120 rows
of 594 dims (the last is the ROADMAP's 120 x 594 figure), and the layer
shares of the two workloads' evaluates at their own size and at 120 rows.
Takes about fifteen minutes on two cores.

The workers comparison runs first, on all CPUs, in wall seconds.  The rest
runs pinned to one CPU, in reference seconds (run.py, "CPU speed"): fresh
processes scaled by the probes taken while they run, in-process timings by
probes taken right before and after them.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time

import run  # sets BLAS threads before NumPy loads

sys.path[:0] = [run.SRC]

import numpy as np  # noqa: E402

import corpus  # noqa: E402

FUSED4 = "articulation+prosody+phonation+i2010pc"


def timed_inprocess(fn, *args):
    """Reference seconds of one call of ``fn`` in this process."""
    before = run.speed_scale()
    start = time.perf_counter()
    fn(*args)
    wall = time.perf_counter() - start
    return wall * (before + run.speed_scale()) / 2


def per_scheme_ms(seed, n_utts=6):
    """Median reference ms per 2.75 s, 8 kHz utterance for each scheme and for
    one F0 track."""
    from emovox.audio import Waveform
    from emovox.dsp import estimate_f0
    from emovox.pipeline import extract_scheme

    rng = np.random.default_rng(seed)
    waves = [Waveform(corpus.voice(rng.uniform(100, 125), 2.75, 8000, 0.1, 4.0,
                                   560.0, 1450.0, rng), 8000, "ref") for _ in range(n_utts)]
    out = {}
    for name in ("phonation", "articulation", "prosody", "i2010pc"):
        times = [timed_inprocess(extract_scheme, w, name) for w in waves]
        out[name] = 1000 * statistics.median(times)
    times = [timed_inprocess(estimate_f0, w) for w in waves]
    out["estimate_f0 (one call)"] = 1000 * statistics.median(times)
    return out


def corpus_dir(base, name, classes, speakers, takes, seed, durations, **config):
    root = os.path.join(base, name)
    os.makedirs(root)
    rows = corpus.make_corpus(root, classes, speakers, takes, seed, run.RATES, durations)
    corpus.write_manifest(os.path.join(root, "manifest.csv"), rows)
    for command in ("extract", "evaluate"):
        corpus.write_config(os.path.join(root, command + ".cfg"), seed=seed,
                            cache_dir="cache", **config)
    return root, rows


def nested_cv_s(spawner, base, seed, speakers, takes):
    """Reference seconds of one ``emovox evaluate`` (4 classes, 594 dims), warm cache."""
    root, rows = corpus_dir(base, "ncv%d" % (speakers * takes * 4), corpus.FOUR_CLASS,
                            speakers, takes, seed, (1.0, 2.0),
                            scheme="articulation+prosody+phonation",
                            mode="speaker_independent", k_outer=5, k_inner=5)
    for command in ("extract", "evaluate"):
        timed = spawner.cli(run.cli_argv(command), root)
        if timed.code != 0:
            raise SystemExit("%s exited %d in %s" % (command, timed.code, root))
    return len(rows), timed.ref_s, timed.rss


def workers_s(spawner, base, seed):
    """Cold 4-scheme extraction of 16 two-second files with workers = 1 and 2."""
    out = {}
    for workers in (1, 2, 1, 2):
        name = "workers%d" % workers
        root = os.path.join(base, name)
        if not os.path.isdir(root):
            corpus_dir(base, name, corpus.FOUR_CLASS, 4, 1, seed, (2.0, 2.0),
                       scheme=FUSED4, workers=workers)
        shutil.rmtree(os.path.join(root, "cache"), ignore_errors=True)
        timed = spawner.cli(run.cli_argv("extract"), root)
        if timed.code != 0:
            raise SystemExit("extract exited %d in %s" % (timed.code, root))
        out.setdefault(workers, []).append(timed.wall)
    return {k: min(v) for k, v in out.items()}


SHARE_LAYERS = ("svm.train_binary_smo", "svm.train_multiclass", "svm.decision_scores",
                "evaluation.nested_cv")


def layer_shares(spawner, base, seed, workload, speakers):
    """Self time of the main layers in one traced in-process ``evaluate``.

    The workload's corpus with ``speakers`` speakers and its evaluate
    config, cache warmed for that config's scheme only.  Shares are of that
    evaluate plus one fresh-process start-up, in reference seconds.
    Returns (rows, fresh-process evaluate reference seconds, shares).
    """
    from layers import Tracer

    w = run.Workload(workload, seed, os.path.join(base, "%s-%d" % (workload, speakers)))
    w.spec = dict(w.spec, speakers=speakers, extract=w.spec["evaluate"], cold=False)
    w.setup(spawner, fresh=False)
    fresh = spawner.cli(run.cli_argv("evaluate"), w.root).ref_s
    tracer = Tracer()
    tracer.install()
    try:
        run.run_inprocess(run.cli_argv("evaluate"), w.root)   # first-call costs
        before = run.speed_scale()
        tracer.active = True
        wall, code = run.run_inprocess(run.cli_argv("evaluate"), w.root)
    finally:
        tracer.active = False
        tracer.uninstall()
    if code != 0:
        raise SystemExit("evaluate exited %d in %s" % (code, w.root))
    scale = (before + run.speed_scale()) / 2
    startup = run.cli_startup_s(spawner, w.root)
    selfs = tracer.self_times()
    total = wall * scale + startup
    shares = {name: selfs.get(name, 0.0) * scale / total for name in SHARE_LAYERS}
    shares["cli.startup"] = startup / total
    return len(w.rows), fresh, shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    base = os.path.join(run.WORK, "reference-%d" % os.getpid())
    os.makedirs(base)
    try:
        print("cold extraction, 16 x 2 s files, %s, wall s (best of 2):" % FUSED4)
        with run.Spawner() as spawner:
            for workers, wall in workers_s(spawner, base, args.seed).items():
                print("  workers = %d  %6.2f s" % (workers, wall))
        run.pin_to_one_cpu()
        print("per-scheme reference ms per 2.75 s utterance (median of 6):")
        for name, ms in per_scheme_ms(args.seed).items():
            print("  %-24s %7.1f" % (name, ms))
        with run.Spawner() as spawner:
            print("nested CV, 4 classes, 594 dims, 5x5 folds, 8x10 grid (one run each):")
            for speakers, takes in ((8, 1), (8, 2), (15, 2)):
                n, wall, rss = nested_cv_s(spawner, base, args.seed, speakers, takes)
                print("  n = %3d  %6.1f reference s  peak RSS %.0f MB" % (n, wall, rss))
            print("layer self time in one traced evaluate, share of it plus start-up:")
            for workload in sorted(run.WORKLOADS):
                for speakers in (run.WORKLOADS[workload]["speakers"], 30):
                    n, wall, shares = layer_shares(spawner, base, args.seed, workload,
                                                   speakers)
                    print("  %-16s n = %3d  fresh %5.1f reference s  %s" % (
                        workload, n, wall,
                        "  ".join("%s %.1f%%" % (k, 100 * v) for k, v in shares.items())))
    finally:
        shutil.rmtree(base, ignore_errors=True)

if __name__ == "__main__":
    main()
