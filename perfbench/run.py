"""torusmirror benchmark: seeded scenes through the package's public functions.

    python3 perfbench/run.py --workload verify_mixed --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing.  With --trace 0 the run reports the
end-to-end metrics of untraced passes; with --trace 1 it installs span
wrappers and reports per-layer metrics.  Every item's result is checked
against closed-form values.  The last line of stdout is the result JSON;
the line before it is the provenance block.  Scenes, per-item times and
spans go to perfbench/out/<workload>-seed<seed>/.  See WORKLOADS.md for
why each workload exists and what each metric should move.
"""

import os

#: BLAS threads, pinned before numpy loads: threads burn CPU in the
#: discretized route without shortening its wall time on small boxes
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("verify_mixed", "crossing_dense")

#: fresh-interpreter set-ups per run, spread evenly over the measured
#: seconds between items; setup_s is their median
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60

#: item_tail_s is this percentile (nearest rank) of the items' median
#: times: of 15 items, the second slowest
TAIL_PERCENTILE = 90

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import torusmirror.cli
t1 = time.perf_counter()
torusmirror.cli.load_scene(sys.argv[1])
t2 = time.perf_counter()
print(t0, t1, t2)
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusmirror").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _blas_threads(np) -> dict:
    """Thread count reported by each OpenBLAS library that numpy/scipy ship."""
    import scipy

    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    found[lib.name] = int(getattr(handle, symbol)())
                    break
    return found


def _provenance(np, scene_dict, scene_path, workload, seed) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads_pinned": BLAS_THREADS,
            "threads_reported": _blas_threads(np),
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "workload": workload,
        "seed": seed,
        "scene_params": scene_dict["params"],
        "scene_file": str(scene_path.relative_to(ROOT)),
        "replay": f"PYTHONPATH=src python3 -m torusmirror.cli verify --scene {scene_path.relative_to(ROOT)}",
    }


class _Setups:
    """Fresh interpreter to loaded scene: import torusmirror.cli, then its
    load_scene (which scans every crossing).  The children run one at a time,
    evenly spaced over the run's measured seconds, so that setup_s sees the
    same spells of the host as the items.  perf_counter is the system-wide
    monotonic clock, so parent and child readings compare."""

    def __init__(self, scene_path: Path, seconds: float):
        self.scene_path = scene_path
        self.every = seconds / SETUP_REPEATS
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[dict] = []
        self.start = time.perf_counter()

    def _once(self) -> None:
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(self.scene_path)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        t0, t1, t2 = (float(v) for v in done.stdout.split())
        self.samples.append({"setup_s": t2 - spawned, "import_s": t1 - t0, "load_s": t2 - t1})

    def due(self) -> None:
        """Run the set-ups whose time has come."""
        while (len(self.samples) < SETUP_REPEATS
               and time.perf_counter() - self.start >= len(self.samples) * self.every):
            self._once()

    def finish(self) -> list[dict]:
        while len(self.samples) < SETUP_REPEATS:
            self._once()
        return self.samples


def _run_item(item, failures: list[str]) -> tuple[float, bool]:
    start = time.perf_counter()
    try:
        result = item.run()
    except Exception as err:  # a failing item is recorded; the run goes on
        elapsed = time.perf_counter() - start
        failures.append(f"{item.id}: {type(err).__name__}: {err}")
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        problems = item.check(result)
    except Exception as err:  # an oracle that cannot read the result fails the item
        problems = [f"check raised {type(err).__name__}: {err}"]
    if problems:
        failures.append(f"{item.id}: " + "; ".join(problems))
    return elapsed, not problems


def _run_untraced(items, failures: list[str], setups: _Setups, seconds: float, min_passes: int):
    """Passes over the items, each item as (id, time, ok), until `seconds`
    have gone by and at least `min_passes` whole passes are timed; the last
    pass may stop part way.  Due set-ups run between items, outside the
    item times."""
    passes = []
    while True:
        one = []
        for item in items:
            if len(passes) >= min_passes and time.perf_counter() - setups.start >= seconds:
                return passes + ([one] if one else [])
            setups.due()
            one.append((item.id, *_run_item(item, failures)))
        passes.append(one)


def _run_pairs(items, traced_items, traced_first: bool, failures: list[str], setups: _Setups):
    """One untraced and one traced pass, with each item run untraced and
    traced back to back, so that each traced time has an untraced neighbour
    taken under the same state of the host."""
    plain, spanned = [], []
    for item, traced in zip(items, traced_items):
        setups.due()
        runs = ((spanned, traced), (plain, item)) if traced_first else ((plain, item), (spanned, traced))
        for out, one in runs:
            out.append((one.id, *_run_item(one, failures)))
    return plain, spanned


def _nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def _check_exact_counts(names, workload, seed, per_pass, source_hash) -> list[str]:
    """The exact counts repeat in every traced pass and in every run of the
    same seed on the same source."""
    counts = [{name: m[name] for name in names} for m in per_pass]
    problems = [f"exact counts differ between passes: {c}" for c in counts[1:] if c != counts[0]]
    record = OUT / "counts" / f"{workload}-seed{seed}-{source_hash[:16]}.json"
    if record.exists():
        previous = json.loads(record.read_text())
        if previous != counts[0]:
            problems.append(f"exact counts {counts[0]} differ from an earlier run's {previous}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts[0], indent=1) + "\n")
    return problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "torusmirror" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'torusmirror'}; run from a torusmirror checkout",
              file=sys.stderr)
        return 2
    # the metric names and units are defined once, in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.path.insert(0, str(SRC))
    import numpy as np

    import torusmirror.app as app

    import scenes
    import workloads
    from spans import EXACT_COUNTS, Tracer, pass_metrics

    workload, seed = args.workload, args.seed
    directory = OUT / f"{workload}-seed{seed}"
    scene_dict = scenes.GENERATORS[workload](seed)
    scene_path = directory / "scene.json"
    scenes.write_scene(scene_dict, scene_path)
    provenance = _provenance(np, scene_dict, scene_path, workload, seed)

    scene = app.load_scene(scene_path)
    if workload == "verify_mixed":
        items = workloads.verify_items(scene)
    else:
        items = workloads.crossing_items(scene_dict, directory / "objects")

    failures: list[str] = []
    by_id = {item.id: item for item in items}
    warmup = [by_id[i] for i in workloads.WARMUP[workload]]
    attempted = len(warmup)
    ok = sum(_run_item(item, failures)[1] for item in warmup)

    tracer = Tracer() if args.trace else None
    setups = _Setups(scene_path, args.seconds)
    traced = []
    if tracer is None:
        untraced = _run_untraced(items, failures, setups, args.seconds, workloads.MIN_PASSES[workload])
    else:
        traced_items = [
            workloads.Item(item.id, tracer.recording(index, item.run), item.check)
            for index, item in enumerate(items)
        ]
        untraced = []
        while not traced or time.perf_counter() - setups.start < args.seconds:
            tracer.begin_pass()
            # which of the two runs first alternates, so that neither gains
            # from the other having warmed the caches
            plain, spanned = _run_pairs(items, traced_items, len(traced) % 2 == 1, failures, setups)
            untraced.append(plain)
            traced.append(spanned)
    setup = setups.finish()
    for one in untraced + traced:
        attempted += len(one)
        ok += sum(good for _, _, good in one)

    samples = {item.id: [] for item in items}
    for one in untraced:
        for item_id, t, _ in one:
            samples[item_id].append(t)
    detail = {"setup": setup, "untraced_passes": untraced}
    correct_extra: list[str] = []
    if tracer is None:
        # each item's median time over the run: the items differ in cost by
        # up to 100x, so a percentile of all timings pooled falls between
        # two items' costs and jumps with the host's noise; a percentile of
        # the per-item medians does not
        typical = [statistics.median(one) for one in samples.values()]
        ok_share = sum(good for one in untraced for _, _, good in one) / sum(map(len, untraced))
        values = {
            "items_per_s": ok_share * len(items) / sum(typical),
            "item_p50_s": statistics.median(typical),
            "item_tail_s": _nearest_rank(typical, TAIL_PERCENTILE),
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_to_end
    else:
        per_pass = [pass_metrics(tracer, i) for i in range(len(traced))]
        correct_extra = _check_exact_counts(EXACT_COUNTS, workload, seed, per_pass, provenance["source_sha256"])
        values = {
            name: (per_pass[0][name] if unit == "count" else statistics.fmean(m[name] for m in per_pass))
            for name, unit in per_layer.items()
            if name in per_pass[0]
        }
        # each traced pass against the untraced pass run alongside it
        pass_times = [(sum(t for _, t, _ in u), sum(t for _, t, _ in v)) for u, v in zip(untraced, traced)]
        values["trace.overhead_s"] = statistics.median(v - u for u, v in pass_times)
        values["trace.coverage"] = statistics.median(
            m["trace.layer_span_s"] / v for m, (_, v) in zip(per_pass, pass_times)
        )
        values["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
        values["app.load_scene_s"] = statistics.median(s["load_s"] for s in setup)
        detail["traced_passes"] = traced
        detail["per_pass"] = per_pass
        tracer.save(directory / "spans.npz", [item.id for item in items])
        units = per_layer

    failed = attempted - ok
    detail.update(
        provenance=provenance,
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        failures=failures,
        count_problems=correct_extra,
        metrics=values,
    )
    (directory / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"provenance": provenance, "failed_ratio": failed / attempted,
                      "samples_per_item": min(map(len, samples.values()))}))
    for line in failures + correct_extra:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not correct_extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
