"""conceptmine pipeline benchmark.

    python3 pipebench/run.py --workload synth-5k --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed with ``conceptmine.synth``,
then runs closed-loop rounds, one process at a time, until ``--seconds``
have passed. A round is one fresh ``python -m conceptmine run`` and one
cached ``run --stage eval`` on the same output tree. With ``--trace 1`` a
round also times a fresh ``import conceptmine.cli`` and a traced
in-process pass of each kind (``trace_pipeline.py``), and the per-layer
metrics are reported instead of the end-to-end ones. After timing, the
outputs are checked apart from the program (``checks.py``). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric the median over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0

# Extra `conceptmine run` arguments per workload. long-posts runs the
# document-parallel NER path with 2 threads, the reference machine's core count.
WORKLOADS = {
    "bundled": [],
    "synth-1k": [],
    "synth-5k": [],
    "long-posts": ["--threads", "2"],
}

# Artifacts the traced pass writes, which must equal the CLI run's.
TRACED_ARTIFACTS = (
    "mentions.jsonl",
    "doc_concept_matrix.txt",
    "cooc_matrix.txt",
    "autoencoder.json",
    "scored_raw.jsonl",
    "scored_encoded.jsonl",
    "pr_raw.csv",
    "pr_encoded.csv",
)
READ_METRICS = (
    "ner.read_mentions_ms",
    "matrix.read_ms",
    "autoencoder.load_ms",
    "selflabel.read_scored_ms",
)
SPLIT_METRICS = ("ner.find_mentions_ms", "ner.apply_filter_rules_ms")
LAYERS = ("lexicon", "ingest", "ner", "matrix", "autoencoder", "selflabel", "evaluate")
IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import conceptmine.cli; "
    "print((time.perf_counter() - started) * 1e3)"
)
MIB = 1024 * 1024


@dataclass
class Proc:
    ok: bool
    wall_s: float
    peak_rss_mb: float
    log: Path


class Bench:
    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0

    def launch(self, args: list[str]) -> Proc:
        """Run one child process to its end; wall time and peak RSS are its own."""
        self.attempted += 1
        log = self.work / f"log-{self.attempted:04d}.txt"
        remaining = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        with log.open("wb") as handle:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=handle, stderr=subprocess.STDOUT,
                cwd=ROOT, env=self.env,
            )
            lock = threading.Lock()
            exited = False

            def kill() -> None:
                with lock:
                    if not exited:
                        proc.kill()

            timer = threading.Timer(remaining, kill)
            timer.start()
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - started
            with lock:
                exited = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"failed ({proc.returncode}): {' '.join(args)}\n{tail}", file=sys.stderr)
        return Proc(ok=ok, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024, log=log)

    def record_check(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"check {name} failed: {problem}", file=sys.stderr)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup(bench: Bench, workload: str, seed: int) -> tuple[Path, list[float]]:
    """Generate the inputs several times; the repeats must agree byte for byte."""
    times = []
    dirs = []
    for i in range(SETUP_REPEATS):
        target = bench.work / f"inputs-{i}"
        result = bench.launch([str(HERE / "make_inputs.py"), "--workload", workload,
                               "--seed", str(seed), "--out", str(target)])
        if not result.ok:
            raise SystemExit("setup failed")
        times.append(result.wall_s)
        dirs.append(target)
    names = ("corpus.jsonl", "gold.jsonl", "config.ini")
    same = all((d / n).read_bytes() == (dirs[0] / n).read_bytes() for d in dirs[1:] for n in names)
    bench.record_check("setup.deterministic", None if same else "repeated setup gave other inputs")
    for d in dirs[1:]:
        shutil.rmtree(d)
    return dirs[0], times


def run_round(bench: Bench, inputs: Path, extra: list[str], trace: bool) -> dict | None:
    out = bench.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cli = ["-m", "conceptmine", "run", "--config", str(inputs / "config.ini"), "--output", str(out), *extra]
    sample: dict = {}
    if trace:
        probe = bench.launch(["-c", IMPORT_PROBE])
        if not probe.ok:
            return None
        sample["cli.import_ms"] = float(probe.log.read_text().split()[-1])
    run = bench.launch(cli)
    if not run.ok:
        return None
    sample.update(
        run_s=run.wall_s,
        run_peak_rss_mb=run.peak_rss_mb,
        output_mb=tree_bytes(out) / MIB,
        mentions=sum(1 for _ in (out / "mentions.jsonl").open(encoding="utf-8")),
    )
    full_metrics = (out / "metrics.json").read_bytes()
    rerun = bench.launch([*cli, "--stage", "eval"])
    if not rerun.ok:
        return None
    sample.update(rerun_s=rerun.wall_s, rerun_peak_rss_mb=rerun.peak_rss_mb)
    sample["rerun_same"] = (out / "metrics.json").read_bytes() == full_metrics
    if trace:
        traced = bench.work / "traced"
        shutil.rmtree(traced, ignore_errors=True)
        tracer = [str(HERE / "trace_pipeline.py"), "--config", str(inputs / "config.ini"),
                  "--output", str(traced), *extra]
        passes = []
        for args in (tracer, [*tracer, "--stage", "eval"]):
            result = bench.launch(args)
            if not result.ok:
                return None
            passes.append(json.loads(result.log.read_text().splitlines()[-1]))
        sample["traced"] = passes
        summary = json.loads((out / "auc_summary.json").read_text(encoding="utf-8"))
        sample["traced_same"] = all(
            (traced / name).read_bytes() == (out / name).read_bytes() for name in TRACED_ARTIFACTS
        ) and all(p["auc"][s] == summary[s] for p in passes for s in ("raw", "encoded"))
    return sample


def layer_metrics(sample: dict) -> dict[str, float]:
    full, rerun = sample["traced"]
    values = dict(full["ms"])
    values.update({k: rerun["ms"][k] for k in READ_METRICS})
    values.update(full["counts"])
    values["cli.import_ms"] = sample["cli.import_ms"]
    values["ner.tokens_per_s"] = full["counts"]["ner.tokens"] / (full["ms"]["ner.find_corpus_mentions_ms"] / 1e3)
    values["autoencoder.steps_per_s"] = full["counts"]["autoencoder.steps"] / (full["ms"]["autoencoder.train_ms"] / 1e3)
    whole = full["total_ms"] + sample["cli.import_ms"]
    values["trace.overhead_ms"] = whole - sample["run_s"] * 1e3
    values["cli.share_pct"] = 100 * sample["cli.import_ms"] / whole
    for layer in LAYERS:
        spent = sum(v for k, v in full["ms"].items() if k.startswith(layer + ".") and k not in SPLIT_METRICS)
        values[f"{layer}.share_pct"] = 100 * spent / whole
    return values


def median_metrics(samples: list[dict], units: dict[str, str]) -> dict:
    return {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in units.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Measure this checkout's program, never an installed copy.
    if not (ROOT / "src" / "conceptmine" / "__init__.py").is_file():
        raise SystemExit(f"no conceptmine package under {ROOT / 'src'}")

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work, time.monotonic())
    try:
        inputs, setup_times = setup(bench, args.workload, args.seed)
        extra = WORKLOADS[args.workload]
        samples = []
        measuring = time.monotonic()
        while not samples or time.monotonic() - measuring < args.seconds:
            sample = run_round(bench, inputs, extra, bool(args.trace))
            if sample is None:
                break
            samples.append(sample)
            print(f"round {len(samples)}: run_s {sample['run_s']:.3f} rerun_s {sample['rerun_s']:.3f}", file=sys.stderr)
        if not samples:
            raise SystemExit("no round completed")

        last_out = work / "out"
        for name, problem in check_outputs(inputs, last_out).items():
            bench.record_check(name, problem)
        bench.record_check(
            "rerun.metrics_identical",
            None if all(s["rerun_same"] for s in samples) else "metrics.json changed after the cached rerun",
        )
        if (inputs / "unpadded").is_dir():
            plain_out = work / "unpadded-out"
            plain = bench.launch(["-m", "conceptmine", "run", "--config", str(inputs / "unpadded" / "config.ini"),
                                  "--output", str(plain_out), "--stage", "ner", *extra])
            same = plain.ok and (plain_out / "mentions.jsonl").read_bytes() == (last_out / "mentions.jsonl").read_bytes()
            bench.record_check("ner.padding_invariant", None if same else "padding changed the mentions")
        if args.trace:
            bench.record_check(
                "trace.matches_run",
                None if all(s["traced_same"] for s in samples) else "traced pass wrote other artifacts than the run",
            )
            layer_samples = [layer_metrics(s) for s in samples]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = median_metrics(layer_samples, units)
        else:
            for s in samples:
                s["mentions_per_s"] = s["mentions"] / s["run_s"]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"] if m["name"] != "setup_s"}
            metrics = median_metrics(samples, units)
            metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(samples)} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
