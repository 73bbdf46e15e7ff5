#!/usr/bin/env python3
"""Record how the stream, gray and serve verbs scale with threads and workers.

Usage:
    tools/scaling.py [--cli build/ftroute_cli] [--base-cli OTHER_CLI]
                     [--runs 9] [--out BENCH_scaling.json]

Builds every input with the CLI itself, in a temporary directory:

  * stream: `gen torus 12 12`, `build --seed 42` (text files), and a seeded
    feed of 12,000 random fault sets of 4 to 6 nodes, swept with
    `sweep <graph> <table> --stdin --delivery-pairs 2 --threads T`;
  * gray: `gen torus 10 10` and `snapshot --seed 42`, swept with
    `sweep <snap> <snap> --faults 3 --exhaustive`, at `--threads T` and at
    `--workers W --threads 1`;
  * serve: snapshots (`--seed 42`) of torus(10,10), torus(12,12),
    hypercube(7) and CCC(4), plus a torus(8,8) graph file the planner
    builds on every miss, and a seeded file of 2,560 requests (55%
    delivery, 30% sweep, 12% check, 3% certify t8, shuffled), served with
    `serve --tables M --requests R --threads T --batch 16
    --max-resident-bytes 4000000`.

Each cell (verb x knob) runs --runs times. The runs are interleaved: every
round runs every cell once, so a slow phase of the host spreads over all
cells instead of landing on one. A cell's wall time is the child's elapsed
time, its cpu time the child's user + system time; the JSON holds the
median of each. With --base-cli, every cell is also run with that binary
(the build the change is measured against) in the same rounds, and
recorded as build "base". Every run of one verb must print the same
stdout, or the script fails.
"""
import argparse
import datetime
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREADS = (1, 2, 4)
WORKERS = (1, 2, 4)
FEED_SETS = 12000
FEED_SEED = 1
REQUEST_SEED = 1
# (name, `gen` arguments, nodes); every table but t8 is served as a snapshot.
SERVE_TABLES = (("t10", ["torus", "10", "10"], 100),
                ("t12", ["torus", "12", "12"], 144),
                ("hc7", ["hypercube", "7"], 128),
                ("ccc4", ["ccc", "4"], 64),
                ("t8", ["torus", "8", "8"], 64))
SERVE_MIX = (("delivery", 1408), ("sweep", 768), ("check", 307),
             ("certify", 77))


def run(cmd, stdin=None, stdout=subprocess.PIPE):
    """Runs cmd to completion; returns (stdout bytes, wall s, cpu s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with open(stdin, "rb") if stdin else open(os.devnull, "rb") as fin:
        done = subprocess.run(cmd, stdin=fin, stdout=stdout,
                              stderr=subprocess.DEVNULL, check=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return done.stdout, wall, cpu


def make_inputs(cli, work):
    """The stream and gray inputs, built by the CLI under test."""
    def to_file(cmd, path, stdin=None):
        with open(path, "wb") as out:
            run(cmd, stdin=stdin, stdout=out)

    to_file([cli, "gen", "torus", "12", "12"], work / "t12.ftg")
    to_file([cli, "build", "--seed", "42"], work / "t12.ftt",
            stdin=work / "t12.ftg")
    rng = random.Random(FEED_SEED)
    with open(work / "feed.txt", "w") as feed:
        for _ in range(FEED_SETS):
            nodes = rng.sample(range(144), rng.randint(4, 6))
            feed.write(" ".join(map(str, nodes)) + "\n")
    manifest = []
    for name, gen, _ in SERVE_TABLES:
        to_file([cli, "gen", *gen], work / f"{name}.ftg")
        if name == "t8":
            manifest.append(f"table t8 graph={work / 't8.ftg'} seed=42")
            continue
        run([cli, "snapshot", "--graph", str(work / f"{name}.ftg"), "--seed",
             "42", "--out", str(work / f"{name}.snap")])
        manifest.append(f"table {name} snapshot={work / f'{name}.snap'}")
    (work / "tables.txt").write_text("\n".join(manifest) + "\n")
    (work / "requests.txt").write_text(serve_requests())


def serve_requests():
    """The seeded serve stream: kinds in exact shares, shuffled; delivery and
    sweep over all five tables, check on the two 64-node tables, certify
    on the planner-built one."""
    rng = random.Random(REQUEST_SEED)
    kinds = [kind for kind, count in SERVE_MIX for _ in range(count)]
    rng.shuffle(kinds)
    lines = []
    for kind in kinds:
        name, _, nodes = rng.choice(SERVE_TABLES)
        seed = f" seed={rng.randrange(1 << 30)}"
        if kind == "delivery":
            faults = rng.sample(range(nodes), rng.randint(1, 3))
            lines.append(f"delivery {name} faults="
                         f"{','.join(map(str, faults))} pairs=8{seed}")
        elif kind == "sweep":
            lines.append(f"sweep {name} f={rng.randint(2, 4)} sets=20{seed}")
        elif kind == "check":
            lines.append(f"check {rng.choice(('ccc4', 't8'))} f=2 "
                         f"claimed=6{seed}")
        else:
            lines.append(f"certify t8{seed}")
    return "\n".join(lines) + "\n"


def cells(cli, base_cli, work):
    """(verb, build, knob, value, command, stdin) for every cell."""
    stream = [str(work / "t12.ftg"), str(work / "t12.ftt"), "--stdin",
              "--delivery-pairs", "2"]
    gray = [str(work / "t10.snap"), str(work / "t10.snap"), "--faults", "3",
            "--exhaustive"]
    serve = ["--tables", str(work / "tables.txt"), "--requests",
             str(work / "requests.txt"), "--batch", "16",
             "--max-resident-bytes", "4000000"]
    out = []
    builds = [("change", cli)] + ([("base", base_cli)] if base_cli else [])
    for build, binary in builds:
        for t in THREADS:
            out.append(("stream", build, "threads", t,
                        [binary, "sweep", *stream, "--threads", str(t)],
                        work / "feed.txt"))
        for t in THREADS:
            out.append(("serve", build, "threads", t,
                        [binary, "serve", *serve, "--threads", str(t)], None))
        for t in THREADS:
            out.append(("gray", build, "threads", t,
                        [binary, "sweep", *gray, "--threads", str(t)], None))
        for w in WORKERS:
            out.append(("gray", build, "workers", w,
                        [binary, "sweep", *gray, "--workers", str(w),
                         "--threads", "1"], None))
    return out


def host():
    """The CPU model, its widest vector extension, and the system."""
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    vector = next((f for f in ("avx512f", "avx2") if f in flags), "none")
    return {"cpu": model, "vector": vector, "logical_cpus": os.cpu_count(),
            "system": f"{platform.system()} {platform.release()}",
            "machine": platform.machine()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cli", default="build/ftroute_cli")
    ap.add_argument("--base-cli", default=None,
                    help="also time every cell with this binary")
    ap.add_argument("--runs", type=int, default=9)
    ap.add_argument("--out", default="BENCH_scaling.json")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ftroute-scaling-") as tmp:
        work = Path(tmp)
        make_inputs(args.cli, work)
        table = cells(args.cli, args.base_cli, work)
        walls = [[] for _ in table]
        cpus = [[] for _ in table]
        stdout_of = {}
        for _ in range(args.runs):
            for i, (verb, build, knob, value, cmd, stdin) in enumerate(table):
                out, wall, cpu = run(cmd, stdin=stdin)
                if stdout_of.setdefault(verb, out) != out:
                    sys.exit(f"error: {verb} {build} {knob}={value} printed "
                             "different stdout")
                walls[i].append(wall)
                cpus[i].append(cpu)

    rows = []
    for i, (verb, build, knob, value, _, _) in enumerate(table):
        rows.append({"verb": verb, "build": build, knob: value,
                     "wall_s_median": round(statistics.median(walls[i]), 4),
                     "cpu_s_median": round(statistics.median(cpus[i]), 4)})
        print(f"{verb:6} {build:6} {knob}={value}: wall "
              f"{rows[-1]['wall_s_median']:.4f} s, cpu "
              f"{rows[-1]['cpu_s_median']:.4f} s")
    record = {
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "host": host(),
            "runs_per_cell": args.runs,
            "interleaved": True,
            "stream": f"torus(12,12) text files, {FEED_SETS} seeded sets "
                      "of 4-6 faults on stdin, 2 delivery pairs",
            "gray": "torus(10,10) snapshot, f = 3 exhaustive",
            "serve": "2,560 seeded requests over 4 snapshots and a "
                     "planner-built torus(8,8), --batch 16, "
                     "--max-resident-bytes 4000000",
        },
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
