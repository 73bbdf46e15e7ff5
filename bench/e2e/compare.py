#!/usr/bin/env python3
"""Compares bench_e2e result files, workload by workload and metric by metric.

    python3 bench/e2e/compare.py BASE.json NEW.json
    python3 bench/e2e/compare.py BASE1.json [BASE2.json ...] -- NEW1.json [...]

The first form compares two runs; the samples of a side are the per-
repetition values its file records. The second compares two sets of runs
(say ten seeds each); the samples of a side are then the run medians, one
per file, which is how run-to-run spread is judged. For every workload
both sides hold and every end-to-end metric it prints each side's median
and quartiles (statistics.quantiles, n=4), the relative change of the
median, and a verdict:

  unresolved  either side's spread (q3 - q1, as a share of its median) is
              wider than the metric's bound, and not every NEW sample beats
              every BASE sample (if every one does, the verdict is better);
  worse       NEW's median is worse than BASE's by more than the bound;
  better      NEW wins at least nine tenths of all (BASE, NEW) sample pairs
              and the medians differ by more than BASE's own spread;
  unchanged   otherwise.

Bounds come from the end_to_end list of BENCHMARK.json at the repository
root. failed_frac has bound 0: any increase is worse. The exit status is 1
when any verdict is worse, 2 on unusable input, else 0. Standard library
only.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def spread(samples):
    q1, q3 = quartiles(samples)
    med = statistics.median(samples)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, lower_is_better):
    """Applies the rules in the module docstring to two sample lists."""
    sign = 1.0 if lower_is_better else -1.0
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    # Positive `worse_by`: NEW is worse, as a share of BASE's median.
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else sign * (n_med - b_med)
    if bound == 0:
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "unchanged"
    beats = [sign * (b - n) > 0 for b in base for n in new]
    if max(spread(base), spread(new)) > bound:
        return "better" if all(beats) else "unresolved"
    if worse_by > bound:
        return "worse"
    if sum(beats) >= 0.9 * len(beats) and -worse_by > spread(base):
        return "better"
    return "unchanged"


def side_samples(files, workload, metric):
    """Per-repetition samples of a single file, else one median per file
    (files that did not run the workload are skipped)."""
    recs = [f["workloads"].get(workload, {}).get("metrics", {}).get(metric)
            for f in files]
    recs = [r for r in recs if r is not None]
    if not recs:
        return None, None
    if len(recs) == 1:
        return recs[0]["samples"], recs[0]["unit"]
    return [r["median"] for r in recs], recs[0]["unit"]


def main(argv):
    args = argv[1:]
    if "--" in args:
        cut = args.index("--")
        base_paths, new_paths = args[:cut], args[cut + 1:]
    elif len(args) == 2:
        base_paths, new_paths = args[:1], args[1:]
    else:
        base_paths = new_paths = []
    if not base_paths or not new_paths:
        print("usage: compare.py BASE.json NEW.json | "
              "BASE.json [...] -- NEW.json [...]", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        base = [json.loads(Path(p).read_text()) for p in base_paths]
        new = [json.loads(Path(p).read_text()) for p in new_paths]
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    bounds = {m["name"]: (m["bound"], m["better"] == "lower")
              for m in spec["end_to_end"]}
    bounds["failed_frac"] = (0.0, True)

    print(f"base: {len(base_paths)} file(s), new: {len(new_paths)} file(s)")
    print(f"  {'workload':13} {'metric':12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    any_worse = False
    workloads = dict.fromkeys(wl for f in base for wl in f["workloads"])
    for wl in workloads:
        for metric, (bound, lower) in bounds.items():
            bs, unit = side_samples(base, wl, metric)
            ns, _ = side_samples(new, wl, metric)
            if bs is None or ns is None:
                continue
            b_med, n_med = statistics.median(bs), statistics.median(ns)
            delta = (n_med - b_med) / abs(b_med) if b_med else 0.0
            v = verdict(bs, ns, bound, lower)
            any_worse |= v == "worse"
            (b1, b3), (n1, n3) = quartiles(bs), quartiles(ns)
            print(f"  {wl:13} {metric:12} "
                  f"{b_med:>11.6g} [{b1:.6g}, {b3:.6g}] {unit:>5} "
                  f"{n_med:>11.6g} [{n1:.6g}, {n3:.6g}] {unit:>5} "
                  f"{delta * 100:>7.2f}% {bound * 100:>5.0f}%  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
