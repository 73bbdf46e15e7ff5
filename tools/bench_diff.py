#!/usr/bin/env python3
"""Compare fresh BENCH_*.json baselines against a checked-in set.

Usage:
    tools/bench_diff.py --baseline <dir> --fresh <dir>

Matches BENCH_*.json files by filename between the two directories, indexes
each file's benchmarks by name (preferring the "median" aggregate when
repetitions were recorded, falling back to the raw iteration entry), and
prints one per-benchmark delta table per file: baseline vs fresh time,
items_per_second, and the percent change of each.

This report is INFORMATIONAL — it always exits 0 unless an input is
unreadable. CI runs on a shared runner whose clock speed varies by easily
2x between runs and whose core count need not match the host the
baselines were recorded on (each file's context block names it), so a hard
regression gate on these numbers would flap; the deltas are for a human
(or a release checklist) to eyeball, with the cross-kernel ratios inside
one fresh file being the stable signal.
"""
import argparse
import json
import re
import sys
from pathlib import Path


def load_benchmarks(path):
    """name -> entry, preferring median aggregates over raw iterations."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        agg = b.get("aggregate_name")
        if agg == "median":
            base = b.get("run_name", name.removesuffix("_median"))
            out[base] = b
        elif agg is None and b.get("run_type", "iteration") == "iteration":
            out.setdefault(name, b)
    return out


def fmt_time(entry):
    t = entry.get("real_time")
    unit = entry.get("time_unit", "ns")
    return f"{t:.0f}{unit}" if t is not None else "-"


def fmt_rate(entry):
    r = entry.get("items_per_second")
    return f"{r:,.0f}/s" if r is not None else "-"


def pct(old, new):
    if old is None or new is None or old == 0:
        return "-"
    return f"{100.0 * (new - old) / old:+.1f}%"


def lanes_of(name):
    """Packed lane width from a 'lanes:N' benchmark-name arg ('-' if none).

    The SRG kernel benchmarks carry the packed block width as a second
    benchmark arg (kernel:2/lanes:256); surfacing it as its own column keeps
    the width scaling readable next to the per-name deltas. lanes:0 is the
    runtime auto pick.
    """
    m = re.search(r"(?:^|/)lanes:(\d+)", name)
    if m is None:
        return "-"
    return "auto" if m.group(1) == "0" else m.group(1)


def diff_file(name, baseline, fresh):
    base = load_benchmarks(baseline)
    new = load_benchmarks(fresh)
    names = sorted(set(base) | set(new))
    if not names:
        print(f"== {name}: no benchmark entries")
        return

    rows = [("benchmark", "lanes", "base time", "fresh time", "d_time",
             "base rate", "fresh rate", "d_rate")]
    for n in names:
        b, f = base.get(n), new.get(n)
        if b is None:
            rows.append((n, lanes_of(n), "-", fmt_time(f), "new", "-",
                         fmt_rate(f), "new"))
        elif f is None:
            rows.append((n, lanes_of(n), fmt_time(b), "-", "gone",
                         fmt_rate(b), "-", "gone"))
        else:
            rows.append((n, lanes_of(n), fmt_time(b), fmt_time(f),
                         pct(b.get("real_time"), f.get("real_time")),
                         fmt_rate(b), fmt_rate(f),
                         pct(b.get("items_per_second"),
                             f.get("items_per_second"))))

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print(f"== {name}")
    for i, row in enumerate(rows):
        print("  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            print("  " + "-+-".join("-" * w for w in widths))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, type=Path,
                    help="directory with the checked-in BENCH_*.json set")
    ap.add_argument("--fresh", required=True, type=Path,
                    help="directory with freshly produced BENCH_*.json files")
    args = ap.parse_args()

    base_files = {p.name: p for p in sorted(args.baseline.glob("BENCH_*.json"))}
    fresh_files = {p.name: p for p in sorted(args.fresh.glob("BENCH_*.json"))}
    if not base_files and not fresh_files:
        print("no BENCH_*.json files found in either directory",
              file=sys.stderr)
        return 1

    common = sorted(set(base_files) & set(fresh_files))
    for name in common:
        try:
            diff_file(name, base_files[name], fresh_files[name])
        except (OSError, json.JSONDecodeError) as e:
            print(f"error reading {name}: {e}", file=sys.stderr)
            return 1
    for name in sorted(set(base_files) - set(fresh_files)):
        print(f"== {name}: baseline only (not produced by the fresh run)")
    for name in sorted(set(fresh_files) - set(base_files)):
        print(f"== {name}: fresh only (no checked-in baseline yet)")

    print("(informational: shared-runner timing is noisy; cross-kernel "
          "ratios within one fresh file are the stable signal)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
