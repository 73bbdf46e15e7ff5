#!/usr/bin/env bash
# End-to-end CLI smoke: gen | build | check | sweep --stdin | serve --stdin
# piped on a small topology, asserting stdout is byte-identical across
# --threads 1 and --threads 4 for every verb that fans out work (the
# exhaustive sweep included) and across --workers process counts on the
# distributed sweep/check (including an f=4 exhaustive check). This is the
# executable form of the repo's determinism contract — if a thread or
# process count ever leaks into stdout, this script (and the CI job
# running it) fails on the cmp.
#
# It also pins absolute behavior, not just self-consistency: key verb
# outputs are cmp'd byte-for-byte against tests/golden/cli/*.golden (the
# outputs captured before the CLI/exec-policy refactor), every verb's
# --help must list every flag its parser accepts, and unknown flags /
# missing values must be rejected uniformly (exit 2, usage on stderr).
#
# Usage: tools/cli_smoke.sh [build-dir]   (default: ./build)
set -euo pipefail

BUILD_DIR="${1:-build}"
CLI="${BUILD_DIR}/ftroute_cli"
if [[ ! -x "${CLI}" ]]; then
  echo "error: ${CLI} not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

echo "== gen | build"
"${CLI}" gen torus 5 5 > "${WORK}/graph.ftg"
"${CLI}" build --seed 42 < "${WORK}/graph.ftg" \
  > "${WORK}/table.ftt" 2> "${WORK}/build.log"

# Line-delimited fault sets for the streaming sweep.
printf '0 7\n3 11\n1 2 3\n24 12\n6\n' > "${WORK}/faults.txt"

# Tables manifest + request stream for the serving layer. The certify
# request carries explicit bounds because file-loaded tables have no
# planner claims.
printf 'table demo graph=%s routes=%s\n' \
  "${WORK}/graph.ftg" "${WORK}/table.ftt" > "${WORK}/tables.txt"
cat > "${WORK}/requests.txt" <<'EOF'
# smoke request mix: every kind, one table
check demo f=2 claimed=6 seed=5
sweep demo f=2 sets=40 seed=9 pairs=3
delivery demo faults=3,7 pairs=4 seed=11
sweep demo f=2 exhaustive seed=1
certify demo f=2 claimed=6 seed=13
EOF

for t in 1 4; do
  echo "== check/sweep/serve at --threads ${t}"
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --claimed 6 --seed 7 --threads "${t}" \
    > "${WORK}/check.${t}.out" 2> /dev/null
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --stdin --threads "${t}" --batch 3 < "${WORK}/faults.txt" \
    > "${WORK}/sweep.${t}.out" 2> /dev/null
  "${CLI}" serve --tables "${WORK}/tables.txt" --stdin \
    --threads "${t}" --batch 2 < "${WORK}/requests.txt" \
    > "${WORK}/serve.${t}.out" 2> /dev/null
done

echo "== comparing stdout across thread counts"
cmp "${WORK}/check.1.out" "${WORK}/check.4.out"
cmp "${WORK}/sweep.1.out" "${WORK}/sweep.4.out"
cmp "${WORK}/serve.1.out" "${WORK}/serve.4.out"

# The exhaustive sweep runs packed lane blocks at the width this CPU picks;
# it must print the same bytes at every thread count and through forked
# workers (the width is picked again inside each worker).
echo "== exhaustive sweep across --threads and --workers"
for t in 1 4; do
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --exhaustive --threads "${t}" \
    > "${WORK}/xsweep.${t}.out" 2> /dev/null
done
cmp "${WORK}/xsweep.1.out" "${WORK}/xsweep.4.out"
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --faults 2 --exhaustive --threads 2 --workers 4 --worker-batch 9 \
  > "${WORK}/xsweep.dist.out" 2> /dev/null
cmp "${WORK}/xsweep.1.out" "${WORK}/xsweep.dist.out"

# The serve output must answer every request (no dropped/erroring lines).
if [[ "$(wc -l < "${WORK}/serve.1.out")" -ne 5 ]]; then
  echo "error: expected 5 response lines" >&2
  cat "${WORK}/serve.1.out" >&2
  exit 1
fi
if grep -q "error:" "${WORK}/serve.1.out"; then
  echo "error: serve answered with an error response" >&2
  cat "${WORK}/serve.1.out" >&2
  exit 1
fi

# Binary snapshot round trip: dump the graph+routes into a snapshot, serve
# from a snapshot= manifest, and demand stdout identical to the
# build-on-miss serve above — the snapshot is a cold-path accelerator,
# never a behavior change. Snapshots are also accepted anywhere a
# graph/table file is read (check/sweep sniff the magic).
echo "== snapshot round trip"
"${CLI}" snapshot --graph "${WORK}/graph.ftg" --routes "${WORK}/table.ftt" \
  --out "${WORK}/table.snap" 2> /dev/null
printf 'table demo snapshot=%s\n' "${WORK}/table.snap" \
  > "${WORK}/tables.snap.txt"
for t in 1 4; do
  "${CLI}" serve --tables "${WORK}/tables.snap.txt" --stdin \
    --threads "${t}" --batch 2 < "${WORK}/requests.txt" \
    > "${WORK}/serve.snap.${t}.out" 2> /dev/null
  cmp "${WORK}/serve.1.out" "${WORK}/serve.snap.${t}.out"
done
# The retired snapshot_load= manifest key is rejected like any unknown key.
printf 'table demo snapshot=%s snapshot_load=bulk\n' "${WORK}/table.snap" \
  > "${WORK}/tables.retired.txt"
rc=0
"${CLI}" serve --tables "${WORK}/tables.retired.txt" --stdin \
  < "${WORK}/requests.txt" > /dev/null 2> "${WORK}/retired.err" || rc=$?
if [[ "${rc}" -eq 0 ]] || ! grep -q "unknown key 'snapshot_load'" \
    "${WORK}/retired.err"; then
  echo "error: serve accepted the retired snapshot_load= key (exit ${rc})" >&2
  cat "${WORK}/retired.err" >&2
  exit 1
fi

echo "== snapshot accepted by check/sweep"
"${CLI}" check "${WORK}/table.snap" "${WORK}/table.snap" \
  --faults 2 --claimed 6 --seed 7 > "${WORK}/check.snap.out" 2> /dev/null
cmp "${WORK}/check.1.out" "${WORK}/check.snap.out"
# A snapshot stores only the graph, the routes and the plan, and a load
# derives the rest, so re-snapshotting a loaded one writes the same bytes.
"${CLI}" snapshot --graph "${WORK}/table.snap" --routes "${WORK}/table.snap" \
  --out "${WORK}/resave.snap" 2> /dev/null
cmp "${WORK}/table.snap" "${WORK}/resave.snap"
"${CLI}" sweep "${WORK}/table.snap" "${WORK}/table.snap" \
  --stdin --threads 2 --batch 3 < "${WORK}/faults.txt" \
  > "${WORK}/sweep.snap.out" 2> /dev/null
cmp "${WORK}/sweep.1.out" "${WORK}/sweep.snap.out"

# Distributed sweeps: forked snapshot-fed workers must print the same
# stdout bytes as the in-process path (--workers 0) for every worker
# count and unit size — on the exhaustive sweep, the stdin stream, and
# the tolerance check. The snapshot form exercises the mmap-the-file
# worker feed; the graph+table form exercises the fd-passed payload.
echo "== distributed sweep/check vs in-process"
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --faults 2 --exhaustive --delivery-pairs 3 --seed 7 \
  > "${WORK}/dsweep.0.out" 2> /dev/null
for w in 1 4; do
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --exhaustive --delivery-pairs 3 --seed 7 \
    --workers "${w}" --worker-batch 9 \
    > "${WORK}/dsweep.${w}.out" 2> /dev/null
  cmp "${WORK}/dsweep.0.out" "${WORK}/dsweep.${w}.out"
done
"${CLI}" sweep "${WORK}/table.snap" "${WORK}/table.snap" \
  --faults 2 --exhaustive --delivery-pairs 3 --seed 7 --workers 2 \
  > "${WORK}/dsweep.snap.out" 2> /dev/null
cmp "${WORK}/dsweep.0.out" "${WORK}/dsweep.snap.out"
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --stdin --workers 2 --worker-batch 2 < "${WORK}/faults.txt" \
  > "${WORK}/dsweep.stdin.out" 2> /dev/null
cmp "${WORK}/sweep.1.out" "${WORK}/dsweep.stdin.out"
for w in 1 4; do
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --claimed 6 --seed 7 --workers "${w}" \
    > "${WORK}/dcheck.${w}.out" 2> /dev/null
  cmp "${WORK}/check.1.out" "${WORK}/dcheck.${w}.out"
done
# More faults than nodes is an error in process and under --workers alike,
# even though the C(16, 20) = 0 ranks split into no units.
"${CLI}" gen torus 4 4 > "${WORK}/small.ftg"
"${CLI}" build --seed 42 < "${WORK}/small.ftg" > "${WORK}/small.ftt" \
  2> /dev/null
for w in 0 2; do
  rc=0
  "${CLI}" sweep "${WORK}/small.ftg" "${WORK}/small.ftt" \
    --exhaustive --faults 20 --workers "${w}" > /dev/null 2>&1 || rc=$?
  if [[ "${rc}" -ne 1 ]]; then
    echo "error: sweep --faults 20 on 16 nodes at --workers ${w}" \
      "exited ${rc}, expected 1" >&2
    exit 1
  fi
done

# Golden stdout: byte-exact outputs pinned before the CLI/exec-policy
# refactor. Any drift in what these verbs print is a behavior change and
# must be a conscious golden update, never an accident of plumbing.
echo "== golden stdout cmp"
GOLD="$(cd "$(dirname "$0")/.." && pwd)/tests/golden/cli"
"${CLI}" stretch "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  > "${WORK}/stretch.out" 2> /dev/null
cmp "${GOLD}/check.golden" "${WORK}/check.1.out"
cmp "${GOLD}/sweep_stdin.golden" "${WORK}/sweep.1.out"
cmp "${GOLD}/serve.golden" "${WORK}/serve.1.out"
cmp "${GOLD}/sweep_exhaustive.golden" "${WORK}/xsweep.1.out"
# A batch that is no multiple of any lane width: exhaustive scans round it
# up to whole packed blocks, and the bytes must not move.
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --faults 2 --exhaustive --threads 4 --batch 7 \
  > "${WORK}/xsweep.b7.out" 2> /dev/null
cmp "${GOLD}/sweep_exhaustive.golden" "${WORK}/xsweep.b7.out"
cmp "${GOLD}/sweep_exhaustive_delivery.golden" "${WORK}/dsweep.0.out"
cmp "${GOLD}/stretch.golden" "${WORK}/stretch.out"

# Sampled sweep with delivery: set i and its delivery pairs are drawn from
# Rng::stream(seed, i) inside whichever chunk or worker evaluates it, so
# every thread count, batch size and worker split prints the golden bytes.
echo "== sampled sweep across --threads, --batch and --workers"
for knobs in "--threads 1" "--threads 4" "--batch 7" \
    "--workers 2 --worker-batch 9"; do
  # shellcheck disable=SC2086  # knobs is a deliberate word list
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 3 --sets 200 --seed 5 --delivery-pairs 2 ${knobs} \
    > "${WORK}/ssweep.out" 2> /dev/null
  cmp "${GOLD}/sweep_sampled.golden" "${WORK}/ssweep.out"
done

# Progress is stderr telemetry: a bounded sweep reports from its executor
# workers under the merge lock, and stdout must not move. Every chunk here
# is one set (or one Gray block), so each run reports at least once.
echo "== sweeps with progress on"
for mode in "--faults 2 --exhaustive:sweep_exhaustive" \
    "--faults 3 --sets 200 --seed 5 --delivery-pairs 2:sweep_sampled"; do
  # shellcheck disable=SC2086  # the mode's flags are a deliberate word list
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" ${mode%%:*} \
    --threads 4 --batch 1 --progress-every 50 \
    > "${WORK}/psweep.out" 2> "${WORK}/psweep.err"
  cmp "${GOLD}/${mode##*:}.golden" "${WORK}/psweep.out"
  if ! grep -q '^  \.\.\. ' "${WORK}/psweep.err"; then
    echo "error: sweep ${mode%%:*} --progress-every 50 reported no progress" >&2
    exit 1
  fi
done

# The executor: line reports the in-process executor only; forked workers'
# counters stay in the children, and --workers prints its dist stats.
echo "== executor: line only on in-process sweeps"
for w in 0 2; do
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --exhaustive --workers "${w}" > /dev/null 2> "${WORK}/xw.err"
  has=0
  if grep -q '^executor: ' "${WORK}/xw.err"; then has=1; fi
  if [[ "${has}" -ne $(( w == 0 ? 1 : 0 )) ]]; then
    echo "error: sweep --workers ${w}: executor: line present=${has}" >&2
    cat "${WORK}/xw.err" >&2
    exit 1
  fi
done

# --threads 0 means every hardware thread, in each worker too: the report
# names the resolved count, never the raw request.
"${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --faults 2 --sets 50 --threads 0 --workers 2 \
  > /dev/null 2> "${WORK}/t0sweep.err"
if ! grep -q "^swept .* thread(s)" "${WORK}/t0sweep.err" ||
    grep -q "on 0 thread(s)" "${WORK}/t0sweep.err"; then
  echo "error: sweep --threads 0 --workers 2 reports 0 threads" >&2
  exit 1
fi

# A batch far past the 2^20 clamp (ExecPolicy::resolved_batch) must neither
# hang nor fail: batch x threads used to wrap to a zero window. Sampled,
# exhaustive, --stdin and --workers sweeps at --batch 2^62 print what
# --batch 1024 prints.
echo "== huge --batch clamps instead of hanging"
for mode in "--faults 1 --sets 10" "--faults 1 --exhaustive" "--stdin" \
    "--faults 1 --sets 10 --workers 2"; do
  for b in 1024 4611686018427387904; do
    # shellcheck disable=SC2086  # mode is a deliberate word list
    timeout 10 "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
      ${mode} --threads 4 --batch "${b}" < "${WORK}/faults.txt" \
      > "${WORK}/hbatch.${b}.out" 2> /dev/null || {
      echo "error: sweep ${mode} --batch ${b} failed or hung" >&2
      exit 1
    }
  done
  cmp "${WORK}/hbatch.1024.out" "${WORK}/hbatch.4611686018427387904.out"
done

# A streamed feed long enough for packed blocks: 640 seeded sets of 1-6
# faults, one with a duplicate id and one leaving a single survivor. At
# --batch 1024 the sets are evaluated in lane blocks of unrelated sets, at
# --batch 7 set by set, and delivery walks each set's fault stamps either
# way, so every knob prints the golden bytes.
echo "== long stdin feed across --threads, --batch and --workers"
x=20261017
for ((i = 0; i < 640; ++i)); do
  x=$(( (x * 1103515245 + 12345) % 2147483648 ))
  f=$(( 1 + (x >> 8) % 6 ))
  line=""
  used=" "
  while (( f > 0 )); do
    x=$(( (x * 1103515245 + 12345) % 2147483648 ))
    v=$(( (x >> 8) % 25 ))
    [[ "${used}" == *" ${v} "* ]] && continue
    used+="${v} "
    line+="${v} "
    f=$(( f - 1 ))
  done
  if (( i == 200 )); then
    line+="${line%% *}"
  elif (( i == 400 )); then
    line="$(seq -s ' ' 0 23)"
  fi
  echo "${line% }"
done > "${WORK}/faults.long.txt"
for knobs in "--threads 1 --batch 7" "--threads 1 --batch 1024" \
    "--threads 4 --batch 7" "--threads 4 --batch 1024" "--workers 2"; do
  # shellcheck disable=SC2086  # knobs is a deliberate word list
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --stdin --delivery-pairs 2 ${knobs} < "${WORK}/faults.long.txt" \
    > "${WORK}/lsweep.out" 2> /dev/null
  cmp "${GOLD}/sweep_stdin_long.golden" "${WORK}/lsweep.out"
done

# The same feed with a bad token at line 500 and an out-of-range id at line
# 601: executor workers read the feed in order under one lock, so every
# knob must stop at line 500 with the same message, never at line 601.
echo "== bad stdin feed fails at its first bad line across --threads, --batch"
awk 'NR == 500 { print "3 frog 4" } NR == 600 { print "2 25" } { print }' \
  "${WORK}/faults.long.txt" > "${WORK}/faults.bad.txt"
for knobs in "--threads 1 --batch 7" "--threads 1 --batch 1024" \
    "--threads 4 --batch 7" "--threads 4 --batch 1024"; do
  rc=0
  # shellcheck disable=SC2086  # knobs is a deliberate word list
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --stdin --delivery-pairs 2 ${knobs} < "${WORK}/faults.bad.txt" \
    > /dev/null 2> "${WORK}/bsweep.err" || rc=$?
  if [[ "${rc}" != 1 ]]; then
    echo "error: bad feed at ${knobs} exited ${rc}, not 1" >&2
    exit 1
  fi
  grep -q "fault-set line 500: node id 'frog'" "${WORK}/bsweep.err"
  if [[ -f "${WORK}/bsweep.first.err" ]]; then
    cmp "${WORK}/bsweep.first.err" "${WORK}/bsweep.err"
  else
    cp "${WORK}/bsweep.err" "${WORK}/bsweep.first.err"
  fi
done

# Multi-table churn: a planner-built graph= table and a snapshot= table
# under a 1-byte budget, so every window that switches tables evicts one
# and rebuilds or reloads the other. Every request kind on both tables
# must print the golden bytes at every --threads and --batch.
echo "== multi-table serve under a starved budget"
printf 'table planned graph=%s seed=42\ntable snap snapshot=%s\n' \
  "${WORK}/graph.ftg" "${WORK}/table.snap" > "${WORK}/tables.multi.txt"
cat > "${WORK}/requests.multi.txt" <<'EOF'
# multi-table churn: every kind over a planner-built and a snapshot table
delivery planned faults=3,7 pairs=4 seed=1
check snap f=2 claimed=6 seed=2
sweep planned f=2 sets=30 seed=3 pairs=2
delivery snap faults=0,12 pairs=4 seed=4
certify planned seed=5
sweep snap f=2 exhaustive seed=6
delivery planned faults=11 pairs=3 seed=7
certify snap f=2 claimed=6 seed=8
check planned f=1 claimed=6 seed=9
sweep snap f=3 sets=25 seed=10 pairs=3
delivery snap faults=5,6,7 pairs=4 seed=11
delivery planned faults=20,21 seed=12
EOF
for t in 1 4; do
  for b in 1 64; do
    "${CLI}" serve --tables "${WORK}/tables.multi.txt" \
      --requests "${WORK}/requests.multi.txt" --max-resident-bytes 1 \
      --threads "${t}" --batch "${b}" \
      > "${WORK}/serve.multi.out" 2> /dev/null
    cmp "${GOLD}/serve_multi.golden" "${WORK}/serve.multi.out"
  done
done

# Repeated exact questions: serve computes each exhaustive check/certify
# sweep once per (table, generation, f) and answers the repeats from it.
# 20 checks over two tables with mixed seeds and claims, one past the
# exhaustive budget (C(25, 5) sets: sampled and climbed, never shared) and
# one exhaustive certify must print the golden bytes, recorded without the
# memo, at every --threads, --batch and budget (a 1-byte budget rebuilds
# the tables window by window, so their sweeps are recomputed).
echo "== serve repeated checks across --threads, --batch and budgets"
cat > "${WORK}/requests.memo.txt" <<'EOF'
# repeated checks: mixed seeds and claims over two tables
check planned f=2 claimed=6 seed=1
check snap f=2 claimed=6 seed=2
check planned f=2 claimed=1 seed=3
check snap f=2 claimed=3 seed=4
check planned f=3 claimed=6 seed=5
certify planned seed=6
check snap f=1 claimed=6 seed=7
check planned f=2 claimed=6 seed=8
check snap f=2 claimed=6 seed=9
check planned f=5 claimed=6 seed=10
check planned f=3 claimed=4 seed=11
check snap f=2 claimed=6 seed=12
check planned f=1 claimed=6 seed=13
check snap f=1 claimed=1 seed=14
check planned f=2 claimed=6 seed=15
check snap f=2 claimed=6 seed=16
check planned f=3 claimed=6 seed=17
check snap f=3 claimed=6 seed=18
check planned f=2 claimed=6 seed=19
check snap f=2 claimed=6 seed=20
check planned f=3 claimed=6 seed=21
EOF
for t in 1 4; do
  for b in 1 64; do
    for budget in 1 0; do
      "${CLI}" serve --tables "${WORK}/tables.multi.txt" \
        --requests "${WORK}/requests.memo.txt" --max-resident-bytes "${budget}" \
        --threads "${t}" --batch "${b}" \
        > "${WORK}/serve.memo.out" 2> "${WORK}/serve.memo.err"
      cmp "${GOLD}/serve_memo.golden" "${WORK}/serve.memo.out"
      if ! grep -q '^memo: computed=' "${WORK}/serve.memo.err"; then
        echo "error: serve (--threads ${t} --batch ${b} budget ${budget})" \
          "printed no memo: line" >&2
        exit 1
      fi
    done
  done
done

# Exhaustive check past f = 3: all C(25, 4) = 12650 sets in Gray order,
# in-process and through forked workers — every worker count prints the
# golden bytes. The claim is violated, so check exits 1; anything else is
# a failure.
echo "== exhaustive f=4 check across --workers"
for w in 0 1 4; do
  rc=0
  "${CLI}" check "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 4 --claimed 6 --seed 7 --workers "${w}" \
    > "${WORK}/check4.${w}.out" 2> /dev/null || rc=$?
  if [[ "${rc}" -ne 1 ]]; then
    echo "error: f=4 check (--workers ${w}) exited ${rc}, want 1" >&2
    exit 1
  fi
  cmp "${GOLD}/check_f4.golden" "${WORK}/check4.${w}.out"
done

# Both sides of the exhaustive budget on one table: C(32, 4) = 35,960 sets
# fit it, so f = 4 sweeps every set (the claim holds, measured 4, the
# worst set that `sweep --exhaustive --faults 4` reports), while C(32, 5)
# is past it, so check and certify run 200 samples plus the
# route-load-seeded hill-climbs, and a climb disconnects the table, which
# stops the search (check exits 1: VIOLATED). Samples fill packed lane
# blocks and climbs step in lockstep, so every --threads and --workers must
# print the golden bytes.
echo "== exhaustive and adversarial check and certify across --threads and --workers"
"${CLI}" gen hypercube 5 > "${WORK}/q5.ftg"
"${CLI}" build --seed 42 < "${WORK}/q5.ftg" > "${WORK}/q5.ftt" 2> /dev/null
printf 'table q5 graph=%s routes=%s\n' "${WORK}/q5.ftg" "${WORK}/q5.ftt" \
  > "${WORK}/tables.q5.txt"
printf 'certify q5 f=4 claimed=6 seed=3\ncertify q5 f=5 claimed=6 seed=4\n' \
  > "${WORK}/requests.q5.txt"
for t in 1 4; do
  for w in 0 2; do
    : > "${WORK}/adv.out"
    for f in 4 5; do
      rc=0
      "${CLI}" check "${WORK}/q5.ftg" "${WORK}/q5.ftt" --faults "${f}" \
        --claimed 6 --threads "${t}" --workers "${w}" \
        >> "${WORK}/adv.out" 2> /dev/null || rc=$?
      if [[ "${rc}" -ne $(( f == 5 ? 1 : 0 )) ]]; then
        echo "error: adversarial f=${f} check (--threads ${t}" \
          "--workers ${w}) exited ${rc}" >&2
        exit 1
      fi
    done
    "${CLI}" serve --tables "${WORK}/tables.q5.txt" \
      --requests "${WORK}/requests.q5.txt" --threads "${t}" \
      >> "${WORK}/adv.out" 2> /dev/null
    cmp "${GOLD}/check_adversarial.golden" "${WORK}/adv.out"
  done
done

# The exhaustive budget (50,000 sets) admits the planner's torus(8,8) at
# its tolerated f = 3: C(64, 3) = 41,664 sets, all swept. The verdict is the
# same at every --threads and --workers, and serve's certify of the table
# (planner-built, so it carries the claims certify defaults to) is one
# memo sweep at every --threads.
echo "== torus(8,8) f=3 check and certify within the exhaustive budget"
"${CLI}" gen torus 8 8 > "${WORK}/t8.ftg"
"${CLI}" build --seed 42 < "${WORK}/t8.ftg" > "${WORK}/t8.ftt" 2> /dev/null
printf 'table t8 graph=%s seed=42\n' "${WORK}/t8.ftg" > "${WORK}/tables.t8.txt"
printf 'certify t8 seed=1\ncheck t8 f=3 claimed=6 seed=2\ncertify t8 seed=3\n' \
  > "${WORK}/requests.t8.txt"
for t in 1 4; do
  for w in 0 2; do
    "${CLI}" check "${WORK}/t8.ftg" "${WORK}/t8.ftt" --faults 3 \
      --claimed 6 --threads "${t}" --workers "${w}" \
      > "${WORK}/t8check.${t}.${w}.out" 2> /dev/null
    cmp "${WORK}/t8check.1.0.out" "${WORK}/t8check.${t}.${w}.out"
  done
  "${CLI}" serve --tables "${WORK}/tables.t8.txt" \
    --requests "${WORK}/requests.t8.txt" --threads "${t}" \
    > "${WORK}/t8serve.${t}.out" 2> "${WORK}/t8serve.${t}.err"
  cmp "${WORK}/t8serve.1.out" "${WORK}/t8serve.${t}.out"
  grep -q "^memo: computed=1 hits=2$" "${WORK}/t8serve.${t}.err"
done
grep -q "(exhaustive, 41664 sets) HOLDS" "${WORK}/t8check.1.0.out"
if [[ "$(grep -c "(exhaustive, 41664 sets) HOLDS" "${WORK}/t8serve.1.out")" \
      -ne 3 ]]; then
  echo "error: a t8 serve check or certify was not exhaustive" >&2
  exit 1
fi

# A text header's node count is capped (kMaxTextNodes) before anything is
# sized by it: this 39-byte graph claims 20,000,000 nodes and must be
# refused from its header, naming the count, not after a multi-hundred-MB
# builder allocation.
echo "== text header node count is capped"
printf 'ftroute-graph v1 20000000\nedge 0 1\nend\n' > "${WORK}/big.ftg"
rc=0
"${CLI}" sweep "${WORK}/big.ftg" "${WORK}/table.ftt" --faults 1 \
  > /dev/null 2> "${WORK}/big.err" || rc=$?
if [[ "${rc}" -ne 1 ]] || ! grep -q "node count '20000000'" "${WORK}/big.err"; then
  echo "error: 20,000,000-node header exited ${rc}, want 1 naming the count:" >&2
  cat "${WORK}/big.err" >&2
  exit 1
fi

# Exhaustive sweeps with delivery evaluate one Gray-ordered set at a time;
# spread over threads they must still print the golden bytes.
echo "== exhaustive delivery sweep across --threads"
for t in 2 4; do
  "${CLI}" sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
    --faults 2 --exhaustive --delivery-pairs 3 --seed 7 --threads "${t}" \
    > "${WORK}/tdsweep.${t}.out" 2> /dev/null
  cmp "${GOLD}/sweep_exhaustive_delivery.golden" "${WORK}/tdsweep.${t}.out"
done

# Per-verb --help: exit 0 and list every flag the verb's parser accepts
# (usage is generated from the same registry the parser consults, so a
# missing flag here means the registry and this list drifted).
echo "== per-verb --help lists every registered flag"
help_has() {
  local verb="$1"; shift
  "${CLI}" "${verb}" --help > "${WORK}/help.${verb}.out"
  local f
  for f in "$@"; do
    if ! grep -q -- "${f}" "${WORK}/help.${verb}.out"; then
      echo "error: ${verb} --help does not mention ${f}" >&2
      cat "${WORK}/help.${verb}.out" >&2
      exit 1
    fi
  done
}
help_has gen
help_has profile
help_has build --seed --certify --threads
help_has check --faults --claimed --seed --workers --worker-batch \
  --worker-timeout --threads
help_has sweep --faults --sets --seed --exhaustive --stdin \
  --delivery-pairs --workers --worker-batch --worker-timeout --threads \
  --batch --progress-every
help_has serve --tables --requests --stdin --max-resident-bytes \
  --threads --batch --progress-every
help_has stretch
help_has snapshot --graph --routes --seed --out

# Uniform strictness: every verb rejects unknown flags and missing flag
# values with exit 2 and its usage on stderr.
echo "== unknown flags / missing values rejected uniformly"
expect_usage_error() {
  local verb="$1"; shift
  local rc=0
  "${CLI}" "${verb}" "$@" > /dev/null 2> "${WORK}/neg.err" < /dev/null \
    || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "error: ftroute ${verb} $* exited ${rc}, want 2" >&2
    cat "${WORK}/neg.err" >&2
    exit 1
  fi
  if ! grep -q "usage: ftroute ${verb}" "${WORK}/neg.err"; then
    echo "error: ftroute ${verb} $* did not print its usage" >&2
    cat "${WORK}/neg.err" >&2
    exit 1
  fi
}
for v in gen profile build check sweep serve stretch snapshot; do
  expect_usage_error "${v}" --definitely-not-a-flag
done
expect_usage_error build --seed
expect_usage_error check --faults
expect_usage_error sweep --sets
expect_usage_error sweep --threads
expect_usage_error serve --tables
expect_usage_error snapshot --graph
# Retired execution flags are unknown everywhere: the chunk scheduler is
# gone, and the code picks the SRG kernel and the packed lane width.
for v in build check sweep serve; do
  expect_usage_error "${v}" --executor steal
  expect_usage_error "${v}" --kernel auto
  expect_usage_error "${v}" --lanes 512
done
expect_usage_error sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --stdin --exhaustive
# Progress is in-process only: forked workers never report it.
expect_usage_error sweep "${WORK}/graph.ftg" "${WORK}/table.ftt" \
  --workers 2 --progress-every 10

# Planner-built snapshots (no routes file) must serve like seed-built
# manifests: same planner seed, same table, same bytes.
echo "== planner-built snapshot vs seed-built manifest"
"${CLI}" snapshot --graph "${WORK}/graph.ftg" --seed 42 \
  --out "${WORK}/planned.snap" 2> /dev/null
printf 'table demo graph=%s seed=42\n' "${WORK}/graph.ftg" \
  > "${WORK}/tables.seed.txt"
printf 'table demo snapshot=%s\n' "${WORK}/planned.snap" \
  > "${WORK}/tables.planned.txt"
"${CLI}" serve --tables "${WORK}/tables.seed.txt" --stdin --threads 2 \
  < "${WORK}/requests.txt" > "${WORK}/serve.seed.out" 2> /dev/null
"${CLI}" serve --tables "${WORK}/tables.planned.txt" --stdin --threads 2 \
  < "${WORK}/requests.txt" > "${WORK}/serve.planned.out" 2> /dev/null
cmp "${WORK}/serve.seed.out" "${WORK}/serve.planned.out"
# A snapshot given as both inputs is loaded once, so its plan survives a
# re-snapshot and the file comes back byte for byte.
"${CLI}" snapshot --graph "${WORK}/planned.snap" \
  --routes "${WORK}/planned.snap" --out "${WORK}/planned.resave.snap" \
  2> /dev/null
cmp "${WORK}/planned.snap" "${WORK}/planned.resave.snap"

# A corrupted snapshot must fail loudly, naming the file — never serve.
echo "== corrupted snapshot fails loudly"
cp "${WORK}/table.snap" "${WORK}/corrupt.snap"
printf '\xff' | dd of="${WORK}/corrupt.snap" bs=1 seek=200 count=1 \
  conv=notrunc status=none
printf 'table demo snapshot=%s\n' "${WORK}/corrupt.snap" \
  > "${WORK}/tables.corrupt.txt"
if "${CLI}" serve --tables "${WORK}/tables.corrupt.txt" --stdin \
    < "${WORK}/requests.txt" > "${WORK}/corrupt.out" 2> /dev/null; then
  echo "error: serve accepted a corrupted snapshot" >&2
  exit 1
fi
if ! grep -q "corrupt.snap" "${WORK}/corrupt.out"; then
  echo "error: corruption failure does not name the snapshot file" >&2
  cat "${WORK}/corrupt.out" >&2
  exit 1
fi

# Every table read from files is validated against its graph once, by
# whichever verb reads it: planner torus(4,4) routes over a 16-cycle are
# not paths of that graph, so stretch refuses them instead of measuring.
echo "== routes that do not fit their graph are refused"
"${CLI}" gen cycle 16 > "${WORK}/ring.ftg"
"${CLI}" gen torus 4 4 | "${CLI}" build --seed 42 \
  > "${WORK}/torus44.ftt" 2> /dev/null
rc=0
"${CLI}" stretch "${WORK}/ring.ftg" "${WORK}/torus44.ftt" > /dev/null \
  2> "${WORK}/mismatch.err" || rc=$?
if [[ "${rc}" -ne 1 ]] || ! grep -q "not a simple path" "${WORK}/mismatch.err"; then
  echo "error: stretch did not refuse routes off the graph (exit ${rc})" >&2
  cat "${WORK}/mismatch.err" >&2
  exit 1
fi

echo "cli smoke OK"
