#!/bin/sh
# Repository health check: tier-1 build + tests, then a smoke run of the
# mmrepro CLI's machine-readable and tracing outputs with JSON
# validation. Exits nonzero on the first failure.
set -eu
cd "$(dirname "$0")"

echo "== dune build =="
dune build
# The steps below call what the build made directly: each `dune exec`
# would cost about a quarter of a second of dune start-up.
mmrepro=./_build/default/bin/mmrepro.exe
jsoncheck=./_build/default/bin/jsoncheck.exe

echo "== dune runtest =="
dune runtest

echo "== run smoke: fig13 --json/--trace/--wallclock =="
$mmrepro run fig13 --json /tmp/b.json \
  --trace /tmp/t.json --wallclock=/tmp/wallclock.json \
  --report > /tmp/check_bench.out 2>&1 \
  || { cat /tmp/check_bench.out; exit 1; }
tail -n 3 /tmp/check_bench.out

echo "== run: --trace leaves the --json results byte-identical =="
# A traced run records the checker's events too (frames, objects,
# reclaim); recording must not move a simulated number.
$mmrepro run fig13 --json /tmp/zp_plain.json \
  > /dev/null 2>&1
$mmrepro run fig13 --json /tmp/zp_traced.json \
  --trace /tmp/zp_trace.json > /dev/null 2>&1
cmp /tmp/zp_plain.json /tmp/zp_traced.json \
  || { echo "run: --trace changed the --json results"; exit 1; }

echo "== trajectory: every entry at -j 2 reproduces BENCH_cycles.json =="
# The committed trajectory holds each result's simulated ops and cycles,
# one per line with its entry id and plan cell. fig14 runs its
# MM_FIG14_SUBSET subset: the whole sweep does not fit in 8 GB yet. A
# change that moves a simulated number must commit the new file; the
# diff names the cells that moved.
all_ids=$($mmrepro list | grep -v '^backends:' \
  | cut -d' ' -f1)
MM_FIG14_SUBSET=1 $mmrepro run $all_ids \
  --json /tmp/cycles.json -j 2 > /tmp/all_j2.out 2>/dev/null
if ! cmp -s BENCH_cycles.json /tmp/cycles.json; then
  echo "trajectory: simulated totals differ from BENCH_cycles.json" \
    "(< committed, > this tree):"
  diff BENCH_cycles.json /tmp/cycles.json | grep '^[<>]' | head -n 40
  exit 1
fi

# The byte-identity gates below compare -j 1 runs of a few entries with
# their slice of the -j 2 trajectory run: each cell starts from a reset
# world, so an entry's stream and results do not depend on the other
# entries in the run.
slice_out() { # FILE ID...: the named entries' printed blocks, in order
  f=$1; shift
  awk -v want=" $* " '/^=== [^ ]*: / { id = $2; sub(/:$/, "", id);
    keep = index(want, " " id " ") > 0 } keep' "$f" \
    | sed '/^wrote results to /d'
}
slice_json() { # FILE ID...: the named entries' result lines, in order
  f=$1; shift
  awk -F'"' -v want=" $* " '/^\{"id":/ && index(want, " " $4 " ") > 0 {
    sub(/,$/, ""); print }' "$f"
}
same_as_j2() { # NAME OUT JSON ID...: a -j 1 run vs its -j 2 slice
  name=$1 out=$2 json=$3; shift 3
  sed '/^wrote results to /d' "$out" > /tmp/j1_stream.out
  slice_out /tmp/all_j2.out "$@" > /tmp/j2_stream.out
  cmp /tmp/j1_stream.out /tmp/j2_stream.out \
    || { echo "run: $name -j 2 stdout differs from -j 1"; exit 1; }
  awk '/^\{"id":/ { sub(/,$/, ""); print }' "$json" > /tmp/j1_results.json
  slice_json /tmp/cycles.json "$@" > /tmp/j2_results.json
  cmp /tmp/j1_results.json /tmp/j2_results.json \
    || { echo "run: $name -j 2 --json differs from -j 1"; exit 1; }
}

echo "== run parallel: -j 2 stream and JSON byte-identical to -j 1 =="
$mmrepro run fig1 fig13 --json /tmp/bj.json \
  > /tmp/bench_j1.out 2>/dev/null
same_as_j2 "fig1 fig13" /tmp/bench_j1.out /tmp/bj.json fig1 fig13

echo "== run: the seven Run entries, -j 2 stream and JSON byte-identical to -j 1 =="
# Each print-as-you-go entry runs as a plan of one printing cell; at
# -j 2 the single-cell plans share the pool with every other cell.
run_ids="tab2 fig18 fig22 tab4 tab5 ext-thp ext-swapd"
$mmrepro run $run_ids --json /tmp/rj.json \
  > /tmp/run_j1.out 2>/dev/null
same_as_j2 "Run entries" /tmp/run_j1.out /tmp/rj.json $run_ids

echo "== run cells: reduced fig14 -j 2 stream and JSON byte-identical to -j 1 =="
# MM_FIG14_SUBSET shrinks the sweep to a seconds-long subset; fig14
# decomposes into per-(contention, bench, cores, system) cells that run
# on separate domains at -j 2, so this exercises the intra-entry cell
# pool rather than entry-level parallelism.
MM_FIG14_SUBSET=1 $mmrepro run fig14 \
  --json /tmp/f14.json > /tmp/f14_j1.out 2>/dev/null
same_as_j2 "fig14 cells" /tmp/f14_j1.out /tmp/f14.json fig14

echo "== run parallel: --wallclock two-pass self-gate at -j 2 =="
$mmrepro run fig13 \
  --wallclock=/tmp/wallclock2.json -j 2 > /dev/null 2>&1 \
  || { echo "run: -j 2 --wallclock pass failed"; exit 1; }

echo "== mmrepro: bad count values are usage errors (exit 124) =="
# 0, a negative and a non-number must each fail in the parser, not crash
# later (125) or pass vacuously (0).
for flag in "run tab2 -j" "oracle -j" "oracle --cpus" "oracle --ops" \
  "oracle --every" "trace gen /tmp/bad.trace --cpus" \
  "trace gen /tmp/bad.trace --ops" "serve -j" "serve --sessions" \
  "serve --cpus" "schedcheck -j" "schedcheck --cpus" "schedcheck --ops" \
  "schedcheck --seeds" "schedcheck --amplitude"; do
  for bad in 0 -4 x; do
    rc=0
    $mmrepro $flag "$bad" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 124 ] \
      || { echo "mmrepro $flag $bad: exit $rc, expected 124"; exit 1; }
  done
done

echo "== differential oracle: seeded traces across all backends =="
$mmrepro oracle --profile mixed --cpus 4 --ops 120 --seed 42
$mmrepro oracle --profile churn --cpus 2 --ops 150 --seed 7
$mmrepro oracle --profile forks --cpus 2 --ops 60 --seed 4
$mmrepro oracle --profile mixed --cpus 4 --ops 120 \
  --seed 42 -j 2 > /tmp/oracle_j2.out
$mmrepro oracle --profile mixed --cpus 4 --ops 120 \
  --seed 42 > /tmp/oracle_j1.out
cmp /tmp/oracle_j1.out /tmp/oracle_j2.out \
  || { echo "oracle: -j 2 verdict differs from -j 1"; exit 1; }

echo "== oracle: the injected COW fork mutant is caught =="
# clone_for_fork "forgets" to write-protect the parent, so a post-fork
# parent store leaks into a still-shared frame and the child's read
# observes it; the fork-tree value model must report the divergence.
if $mmrepro oracle --profile forks --cpus 2 --ops 60 \
     --seed 5 --cow-mutant > /dev/null 2>&1; then
  echo "oracle: --cow-mutant NOT caught"; exit 1
fi

echo "== schedcheck: fixed-seed schedule exploration smoke (both protocols) =="
$mmrepro schedcheck --protocol both --cpus 4 --ops 10 \
  --seeds 5 --seed0 1 --workload-seed 42 > /tmp/sched_j1.out
cat /tmp/sched_j1.out
$mmrepro schedcheck --protocol both --cpus 4 --ops 10 \
  --seeds 5 --seed0 1 --workload-seed 42 -j 2 > /tmp/sched_j2.out
cmp /tmp/sched_j1.out /tmp/sched_j2.out \
  || { echo "schedcheck: -j 2 clean explore differs from -j 1"; exit 1; }

echo "== schedcheck: injected mutants are caught and shrink to a replay =="
if $mmrepro schedcheck --protocol rw \
     --mutant rw-skip-handoff --seeds 10 --out /tmp/schedcheck_rw.sched \
     > /dev/null 2>&1; then
  echo "schedcheck: rw-skip-handoff mutant NOT caught"; exit 1
fi
if $mmrepro schedcheck --protocol rw \
     --mutant rw-skip-handoff --seeds 10 --out /tmp/schedcheck_rw_j2.sched \
     -j 2 > /dev/null 2>&1; then
  echo "schedcheck: rw-skip-handoff mutant NOT caught at -j 2"; exit 1
fi
cmp /tmp/schedcheck_rw.sched /tmp/schedcheck_rw_j2.sched \
  || { echo "schedcheck: -j 2 minimal schedule differs from -j 1"; exit 1; }
if $mmrepro schedcheck --protocol adv \
     --mutant rcu-no-gp --seeds 10 --out /tmp/schedcheck_rcu.sched \
     > /dev/null 2>&1; then
  echo "schedcheck: rcu-no-gp mutant NOT caught"; exit 1
fi
if $mmrepro schedcheck --replay /tmp/schedcheck_rw.sched \
     > /dev/null 2>&1; then
  echo "schedcheck: minimized schedule replayed clean"; exit 1
fi

echo "== schedcheck: committed minimal schedule still reproduces =="
if $mmrepro schedcheck \
     --replay test/schedules/rw_skip_handoff.sched > /dev/null 2>&1; then
  echo "schedcheck: committed schedule replayed clean"; exit 1
fi

echo "== serve smoke: open-loop session fleet, determinism =="
$mmrepro serve --sessions 500 --cpus 4 \
  --json /tmp/serve1.json > /tmp/check_serve.out 2>&1 \
  || { cat /tmp/check_serve.out; exit 1; }
tail -n +3 /tmp/check_serve.out | head -n 4
$mmrepro serve --sessions 500 --cpus 4 \
  --json /tmp/serve2.json -j 2 > /dev/null
cmp /tmp/serve1.json /tmp/serve2.json \
  || { echo "serve: -j 2 or equal seeds gave different JSON"; exit 1; }
if $mmrepro serve --mix bogus > /dev/null 2>&1; then
  echo "serve: unknown mix NOT rejected"; exit 1
fi

echo "== serve smoke: fork_fleet mix, determinism =="
$mmrepro serve --mix fork_fleet --sessions 240 --cpus 2 \
  --json /tmp/fleet1.json > /tmp/check_fleet.out 2>&1 \
  || { cat /tmp/check_fleet.out; exit 1; }
tail -n +3 /tmp/check_fleet.out | head -n 4
$mmrepro serve --mix fork_fleet --sessions 240 --cpus 2 \
  --json /tmp/fleet2.json -j 2 > /dev/null
cmp /tmp/fleet1.json /tmp/fleet2.json \
  || { echo "serve: fork_fleet -j 2 or rerun gave different JSON"; exit 1; }

echo "== ext-fleet: process-fleet experiment, -j 2 byte-identical =="
$mmrepro run ext-fleet > /tmp/fleet_j1.out 2>/dev/null
$mmrepro run ext-fleet -j 2 > /tmp/fleet_j2.out 2>/dev/null
cmp /tmp/fleet_j1.out /tmp/fleet_j2.out \
  || { echo "ext-fleet: -j 2 output differs from -j 1"; exit 1; }

echo "== oracle: reclaim trace clean across backends, -j 2 identical =="
# mlock/munlock/pressure ops run on the reclaim-capable backends and are
# capability-masked elsewhere; residency is compared only under equal
# reclaim coverage while the value model is compared everywhere.
$mmrepro oracle --profile reclaim --cpus 2 --ops 150 \
  --seed 7 > /tmp/reclaim_j1.out
cat /tmp/reclaim_j1.out
$mmrepro oracle --profile reclaim --cpus 2 --ops 150 \
  --seed 7 -j 2 > /tmp/reclaim_j2.out
cmp /tmp/reclaim_j1.out /tmp/reclaim_j2.out \
  || { echo "oracle: reclaim -j 2 verdict differs from -j 1"; exit 1; }

echo "== oracle: the injected reclaim mutant is caught =="
# put_pages "skips the dirty writeback": the swap block is reserved but
# the token never reaches the device, so the refault after a page-out
# reads zero and the value model must report the divergence.
if $mmrepro oracle --profile reclaim --cpus 2 --ops 150 \
     --seed 7 --reclaim-mutant > /dev/null 2>&1; then
  echo "oracle: --reclaim-mutant NOT caught"; exit 1
fi

echo "== serve smoke: reclaim_storm mix, determinism =="
$mmrepro serve --mix reclaim_storm --sessions 240 --cpus 2 \
  --json /tmp/storm1.json > /tmp/check_storm.out 2>&1 \
  || { cat /tmp/check_storm.out; exit 1; }
tail -n +3 /tmp/check_storm.out | head -n 4
$mmrepro serve --mix reclaim_storm --sessions 240 --cpus 2 \
  --json /tmp/storm2.json -j 2 > /dev/null
cmp /tmp/storm1.json /tmp/storm2.json \
  || { echo "serve: reclaim_storm -j 2 or rerun gave different JSON"; exit 1; }

echo "== reclaim: 2-vCPU trace replays with no denied access =="
# Page-outs on one vCPU race the other vCPU's accesses: no stale remote
# translation may survive a page-out, and an access racing one must
# fault the page back in rather than report SIGSEGV.
$mmrepro trace gen /tmp/reclaim2.trace --profile reclaim \
  --cpus 2 --ops 20000 --seed 1 > /dev/null
for sys in cortenmm-rw cortenmm-adv; do
  $mmrepro trace replay /tmp/reclaim2.trace \
    --system "$sys" > /tmp/reclaim2_replay.out 2>&1 \
    || { cat /tmp/reclaim2_replay.out; exit 1; }
  grep -q "denied 0$" /tmp/reclaim2_replay.out \
    || { cat /tmp/reclaim2_replay.out; echo "reclaim: $sys denied accesses"; exit 1; }
done

echo "== serve smoke: reclaim_storm on 8 vCPUs completes =="
$mmrepro serve --mix reclaim_storm \
  --systems cortenmm-rw,cortenmm-adv --policies batched,immediate \
  --sessions 240 --cpus 8 > /tmp/check_storm8.out 2>&1 \
  || { cat /tmp/check_storm8.out; exit 1; }

echo "== fig1 golden digest: riders charge zero cycles when off =="
# Re-run the pinned digest test by name: the daemon-off default world
# must stay bit-identical to the seed across every feature rider.
./_build/default/test/test_workloads.exe test golden > /tmp/check_golden.out 2>&1 \
  || { cat /tmp/check_golden.out; exit 1; }
tail -n 2 /tmp/check_golden.out
# The fork/exit and reclaim scans are pinned the same way: a fork_fleet
# serve round on every system and a 2-vCPU Reclaim replay on CortenMM;
# NrOS's per-page replay and fork copy by a 2-vCPU NrOS world. The
# lock-id digest pins a traced run's lock ids, which the frame table
# reserves on each pfn's first touch.
for t in test_serve test_reclaim test_baselines test_obs; do
  "./_build/default/test/$t.exe" test golden > "/tmp/check_golden_$t.out" 2>&1 \
    || { cat "/tmp/check_golden_$t.out"; exit 1; }
  tail -n 2 "/tmp/check_golden_$t.out"
done

echo "== benchmark: every workload's sim_digest matches BENCH_digests.txt =="
# mmbench hashes the simulated outputs of a workload's warm-up round into
# its sim_digest, so a change that keeps every simulated byte keeps all
# four lines at seed 1. MM_FIG14_SUBSET would shrink the suite
# workload's fig14 to the trajectory's subset, so it is unset here as in
# the benchmark. A change that moves a simulated number commits the new
# lines.
mmbench=./_build/default/benchmark/mmbench.exe
: > /tmp/digests.txt
for w in suite serve-mixed fork-fleet reclaim; do
  (unset MM_FIG14_SUBSET; $mmbench --workload "$w" --seed 1 --seconds 1) \
    | grep "^$w sim_digest " >> /tmp/digests.txt || true
done
if ! cmp -s BENCH_digests.txt /tmp/digests.txt; then
  echo "benchmark: sim_digest differs from BENCH_digests.txt on:"
  diff BENCH_digests.txt /tmp/digests.txt \
    | sed -n 's/^[<>] \([^ ]*\) .*/\1/p' | sort -u
  exit 1
fi

echo "== run: write BENCH_wallclock.json (default --wallclock path) =="
# The file is gitignored, so a fresh clone has none: produce it here
# rather than validate a leftover from an earlier run.
$mmrepro run fig13 --wallclock > /dev/null 2>&1 \
  || { echo "run: --wallclock to the default path failed"; exit 1; }

echo "== validate JSON outputs =="
$jsoncheck --results /tmp/b.json
$jsoncheck --results /tmp/cycles.json
$jsoncheck --chrome /tmp/t.json
$jsoncheck --wallclock /tmp/wallclock.json
$jsoncheck --wallclock /tmp/wallclock2.json
$jsoncheck --wallclock BENCH_wallclock.json
$jsoncheck /tmp/serve1.json
$jsoncheck /tmp/fleet1.json
$jsoncheck /tmp/storm1.json

echo "== wall-clock summary =="
grep -A 100 '## Wall-clock per experiment driver' /tmp/check_bench.out \
  | sed -n '2,20p'

echo "All checks passed."
