#!/bin/sh
# Full verification gate: build, run every test suite, then smoke-check
# the fault-injection and recovery CLI scenarios and their exit-code
# protocol (0 clean, 1 audit issues, 2 runtime error, 3 deadlock or
# rank failure, 4 recovered but degraded, 9 silent data corruption
# detected but unrecovered).
set -eu
cd "$(dirname "$0")/.."

# every captured output lives in one private directory, so two checkouts
# can run this script at once without overwriting each other's files
OUT=$(mktemp -d "${TMPDIR:-/tmp}/parad-check.XXXXXX")
trap 'rm -rf "$OUT"' EXIT

# no new toplevel mutable state in lib/: two runs in one process must
# not share hidden state. A toplevel let bound to a mutable constructor
# fails here, except the two globals a run context is to replace:
# Sim.engine_ref and Checkpoint.ns_counter.
echo "== lint: toplevel mutable state in lib/ =="
STATE=$(grep -rnE --include='*.ml' \
  "^let +[a-z_][A-Za-z0-9_']* *(:[^=]*)?= *(ref\b|Hashtbl\.create|Array\.(make|init)|Queue\.create|Stack\.create|Atomic\.make|Buffer\.create|Bytes\.(create|make)|Mutex\.create|Weak\.create)" \
  lib \
  | grep -vE '^lib/runtime/sim\.ml:[0-9]+:let engine_ref |^lib/runtime/checkpoint\.ml:[0-9]+:let ns_counter ' \
  || true)
if [ -n "$STATE" ]; then
  echo "FAIL: toplevel mutable state in lib/ (keep it in a run's own state):"
  echo "$STATE"
  exit 1
fi

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

PARAD="dune exec bin/parad.exe --"
expect_exit() {
  want=$1
  shift
  echo "== parad $* (expect exit $want) =="
  set +e
  $PARAD "$@" > "$OUT/check.out" 2>&1
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: parad $* exited $got, expected $want"
    cat "$OUT/check.out"
    exit 1
  fi
}

# the last run's output ($OUT/check.out) must match a grep pattern
expect_output() {
  grep -q "$1" "$OUT/check.out" || {
    echo "FAIL: $2"
    cat "$OUT/check.out"
    exit 1
  }
}

COMMON="--flavor mpi --ranks 4 --size 2 --iters 2"

# faultless run is clean
expect_exit 0 faults --plan none $COMMON

# recoverable drops: same gradient, clean audit
expect_exit 0 faults --plan drop-retry $COMMON
expect_output "retries=" "drop-retry run did not report retries"

# a duplicated message leaves an unmatched send -> dirty audit
expect_exit 1 faults --plan dup $COMMON

# killing a rank without a supervisor -> structured rank-failure report
expect_exit 3 faults --plan kill $COMMON
expect_output "rank failure" \
  "kill run printed no structured rank-failure notification"

# losing every message from a rank deadlocks too, with lost messages
# named in the audit
expect_exit 3 faults --plan blackhole $COMMON
expect_output "lost message" "blackhole run named no lost messages"

# seeded plans are deterministic: two runs, byte-identical output
$PARAD faults --plan blackhole $COMMON > "$OUT/a.out" 2>&1 || true
$PARAD faults --plan blackhole $COMMON > "$OUT/b.out" 2>&1 || true
cmp -s "$OUT/a.out" "$OUT/b.out" || {
  echo "FAIL: blackhole diagnosis differs across reruns"
  diff "$OUT/a.out" "$OUT/b.out" || true
  exit 1
}

# --dry-run parses the spec grammar, prints the plan, and runs nothing
expect_exit 0 faults --plan "kill:victim=2,at=500,kill=3@9000" --dry-run $COMMON
expect_output "kill rank 3 at t>=9000" \
  "dry-run did not print the parsed kill overrides"
expect_exit 2 faults --plan "kill:bogus=1" --dry-run $COMMON

# the same kill plan under the supervised driver recovers: exit 0 and a
# restart history instead of a rank-failure abort
expect_exit 0 recover --app lulesh --plan kill $COMMON
expect_output "recovery: 1 restart(s)" "recover run reported no restart"

# a later kill restores from a globally-consistent checkpoint (warm)
COMMON3="--flavor mpi --ranks 4 --size 2 --iters 3"
expect_exit 0 recover --app lulesh --plan "kill:victim=2,at=80000" $COMMON3
expect_output "resumed from checkpoint" \
  "warm recover did not resume from a checkpoint"

# the recovered gradient equals the faultless one bit-for-bit
$PARAD grad $COMMON3 2>/dev/null | grep "d total" > "$OUT/clean.out"
grep "d total" "$OUT/check.out" > "$OUT/recovered.out"
cmp -s "$OUT/clean.out" "$OUT/recovered.out" || {
  echo "FAIL: recovered gradient differs from the faultless gradient"
  diff "$OUT/clean.out" "$OUT/recovered.out" || true
  exit 1
}

# more kills than the restart budget -> the failure surfaces, exit 3
expect_exit 3 recover --app lulesh --plan "kill:kill=2,kill=3" --max-restarts 1 $COMMON
expect_output "unrecovered after 1 restart" \
  "exhausted restart budget not reported"

# ---- ParSan sanitizer gate (exit 5 = miscompilation, 4 = degraded) ----

SAN_OMP="--app lulesh --flavor omp --threads 4 --size 3 --iters 2"

# clean sanitized primal+gradient runs: zero findings
expect_exit 0 sanitize $SAN_OMP --primal
expect_output "sanitizer: 0 findings" \
  "sanitized lulesh primal reported findings"
expect_exit 0 sanitize $SAN_OMP
expect_output "sanitizer: 0 findings" \
  "sanitized lulesh gradient reported findings"
expect_exit 0 sanitize --app bude --threads 4
expect_output "sanitizer: 0 findings" \
  "sanitized bude gradient reported findings"

# the abl-tl ablation (every accumulation atomic) must also come up clean
expect_exit 0 sanitize $SAN_OMP --atomic-always

# the seeded inverse (assume every shadow thread-private) is a
# miscompilation RaceSan's static/dynamic cross-validation must catch
expect_exit 5 sanitize $SAN_OMP --assume-private
expect_output "miscompilation" "assume-private run reported no miscompilation"
expect_output "claimed buffer" \
  "miscompilation finding did not name the refuted claim"

# GradSan: NaN-injected degrade run quarantines and exits 4 ...
expect_exit 4 sanitize $SAN_OMP --inject-nan 5 --mode degrade
expect_output "quarantined=1" "degrade run did not quarantine the injected NaN"
# ... while strict mode aborts at the first origin, exit 2
expect_exit 2 sanitize $SAN_OMP --inject-nan 5 --mode strict
expect_output "gradient-integrity violation" \
  "strict run did not report the first-origin provenance"

# sanitizing composes with fault injection: drop-retry stays clean
expect_exit 0 sanitize --app lulesh $COMMON --plan drop-retry
expect_output "sanitizer: 0 findings" \
  "sanitized drop-retry run reported findings"

# out-of-range fault targets are rejected loudly, not silently inert
expect_exit 2 faults --plan "kill:victim=9" --dry-run $COMMON
expect_output "out of range" "out-of-range victim not rejected"

# ---- silent-data-corruption envelope (exit 9 = corrupted) ----

# an unsupervised bit flip into sealed cache memory must surface as a
# structured corruption notice, never a silently wrong gradient
expect_exit 9 grad $COMMON --plan "none:flip=1@40@31@50"
expect_output "silent data corruption" \
  "unsupervised flip printed no corruption notice"

# the same flip under the supervised driver restarts from a verified
# snapshot and reproduces the faultless gradient bit-for-bit
expect_exit 0 recover --app lulesh --plan "none:flip=1@40@31@50,retries=5" $COMMON
expect_output "sdc_inj=1 sdc_det=1 sdc_rec=1" \
  "supervised flip not detected-and-recovered"
grep "d total" "$OUT/check.out" > "$OUT/sdc.out"
$PARAD grad $COMMON 2>/dev/null | grep "d total" > "$OUT/clean4.out"
cmp -s "$OUT/clean4.out" "$OUT/sdc.out" || {
  echo "FAIL: flip-recovered gradient differs from the faultless one"
  diff "$OUT/clean4.out" "$OUT/sdc.out" || true
  exit 1
}

# gradient_binomial runs each inner run on the plan the previous run's
# supervisor left, so the consumed flip lands once per gradient, not
# once per inner run, and the gradient is the faultless one
expect_exit 0 grad $COMMON --snap-budget 2 --plan "none:flip=1@40@31@50,retries=5"
expect_output "sdc: 1 injected, 1 detected, 1 recovered" \
  "binomial flip fired more than once"
grep "d total" "$OUT/check.out" > "$OUT/sdc-binomial.out"
cmp -s "$OUT/clean4.out" "$OUT/sdc-binomial.out" || {
  echo "FAIL: binomial flip-recovered gradient differs from the faultless one"
  diff "$OUT/clean4.out" "$OUT/sdc-binomial.out" || true
  exit 1
}

# a damaged in-flight message is caught by its checksum trailer and
# retransmitted in place: clean exit, retransmit counted
expect_exit 0 faults --plan "none:corrupt-msg=1@9" $COMMON
expect_output "retrans=1" "corrupt-msg run counted no retransmit"

# sticky damage re-corrupts every retransmit: the ladder exhausts and
# the run aborts with the corruption notice, exit 9
expect_exit 9 faults --plan "none:retries=2,corrupt-msg=1@9@sticky" $COMMON
expect_output "corrupt" "sticky corruption printed no notice"

# duplicate scalar keys in a plan spec are a conflict, not last-wins
expect_exit 2 faults --plan "kill:at=0,at=500" --dry-run $COMMON
expect_output "at most once" "duplicate scalar key not rejected"

# ---- miniBUDE honours flip plans ----
# unsupervised, a flip caught by a region digest surfaces as corrupted;
# supervised, the fired flip is consumed and the gradient re-run, which
# reproduces the faultless gradient bit-for-bit

BUDE_FLIP="none:flip=0@5@62@300000"
expect_exit 9 faults --app bude --plan "$BUDE_FLIP"
expect_output "silent data corruption" "bude flip printed no corruption notice"
expect_exit 0 recover --app bude --plan "$BUDE_FLIP"
expect_output "recovery: 1 restart(s)" "bude recover reported no restart"
expect_output "^wall: .* (replays included)$" \
  "bude recover printed no wall line counting the restarted run"
grep "^d_poses" "$OUT/check.out" > "$OUT/bude-rec.out"
$PARAD faults --app bude --plan none 2>/dev/null | grep "^d_poses" \
  > "$OUT/bude-clean.out"
[ -s "$OUT/bude-clean.out" ] \
  && cmp -s "$OUT/bude-clean.out" "$OUT/bude-rec.out" || {
  echo "FAIL: flip-recovered bude gradient differs from the faultless one"
  diff "$OUT/bude-clean.out" "$OUT/bude-rec.out" || true
  exit 1
}
# miniBUDE has no MPI variant: recover's default plan, kill, names a
# rank that cannot fail there, and the run says so after the plan
expect_exit 0 recover --app bude
expect_output "cannot fire: kill rank 0 at t>=0" \
  "bude recover did not name the plan entries it cannot act on"

# ---- one outcome path: each failure kind exits with its class's code ----

# an unknown function is a runtime error, as under `parad gradient`
expect_exit 2 ir nosuchfn
# recover's audit: dirty without a restart is a finding, dirty after a
# restart is degraded, and a deadlock is not retried
expect_exit 1 recover --plan dup $COMMON
expect_exit 4 recover --plan "dup:kill=1@5000" $COMMON
expect_exit 3 recover --plan blackhole $COMMON
# a failed sanitized run prints its diagnosis, then the sanitizer report
expect_exit 3 sanitize --app lulesh $COMMON --plan blackhole
awk '/^deadlock:/ { d = NR } /^sanitizer:/ { s = NR }
  END { exit !(d > 0 && s > d) }' "$OUT/check.out" || {
  echo "FAIL: sanitizer report missing or printed before the diagnosis"
  cat "$OUT/check.out"
  exit 1
}
expect_exit 1 sanitize $SAN_OMP --pedantic-uninit

# ---- seeded chaos-soak smoke ----
# A short deterministic soak: randomized fault plans x checkpoint
# schedules; every trial must end bit-identical or as a classified clean
# abort. Any unclassified outcome exits 1.

echo "== chaos soak (seeded smoke) =="
expect_exit 0 soak --trials 12 --seed 42
tail -n 3 "$OUT/check.out"

# ---- one-shot deadline protocol (exit 6) ----
# A virtual budget far below the work aborts with the documented
# deadline exit code; a non-positive deadline is a flag parse error.

expect_exit 6 grad --flavor mpi --ranks 2 --iters 2 --deadline-cycles 500
expect_output "deadline exceeded" "busted deadline printed no structured report"
expect_exit 124 grad --flavor seq --deadline-ms 0
expect_exit 0 grad --flavor seq --size 2 --iters 1 --deadline-cycles 1000000000

# meshes and teams below the service's minimums are flag parse errors,
# and so is a runner the engine does not have
expect_exit 124 grad --flavor seq --size 1
expect_exit 124 grad --flavor omp --threads 0
expect_exit 124 grad --flavor seq --engine par
# a negative recompute depth is rejected by the depth's own check; the
# value needs the "=" form, since cmdliner takes a separate "-1" for an
# unknown option and rejects it before that check runs
expect_exit 124 grad --flavor seq --recompute-depth=-1
# a shared-memory flavor on more than one rank would run uncoupled
# slabs, the gradient of another loss: rejected as the service rejects it
expect_exit 2 grad --flavor seq --ranks 2 --size 2 --iters 2
expect_output "is not MPI-capable; nranks must be 1" \
  "a shared-memory flavor ran on two ranks"

# ---- batched seeds on both runners ----
# One 8-lane LULESH OMP sweep: the cycle, gradient and counter lines
# must be byte-identical on the interpreter and the seq engine (the
# wall line differs by design), and the seq engine must lower every
# lane call itself: a lane call whose static operands are not constants
# is delegated to the interpreter, and counted as a fallback.

BATCH="--flavor omp --threads 4 --size 3 --iters 2 --seeds 8"
expect_exit 0 grad $BATCH --engine interp
grep -E "cycles|^d total|^stats:" "$OUT/check.out" > "$OUT/batch-interp.out"
expect_exit 0 grad $BATCH --engine seq
grep -E "cycles|^d total|^stats:" "$OUT/check.out" > "$OUT/batch-seq.out"
expect_output "^engine seq: .*, 0 interpreter fallback(s)$" \
  "batched seq run delegated lane calls to the interpreter"
[ "$(wc -l < "$OUT/batch-seq.out")" -eq 3 ] || {
  echo "FAIL: batched grad printed no cycle, gradient or stats line"
  cat "$OUT/check.out"
  exit 1
}
cmp -s "$OUT/batch-interp.out" "$OUT/batch-seq.out" || {
  echo "FAIL: batched gradient differs between interp and seq"
  diff "$OUT/batch-interp.out" "$OUT/batch-seq.out" || true
  exit 1
}

# ---- gradient-service smoke (serve --stdin) ----
# A mixed batch through the real request path: every line, valid or
# hostile, must come back classified, and the warm repeat must carry
# the cold request's digest bit-for-bit.

echo "== serve smoke (stdin batch) =="
printf '%s\n' \
  '{"id": 1, "flavor": "mpi", "nranks": 2, "niter": 2}' \
  '{"id": 2, "flavor": "mpi", "nranks": 2, "niter": 2}' \
  '{"id": 3, "flavor": "cuda"}' \
  '{"id": 4, "flavor": "mpi", "nranks": 2, "faults": "blackhole"}' \
  '{"id": 5, "flavor": "mpi", "nranks": 2, "deadline_cycles": 100}' \
  'garbage that is not json' \
  | $PARAD serve --stdin > "$OUT/check.out" 2>&1 || {
  echo "FAIL: serve --stdin crashed on the smoke batch"
  cat "$OUT/check.out"
  exit 1
}
for want in '"id":1,"class":"ok"' '"id":2,"class":"ok"' \
  '"id":3,"class":"invalid"' '"id":4,"class":"deadlock"' \
  '"id":5,"class":"deadline"' '"class":"invalid","code":2.*bad JSON' \
  '"event":"drained"'; do
  expect_output "$want" "serve smoke output lacks $want"
done
D1=$(grep '"id":1' "$OUT/check.out" | grep -o '"digest":"[0-9a-f]*"')
D2=$(grep '"id":2' "$OUT/check.out" | grep -o '"digest":"[0-9a-f]*"')
[ -n "$D1" ] && [ "$D1" = "$D2" ] || {
  echo "FAIL: warm digest differs from cold ($D1 vs $D2)"
  exit 1
}
expect_output '"id":2,"class":"ok","code":0,[^}]*"cached":true' \
  "repeat request did not hit the plan cache"

# ---- slam soak: the ISSUE 7 acceptance criterion ----
# >= 50 seeded mixed requests: everything classified, zero daemon
# crashes, breaker tripped and recovered, warm bit-identical to cold.

echo "== slam soak (50 seeded chaos requests) =="
expect_exit 0 slam --requests 50 --seed 42
tail -n 8 "$OUT/check.out"

# ---- bench figures and their gate ----
# Each quick figure writes BENCH_<figure>.json (fig8 writes
# BENCH_mpi.json); bench/gate.exe then checks every file against the
# conditions in bench/thresholds, fails any row a condition names that
# is missing, and fails any row that reports "bitwise": false.

for FIG in overhead fig8 checkpoint serve sdc engine batch; do
  echo "== bench figure $FIG (quick) =="
  dune exec bench/main.exe -- --quick --figure $FIG > "$OUT/bench.out" 2>&1 || {
    echo "FAIL: bench figure $FIG exited non-zero"
    cat "$OUT/bench.out"
    exit 1
  }
  tail -n 12 "$OUT/bench.out"
done

echo "== bench gate =="
dune exec bench/gate.exe -- bench/thresholds BENCH_overhead.json \
  BENCH_mpi.json BENCH_checkpoint.json BENCH_serve.json BENCH_sdc.json \
  BENCH_engine.json BENCH_batch.json

echo "all checks passed"
