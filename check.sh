#!/bin/sh
# Repo health check: build, test suite, CLI smoke tests.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

echo "== dune build"
dune build

echo "== dune build --profile release"
dune build --profile release

echo "== dune runtest (default = fast memory engine)"
dune runtest

echo "== dune runtest (naive memory engine)"
SGXBOUNDS_ENGINE=naive dune runtest --force

CLI="_build/default/bin/sgxbounds_cli.exe"

echo "== fuzz smoke: 500 traces x all schemes x two engines"
# Deterministic in the seed; on failure the CLI prints the shrunk
# counterexample and the exact replay command. Each trace is replayed
# under the naive and fast engines and the records compared.
"$CLI" fuzz --seed 1 --iters 500 -q

echo "== CLI smoke: run -w kmeans -s sgxbounds --stats --json"
out=$("$CLI" run -w kmeans -s sgxbounds --stats --json)

# The JSON must parse, the run must have completed, and the attribution
# must sum exactly to elapsed cycles (single-threaded run).
if command -v jq >/dev/null 2>&1; then
  echo "$out" | jq -e '.status == "completed"' >/dev/null
  echo "$out" | jq -e '.metrics.attributed_cycles == .metrics.cycles' >/dev/null
  echo "$out" | jq -e '.telemetry.counters | type == "object"' >/dev/null
else
  # jq-less fallback: at least verify the completion marker is present.
  echo "$out" | grep -q '"status":"completed"'
fi

echo "== CLI smoke: run -w kmeans -s sgxbounds --trace"
trace=$(mktemp /tmp/sgxbounds-trace.XXXXXX.json)
trap 'rm -f "$trace"' EXIT
"$CLI" run -w kmeans -s sgxbounds --trace "$trace" >/dev/null
if command -v jq >/dev/null 2>&1; then
  jq -e '.traceEvents | length > 0' "$trace" >/dev/null
  jq -e '[.traceEvents[] | select(.name == "epc_fault")] | length > 0' "$trace" >/dev/null
  jq -e '[.traceEvents[] | select(.ph == "X")] | length > 0' "$trace" >/dev/null
else
  grep -q '"traceEvents"' "$trace"
fi

echo "== committed results tables: regenerate in place with -j 2, must not move, validate"
# Every table under results/ is a pure function of the code. Regenerate
# each in place (fig7/fig11, fig13 latency, fleet capacity, the naive-vs-
# fast engine agreement sweep, the interface matrix and the check
# elision table) and fail if any byte moved. `bench agree' also exits
# non-zero if the two engines disagree on any of its 261 cells.
results_before=$(mktemp -d /tmp/sgxbounds-results.XXXXXX)
trap 'rm -rf "$trace" "$results_before"' EXIT
cp -R results/. "$results_before"
_build/default/bench/main.exe -j 2 results fig13curves fleetcap agree >/dev/null
"$CLI" analyze --symbolic --matrix results/interface_matrix.tsv -j 2 >/dev/null
"$CLI" analyze --optimize -j 2 --out results/check_elision.tsv >/dev/null
diff -r "$results_before" results
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code -- results/
  test -z "$(git ls-files --others --exclude-standard -- results/)"
fi
for table in results/*.tsv; do
  "$CLI" validate-bench "$table"
done

echo "== validate-bench rejects a truncated table"
truncated=$(mktemp /tmp/sgxbounds-truncated.XXXXXX.tsv)
trap 'rm -rf "$trace" "$results_before" "$truncated"' EXIT
head -c 300 results/fleet_capacity.tsv > "$truncated"
if "$CLI" validate-bench "$truncated" >/dev/null 2>&1; then
  echo "validate-bench accepted a truncated fleet_capacity table" >&2
  exit 1
fi

echo "== CLI smoke: serve --smoke (underload + overload shed)"
serve_out=$("$CLI" serve --app memcached --scheme sgxbounds --rate 400000 --smoke --json)
if command -v jq >/dev/null 2>&1; then
  echo "$serve_out" | jq -e '.completed + .dropped == .offered' >/dev/null
  echo "$serve_out" | jq -e '.latency_cycles.p50 <= .latency_cycles.p99' >/dev/null
  # request spans must agree with the aggregate counters: every span's
  # sojourn decomposes into queue wait + execution, the slowest recorded
  # span IS the latency histogram max, per-span class cycles sum to the
  # exec window, and the per-class attribution carries real cycles.
  echo "$serve_out" | jq -e '[.spans.slowest[] | .sojourn == .queue_wait + .exec] | all' >/dev/null
  echo "$serve_out" | jq -e '.spans.slowest[0].sojourn == .latency_cycles.max' >/dev/null
  echo "$serve_out" | jq -e '[.spans.slowest[] | .exec == ([.classes[]] | add)] | all' >/dev/null
  echo "$serve_out" | jq -e '[.attribution[].cycles] | add > 0' >/dev/null
else
  echo "$serve_out" | grep -q '"completed"'
fi
# Chrome-trace sink: slowest-request exemplar spans as trace events
serve_trace=$(mktemp /tmp/sgxbounds-serve-trace.XXXXXX.json)
trap 'rm -rf "$trace" "$results_before" "$truncated" "$serve_trace"' EXIT
"$CLI" serve --app memcached --scheme sgxbounds --rate 400000 --smoke \
  --trace "$serve_trace" >/dev/null
if command -v jq >/dev/null 2>&1; then
  jq -e '.traceEvents | length > 1' "$serve_trace" >/dev/null
  jq -e '[.traceEvents[] | select(.ph == "X")] | length > 0' "$serve_trace" >/dev/null
else
  grep -q '"traceEvents"' "$serve_trace"
fi
# overload with a tiny queue must shed, not deadlock
shed_out=$("$CLI" serve --app http --scheme sgxbounds --rate 5000000 \
  --process burst --queue 4 --smoke --json)
if command -v jq >/dev/null 2>&1; then
  echo "$shed_out" | jq -e '.dropped > 0' >/dev/null
  echo "$shed_out" | jq -e '.max_queue <= 4' >/dev/null
else
  echo "$shed_out" | grep -q '"dropped"'
fi

echo "== CLI smoke: serve --fleet (underload, overload shed, failover)"
# underloaded fleet: everything completes; per-instance spans re-add to
# the merged counters, each span decomposes into wait + exec, and its
# class cycles sum to its exec window
fleet_out=$("$CLI" serve --scheme sgxbounds --rate 300000 --fleet 3 --policy hash \
  --ycsb A --records 1024 --requests 400 --workers 2 --seed 1 --json)
if command -v jq >/dev/null 2>&1; then
  echo "$fleet_out" | jq -e '.completed + .dropped + .lost == .offered' >/dev/null
  echo "$fleet_out" | jq -e '([.instances[].completed] | add) == .completed' >/dev/null
  echo "$fleet_out" | jq -e '[.instances[] | .spans.recorded == .completed] | all' >/dev/null
  echo "$fleet_out" | jq -e '[.instances[].spans.slowest[] | .sojourn == .queue_wait + .exec] | all' >/dev/null
  echo "$fleet_out" | jq -e '[.instances[].spans.slowest[] | .exec == ([.classes[]] | add)] | all' >/dev/null
  echo "$fleet_out" | jq -e '.latency_cycles.p50 <= .latency_cycles.p99' >/dev/null
else
  echo "$fleet_out" | grep -q '"completed"'
fi
# overloaded fleet with tiny queues must shed at the balancer, not wedge
fleet_shed=$("$CLI" serve --scheme sgxbounds --rate 5000000 --fleet 2 --policy round-robin \
  --ycsb B --records 256 --requests 300 --workers 1 --queue 4 --process fixed --json)
if command -v jq >/dev/null 2>&1; then
  echo "$fleet_shed" | jq -e '.dropped > 0' >/dev/null
  echo "$fleet_shed" | jq -e '[.instances[].max_queue] | max <= 4' >/dev/null
  echo "$fleet_shed" | jq -e '.completed + .dropped + .lost == .offered' >/dev/null
else
  echo "$fleet_shed" | grep -q '"dropped"'
fi
# mid-run kill: the instance restarts, accounting still closes, and the
# whole run is deterministic (two invocations are byte-identical)
fleet_kill_cmd() {
  "$CLI" serve --scheme sgxbounds --rate 2500000 --fleet 3 --policy hash \
    --ycsb B --records 512 --requests 400 --workers 1 --queue 32 --seed 11 \
    --kill 0@100000,2@200000 --json
}
fleet_kill=$(fleet_kill_cmd)
if command -v jq >/dev/null 2>&1; then
  echo "$fleet_kill" | jq -e '.restarts == 2' >/dev/null
  echo "$fleet_kill" | jq -e '.lost + .failed_over > 0' >/dev/null
  echo "$fleet_kill" | jq -e '.completed + .dropped + .lost == .offered' >/dev/null
  echo "$fleet_kill" | jq -e '[.instances[] | .spans.recorded == .completed] | all' >/dev/null
  echo "$fleet_kill" | jq -e '[.instances[].spans.slowest[] | .exec == ([.classes[]] | add)] | all' >/dev/null
fi
test "$fleet_kill" = "$(fleet_kill_cmd)"

echo "== CLI smoke: profile (site attribution, 1 workload x 2 schemes)"
prof_out=$("$CLI" profile -w kmeans -s sgxbounds -n 512 --json)
if command -v jq >/dev/null 2>&1; then
  echo "$prof_out" | jq -e '.total_cycles > 0' >/dev/null
  echo "$prof_out" | jq -e '.sites | length > 1' >/dev/null
else
  echo "$prof_out" | grep -q '"total_cycles"'
fi
"$CLI" profile -w kmeans -s mpx -n 512 --json | grep -q '"total_cycles"'
# collapsed-stack flamegraph export: non-empty "site;...;site cycles" lines
collapsed=$(mktemp /tmp/sgxbounds-collapsed.XXXXXX.txt)
trap 'rm -rf "$trace" "$results_before" "$truncated" "$serve_trace" "$collapsed"' EXIT
"$CLI" profile -w kmeans -s sgxbounds -n 512 --out "$collapsed" >/dev/null
test -s "$collapsed"
grep -Eq '^[^ ]+ [0-9]+$' "$collapsed"

echo "== CLI smoke: profile --diff sgxbounds:mpx (bounds-table attribution)"
# MPX's extra cycles over SGXBounds must land on bounds-table sites.
diff_out=$("$CLI" profile --app memcached --diff sgxbounds:mpx --requests 50 --json)
if command -v jq >/dev/null 2>&1; then
  echo "$diff_out" | jq -e '[.sites[].by_bucket.bounds_table] | add > 0' >/dev/null
else
  echo "$diff_out" | grep -q '"bounds_table"'
fi

echo "== bench score: deterministic perf gate vs committed baseline"
score_a=$(mktemp /tmp/sgxbounds-score-a.XXXXXX.json)
score_b=$(mktemp /tmp/sgxbounds-score-b.XXXXXX.json)
trap 'rm -rf "$trace" "$results_before" "$truncated" "$serve_trace" "$collapsed" "$score_a" "$score_b"' EXIT
_build/default/bench/main.exe --smoke --baseline BENCH_PR6.json \
  --label ci --out "$score_a" score >/dev/null
_build/default/bench/main.exe --smoke --baseline BENCH_PR6.json \
  --label ci --out "$score_b" score >/dev/null
# the score is simulated-work based: consecutive runs must be bit-identical
cmp "$score_a" "$score_b"
"$CLI" validate-bench "$score_a"
# the gate is two-sided: a deliberate slowdown (env-injected extra
# allocation) and a deliberate too-good-to-be-true improvement (deflated
# measurement = stale baseline) must both trip it
if SGXBOUNDS_SCORE_PERTURB=100 _build/default/bench/main.exe --smoke \
     --baseline BENCH_PR6.json --out "$score_a" score >/dev/null 2>&1; then
  echo "score gate failed to catch a deliberate slowdown" >&2
  exit 1
fi
if SGXBOUNDS_SCORE_PERTURB=-50 _build/default/bench/main.exe --smoke \
     --baseline BENCH_PR6.json --out "$score_a" score >/dev/null 2>&1; then
  echo "score gate failed to catch a deliberate improvement" >&2
  exit 1
fi

echo "== perfbench selftest: an injected check-elision fault must fail the reference check"
# Builds perfbench in release mode into .bench_build/ and runs one
# workload with every scheme's checks elided; succeeds only if the
# benchmark's correctness check reports failed units and exits non-zero.
python3 perfbench/run.py --selftest >/dev/null

echo "== committed score baseline validates"
"$CLI" validate-bench BENCH_PR6.json

echo "== audit selftest: seeded race + annotation mutants"
"$CLI" analyze --selftest >/dev/null

echo "== audit sweep: all workloads x 4 schemes must be clean"
# Exits non-zero on any contract violation or race finding; the JSON
# summary is additionally asserted to be all-clean when jq is present.
audit_out=$("$CLI" analyze --json)
if command -v jq >/dev/null 2>&1; then
  echo "$audit_out" | jq -e '.summary.findings == 0 and .summary.crashed == 0' >/dev/null
  echo "$audit_out" | jq -e '[.cells[] | select(.ops_audited == 0)] | length == 0' >/dev/null
  # the symbolic pass rides along on every concrete sweep: its subset
  # soundness pin must hold in every cell
  echo "$audit_out" | jq -e '.summary.subset_bad == 0' >/dev/null
  echo "$audit_out" | jq -e '[.cells[].subset_ok] | all' >/dev/null
else
  echo "$audit_out" | grep -q '"findings":0'
fi

echo "== symbolic audit selftest: TeeRex corpus pins"
"$CLI" analyze --symbolic --selftest >/dev/null

echo "== symbolic audit: shipped service handlers must be clean"
sym_out=$("$CLI" analyze --symbolic --json)
if command -v jq >/dev/null 2>&1; then
  echo "$sym_out" | jq -e '(.summary.findings == 0) and (.summary.bad == 0) and .summary.subset_ok' >/dev/null
  echo "$sym_out" | jq -e '[.cells[] | select(.ops_audited == 0)] | length == 0' >/dev/null
else
  echo "$sym_out" | grep -q '"findings":0'
fi

echo "== symbolic audit: seeded-buggy corpus must trip a non-zero exit"
if sym_corpus=$("$CLI" analyze --symbolic --corpus --json); then
  echo "expected non-zero exit on the buggy corpus" >&2
  exit 1
fi
if command -v jq >/dev/null 2>&1; then
  # both passes emit the one unified finding schema
  echo "$sym_corpus" | jq -e '([.cells[].detail[]] | length) > 0' >/dev/null
  echo "$sym_corpus" | jq -e '[.cells[].detail[] | has("kind") and has("site") and has("object") and has("extent")] | all' >/dev/null
  echo "$sym_corpus" | jq -e '.summary.subset_ok' >/dev/null
  # Table-4 shape: unprotected flagged on every class, sgxbounds never
  echo "$sym_corpus" | jq -e '[.cells[] | select(.scheme == "native" and .class != "good") | .status == "flagged"] | all' >/dev/null
  echo "$sym_corpus" | jq -e '[.cells[] | select(.scheme == "sgxbounds") | .status != "flagged"] | all' >/dev/null
fi

echo "== optimizer selftest: certificates, tamper rejection, determinism"
# Exits non-zero if any certificate fails verification (static or
# runtime), if a tampered plan slips through, or if plans differ
# across engines.
"$CLI" analyze --optimize --selftest >/dev/null

echo "== fuzz smoke: 200 symbolic seed traces through the differential oracle"
"$CLI" fuzz --symbolic-seeds 200 -q

echo "== CLI smoke: unknown names are clean errors"
if "$CLI" run -w nosuchworkload -s sgxbounds >/dev/null 2>&1; then
  echo "expected failure for unknown workload" >&2
  exit 1
fi
if "$CLI" run -w kmeans -s nosuchscheme >/dev/null 2>&1; then
  echo "expected failure for unknown scheme" >&2
  exit 1
fi
if "$CLI" serve --app nosuchapp --rate 1000 >/dev/null 2>&1; then
  echo "expected failure for unknown app" >&2
  exit 1
fi
if "$CLI" serve --rate 1000 --fleet 2 --policy nosuchpolicy >/dev/null 2>&1; then
  echo "expected failure for unknown fleet policy" >&2
  exit 1
fi
if "$CLI" serve --rate 1000 --fleet 2 --ycsb Z >/dev/null 2>&1; then
  echo "expected failure for unknown YCSB workload" >&2
  exit 1
fi
if "$CLI" serve --rate 1000 --fleet 2 --kill "banana" >/dev/null 2>&1; then
  echo "expected failure for malformed kill spec" >&2
  exit 1
fi
if "$CLI" analyze -w nosuchworkload >/dev/null 2>&1; then
  echo "expected failure for unknown analyze workload" >&2
  exit 1
fi
if "$CLI" analyze -s nosuchscheme >/dev/null 2>&1; then
  echo "expected failure for unknown analyze scheme" >&2
  exit 1
fi
# an unknown engine name (trace is no longer one) exits 2, and the
# message lists the engines that exist
if engine_err=$(SGXBOUNDS_ENGINE=trace "$CLI" list 2>&1 >/dev/null); then
  echo "expected failure for SGXBOUNDS_ENGINE=trace" >&2
  exit 1
else
  engine_rc=$?
fi
if [ "$engine_rc" -ne 2 ]; then
  echo "SGXBOUNDS_ENGINE=trace exited $engine_rc, expected 2" >&2
  exit 1
fi
echo "$engine_err" | grep -q 'naive|fast'

echo "all checks passed"
