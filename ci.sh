#!/usr/bin/env bash
# Continuous-integration gate for the nanobound workspace.
#
# Usage: ./ci.sh
#
# Runs the same checks a PR must pass, in fail-fast order:
#   1. release build of every workspace member
#   2. full test suite (unit, integration, doc-tests, CLI end-to-end,
#      golden-file and parallel-determinism property suites)
#   3. clippy with warnings denied
#   4. rustfmt in check mode
#   5. rustdoc with warnings denied: a broken, ambiguous or private
#      intra-doc link fails the gate, so renamed items cannot leave
#      dangling links behind
#   6. the benchmark probe (`perfbench/probe`, its own workspace and
#      lockfile) builds `--locked` against the current library APIs,
#      into target/ so no build output lands under perfbench/
#   7. every example (`examples/*.rs`, the list derived from the
#      directory) built in release mode and run once from its own fresh
#      temp cwd, stdout discarded — a nonzero exit fails the gate; then
#      a byte-level diff of the `figures` CSVs at --jobs 1 vs
#      --jobs $(nproc), so any single-thread/multi-thread divergence in
#      the parallel runner fails the gate
#   8. the cache gate: `figures` (whose store traffic is the suite's
#      profile measurements; the closed-form sweeps store nothing) and
#      `validate` (Monte-Carlo chunk tallies) each run cold into one
#      fresh --cache-dir, again warm from it, and once more with
#      --no-cache, diffing all three outputs byte-for-byte — a cache
#      that changes results fails the gate, and so does a warm run that
#      re-measures a profile or misses a tally; then the stale-format
#      half: every cached entry's frame version is rewritten to 1 (a
#      v1-era cache left on disk across the FORMAT_VERSION bump) and the
#      next runs must reuse nothing — every stale entry a counted miss or
#      re-measurement, none replayed — while producing byte-identical
#      artifacts
#   9. the serve gate: one scripted multi-request session piped into
#      `nanobound serve` twice — cold cache at --jobs 1, then warm
#      cache at --jobs $(nproc) — diffing the two response streams
#      against each other AND against a stream assembled from the
#      equivalent one-shot CLI invocations, so a service-mode response
#      that drifts from the one-shot output by a single byte fails
#  10. the engine gate: `figures` and `validate` re-run under
#      NANOBOUND_ENGINE=interp (the interpreted oracle, spelling out
#      the v2 fault stream word by word) and diffed byte-for-byte
#      against the default compiled engine's artifacts (the bulk v2
#      paths) — a compiled executor that drifts from the oracle by one
#      bit in any tally, activity or sensitivity fails the gate; then a
#      Monte-Carlo diff on a generated ~2,000-gate reconvergent netlist
#      with 20 outputs: `cluster --patterns 20000` (a partial last
#      shard) at ε = 0.001, 0.01 and 0.025, where the sparse mask
#      sampler's multi-draw words are common, under both engines
#  11. the analyze gate: `lint --suite --deny warnings` must pass (the
#      generated Section-6 suite stays lint-clean), its JSON report must
#      match the committed golden byte-for-byte, an injected tape
#      corruption must be rejected with a nonzero exit, and a lint
#      request through `serve` must answer with the one-shot stdout
#      bytes verbatim
#  12. the sweep gate: an ε-grid `profile` sweep over two netlists and
#      a signal-renamed copy of one, cold --jobs 1 vs warm --jobs
#      $(nproc), byte-identical; then the same sweep with a `stats`
#      request appended, counter-asserting reuse — the cold sweep
#      compiles one tape per distinct structure and shares it with the
#      renamed copy (whose pattern count misses every profile cache),
#      ε/leak grid points reuse the one ε-independent profile
#      measurement, and the warm re-run compiles nothing and
#      re-measures nothing
#  13. the concurrent serve gate: one interleaved session — computing
#      workloads with a --request-jobs mix and a mid-flight `gc`
#      sweeping the live cache — run serially on a cold cache and again
#      under --concurrency 4 on its own cold cache; the ordering buffer
#      keeps frames in request order, so the two response streams must
#      be byte-identical end to end (a dropped, reordered or drifted
#      frame fails the diff)
#  14. the cluster gate: one Monte-Carlo run distributed across three
#      `serve` workers, byte-diffed against the serial (zero-worker)
#      run — healthy, with one worker SIGKILLed mid-run, and under the
#      pinned chaos schedule (--chaos-seed injecting refused connects,
#      stalls, garbled headers and truncations) — plus a format check
#      of the pinned per-worker stats line; a lost shard, a drifted
#      byte, or a failure that is not a counted retry/ejection fails.
#      The healthy run must also report 0 local shards, 0 retries and
#      0 ejections, so a run that quietly fell back to local compute
#      fails; and a ~2.6 MB, 10^5-gate netlist must cross the wire to
#      two workers inside a 5 s --io-timeout with no retry and no
#      local shard, which an ingest path slower than linear cannot do
#  15. the ingest gate: four generated netlists must each `lint` and
#      `profile --patterns 64` inside a 5 s timeout per command — a
#      complexity gate, not a timing assertion. A 50,000-gate netlist
#      whose every gate is its own output, as `.bench` and again as
#      `.blif` (one shared resolver, two scanners): any parse, optimize
#      or lint step quadratic in the output count takes tens of seconds
#      here. And 80,000 inputs each XORed with its own inverse in one
#      160,001-fanin gate: a per-gate scan quadratic in fanin, or a
#      sensitivity estimate quadratic in the input count, does too.
#      Last, a clocked BLIF in the shape gateconvert's `to_blif` writes
#      (1,000 state inputs declared by `.inputs` and again as `.latch`
#      outputs, 64 data inputs, one `.clock`): a reader that rejects
#      either shape fails
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> rustdoc, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> benchmark probe builds --locked"
cargo build --release --locked --manifest-path perfbench/probe/Cargo.toml \
    --target-dir target/perfbench-probe

detdir="$(mktemp -d)"
trap 'rm -rf "$detdir"' EXIT

echo "==> examples: each examples/*.rs runs once from a fresh cwd"
# A fresh cwd per example: `paper_figures` writes `results/` under it.
cargo build --release --examples
for src in examples/*.rs; do
  name="$(basename "$src" .rs)"
  bin="$PWD/target/release/examples/$name"
  mkdir "$detdir/example-$name"
  echo "    $name"
  (cd "$detdir/example-$name" && "$bin" >/dev/null)
done

echo "==> determinism gate: figures --jobs 1 vs --jobs $(nproc)"
target/release/nanobound figures --out "$detdir/j1" --jobs 1 >/dev/null
target/release/nanobound figures --out "$detdir/jn" --jobs "$(nproc)" >/dev/null
diff -r "$detdir/j1" "$detdir/jn"

echo "==> cache gate: figures and validate cold vs warm vs --no-cache"
target/release/nanobound figures --out "$detdir/cold" --cache-dir "$detdir/cache" \
    --jobs "$(nproc)" >/dev/null
target/release/nanobound validate --out "$detdir/val-cold" --cache-dir "$detdir/cache" \
    --jobs "$(nproc)" >/dev/null
warm_profiles="$(target/release/nanobound figures --out "$detdir/warm" \
    --cache-dir "$detdir/cache" --jobs 1 | grep '^cache profiles: ')"
case "$warm_profiles" in
  *": 0 activity reused"*) echo "warm figures reused no profile: $warm_profiles" >&2; exit 1 ;;
  *" activity reused (0 measured), "*" sensitivity reused (0 measured)") ;;
  *) echo "warm figures re-measured profiles: $warm_profiles" >&2; exit 1 ;;
esac
warm_tallies="$(target/release/nanobound validate --out "$detdir/val-warm" \
    --cache-dir "$detdir/cache" --jobs 1 | grep '^cache .* misses, ')"
case "$warm_tallies" in
  *": 0 hits,"*) echo "warm validate hit nothing: $warm_tallies" >&2; exit 1 ;;
  *" 0 misses,"*) ;;
  *) echo "warm validate was not fully cached: $warm_tallies" >&2; exit 1 ;;
esac
target/release/nanobound figures --out "$detdir/nocache" --no-cache >/dev/null
target/release/nanobound validate --out "$detdir/val-nocache" --no-cache >/dev/null
diff -r "$detdir/cold" "$detdir/warm"
diff -r "$detdir/cold" "$detdir/nocache"
diff -r "$detdir/j1" "$detdir/cold"
diff -r "$detdir/val-cold" "$detdir/val-warm"
diff -r "$detdir/val-cold" "$detdir/val-nocache"

echo "==> stale-cache gate: v1-version frames are counted misses, never replayed"
# Rewrite every cached frame's version field (4 bytes LE at offset 4)
# to 1, simulating a cache left on disk from before the stream-v2
# FORMAT_VERSION bump. Every entry must be rejected up front — a
# replayed v1 tally would silently mix two incompatible fault streams.
find "$detdir/cache" -name '*.bin' -exec sh -c \
    'printf "\001\000\000\000" | dd of="$1" bs=1 seek=4 count=4 conv=notrunc status=none' _ {} \;
stale_profiles="$(target/release/nanobound figures --out "$detdir/stale" \
    --cache-dir "$detdir/cache" --jobs 1 | grep '^cache profiles: ')"
case "$stale_profiles" in
  *": 0 activity reused ("*", 0 sensitivity reused ("*) ;;
  *) echo "stale-version profiles were replayed: $stale_profiles" >&2; exit 1 ;;
esac
stale_tallies="$(target/release/nanobound validate --out "$detdir/val-stale" \
    --cache-dir "$detdir/cache" --jobs 1 | grep '^cache .* misses, ')"
case "$stale_tallies" in
  *": 0 hits,"*) ;;
  *) echo "stale-version tallies were replayed: $stale_tallies" >&2; exit 1 ;;
esac
case "$stale_tallies" in
  *" 0 misses,"*) echo "stale entries were not counted as misses: $stale_tallies" >&2; exit 1 ;;
  *) ;;
esac
diff -r "$detdir/cold" "$detdir/stale"
diff -r "$detdir/val-cold" "$detdir/val-stale"

echo "==> serve gate: scripted session, cold --jobs 1 vs warm --jobs $(nproc) vs one-shot CLI"
printf 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n' > "$detdir/xor2.bench"
cat > "$detdir/session.jsonl" <<EOF
{"id":"a","workload":"bound","args":["--size","21","--sensitivity","10","--activity","0.5","--fanin","3","--eps","0.01"]}
{"id":"b","workload":"figure","args":["fig3"]}
{"id":"c","workload":"profile","args":["$detdir/xor2.bench","--eps","0.05"]}
{"id":"d","workload":"validate"}
{"id":"e","workload":"figure","args":["fig3"]}
EOF
target/release/nanobound serve --cache-dir "$detdir/serve-cache" --jobs 1 \
    < "$detdir/session.jsonl" > "$detdir/serve-cold.out" 2>/dev/null
target/release/nanobound serve --cache-dir "$detdir/serve-cache" --jobs "$(nproc)" \
    < "$detdir/session.jsonl" > "$detdir/serve-warm.out" 2>/dev/null
diff "$detdir/serve-cold.out" "$detdir/serve-warm.out"

target/release/nanobound bounds --size 21 --sensitivity 10 --activity 0.5 --fanin 3 \
    --eps 0.01 > "$detdir/exp-a"
target/release/nanobound figures --only fig3 --stdout > "$detdir/exp-b"
target/release/nanobound profile "$detdir/xor2.bench" --eps 0.05 > "$detdir/exp-c"
target/release/nanobound validate --stdout > "$detdir/exp-d"
# Assemble the response stream the service must produce: a JSON header
# naming the payload size, then the one-shot stdout bytes verbatim.
emit() { printf '{"id":"%s","status":"ok","bytes":%d}\n' "$1" "$(wc -c < "$2")"; cat "$2"; }
{
  emit a "$detdir/exp-a"
  emit b "$detdir/exp-b"
  emit c "$detdir/exp-c"
  emit d "$detdir/exp-d"
  emit e "$detdir/exp-b"
} > "$detdir/serve-expected.out"
diff "$detdir/serve-expected.out" "$detdir/serve-cold.out"

echo "==> engine gate: NANOBOUND_ENGINE=interp vs default compiled"
NANOBOUND_ENGINE=interp target/release/nanobound figures --out "$detdir/fig-interp" \
    --jobs "$(nproc)" >/dev/null
diff -r "$detdir/j1" "$detdir/fig-interp"
target/release/nanobound validate --out "$detdir/val-compiled" >/dev/null
NANOBOUND_ENGINE=interp target/release/nanobound validate --out "$detdir/val-interp" >/dev/null
diff -r "$detdir/val-compiled" "$detdir/val-interp"
# Monte-Carlo at the sparse mask densities `validate` never reaches on
# a circuit this size: 64 inputs, then 20 layers of 100 gates, each
# reading a gate of the layer below and one of the layer below that,
# and a third in a third of them another of the layer below
# (reconvergent fanout everywhere, depth 20), XOR-heavy so signals keep
# switching; the last layer's first 20 gates are the outputs. The Park-Miller generator's products stay
# below 2^53, so every awk writes the same file.
awk 'function sig(l, j) { return l == 0 ? "x" (j % 64) : "g" l "_" j }
BEGIN {
  split("AND OR NAND NOR XOR XNOR XOR XNOR", kind, " ")
  s = 12345
  for (i = 0; i < 64; i++) printf "INPUT(x%d)\n", i
  for (j = 0; j < 20; j++) printf "OUTPUT(g20_%d)\n", j
  for (l = 1; l <= 20; l++) for (j = 0; j < 100; j++) {
    s = (s * 16807) % 2147483647; a = sig(l - 1, s % 100)
    s = (s * 16807) % 2147483647; b = sig(l - 1, (j + 1 + s % 99) % 100)
    s = (s * 16807) % 2147483647; c = sig(l < 2 ? 0 : l - 2, s % 100)
    s = (s * 16807) % 2147483647; k = kind[1 + s % 8]
    if (s % 3 == 0) printf "g%d_%d = %s(%s, %s, %s)\n", l, j, k, a, b, c
    else printf "g%d_%d = %s(%s, %s)\n", l, j, k, a, c
  }
}' > "$detdir/mc.bench"
for eps in 0.001 0.01 0.025; do
  target/release/nanobound cluster "$detdir/mc.bench" --eps "$eps" --patterns 20000 \
      --jobs 1 > "$detdir/mc-compiled.out"
  NANOBOUND_ENGINE=interp target/release/nanobound cluster "$detdir/mc.bench" --eps "$eps" \
      --patterns 20000 --jobs 1 > "$detdir/mc-interp.out"
  diff "$detdir/mc-compiled.out" "$detdir/mc-interp.out"
done
# Unknown engine names are hard configuration errors, not silent
# fallbacks (that would defeat this very gate).
if NANOBOUND_ENGINE=turbo target/release/nanobound validate --stdout >/dev/null 2>&1; then
  echo "NANOBOUND_ENGINE=turbo was silently accepted" >&2
  exit 1
fi

echo "==> analyze gate: suite lint, golden JSON, corruption rejection, serve parity"
target/release/nanobound lint --suite --deny warnings > "$detdir/lint-suite.txt"
target/release/nanobound lint --suite --format json > "$detdir/lint-suite.json"
diff tests/golden/lint_suite.json "$detdir/lint-suite.json"
# The verifier must catch a single-point tape corruption.
if target/release/nanobound lint tests/fixtures/lint_dirty.bench --corrupt-tape 3 \
    > "$detdir/lint-corrupt.out" 2>/dev/null; then
  echo "corrupted tape passed the analyzer" >&2
  exit 1
fi
grep -q NB020 "$detdir/lint-corrupt.out"
# A lint request through serve answers with the one-shot bytes verbatim.
target/release/nanobound lint tests/fixtures/lint_dirty.bench > "$detdir/exp-lint"
printf '{"id":"l","workload":"lint","args":["tests/fixtures/lint_dirty.bench"]}\n' \
    | target/release/nanobound serve > "$detdir/serve-lint.out" 2>/dev/null
emit l "$detdir/exp-lint" > "$detdir/serve-lint-expected.out"
diff "$detdir/serve-lint-expected.out" "$detdir/serve-lint.out"

echo "==> sweep gate: ε-grid profile sweep shares tapes and measurements"
printf 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n' > "$detdir/fam1.bench"
printf 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = XOR(a, b)\nz = AND(a, y)\n' \
    > "$detdir/fam2.bench"
printf 'INPUT(p)\nINPUT(q)\nOUTPUT(u)\nOUTPUT(v)\nu = XOR(p, q)\nv = AND(p, u)\n' \
    > "$detdir/fam2r.bench"
# The ε grid (and the s4 leak variation) must reuse the single
# ε-independent profile measurement of fam2. fam1 is a distinct
# structure and compiles its own tape. fam2r is fam2 with its signals
# renamed: its pattern count misses the profile registry and the
# profile store, so it is measured afresh, but its structure hits the
# program cache and shares fam2's tape.
cat > "$detdir/sweep.jsonl" <<EOF
{"id":"s1","workload":"profile","args":["$detdir/fam2.bench","--eps","0.001"]}
{"id":"s2","workload":"profile","args":["$detdir/fam2.bench","--eps","0.01"]}
{"id":"s3","workload":"profile","args":["$detdir/fam2.bench","--eps","0.25"]}
{"id":"s4","workload":"profile","args":["$detdir/fam2.bench","--eps","0.5","--leak","0.4"]}
{"id":"s5","workload":"profile","args":["$detdir/fam1.bench","--eps","0.01"]}
{"id":"s6","workload":"profile","args":["$detdir/fam2r.bench","--eps","0.01","--patterns","2048"]}
EOF
target/release/nanobound serve --cache-dir "$detdir/sweep-cache" --jobs 1 \
    < "$detdir/sweep.jsonl" > "$detdir/sweep-cold.out" 2>/dev/null
target/release/nanobound serve --cache-dir "$detdir/sweep-cache" --jobs "$(nproc)" \
    < "$detdir/sweep.jsonl" > "$detdir/sweep-warm.out" 2>/dev/null
diff "$detdir/sweep-cold.out" "$detdir/sweep-warm.out"
# Counter assertions run on a second cache so the cold numbers are
# clean: the cold session must compile once per structure, share fam2's
# tape with fam2r, and reuse the ε-independent measurement across the
# grid; the warm session must compile and measure nothing. (`0 sliced`
# is a retired counter the report line keeps for field-position
# parsers.)
{ cat "$detdir/sweep.jsonl"; printf '{"id":"st","workload":"stats"}\n'; } \
    > "$detdir/sweep-stats.jsonl"
target/release/nanobound serve --cache-dir "$detdir/sweep-cache2" --jobs 1 \
    < "$detdir/sweep-stats.jsonl" > "$detdir/sweep-stats-cold.out" 2>/dev/null
grep -q "cache programs: 2 compiled (2 held), 1 shared, 0 sliced" \
    "$detdir/sweep-stats-cold.out"
grep -q "cache profiles: 1 activity reused (3 measured), 2 sensitivity reused (2 measured)" \
    "$detdir/sweep-stats-cold.out"
target/release/nanobound serve --cache-dir "$detdir/sweep-cache2" --jobs "$(nproc)" \
    < "$detdir/sweep-stats.jsonl" > "$detdir/sweep-stats-warm.out" 2>/dev/null
grep -q "cache programs: 0 compiled (0 held), 0 shared, 0 sliced" \
    "$detdir/sweep-stats-warm.out"
grep -q "cache profiles: 4 activity reused (0 measured), 4 sensitivity reused (0 measured)" \
    "$detdir/sweep-stats-warm.out"

echo "==> concurrent serve gate: --concurrency 4 with mid-flight gc vs serial, byte-identical"
# Interleaved computing workloads, per-request worker overrides and a
# gc sweeping the shard cache while requests are in flight. Each run
# gets its own fresh cache so both are cold; the response streams must
# match byte for byte — request-ordered frames, no drops, no drift.
cat > "$detdir/conc.jsonl" <<EOF
{"id":"c1","workload":"bound","args":["--size","21","--sensitivity","10","--activity","0.5","--fanin","3","--eps","0.01"]}
{"id":"c2","workload":"profile","args":["$detdir/xor2.bench","--eps","0.05","--request-jobs","2"]}
{"id":"c3","workload":"figure","args":["fig3"]}
{"id":"c4","workload":"gc","args":["--bytes","0"]}
{"id":"c5","workload":"profile","args":["$detdir/xor2.bench","--eps","0.05"]}
{"id":"c6","workload":"figure","args":["fig2","--request-jobs","3"]}
{"id":"c7","workload":"validate","args":["--request-jobs","2"]}
{"id":"c8","workload":"bound","args":["--request-jobs","4","--size","21","--sensitivity","10","--activity","0.5","--fanin","3","--eps","0.01"]}
EOF
target/release/nanobound serve --cache-dir "$detdir/conc-serial" --jobs 1 \
    < "$detdir/conc.jsonl" > "$detdir/conc-serial.out" 2>/dev/null
target/release/nanobound serve --cache-dir "$detdir/conc-parallel" --jobs 1 \
    --concurrency 4 --queue 64 \
    < "$detdir/conc.jsonl" > "$detdir/conc-parallel.out" 2>/dev/null
diff "$detdir/conc-serial.out" "$detdir/conc-parallel.out"
# The gc must have answered its fixed in-band payload, in order.
grep -q '"id":"c4","status":"ok"' "$detdir/conc-parallel.out"
grep -q "gc: swept" "$detdir/conc-parallel.out"

echo "==> cluster gate: 3 workers vs serial — healthy, SIGKILL mid-run, seeded chaos"
# A wide XOR chain big enough that the distributed run is in flight for
# a couple of seconds — long enough to SIGKILL a worker mid-run.
{
  echo "INPUT(a)"; echo "INPUT(b)"; echo "OUTPUT(o)"; echo "n0 = XOR(a, b)"
  for i in $(seq 1 1999); do echo "n$i = XOR(n$((i-1)), a)"; done
  echo "o = AND(n1999, b)"
} > "$detdir/clu.bench"
CLU_ARGS=(--eps 0.02 --patterns 4194304 --chunk 16384 --batch 4 --jobs 2)

# Spawns a serve worker on an ephemeral port; echoes "pid addr".
start_worker() {
  local log="$1" pid addr
  # The log exists before the worker starts, so the first `sed` never
  # races the worker's own redirection.
  : > "$log"
  target/release/nanobound serve --listen 127.0.0.1:0 >/dev/null 2>"$log" &
  pid=$!
  for _ in $(seq 200); do
    addr="$(sed -n 's/^nanobound serve: listening on //p' "$log" | head -1)"
    if [ -n "$addr" ]; then echo "$pid $addr"; return 0; fi
    sleep 0.05
  done
  kill "$pid" 2>/dev/null || true
  echo "worker never announced its address" >&2
  return 1
}
# Extracts an aggregate counter ($2: local|retries|ejections) off the pinned
# stats line in a coordinator stderr log ($1) — the segment before the
# first per-worker field, which repeats the counter names.
cluster_counter() {
  grep -m1 '^nanobound cluster: [0-9]' "$1" | sed 's/ | worker.*//' \
    | sed -n "s/.* \([0-9]\+\) $2.*/\1/p"
}

target/release/nanobound cluster "$detdir/clu.bench" "${CLU_ARGS[@]}" \
    > "$detdir/clu-serial.out" 2>/dev/null

# Healthy: three workers, zero failures, byte-identical, pinned stats.
read -r W1 A1 < <(start_worker "$detdir/clu-w1.log")
read -r W2 A2 < <(start_worker "$detdir/clu-w2.log")
read -r W3 A3 < <(start_worker "$detdir/clu-w3.log")
target/release/nanobound cluster "$detdir/clu.bench" "${CLU_ARGS[@]}" \
    --worker "$A1" --worker "$A2" --worker "$A3" \
    > "$detdir/clu-healthy.out" 2>"$detdir/clu-healthy.err"
diff "$detdir/clu-serial.out" "$detdir/clu-healthy.out"
# The pinned format, with every shard computed remotely and no failure:
# a run that silently fell back to local compute has the same bytes.
if ! grep -Eq '^nanobound cluster: [0-9]+ shards, [0-9]+ cached, 0 local, 0 retries, 0 ejections( \| worker [0-9.:]+: [0-9]+ shards, 0 retries, 0 ejections){3}$' \
    "$detdir/clu-healthy.err"; then
  echo "healthy cluster run was not fully remote and failure-free:" >&2
  cat "$detdir/clu-healthy.err" >&2
  exit 1
fi
kill "$W1" "$W2" "$W3" 2>/dev/null || true

# Large payload: 400 XOR chains of 250 gates (~2.6 MB of .bench text)
# shipped in-band to two workers, one shard per batch. Each worker must
# decode, parse and compute its batch inside the 5 s --io-timeout; a
# retry or a local shard means ingest fell behind.
awk 'BEGIN {
  print "INPUT(a)"; print "INPUT(b)"
  for (c = 0; c < 400; c++) printf "OUTPUT(c%d_249)\n", c
  for (c = 0; c < 400; c++) {
    printf "c%d_0 = XOR(a, b)\n", c
    for (i = 1; i < 250; i++) printf "c%d_%d = XOR(c%d_%d, %s)\n", c, i, c, i - 1, (i % 2 ? "a" : "b")
  }
}' > "$detdir/clu-large.bench"
LARGE_ARGS=(--eps 0.02 --patterns 8192 --chunk 4096 --batch 1 --io-timeout 5)
target/release/nanobound cluster "$detdir/clu-large.bench" "${LARGE_ARGS[@]}" \
    > "$detdir/clu-large-serial.out" 2>/dev/null
read -r W1 A1 < <(start_worker "$detdir/clu-w1.log")
read -r W2 A2 < <(start_worker "$detdir/clu-w2.log")
target/release/nanobound cluster "$detdir/clu-large.bench" "${LARGE_ARGS[@]}" \
    --worker "$A1" --worker "$A2" \
    > "$detdir/clu-large.out" 2>"$detdir/clu-large.err"
kill "$W1" "$W2" 2>/dev/null || true
diff "$detdir/clu-large-serial.out" "$detdir/clu-large.out"
LARGE_RETRIES="$(cluster_counter "$detdir/clu-large.err" retries)"
LARGE_LOCAL="$(cluster_counter "$detdir/clu-large.err" local)"
if [ "$LARGE_RETRIES" != 0 ] || [ "$LARGE_LOCAL" != 0 ]; then
  echo "large in-band netlist was retried or computed locally:" >&2
  cat "$detdir/clu-large.err" >&2
  exit 1
fi

# One worker SIGKILLed mid-run: its queued shards are re-queued to the
# survivors, the kill shows up as counted retries + an ejection, and
# the output still matches the serial run byte for byte.
read -r W1 A1 < <(start_worker "$detdir/clu-w1.log")
read -r W2 A2 < <(start_worker "$detdir/clu-w2.log")
read -r W3 A3 < <(start_worker "$detdir/clu-w3.log")
target/release/nanobound cluster "$detdir/clu.bench" "${CLU_ARGS[@]}" \
    --worker "$A1" --worker "$A2" --worker "$A3" \
    --quarantine-after 1 --backoff-ms 1 --connect-timeout 1 \
    > "$detdir/clu-killed.out" 2>"$detdir/clu-killed.err" &
CLUSTER_PID=$!
sleep 0.4
kill -9 "$W3" 2>/dev/null || true
wait "$CLUSTER_PID"
diff "$detdir/clu-serial.out" "$detdir/clu-killed.out"
KILL_EJECT="$(cluster_counter "$detdir/clu-killed.err" ejections)"
if [ -z "$KILL_EJECT" ] || [ "$KILL_EJECT" -lt 1 ]; then
  echo "SIGKILLed worker was never ejected:" >&2
  cat "$detdir/clu-killed.err" >&2
  exit 1
fi
kill "$W1" "$W2" 2>/dev/null || true

# Seeded chaos: deterministic fault injection (refused connects,
# stalls, garbled headers, truncations) on every worker's transport.
# Seed 25 is pinned so each worker's first draw is a fault — the run
# must log counted retries and still match serial byte for byte.
read -r W1 A1 < <(start_worker "$detdir/clu-w1.log")
read -r W2 A2 < <(start_worker "$detdir/clu-w2.log")
read -r W3 A3 < <(start_worker "$detdir/clu-w3.log")
target/release/nanobound cluster "$detdir/clu.bench" "${CLU_ARGS[@]}" \
    --worker "$A1" --worker "$A2" --worker "$A3" \
    --chaos-seed 25 --backoff-ms 1 \
    > "$detdir/clu-chaos.out" 2>"$detdir/clu-chaos.err"
diff "$detdir/clu-serial.out" "$detdir/clu-chaos.out"
CHAOS_RETRIES="$(cluster_counter "$detdir/clu-chaos.err" retries)"
if [ -z "$CHAOS_RETRIES" ] || [ "$CHAOS_RETRIES" -lt 1 ]; then
  echo "chaos schedule injected no counted fault:" >&2
  cat "$detdir/clu-chaos.err" >&2
  exit 1
fi
kill "$W1" "$W2" "$W3" 2>/dev/null || true

echo "==> ingest gate: lint and profile four generated netlists, 5 s each"
# Eight XOR/NAND chains over eight inputs, 50,000 gates, each gate its
# own output. Linear ingest takes well under a second for each command;
# before outputs were indexed by name, this file took 6 s to lint and
# 46 s to profile on a 2-vCPU x86-64 host.
awk 'BEGIN {
  for (i = 0; i < 8; i++) printf "INPUT(x%d)\n", i
  for (i = 0; i < 50000; i++) printf "OUTPUT(y%06d)\n", i
  for (i = 0; i < 50000; i++)
    printf "y%06d = %s(x%d, %s)\n", i, (i % 2 ? "NAND" : "XOR"), i % 8,
      (i < 8 ? "x" ((i + 1) % 8) : sprintf("y%06d", i - 8))
}' > "$detdir/wide.bench"
# The same circuit as BLIF, one interface name per statement as SIS-era
# converters write it: NAND as an off-set cover, XOR as two on-set rows.
awk 'BEGIN {
  print ".model wide"
  for (i = 0; i < 8; i++) printf ".inputs x%d\n", i
  for (i = 0; i < 50000; i++) printf ".outputs y%06d\n", i
  for (i = 0; i < 50000; i++) {
    printf ".names x%d %s y%06d\n", i % 8,
      (i < 8 ? "x" ((i + 1) % 8) : sprintf("y%06d", i - 8)), i
    print (i % 2 ? "11 0" : "10 1\n01 1")
  }
  print ".end"
}' > "$detdir/wide.blif"
# One XOR over z and 80,000 complementary pairs x_i, NOT(x_i), plus a
# NAND so two outputs stay live. Before the duplicate-fanin lint and
# the XOR pair cancellation were linear in fanin, and before sampled
# sensitivity flipped inputs in place, this file took 7 s to lint and
# over 10 s to profile on the same host.
awk 'BEGIN {
  print "INPUT(z)"
  for (i = 0; i < 80000; i++) printf "INPUT(x%d)\n", i
  print "OUTPUT(y)"
  print "OUTPUT(w)"
  for (i = 0; i < 80000; i++) printf "n%d = NOT(x%d)\n", i, i
  printf "y = XOR(z"
  for (i = 0; i < 80000; i++) printf ", x%d, n%d", i, i
  print ")"
  print "w = NAND(z, x0)"
}' > "$detdir/pairs.bench"
# A clocked design in the shape gateconvert's `to_blif` writes: 1,000
# state inputs, each declared on its own `.inputs` line and again as the
# output of a two-token `.latch`, 64 data inputs, one `.clock` and one
# XOR cover per next state. Before BLIF read a state input as its
# latch's output and `.clock` names as inputs, both commands failed.
awk 'BEGIN {
  print ".model clocked"
  for (k = 0; k < 1000; k++) printf ".inputs i%d\n", k
  for (j = 0; j < 64; j++) printf ".inputs d%d\n", j
  for (k = 0; k < 1000; k++) printf ".outputs o%d\n", k
  print ".clock clk"
  for (k = 0; k < 1000; k++) printf ".latch o%d i%d\n", k, k
  for (k = 0; k < 1000; k++)
    printf ".names i%d d%d o%d\n10 1\n01 1\n", k, k % 64, k
  print ".end"
}' > "$detdir/clocked.blif"
for netlist in wide.bench wide.blif pairs.bench clocked.blif; do
  timeout 5 target/release/nanobound lint "$detdir/$netlist" >/dev/null
  timeout 5 target/release/nanobound profile "$detdir/$netlist" --patterns 64 >/dev/null
done

echo "==> exact-sensitivity gate: a 20-input profile in 512 MiB of address space"
# 20 inputs, 9,600 two-input gates and the last 1,000 of them as
# outputs; each gate reads the one before it and one of the 256 signals
# before that (a MINSTD draw), so every gate stays live. Exact
# sensitivity enumerates 2^20 assignments. With one full stream per
# tape slot it peaked at 2.4 GiB RSS and aborts here (exit 134); in
# windows it keeps the 1,000 output streams, 134 MiB peak RSS on a
# 2-vCPU x86-64 host.
awk 'function sig(i) { return i < 20 ? "x" i : "g" (i - 20) }
BEGIN {
  split("AND OR NAND NOR XOR", kind, " ")
  s = 1
  for (i = 0; i < 20; i++) printf "INPUT(x%d)\n", i
  for (g = 8600; g < 9600; g++) printf "OUTPUT(g%d)\n", g
  for (g = 0; g < 9600; g++) {
    n = 20 + g; w = (n < 256 ? n : 256)
    s = (s * 48271) % 2147483647; b = n - 1 - s % w
    if (b == n - 1) b = n - 2
    s = (s * 48271) % 2147483647
    printf "g%d = %s(%s, %s)\n", g, kind[1 + s % 5], sig(n - 1), sig(b)
  }
}' > "$detdir/exact20.bench"
(
  ulimit -v 524288
  timeout 20 target/release/nanobound profile "$detdir/exact20.bench" --patterns 64 >/dev/null
)

echo "CI green."
