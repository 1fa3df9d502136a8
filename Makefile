.PHONY: ci build test clippy bench fmt-check fault-matrix telemetry-smoke store-smoke stream-smoke full-smoke chaos-smoke lint-invariants bench-trajectory bench-kernels perfbench-selftest

ci: build test fault-matrix telemetry-smoke store-smoke stream-smoke full-smoke chaos-smoke bench-kernels perfbench-selftest lint-invariants clippy fmt-check

build:
	cargo build --release --workspace

test:
	cargo test -q --workspace --release

# Robustness suite under each transport fault profile: faultless, the
# paper's May-2021 failure mix, and an adversarial profile.
fault-matrix:
	for profile in none paper-may-2021 hostile; do \
		PII_FAULT_PROFILE=$$profile cargo test -q --release --test robustness || exit 1; \
	done

# Two seeded runs with different worker counts must produce a well-formed
# Chrome trace and identical seed-deterministic counters.
telemetry-smoke:
	cargo run --release -q -- --seed 7 --workers 4 --metrics --trace target/trace-a.json tables > /dev/null
	cargo run --release -q -- --seed 7 --workers 2 --metrics --trace target/trace-b.json tables > /dev/null
	cargo run --release -q --example validate_trace target/trace-a.json target/trace-b.json

# Capture-once/analyze-many: a seeded crawl persisted to an archive must
# replay byte-identically to the live pipeline, and a deliberately damaged
# copy must replay with the loss reported instead of crashing.
store-smoke:
	cargo run --release -q -- --seed 7 crawl --out target/smoke.store > /dev/null
	cargo run --release -q -- --seed 7 tables > target/smoke-live.txt
	cargo run --release -q -- --from target/smoke.store tables > target/smoke-replay.txt
	cmp target/smoke-live.txt target/smoke-replay.txt
	cargo run --release -q --example corrupt_store target/smoke.store target/smoke-corrupt.store
	cargo run --release -q -- --from target/smoke-corrupt.store tables > target/smoke-corrupt.txt
	grep -q "archive segments skipped" target/smoke-corrupt.txt
	! cmp -s target/smoke-live.txt target/smoke-corrupt.txt

# Constant-memory pipeline: the streaming replay of a capture archive must
# render byte-identically to the materialized replay of the same archive,
# and a live streaming run, folded through the crawl's reorder buffer, must
# match a plain live run — at the default pool, at one worker (in-order
# delivery), and at two workers under hostile faults (out-of-order
# delivery).
stream-smoke:
	cargo run --release -q -- --seed 7 crawl --out target/stream-smoke.store > /dev/null
	cargo run --release -q -- --from target/stream-smoke.store tables > target/stream-materialized.txt
	cargo run --release -q -- --from target/stream-smoke.store --stream tables > target/stream-streamed.txt
	cmp target/stream-materialized.txt target/stream-streamed.txt
	cargo run --release -q -- --seed 7 tables > target/stream-live.txt
	cargo run --release -q -- --seed 7 --stream tables > target/stream-live-streamed.txt
	cmp target/stream-live.txt target/stream-live-streamed.txt
	cargo run --release -q -- --seed 7 --workers 1 tables > target/stream-live-w1.txt
	cargo run --release -q -- --seed 7 --workers 1 --stream tables > target/stream-live-w1-streamed.txt
	cmp target/stream-live-w1.txt target/stream-live-w1-streamed.txt
	cargo run --release -q -- --seed 7 --workers 2 --faults hostile tables > target/stream-live-hostile.txt
	cargo run --release -q -- --seed 7 --workers 2 --faults hostile --stream tables > target/stream-live-hostile-streamed.txt
	cmp target/stream-live-hostile.txt target/stream-live-hostile-streamed.txt

# `full` is the pass that `stream-smoke`'s `tables` skips: the six-browser
# re-crawl and Table 4, both detected by the sequential
# `LeakDetector::detect`. Its report must be byte-identical at one worker,
# at four workers, and replayed from the one-worker archive — plain, and
# under the paper's fault mix with a warm-cache revisit. Last, an archive
# captured under hostile faults with a warm-cache revisit (aborted and
# cache-served records) must replay `full` and `--stream tables` exactly
# as the live runs with the same flags render them.
HOSTILE_FLAGS = --seed 7 --faults hostile --cache cache-first --repeat 2
full-smoke:
	for flags in "" "--faults paper-may-2021 --cache cache-first --repeat 2"; do \
		cargo run --release -q -- --seed 7 --workers 1 $$flags full > target/full-w1.txt || exit 1; \
		cargo run --release -q -- --seed 7 --workers 4 $$flags full > target/full-w4.txt || exit 1; \
		cargo run --release -q -- --seed 7 --workers 1 $$flags crawl --out target/full-smoke.store > /dev/null || exit 1; \
		cargo run --release -q -- --from target/full-smoke.store full > target/full-replay.txt || exit 1; \
		cmp target/full-w1.txt target/full-w4.txt || exit 1; \
		cmp target/full-w1.txt target/full-replay.txt || exit 1; \
	done
	cargo run --release -q -- $(HOSTILE_FLAGS) crawl --out target/full-hostile.store > /dev/null
	cargo run --release -q -- $(HOSTILE_FLAGS) full > target/full-hostile-live.txt
	cargo run --release -q -- --from target/full-hostile.store full > target/full-hostile-replay.txt
	cmp target/full-hostile-live.txt target/full-hostile-replay.txt
	cargo run --release -q -- $(HOSTILE_FLAGS) --stream tables > target/full-hostile-live-stream.txt
	cargo run --release -q -- --from target/full-hostile.store --stream tables > target/full-hostile-replay-stream.txt
	cmp target/full-hostile-live-stream.txt target/full-hostile-replay-stream.txt

# Crash-consistency smoke: kill the archive writer at a segment boundary,
# confirm `store verify` flags the torn file, resume the crawl, and require
# the finished archive to be byte-identical to an uninterrupted run and to
# verify clean. Then flip a byte, and require verify → repair → verify to go
# dirty → fixed → clean.
chaos-smoke:
	rm -f target/chaos.store
	! cargo run --release -q -- --seed 7 --workers 1 crawl --out target/chaos.store --kill after-segment:100 2> /dev/null
	! cargo run --release -q -- store verify target/chaos.store > /dev/null
	cargo run --release -q -- --seed 7 --workers 1 crawl --out target/chaos.store --resume > /dev/null
	cargo run --release -q -- store verify target/chaos.store > /dev/null
	cargo run --release -q -- --seed 7 --workers 1 crawl --out target/chaos-uncut.store > /dev/null
	cmp target/chaos.store target/chaos-uncut.store
	cargo run --release -q --example corrupt_store target/chaos.store target/chaos-corrupt.store
	! cargo run --release -q -- store verify target/chaos-corrupt.store > /dev/null
	cargo run --release -q -- store repair target/chaos-corrupt.store > /dev/null
	cargo run --release -q -- store verify target/chaos-corrupt.store > /dev/null

# Scale trajectory for the streaming pipeline: crawl + replay at 1x/10x/100x
# universe scale, refreshing BENCH_streaming.json at the workspace root.
bench-trajectory:
	cargo bench -p pii-bench --bench streaming

# Hot-path kernel smoke: a reduced-corpus run of the slice-at-a-time kernel
# bench (which asserts kernel == scalar on every measured pass), validated by
# the vendored-serde_json reader. The checked-in full-size artifact is
# validated at the 2x CRC floor the trajectory claims; the fresh smoke
# artifact at a noise-tolerant 1.2x.
bench-kernels:
	cargo bench -p pii-bench --bench kernels -- --smoke --out $(CURDIR)/target/BENCH_kernels.json
	cargo run --release -q --example validate_bench_json target/BENCH_kernels.json --min-crc-speedup 1.2
	cargo run --release -q --example validate_bench_json BENCH_kernels.json --min-crc-speedup 2.0

# The end-to-end benchmark harness is a workspace of its own (perfbench/),
# so the workspace build never compiles it: build it and run its
# self-tests, so an API change it depends on fails here.
perfbench-selftest:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Workspace invariant gate: pii-lint must report zero unsuppressed findings
# (exit 1 otherwise), and its hand-rolled JSON mode must satisfy the
# vendored-serde_json validator so the two output modes cannot drift.
lint-invariants:
	cargo run --release -q -- lint
	cargo run --release -q -- lint --json > target/lint.json
	cargo run --release -q --example validate_lint_json target/lint.json --expect-empty

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

bench:
	cargo bench -p pii-bench

fmt-check:
	cargo fmt --all --check
