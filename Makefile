.PHONY: ci build test clippy fmt-check fault-matrix telemetry-smoke store-smoke stream-smoke full-smoke workers-smoke chaos-smoke lint-invariants perfbench-selftest

ci: build test fault-matrix telemetry-smoke store-smoke stream-smoke full-smoke workers-smoke chaos-smoke perfbench-selftest lint-invariants clippy fmt-check

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
# Chrome trace and identical seed-deterministic counters — for `tables`,
# and for `full`, whose §7.1 browser pass adds its page loads, requests and
# DNS queries to the counters.
telemetry-smoke:
	cargo run --release -q -- --seed 7 --workers 4 --metrics --trace target/trace-a.json tables > /dev/null
	cargo run --release -q -- --seed 7 --workers 2 --metrics --trace target/trace-b.json tables > /dev/null
	cargo run --release -q --example validate_trace target/trace-a.json target/trace-b.json
	cargo run --release -q -- --seed 7 --workers 1 --metrics --trace target/trace-full-a.json full > /dev/null
	cargo run --release -q -- --seed 7 --workers 4 --metrics --trace target/trace-full-b.json full > /dev/null
	cargo run --release -q --example validate_trace target/trace-full-a.json target/trace-full-b.json

# Capture-once/analyze-many: a seeded crawl persisted to an archive must
# replay byte-identically to the live pipeline, a deliberately damaged
# copy must replay with the loss reported instead of crashing, and a copy
# under the format-v1 magic must be refused by its version.
store-smoke:
	cargo run --release -q -- --seed 7 crawl --out target/smoke.store > /dev/null
	cargo run --release -q -- --seed 7 tables > target/smoke-live.txt
	cargo run --release -q -- --from target/smoke.store tables > target/smoke-replay.txt
	cmp target/smoke-live.txt target/smoke-replay.txt
	cargo run --release -q --example corrupt_store target/smoke.store target/smoke-corrupt.store
	cargo run --release -q -- --from target/smoke-corrupt.store tables > target/smoke-corrupt.txt
	grep -q "archive segments skipped" target/smoke-corrupt.txt
	! cmp -s target/smoke-live.txt target/smoke-corrupt.txt
	{ printf PIISTOR1; tail -c +9 target/smoke.store; } > target/smoke-v1.store
	! cargo run --release -q -- --from target/smoke-v1.store tables > /dev/null 2> target/smoke-v1.err
	grep -q "archive format v1 is no longer supported; re-run \`crawl --out\`" target/smoke-v1.err

# `full` prints `tables`, then `blocklists`, a blank line, `browsers` and
# the comparison tally. `full` and `blocklists` keep the study's crawls;
# `tables` and `browsers` drop each site once it is folded. Under the same
# flags ($(1)) each of the three must print exactly its slice of `full`.
define full_slices
	cargo run --release -q -- $(1) full > target/$(2)-full.txt
	cargo run --release -q -- $(1) tables > target/$(2)-tables.txt
	cargo run --release -q -- $(1) blocklists > target/$(2)-blocklists.txt
	cargo run --release -q -- $(1) browsers > target/$(2)-browsers.txt
	tail -n 1 target/$(2)-full.txt | grep -Eqx '[0-9]+/[0-9]+ comparisons match the paper'
	{ cat target/$(2)-tables.txt target/$(2)-blocklists.txt; echo; cat target/$(2)-browsers.txt; tail -n 1 target/$(2)-full.txt; } | cmp - target/$(2)-full.txt
endef

# Constant-memory pipeline: the crawl-dropping subcommands must print their
# slice of the crawl-keeping `full`, replayed from an archive and live —
# at the default pool, at one worker (inline on the caller's thread), and
# at two workers under hostile faults (sites finishing out of order, held
# by the pool until their turn).
stream-smoke:
	cargo run --release -q -- --seed 7 crawl --out target/stream-smoke.store > /dev/null
	$(call full_slices,--from target/stream-smoke.store,stream-replay)
	$(call full_slices,--seed 7,stream-live)
	$(call full_slices,--seed 7 --workers 1,stream-live-w1)
	$(call full_slices,--seed 7 --workers 2 --faults hostile,stream-live-hostile)

# `full` is the pass that `stream-smoke`'s `tables` skips: the six-browser
# re-crawl and Table 4. Its report must be byte-identical at one worker,
# at four workers, and replayed from the one-worker archive — plain, and
# under the paper's fault mix with a warm-cache revisit. Last, an archive
# captured under hostile faults with a warm-cache revisit (aborted and
# cache-served records) must replay `full` exactly as the live run with the
# same flags renders it, and live and replayed, each crawl-dropping
# subcommand must print its slice of `full`.
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
	$(call full_slices,$(HOSTILE_FLAGS),full-hostile-live)
	$(call full_slices,--from target/full-hostile.store,full-hostile-replay)

# Every pass that re-crawls runs on the study's `--workers`: the
# strict-referrer counterfactual, the crowdsourced contributors and the
# ablations (which build the depth-1 and depth-2 token sets) print the same
# bytes at one worker and at four, and at one worker `full`,
# `counterfactual`, `crowdsource` and `sweep` crawl on worker 0 alone.
workers-smoke:
	for cmd in counterfactual "crowdsource 3" ablations; do \
		cargo run --release -q -- --seed 7 --workers 1 $$cmd > target/workers-w1.txt || exit 1; \
		cargo run --release -q -- --seed 7 --workers 4 $$cmd > target/workers-w4.txt || exit 1; \
		cmp target/workers-w1.txt target/workers-w4.txt || exit 1; \
	done
	for cmd in full counterfactual "crowdsource 2" "sweep 2"; do \
		cargo run --release -q -- --seed 7 --workers 1 --metrics $$cmd > target/workers-metrics.txt || exit 1; \
		grep -q "crawler.worker.0.sites" target/workers-metrics.txt || exit 1; \
		! grep -q "crawler.worker.1.sites" target/workers-metrics.txt || { echo "$$cmd: --workers 1 crawled on a second worker"; exit 1; }; \
	done

# Crash-consistency smoke: kill the archive writer at a segment boundary,
# confirm `store verify` flags the torn file, resume the crawl, and require
# the finished archive to be byte-identical to an uninterrupted run and to
# verify clean. At four workers, an uncut capture and a killed-and-resumed
# one must both be byte-identical to the one-worker archive. Re-capture over the uncut archive and require the same
# bytes; repair it onto itself and require it to verify clean and replay
# `tables` as the live run prints them. Then flip a byte, and require
# verify → repair → verify to go dirty → fixed → clean.
chaos-smoke:
	rm -f target/chaos.store
	! cargo run --release -q -- --seed 7 --workers 1 crawl --out target/chaos.store --kill after-segment:100 2> /dev/null
	! cargo run --release -q -- store verify target/chaos.store > /dev/null
	cargo run --release -q -- --seed 7 --workers 1 crawl --out target/chaos.store --resume > /dev/null
	cargo run --release -q -- store verify target/chaos.store > /dev/null
	cargo run --release -q -- --seed 7 --workers 1 crawl --out target/chaos-uncut.store > /dev/null
	cmp target/chaos.store target/chaos-uncut.store
	cargo run --release -q -- --seed 7 --workers 4 crawl --out target/chaos-w4.store > /dev/null
	cmp target/chaos-w4.store target/chaos-uncut.store
	rm -f target/chaos-w4.store
	! cargo run --release -q -- --seed 7 --workers 4 crawl --out target/chaos-w4.store --kill after-segment:100 2> /dev/null
	cargo run --release -q -- --seed 7 --workers 4 crawl --out target/chaos-w4.store --resume > /dev/null
	cmp target/chaos-w4.store target/chaos-uncut.store
	cp target/chaos-uncut.store target/chaos-first.store
	cargo run --release -q -- --seed 7 --workers 1 crawl --out target/chaos-uncut.store > /dev/null
	cmp target/chaos-first.store target/chaos-uncut.store
	cargo run --release -q -- store repair target/chaos-uncut.store --out target/chaos-uncut.store > /dev/null
	cargo run --release -q -- store verify target/chaos-uncut.store > /dev/null
	cargo run --release -q -- --seed 7 tables > target/chaos-live.txt
	cargo run --release -q -- --from target/chaos-uncut.store tables > target/chaos-replay.txt
	cmp target/chaos-live.txt target/chaos-replay.txt
	cargo run --release -q --example corrupt_store target/chaos.store target/chaos-corrupt.store
	! cargo run --release -q -- store verify target/chaos-corrupt.store > /dev/null
	cargo run --release -q -- store repair target/chaos-corrupt.store > /dev/null
	cargo run --release -q -- store verify target/chaos-corrupt.store > /dev/null

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

fmt-check:
	cargo fmt --all --check
