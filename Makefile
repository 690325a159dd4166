# Build/test entry points. `make race` is the tier the concurrency layer
# is developed against: the parallel sketching and clustering paths must
# stay race-clean, and several tests (internal/fft, internal/stable,
# internal/parallel) exist specifically to put shared caches under
# concurrent load for the race detector.

GO       ?= go
FUZZTIME ?= 15s

.PHONY: build test race bench bench-json bench-smoke fuzz fuzz-smoke vet staticcheck fsck-demo serve-demo ingest-demo mmap-demo replay-smoke shard-demo handoff-demo all

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package — required to stay clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips with a note when the binary is not
# installed (CI installs it; locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Benchmarks; -cpu exercises the parallel paths at several core budgets
# (workers default to GOMAXPROCS, which -cpu sets).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' -cpu 1,4,8 .

# Machine-readable before/after report: the frequency-domain engine
# (pool construction, AllPositions, CrossCorrelate — old vs planned),
# incremental pool maintenance (Pool.Append vs full rebuild), the
# progressive nearest-tile scan (full vs exact-margin vs pruned), the
# batched query path (one POST vs 64 GETs + kernel allocs/item), and an
# embedded open-loop replay run.
bench-json:
	$(GO) run ./cmd/tabmine-bench -out BENCH_10.json

# CI-friendly slice of bench-json: just the nearest suite at the
# smallest grid, as a smoke test that the progressive scan keeps
# perfect recall and produces a report at all (thresholds are not
# asserted at this size — coordinate economy needs the big grids).
bench-smoke:
	$(GO) run ./cmd/tabmine-bench -suite nearest -tiles 64 -out /tmp/bench-smoke.json
	grep -q '"recall": 1' /tmp/bench-smoke.json

# Short fuzzing pass over every fuzz target (each target needs its own
# invocation; the seed corpora also run under plain `make test`).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPoolSketchRect -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzPlanCorrelateAgainstNaive -fuzztime=$(FUZZTIME) ./internal/fft
	$(GO) test -run='^$$' -fuzz=FuzzSelectAgainstSort -fuzztime=$(FUZZTIME) ./internal/quantile
	$(GO) test -run='^$$' -fuzz=FuzzMedianAndQuantileAgainstSort -fuzztime=$(FUZZTIME) ./internal/quantile
	$(GO) test -run='^$$' -fuzz=FuzzRead$$ -fuzztime=$(FUZZTIME) ./internal/tabfile
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/tabfile
	$(GO) test -run='^$$' -fuzz=FuzzLoadPool -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLoadPlaneSet -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzOpen -fuzztime=$(FUZZTIME) ./internal/tabstore
	$(GO) test -run='^$$' -fuzz=FuzzIngestRecord -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz=FuzzProgressiveNearest -fuzztime=$(FUZZTIME) ./internal/prune
	$(GO) test -run='^$$' -fuzz=FuzzBatchRequest -fuzztime=$(FUZZTIME) ./internal/server

# The same fuzz pass at CI-friendly duration — a smoke test that the
# corrupt-input hardening (snapshot loaders, store manifest, tabfile
# readers) holds against fresh inputs, not just the checked-in corpora.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# End-to-end smoke of the replay harness: serve a small snapshot, drive
# 2000 zipf-skewed queries through the batch path open-loop, and
# require a nonzero served count plus a populated latency histogram in
# the report (the exact shed/degraded split is timing-dependent and
# deliberately not asserted).
replay-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/replay" ./cmd/tabmine-replay; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 64 -seed 7 -o "$$d/t.tabf"; \
	"$$d/serve" -table "$$d/t.tabf" -addr 127.0.0.1:0 -addr-file "$$d/addr" \
		-k 64 -max-log 3 -tile-rows 8 -tile-cols 8 -clusters 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo 'ERROR: server never published its address'; kill $$pid; exit 1; }; \
	"$$d/replay" -server "http://$$(cat "$$d/addr")" -n 2000 -rate 4000 -batch 16 \
		-op nearest -mode auto -seed 7 -out "$$d/replay.json"; \
	if grep -q '"served": 0,' "$$d/replay.json"; then \
		echo 'ERROR: replay served nothing'; kill $$pid; exit 1; fi; \
	grep -q '"up_to_ms"' "$$d/replay.json"; \
	grep -q '"p99_ms"' "$$d/replay.json"; \
	kill -TERM $$pid; wait $$pid; \
	echo 'replay-smoke OK'

# End-to-end chaos drill of sharded serving: three tabmine-serve shards
# over column bands of one table, a tabmine-coord fanning queries out
# over them, and a mixed-op replay through the coordinator. Then a
# SIGKILL of the middle shard mid-fleet: replay answers must degrade to
# honestly TAGGED partials (plus clean 503s for queries owned by the
# dead band) — never silently wrong. Restarting the shard on its old
# port must re-admit it through probation and the final replay must be
# fully clean again.
shard-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"; kill $$s0 $$s1 $$s2 $$cp 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/coord" ./cmd/tabmine-coord; \
	$(GO) build -o "$$d/replay" ./cmd/tabmine-replay; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 32 -cols 96 -seed 11 -o "$$d/t.tabf"; \
	shard() { exec "$$d/serve" -table "$$d/t.tabf" -cols "$$1" -addr "$$2" -addr-file "$$3" \
		-k 64 -max-log 3 -tile-rows 8 -tile-cols 8 -clusters 3 -seed 5; }; \
	shard 0:32  127.0.0.1:0 "$$d/a0" & s0=$$!; \
	shard 32:64 127.0.0.1:0 "$$d/a1" & s1=$$!; \
	shard 64:96 127.0.0.1:0 "$$d/a2" & s2=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/a0" ] && [ -s "$$d/a1" ] && [ -s "$$d/a2" ] && break; sleep 0.1; done; \
	[ -s "$$d/a2" ] || { echo 'ERROR: shards never published their addresses'; exit 1; }; \
	"$$d/coord" -shards "http://$$(cat "$$d/a0"),http://$$(cat "$$d/a1"),http://$$(cat "$$d/a2")" \
		-addr 127.0.0.1:0 -addr-file "$$d/ac" -probe-interval 100ms 2>"$$d/coord.log" & cp=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/ac" ] && break; sleep 0.1; done; \
	[ -s "$$d/ac" ] || { echo 'ERROR: coordinator never published its address'; exit 1; }; \
	co="http://$$(cat "$$d/ac")"; \
	for i in $$(seq 1 100); do curl -fsS "$$co/readyz" >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet never became ready'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- mixed-op replay through a healthy fleet (must be clean):'; \
	"$$d/replay" -server "$$co" -scenario internal/replay/testdata/mixed-coord.json -out "$$d/r1.json"; \
	grep -q '"partial": 0,' "$$d/r1.json" || { echo 'ERROR: healthy fleet produced partial answers'; exit 1; }; \
	if grep -q '"served": 0,' "$$d/r1.json"; then echo 'ERROR: healthy replay served nothing'; exit 1; fi; \
	echo '--- SIGKILL the middle shard (cols 32..64), replay again:'; \
	kill -9 $$s1; wait $$s1 2>/dev/null || true; \
	sleep 1; \
	"$$d/replay" -server "$$co" -scenario internal/replay/testdata/mixed-coord.json -out "$$d/r2.json"; \
	grep -q '"partial": 0,' "$$d/r2.json" && { echo 'ERROR: no partial answers with a dead shard'; exit 1; }; \
	grep -q 'healthy -> dead' "$$d/coord.log" || { echo 'ERROR: coordinator never ejected the dead shard'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- restart the shard on its old port, expect probation re-admission:'; \
	shard 32:64 "$$(cat "$$d/a1")" "$$d/a1b" & s1=$$!; \
	for i in $$(seq 1 200); do grep -q 'probation -> healthy' "$$d/coord.log" && break; sleep 0.1; done; \
	grep -q 'dead -> probation' "$$d/coord.log" || { echo 'ERROR: no probation transition logged'; cat "$$d/coord.log"; exit 1; }; \
	grep -q 'probation -> healthy' "$$d/coord.log" || { echo 'ERROR: no re-admission logged'; cat "$$d/coord.log"; exit 1; }; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet never recovered'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- replay through the recovered fleet (must be clean again):'; \
	"$$d/replay" -server "$$co" -scenario internal/replay/testdata/mixed-coord.json -out "$$d/r3.json"; \
	grep -q '"partial": 0,' "$$d/r3.json" || { echo 'ERROR: recovered fleet still partial'; exit 1; }; \
	if grep -q '"served": 0,' "$$d/r3.json"; then echo 'ERROR: recovered replay served nothing'; exit 1; fi; \
	kill -TERM $$cp; wait $$cp; \
	kill -TERM $$s0 $$s1 $$s2; wait $$s0 $$s1 $$s2; \
	echo 'shard-demo OK'

# Live shard handoff end to end: three shards + coordinator (fed by a
# -shards-file), then — under a continuous mixed-op replay — a
# replacement process for the middle band is registered through the
# admin surface, earns traffic through probation, and the old owner is
# retired via SIGHUP reconcile (fence, background drain, deregister).
# The replay spanning the cutover must stay fully clean (zero partials,
# zero hard errors) and must have observed the shard-map epoch advance.
handoff-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"; kill $$s0 $$s1 $$s1b $$s2 $$cp 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/coord" ./cmd/tabmine-coord; \
	$(GO) build -o "$$d/replay" ./cmd/tabmine-replay; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 32 -cols 96 -seed 11 -o "$$d/t.tabf"; \
	shard() { exec "$$d/serve" -table "$$d/t.tabf" -cols "$$1" -addr "$$2" -addr-file "$$3" \
		-k 64 -max-log 3 -tile-rows 8 -tile-cols 8 -clusters 3 -seed 5; }; \
	shard 0:32  127.0.0.1:0 "$$d/a0" & s0=$$!; \
	shard 32:64 127.0.0.1:0 "$$d/a1" & s1=$$!; \
	shard 64:96 127.0.0.1:0 "$$d/a2" & s2=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/a0" ] && [ -s "$$d/a1" ] && [ -s "$$d/a2" ] && break; sleep 0.1; done; \
	[ -s "$$d/a2" ] || { echo 'ERROR: shards never published their addresses'; exit 1; }; \
	printf 'http://%s\nhttp://%s\nhttp://%s\n' "$$(cat "$$d/a0")" "$$(cat "$$d/a1")" "$$(cat "$$d/a2")" >"$$d/shards.txt"; \
	"$$d/coord" -shards-file "$$d/shards.txt" -addr 127.0.0.1:0 -addr-file "$$d/ac" \
		-probe-interval 100ms -probe-jitter-seed 1 2>"$$d/coord.log" & cp=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/ac" ] && break; sleep 0.1; done; \
	[ -s "$$d/ac" ] || { echo 'ERROR: coordinator never published its address'; exit 1; }; \
	co="http://$$(cat "$$d/ac")"; \
	for i in $$(seq 1 100); do curl -fsS "$$co/readyz" >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet never became ready'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- replay through the cutover (must stay clean, must see the epoch move):'; \
	"$$d/replay" -server "$$co" -scenario internal/replay/testdata/mixed-coord.json \
		-n 4000 -rate 250 -out "$$d/replay.json" & rp=$$!; \
	echo '--- register a replacement for cols 32..64 via the admin surface:'; \
	shard 32:64 127.0.0.1:0 "$$d/a1b" & s1b=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/a1b" ] && break; sleep 0.1; done; \
	[ -s "$$d/a1b" ] || { echo 'ERROR: replacement never published its address'; exit 1; }; \
	curl -fsS -X POST "$$co/admin/register" --data "endpoint=http://$$(cat "$$d/a1b")" \
		| grep -q '"registered"' || { echo 'ERROR: admin register failed'; cat "$$d/coord.log"; exit 1; }; \
	for i in $$(seq 1 200); do grep -q 'probation -> healthy' "$$d/coord.log" && break; sleep 0.1; done; \
	grep -q 'probation -> healthy' "$$d/coord.log" || { echo 'ERROR: replacement never earned traffic'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- retire the old owner via SIGHUP reconcile of the shards file:'; \
	printf 'http://%s\nhttp://%s\nhttp://%s\n' "$$(cat "$$d/a0")" "$$(cat "$$d/a1b")" "$$(cat "$$d/a2")" >"$$d/shards.txt"; \
	kill -HUP $$cp; \
	for i in $$(seq 1 200); do grep -q 'deregistered endpoint' "$$d/coord.log" && break; sleep 0.1; done; \
	grep -q 'SIGHUP: shard list re-read' "$$d/coord.log" || { echo 'ERROR: SIGHUP reconcile never ran'; cat "$$d/coord.log"; exit 1; }; \
	grep -q 'deregistered endpoint' "$$d/coord.log" || { echo 'ERROR: old owner never deregistered'; cat "$$d/coord.log"; exit 1; }; \
	kill -TERM $$s1; wait $$s1 2>/dev/null || true; \
	wait $$rp || { echo 'ERROR: replay failed'; cat "$$d/coord.log"; exit 1; }; \
	if grep -q '"served": 0,' "$$d/replay.json"; then echo 'ERROR: replay served nothing'; exit 1; fi; \
	grep -q '"partial": 0,' "$$d/replay.json" || { echo 'ERROR: handoff produced partial answers'; cat "$$d/replay.json"; exit 1; }; \
	grep -q '"errors": 0,' "$$d/replay.json" || { echo 'ERROR: handoff produced hard errors'; cat "$$d/replay.json"; exit 1; }; \
	if grep -q '"epoch_changes": 0' "$$d/replay.json"; then \
		echo 'ERROR: replay never saw the epoch advance'; cat "$$d/replay.json"; exit 1; fi; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet not ready after handoff'; cat "$$d/coord.log"; exit 1; }; \
	kill -TERM $$cp; wait $$cp; \
	kill -TERM $$s0 $$s1b $$s2; wait $$s0 $$s1b $$s2; \
	echo 'handoff-demo OK'

# Demonstrates the store's corruption handling end to end: build a
# two-day store, flip bytes in one day file, watch fsck quarantine it
# (exit 1), then verify the repaired store passes (exit 0).
fsck-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/tabmine-gendata -kind callvolume -stations 60 -seed 1 -o "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-gendata -kind callvolume -stations 60 -seed 2 -o "$$d/day1.tabf"; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" init; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" append -label mon -in "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" append -label tue -in "$$d/day1.tabf"; \
	printf '\336\255\276\357' | dd of="$$d/store/day-0000.tabf" bs=1 seek=64 conv=notrunc status=none; \
	echo '--- fsck on a corrupted store (must detect and repair):'; \
	if $(GO) run ./cmd/tabmine-store -dir "$$d/store" fsck; then \
		echo 'ERROR: fsck missed the corruption'; exit 1; \
	fi; \
	echo '--- fsck after repair (must be clean):'; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" fsck

# End-to-end drill of the resilient query service: start tabmine-serve
# on a random port with an aggressive degradation threshold, answer an
# exact query, watch an auto query degrade to the sketch tier, then
# SIGTERM the server and require a clean drain (exit 0).
serve-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/query" ./cmd/tabmine-query; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 64 -seed 7 -o "$$d/t.tabf"; \
	"$$d/serve" -table "$$d/t.tabf" -addr 127.0.0.1:0 -addr-file "$$d/addr" \
		-k 64 -max-log 3 -tile-rows 8 -tile-cols 8 -clusters 4 -degrade-at 0.01 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo 'ERROR: server never published its address'; kill $$pid; exit 1; }; \
	srv="http://$$(cat "$$d/addr")"; \
	echo '--- exact query:'; \
	out=$$("$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 16,16,8,8 -mode exact); \
	echo "$$out"; echo "$$out" | grep -q '"tier":"exact"'; \
	echo '--- auto query (must degrade to the sketch tier under load):'; \
	out=$$("$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 16,16,8,8 -mode auto); \
	echo "$$out"; echo "$$out" | grep -q '"tier":"sketch"'; echo "$$out" | grep -q '"degraded":true'; \
	echo '--- nearest + assign + health:'; \
	"$$d/query" -server "$$srv" -op nearest -q 8,8,8,8 -mode sketch; \
	"$$d/query" -server "$$srv" -op assign -q 8,8,8,8; \
	"$$d/query" -server "$$srv" -op health; \
	echo '--- SIGTERM, expecting a clean drain (exit 0):'; \
	kill -TERM $$pid; wait $$pid; \
	echo 'serve-demo OK'

# End-to-end drill of streaming ingestion: seed a two-day store, serve
# it, push a third day over HTTP (tabmine-ingest -> POST /v1/ingest),
# watch the snapshot republish live with no SIGHUP, then restart the
# server and require the pool to resume from its persisted segments and
# the store (both servers must drain cleanly on SIGTERM).
ingest-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/push" ./cmd/tabmine-ingest; \
	$(GO) build -o "$$d/query" ./cmd/tabmine-query; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 16 -seed 1 -o "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 16 -seed 2 -o "$$d/day1.tabf"; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" init; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" append -label d00 -in "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" append -label d01 -in "$$d/day1.tabf"; \
	"$$d/serve" -store "$$d/store" -addr 127.0.0.1:0 -addr-file "$$d/addr" \
		-k 64 -tile-rows 8 -tile-cols 8 -clusters 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo 'ERROR: server never published its address'; kill $$pid; exit 1; }; \
	srv="http://$$(cat "$$d/addr")"; \
	echo '--- health before the push (32 columns; store mode boots not-ready,'; \
	echo '    building its first snapshot in the background, so poll):'; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":32' && break; sleep 0.1; done; \
	"$$d/query" -server "$$srv" -op health | grep -q '"cols":32'; \
	echo '--- pushing one day over HTTP:'; \
	"$$d/push" -addr "$$srv" -label d02 -random 64x16 -seed 9; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":48' && break; sleep 0.1; done; \
	"$$d/query" -server "$$srv" -op health | grep -q '"cols":48'; \
	echo '--- snapshot republished live (48 columns, no SIGHUP):'; \
	"$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 0,40,8,8 -mode exact; \
	echo '--- restart: the pool must resume from its segments and the store:'; \
	kill -TERM $$pid; wait $$pid; \
	"$$d/serve" -store "$$d/store" -addr 127.0.0.1:0 -addr-file "$$d/addr2" \
		-k 64 -tile-rows 8 -tile-cols 8 -clusters 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr2" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr2" ] || { echo 'ERROR: restarted server never published its address'; kill $$pid; exit 1; }; \
	srv="http://$$(cat "$$d/addr2")"; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":48' && break; sleep 0.1; done; \
	"$$d/query" -server "$$srv" -op health | grep -q '"cols":48'; \
	kill -TERM $$pid; wait $$pid; \
	echo 'ingest-demo OK'

# Robustness drill of segment-backed store serving (tabmine-serve -store):
# ingest days so the sealed pool prefix lands in mmap segment files,
# record reference answers, SIGKILL the server mid-flight, restart it,
# and require (a) the first health after restart within seconds — the
# pool maps segments instead of replaying days, and /debug/vars must
# report tabmine_seg_restart_replay_days 0 — and (b) every recorded
# query answering byte-identically to its pre-kill reference. Also
# checks the segments listing and that fsck covers the segment files.
mmap-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"; kill -9 $$pid 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/push" ./cmd/tabmine-ingest; \
	$(GO) build -o "$$d/query" ./cmd/tabmine-query; \
	$(GO) build -o "$$d/store" ./cmd/tabmine-store; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 16 -seed 1 -o "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 16 -seed 2 -o "$$d/day1.tabf"; \
	"$$d/store" -dir "$$d/st" init; \
	"$$d/store" -dir "$$d/st" append -label d00 -in "$$d/day0.tabf"; \
	"$$d/store" -dir "$$d/st" append -label d01 -in "$$d/day1.tabf"; \
	"$$d/serve" -store "$$d/st" -panel-cols 16 -addr 127.0.0.1:0 -addr-file "$$d/addr" \
		-k 64 -tile-rows 8 -tile-cols 8 -clusters 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo 'ERROR: server never published its address'; exit 1; }; \
	srv="http://$$(cat "$$d/addr")"; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":32' && break; sleep 0.1; done; \
	echo '--- pushing two more days so maintenance seals segments:'; \
	"$$d/push" -addr "$$srv" -label d02 -random 64x16 -seed 9; \
	"$$d/push" -addr "$$srv" -label d03 -random 64x16 -seed 10; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":64' && break; sleep 0.1; done; \
	"$$d/query" -server "$$srv" -op health | grep -q '"cols":64'; \
	echo '--- segment listing (sealed files must exist and pass CRC):'; \
	"$$d/store" -dir "$$d/st" segments | tee "$$d/seglist"; \
	grep -q 'CRC ok' "$$d/seglist"; \
	echo '--- reference answers over the sealed (mmap-backed) prefix:'; \
	"$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 8,8,8,8 -mode sketch >"$$d/ref1"; \
	"$$d/query" -server "$$srv" -op distance -a 0,16,8,8 -b 8,40,8,8 -mode sketch >"$$d/ref2"; \
	"$$d/query" -server "$$srv" -op nearest -q 4,4,8,8 -mode sketch >"$$d/ref3"; \
	echo '--- SIGKILL, then restart over the same store:'; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	"$$d/serve" -store "$$d/st" -panel-cols 16 -addr 127.0.0.1:0 -addr-file "$$d/addr2" \
		-k 64 -tile-rows 8 -tile-cols 8 -clusters 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr2" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr2" ] || { echo 'ERROR: restarted server never published its address'; exit 1; }; \
	srv="http://$$(cat "$$d/addr2")"; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":64' && break; sleep 0.1; done; \
	"$$d/query" -server "$$srv" -op health | grep -q '"cols":64'; \
	echo '--- restart must have replayed zero days (segments mapped, fringe rebuilt):'; \
	curl -fsS "$$srv/debug/vars" | grep -q '"tabmine_seg_restart_replay_days": 0' \
		|| { echo 'ERROR: restart replayed days'; curl -fsS "$$srv/debug/vars" | grep replay; exit 1; }; \
	echo '--- answers after the kill must equal the references byte-for-byte:'; \
	"$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 8,8,8,8 -mode sketch >"$$d/got1"; \
	"$$d/query" -server "$$srv" -op distance -a 0,16,8,8 -b 8,40,8,8 -mode sketch >"$$d/got2"; \
	"$$d/query" -server "$$srv" -op nearest -q 4,4,8,8 -mode sketch >"$$d/got3"; \
	diff "$$d/ref1" "$$d/got1"; diff "$$d/ref2" "$$d/got2"; diff "$$d/ref3" "$$d/got3"; \
	echo '--- fsck covers the segment files too:'; \
	"$$d/store" -dir "$$d/st" fsck | grep -q 'checked .* segments'; \
	kill -TERM $$pid; wait $$pid; \
	echo 'mmap-demo OK'
