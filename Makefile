GO ?= go

# Packages with concurrent live-cluster paths; kept race-clean.
RACE_PKGS = ./internal/httpd/... ./internal/httpmsg/... ./internal/loadd/... ./internal/live/... ./internal/retry/... ./internal/metrics/... ./internal/monitor/... ./internal/cache/... ./internal/flight/... ./internal/slo/... ./internal/heat/... ./internal/rebalance/... ./internal/observe/... ./internal/accesslog/...

.PHONY: build test vet race stress fmt-check check bench bench-compare sim-ref

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The live packages' tests read bookkeeping a server does after the
# response flush; twenty back-to-back runs catch any test that races it.
# httpmsg rides along: its client transport carries every substrate's
# client traffic.
stress:
	$(GO) test -count=20 ./internal/httpd/ ./internal/live/ ./internal/httpmsg/

# gofmt prints nothing when everything is formatted; any output fails.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The CI gate: tier-1 build+test plus vet, formatting, the race pass over
# the concurrent packages, and the stress loop over the live packages.
check: build vet fmt-check test race stress

# Regenerate the paper's evaluation on the simulated substrate and archive
# the headline metrics machine-readably. -benchtime=1x pins one DES run per
# benchmark, so the seeded headline metrics are reproducible and comparable.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem . | $(GO) run ./cmd/benchjson > BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# Diff a fresh run against the committed baseline; fails on any headline
# metric regressing more than 20%.
bench-compare:
	$(GO) test -run '^$$' -bench=. -benchtime=1x . | $(GO) run ./cmd/benchjson -compare BENCH_sim.json

# The DES exactness gate. perfbench exits 0 even when the simulator drifts,
# so read its verdict: the sim-table1 ladder for seeds 0-2 must reproduce
# perfbench/sim_reference.json ("correct":true) with no failed rung.
sim-ref:
	@for s in 0 1 2; do \
		line="$$(bash perfbench/run.sh --workload sim-table1 --seed $$s --seconds 1 --trace 0 | tail -n 1)"; \
		echo "seed $$s: $$line"; \
		case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; \
		*) echo "sim-ref: seed $$s does not reproduce the reference"; exit 1 ;; esac; \
	done
