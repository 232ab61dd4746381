GO ?= go

# Packages with concurrent live-cluster paths; kept race-clean.
RACE_PKGS = ./internal/httpd/... ./internal/httpmsg/... ./internal/loadd/... ./internal/live/... ./internal/retry/... ./internal/metrics/... ./internal/monitor/... ./internal/cache/... ./internal/flight/... ./internal/slo/... ./internal/heat/... ./internal/rebalance/... ./internal/observe/...

.PHONY: build test vet race stress fmt-check check bench bench-compare

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
stress:
	$(GO) test -count=20 ./internal/httpd/ ./internal/live/

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
