GO ?= go

.PHONY: all build test vet race check bench fuzz-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole suite under the race detector. It covers every
# package, so there is no per-subsystem gate: the streaming, durability,
# planner, twig, event-journal and service suites, the event-schema
# check (obs.TestEventSchema), the exposition lint
# (obs.TestEngineExpositionLints) and the traced-query exactness check
# (cmd/timber.TestCLI) all run here. The few tests that skip under
# -race (the twig allocation ceiling) run in plain `make test`.
race:
	$(GO) test -race ./...

# check is the full gate: static analysis, the whole suite under the
# race detector, and a short fuzz pass over every parser and codec.
check: vet race fuzz-smoke

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# fuzz-smoke runs each native fuzz target briefly — enough to catch
# parser panics on the corpus plus a short random exploration. The
# storage and exec targets cover the compressed on-disk codecs
# (posting blocks, compact records, LZ pages, spill rows).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/xq/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTree$$' -fuzztime 5s ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz '^FuzzPostingBlock$$' -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzRecordCompact$$' -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzSpillRow$$' -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz '^FuzzLZDecompress$$' -fuzztime 5s ./internal/pagestore/
	$(GO) test -run '^$$' -fuzz '^FuzzTwigMatch$$' -fuzztime 5s ./internal/match/
