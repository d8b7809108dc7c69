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
# twig, event-journal and service suites, the event-schema
# check (obs.TestEventSchema), the exposition lint
# (obs.TestEngineExpositionLints) and the traced-query exactness check
# (cmd/timber.TestCLI) all run here. The few checks that skip under
# -race (the twig and serializer allocation ceilings, the pool's
# drop-and-refetch allocation ceiling) run in plain `make test`.
race:
	$(GO) test -race ./...

# check is the full gate: static analysis, the whole suite under the
# race detector, and a short fuzz pass over every parser and codec.
check: vet race fuzz-smoke

# bench runs every benchmark of the module once — the root experiment
# benchmarks and each layer's (btree, storage, exec, pagestore, wal,
# match, ...) — so a benchmark that fails at run time fails the target.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# fuzz-smoke runs every native fuzz target briefly — enough to catch
# parser panics on the corpus plus a short random exploration. The
# storage, exec and pagestore targets cover the compressed on-disk
# codecs (posting blocks, compact records, spill rows, and LZ pages:
# decompression of arbitrary bytes and the compress/decompress round
# trip); the btree target checks batch inserts against a map model,
# the value-range target checks the grouping values' sorted scan
# against the tag postings' heap contents, and the group-sort target
# checks the counting sort over grouping-value ranks against a
# comparison sort.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/xq/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTree$$' -fuzztime 5s ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz '^FuzzInsertSorted$$' -fuzztime 5s ./internal/btree/
	$(GO) test -run '^$$' -fuzz '^FuzzPostingBlock$$' -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzRecordCompact$$' -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzValueRange$$' -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzSpillRow$$' -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz '^FuzzGroupSortOrder$$' -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz '^FuzzLZDecompress$$' -fuzztime 5s ./internal/pagestore/
	$(GO) test -run '^$$' -fuzz '^FuzzLZRoundTrip$$' -fuzztime 5s ./internal/pagestore/
	$(GO) test -run '^$$' -fuzz '^FuzzTwigMatch$$' -fuzztime 5s ./internal/match/
