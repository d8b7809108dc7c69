package exec

import (
	"context"

	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/par"
)

// Options carries the run-time knobs of one execution: how wide the
// worker pools fan out, whether the run is traced, and the context
// that can cancel it. The zero value is a valid default — every core,
// untraced, never cancelled. Options deliberately lives outside Spec:
// a Spec describes *what* the query computes (and is cached by the
// engine's plan cache), while Options describes *how one run* of it
// behaves.
type Options struct {
	// Parallelism bounds the worker pools the executors use for their
	// hot phases: the groupby exchange's posting scans and member-range
	// fragments (a large document runs as several fragments), output
	// materialization, per-document structural joins. 0 means
	// GOMAXPROCS; 1 forces the sequential path. Any setting produces
	// byte-identical results — the fragments are cut by the data, not
	// by the worker count, and partial results merge in document order.
	Parallelism int
	// Tracer, when non-nil, records one span per operator phase of the
	// execution (EXPLAIN ANALYZE style). Executors create and end spans
	// only on the orchestrating goroutine — worker pools never touch
	// the tracer — and a nil Tracer reduces every span operation to a
	// nil check, so results are byte-identical with tracing on or off.
	// The executors only write spans: the tracer's owner (the engine,
	// for queries run through it) finishes it and decides where the
	// tree goes — metrics, flight records, the slow log, EXPLAIN.
	Tracer *obs.Tracer
	// Ctx, when non-nil, cancels the execution: executors check it at
	// phase boundaries and inside their record-fetch loops (including
	// mid-chunk inside worker pools), so a timed-out query stops
	// issuing buffer-pool fetches promptly. A cancelled run returns
	// ctx.Err() and no result. Nil means "never cancelled".
	Ctx context.Context
	// BatchSize is the rows-per-batch capacity of the streaming
	// executor's identifier batches. 0 means the package default (256).
	// Any setting produces byte-identical results — batch boundaries
	// never change row order.
	BatchSize int
	// SortMemRows bounds the streaming GROUPBY sort's in-memory buffer:
	// when more rows than this accumulate, the buffer is sorted and
	// spilled as a run through the storage spool (temporary pages that
	// compete with base data in the buffer pool), and the output is a
	// k-way merge over the runs. 0 means never spill. Any setting
	// produces byte-identical results — the sort comparator is a total
	// order.
	SortMemRows int
	// MaxMaterializeBytes, when positive, caps the bytes of output
	// content the late-materialize sink may fetch; a run that exceeds
	// it fails with ErrMaterializeLimit and returns no partial output.
	// 0 means unlimited.
	MaxMaterializeBytes int64
	// Matcher selects the pattern-matching algorithm the physical
	// plan's indexed leaf selections run (match.MatcherBinary cascaded
	// structural joins, match.MatcherTwig holistic twig join). The zero
	// value, match.MatcherAuto, resolves through match.Resolve —
	// holistic when every pattern node is tagged, binary otherwise.
	// Any setting produces byte-identical results; only the index access
	// pattern changes. Spec-level strategies do their own scans and
	// ignore it.
	Matcher match.MatcherKind
}

// trace starts a top-level executor span (no-op when untraced).
func (o Options) trace(name string) *obs.Span { return o.Tracer.Start(name) }

// workers resolves the parallelism knob to a worker count.
func (o Options) workers() int { return par.Workers(o.Parallelism) }

// err reports the options context's cancellation state without
// blocking; a nil context never cancels.
func (o Options) err() error { return ctxErr(o.Ctx) }

// ctxErr is the non-blocking cancellation probe the sequential hot
// loops use between record fetches.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
