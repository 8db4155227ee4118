// Package controld is the response module's planning-as-a-service
// control plane: a long-running daemon that hosts many independent
// REsPoNse control loops — tenants — in one process and exposes their
// full lifecycle over a REST/JSON management API.
//
// Each tenant is a planned topology (built-in, generated, or inline
// JSON) with a managed-flow diurnal replay, a traffic-engineering
// controller and a plan lifecycle manager, owned by a single loop
// goroutine. The daemon adds the multi-tenant machinery around them:
//
//   - a tenant registry with per-tenant command serialization,
//   - a bounded plan-job scheduler with round-robin fair queueing
//     across tenants (cancellation threads a context into
//     Planner.Plan, so a canceled job unwinds with ErrCanceled),
//   - a content-addressed plan-artifact store per tenant with bounded
//     retention — the promoted artifact, the last-known-good rollback
//     target and anything mid-promote are never collected — and
//     plan-to-plan structural diffing (response.DiffPlans),
//   - promote/rollback driving the tenant's lifecycle.Manager through
//     the same stage gates and zero-disruption hot swap a
//     deviation-triggered replan uses,
//   - a live event stream (SSE or NDJSON long-poll) multiplexing
//     every tenant's JSONL trace,
//   - an embedded trace store (response/tracestore) subscribed to the
//     same hub, serving the progressive-disclosure incident queries
//     (windows → summary → critical-path → events) per tenant,
//   - per-tenant runtime metrics and a Prometheus /metrics page, and
//   - hot config patches: PATCH validates the merged lifecycle policy
//     before any of it is applied, so a bad patch changes nothing.
//
// See DESIGN.md §9 for the API table and the concurrency argument, and
// §11 for the observability stack.
package controld

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"response"
	"response/internal/metrics"
	"response/internal/tracestore"
	"response/internal/traffic"
)

// Opts parameterizes a Server.
type Opts struct {
	// Workers bounds concurrently running plan jobs (default 4).
	Workers int
	// MaxArtifacts bounds each tenant's artifact shelf (default 8,
	// floor 3: promoted + last-known-good + one candidate).
	MaxArtifacts int
	// PlanHook, when set, replaces the real planner for plan jobs —
	// a test seam for exercising cancellation and failure paths
	// deterministically.
	PlanHook func(ctx context.Context, tenant string) (*response.Plan, error)
}

func (o *Opts) defaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxArtifacts < 3 {
		if o.MaxArtifacts != 0 {
			o.MaxArtifacts = 3
		} else {
			o.MaxArtifacts = 8
		}
	}
}

// Server is the control-plane daemon: registry, scheduler, event hub
// and the HTTP API over them. Create one with New, mount Handler on
// an http.Server, and Drain it for a graceful shutdown.
type Server struct {
	opts  Opts
	reg   *registry
	sched *scheduler
	hub   *hub
	store *tracestore.Store
	mux   *http.ServeMux

	// ingestDone closes when the trace-store ingest goroutine has
	// drained its subscription (after hub.close).
	ingestDone chan struct{}

	// Event lines lost to a full subscriber buffer, by consumer: the
	// trace store's feed (incident queries over that span are
	// incomplete) and the API event streams.
	feedDropped, streamDropped metrics.Counter

	draining  atomic.Bool
	drainOnce sync.Once
}

// New builds a Server.
func New(opts Opts) *Server {
	opts.defaults()
	s := &Server{
		opts:       opts,
		reg:        newRegistry(),
		hub:        newHub(),
		store:      tracestore.New(tracestore.Opts{}), // 1Mi events, 4096 windows per tenant, 900 s windows
		mux:        http.NewServeMux(),
		ingestDone: make(chan struct{}),
	}
	s.sched = newScheduler(opts.Workers, s.runPlanJob)
	// The trace store is just another hub subscriber, behind a deep
	// buffer: a query burst can slow ingestion (dropped lines are the
	// same back-pressure answer every subscriber gets, counted on
	// /metrics), but it can never stall a tenant loop.
	sub := s.hub.subscribe("", 4096, &s.feedDropped)
	go func() {
		defer close(s.ingestDone)
		for line := range sub.ch {
			s.store.IngestLine(line)
		}
	}()
	s.routes()
	return s
}

// TraceStore exposes the embedded trace store (the …/trace/* query
// backend) for in-process callers and tests.
func (s *Server) TraceStore() *tracestore.Store { return s.store }

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the daemon down: refuse new mutations,
// cancel every queued and running plan job, stop every tenant loop
// (each lifecycle manager stops on its own goroutine) and end every
// event stream. Idempotent; later calls return immediately.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.sched.shutdown()
		var wg sync.WaitGroup
		for _, t := range s.reg.all() {
			wg.Add(1)
			go func(t *tenant) {
				defer wg.Done()
				t.stop()
			}(t)
		}
		wg.Wait()
		s.hub.close()
		// The ingest goroutine drains its remaining buffer and exits, so
		// post-drain trace queries see every published event.
		<-s.ingestDone
	})
	return ctx.Err()
}

// Close is Drain with no deadline.
func (s *Server) Close() error { return s.Drain(context.Background()) }

// runPlanJob executes one plan job: snapshot the tenant's live demand
// on its loop goroutine, then plan (off-loop, cancellable) with the
// live matrix as d_low, and shelve the result as an artifact.
func (s *Server) runPlanJob(ctx context.Context, j *Job) (string, error) {
	t, ok := s.reg.get(j.Tenant)
	if !ok {
		return "", fmt.Errorf("controld: tenant %q deleted", j.Tenant)
	}
	var plan *response.Plan
	var err error
	if s.opts.PlanHook != nil {
		plan, err = s.opts.PlanHook(ctx, j.Tenant)
	} else {
		opts := []response.Option{}
		if j.WarmFrom != "" {
			// Resolve the warm-start digest strictly: a job that names a
			// seed gets that seed or fails, it never silently plans cold.
			raw, ok := t.store.get(j.WarmFrom)
			if !ok {
				return "", fmt.Errorf("controld: warm-start artifact %q not found", j.WarmFrom)
			}
			prev, rerr := response.ReadPlanFrom(bytes.NewReader(raw), t.topoGraph)
			if rerr != nil {
				return "", fmt.Errorf("controld: warm-start artifact %q: %w", j.WarmFrom, rerr)
			}
			opts = append(opts, response.WithWarmStartStrict(prev))
		}
		var live *traffic.Matrix
		if derr := t.do(func() { live = t.liveMatrixLocked() }); derr != nil {
			return "", derr
		}
		opts = append(opts, response.WithLowMatrix(live))
		plan, err = t.planner.Plan(ctx, t.topoGraph, opts...)
	}
	if err != nil {
		return "", err
	}
	raw, err := planBytes(plan)
	if err != nil {
		return "", err
	}
	return t.store.put(raw, plan.Fingerprint(), plan.Variant(), len(plan.Pairs()), "job:"+j.ID), nil
}
