// Package response is the public v1 API of a reproduction of
// "Identifying and Using Energy-Critical Paths" (Vasić et al., ACM
// CoNEXT 2011).
//
// REsPoNse precomputes a small number of energy-critical paths per
// origin-destination pair (always-on, on-demand, and failover routing
// tables), installs them once, and uses a lightweight online
// traffic-engineering loop to aggregate traffic on always-on paths when
// demand is low — letting large parts of the network sleep — and to
// activate on-demand paths when demand rises.
//
// # Planning
//
// A Planner is configured with functional options and produces a Plan:
//
//	plan, err := response.NewPlanner(
//	        response.WithPaths(3),
//	        response.WithMode(response.ModeStress),
//	).Plan(ctx, topology.NewGeant())
//
// Plan honors context cancellation (the optimal-subset restart pool
// selects on ctx and drains promptly) and classifies solver failures
// under the sentinel errors ErrCanceled, ErrInfeasible and
// ErrDelayBound; invalid configurations surface as plain errors before
// planning starts. Planning is deterministic: identical topology,
// options and seed yield bit-identical tables regardless of GOMAXPROCS.
//
// Nearly all of a plan's time is the feasibility router's load-aware
// shortest-path queries; they run one compiled kernel with no solver
// choice (DESIGN.md §3.1). WithPathEngine selects a certified-exact
// goal-directed solver for what remains — K-shortest and failover
// searches only — and never changes a plan (DESIGN.md §12).
//
// # Warm-started replanning
//
// Replans need not start from scratch: WithWarmStart(prev) seeds every
// subset-search stage from the corresponding stage of a previous plan
// and re-proves only the delta — a criticality-ordered descent under a
// power-regression gate (5% over the seed's power), falling back
// to the cold search whenever the seed is unusable, so warm-starting
// never changes what is plannable. With unchanged inputs the warm plan
// is fingerprint-identical to the cold plan in the capacity-slack
// regime and power-equal within the tolerance otherwise; on the k=14
// fat-tree this turns a ~28 s cold plan into a ~1.7 s replan. A prev
// from the wrong topology is silently ignored (or rejected with
// ErrWarmStartMismatch under WithWarmStartStrict). The lifecycle
// manager warm-starts deviation-triggered replans from the promoted
// plan automatically (lifecycle.WarmHint; disable via
// Policy.NoWarmStart), and controld plan jobs accept a warm_from
// artifact digest. See DESIGN.md §10.
//
// # Plan artifacts
//
// Plans are artifacts, not in-memory side effects: Plan.WriteTo
// serializes the installed tables in a versioned, self-describing
// format and ReadPlanFrom installs them in another process — the
// paper's compute-once-offline, never-recompute-online deployment
// model. An artifact is a fixed 40-byte binary header (magic
// "RESPLAN\n", big-endian format version, topology fingerprint, tables
// fingerprint, payload CRC-32, payload length) followed by a JSON body
// listing every pair's paths as arc-ID sequences; see artifact.go for
// the exact layout and the version policy. Readers verify magic,
// version, checksums and both fingerprints, and re-validate every path
// against the installing topology, so version skew returns
// ErrVersionSkew, a wrong topology returns ErrTopologyMismatch, and
// corruption returns ErrBadArtifact — never a panic. A round trip is
// byte-identical, and a loaded plan drives the online controller and
// the simulator exactly as the freshly computed one.
//
// # Plan lifecycle
//
// Plans are recomputed rarely but not never: the lifecycle manager
// behind simulate's scenarios and controld's tenants closes the loop
// online. It monitors live demand drift against the planned matrix with
// the paper's §3 deviation statistic, replans through the
// context-aware Planner — inline on the simulated clock, so a replay is
// pinned by its seed — when the configured trigger policy fires (a
// relative-deviation threshold, hysteresis and minimum interval: one
// policy struct the daemon speaks on the wire, validated wherever it
// enters), stages the result as a versioned plan
// artifact behind fingerprint and power gates, and hot-swaps the
// tables into a running simulate.Controller with zero traffic
// disruption — new levels install as fresh subflows, demand hands over
// only once the new always-on path forwards, and the old tables drain
// before retirement. See DESIGN.md §6.
//
// # Failure model and degraded mode
//
// The control loop is built to be broken: response/faultinject wraps
// the replan and artifact paths with seed-deterministic faults
// (errors, infeasibility, panics, blown deadlines, corrupt or
// truncated artifacts), and the lifecycle manager classifies every
// outcome, retries with decorrelated-jitter backoff, and after
// DegradedAfter consecutive failed cycles pins the all-on table — the
// paper's always-correct fallback made an explicit Degraded state,
// exited on the first successful cycle. On the network side, generated
// instances carry derived shared-risk link groups (pod fabrics, PoP
// bundles, geometric conduits) and the scenario catalog cuts whole
// groups with statistics-driven cascading failures behind them. See
// DESIGN.md §8.
//
// # Planning as a service
//
// response/controld hosts many independent REsPoNse control loops in
// one long-running daemon (binary: cmd/response-controld) behind a
// REST/JSON management API: register topologies as tenants, submit
// cancellable asynchronous plan jobs against the live demand snapshot,
// shelve results in a content-addressed artifact store with bounded
// retention, diff them with DiffPlans, promote and roll back through
// each tenant's lifecycle manager, patch trigger policies without a
// restart (create, patch and status share lifecycle.Policy's keys and
// its validation: a spec a patch would refuse is refused at
// registration, before anything is built), and stream every tenant's
// event trace. See DESIGN.md §9.
//
// # Observability
//
// The runtime's JSONL event traces are queryable, not just recordable:
// response/tracestore ingests them (files, stdin, or controld's live
// hub) into an indexed, bounded-memory store serving
// progressive-disclosure incident queries — search severity-classified
// windows, drill into one window's per-link summary, rank the window's
// links by energy-criticality (the planner's HITS kernel over the
// event→link incidence, seeded with utilization at failure time), and
// only then fetch raw events. The same queries serve over HTTP from
// controld and from the response-analyze trace subcommand. Runtime
// counters meter the TE and simulator hot paths with zero-allocation
// atomics — nil disables metering — carry the lifecycle manager's
// published counters, and render in Prometheus text format, per
// tenant, on controld's /metrics. See DESIGN.md §11.
//
// # Companion packages
//
//   - response/topology:      network model and builders (fat-tree, GÉANT, ...)
//   - response/trafficmatrix: demand matrices, gravity model, synthetic traces
//   - response/simulate:      discrete-event simulator + REsPoNseTE controller
//   - response/faultinject:   seed-deterministic control-plane fault injection
//   - response/controld:      multi-tenant planning-as-a-service daemon
//   - response/tracestore:    indexed trace store + energy-critical-path queries
//   - response/experiments:   one entry point per reproduced paper figure
//
// Correctness is property-based, not only pinned: an internal generator
// produces structurally diverse networks (fat-tree, Waxman, ring,
// torus, two-tier ISP) with matched gravity workloads, and the
// internal verification harness checks planner and runtime invariants
// — flow conservation, capacity retention, delay bounds, always-on
// connectivity, power ≤ all-on — plus incremental-vs-reference
// differential oracles on every generated instance (DESIGN.md §7).
//
// The implementation lives under internal/; the public packages are
// thin, alias-based facades over it, so the engine can keep evolving
// without breaking consumers. See DESIGN.md for the architecture of the
// incremental allocation-free planning engine and the experiment index
// that maps each benchmark in bench_test.go to its paper figure.
package response
