// Package controld is the public surface of the response module's
// planning-as-a-service daemon: a multi-tenant control plane hosting
// many independent REsPoNse control loops in one process behind a
// REST/JSON management API.
//
// It is a thin re-export layer over the module's internal daemon; see
// DESIGN.md §9 for the API table, the artifact-store layout and the
// concurrency argument, and cmd/response-controld for the binary.
//
//	srv := controld.New(controld.Opts{Workers: 4})
//	http.ListenAndServe(addr, srv.Handler())
//	...
//	srv.Drain(ctx) // graceful: cancel jobs, stop tenants, end streams
package controld

import (
	ictl "response/internal/controld"
)

// Core daemon types.
type (
	// Server is the control-plane daemon: tenant registry, fair-queue
	// plan-job scheduler, per-tenant artifact store, event hub and the
	// HTTP management API over them.
	Server = ictl.Server
	// Opts parameterizes a Server: worker-slot count, per-tenant
	// artifact retention and the plan-hook test seam.
	Opts = ictl.Opts
	// Job is one asynchronous plan computation, cancellable while
	// queued or mid-plan.
	Job = ictl.Job
	// JobState is a plan job's lifecycle state.
	JobState = ictl.JobState
	// TenantStatus is the status document GET /v1/tenants/{id} serves.
	TenantStatus = ictl.TenantStatus
)

// Registration and patch request bodies.
type (
	// TenantSpec is the POST /v1/tenants registration body.
	TenantSpec = ictl.TenantSpec
	// TopologySpec selects the tenant topology: builtin name, topogen
	// family spec, or inline node/link JSON.
	TopologySpec = ictl.TopologySpec
	// GenSpec is the wire form of a topogen family spec.
	GenSpec = ictl.GenSpec
	// InlineTopology is an explicit node/link list.
	InlineTopology = ictl.InlineTopology
	// InlineNode declares one inline-topology node.
	InlineNode = ictl.InlineNode
	// InlineLink declares one inline-topology link.
	InlineLink = ictl.InlineLink
	// WorkloadSpec sizes the tenant's managed-flow replay.
	WorkloadSpec = ictl.WorkloadSpec
	// PolicySpec seeds the tenant's replan policy: a lifecycle.Policy
	// under the keys status reports and PATCH takes, plus the two values
	// fixed at creation; validated exactly as a patch is.
	PolicySpec = ictl.PolicySpec
	// FaultSpec enables control-plane fault injection on the tenant's
	// replan path (it is faultinject.Config).
	FaultSpec = ictl.FaultSpec
	// PolicyPatch is the typed client request for PATCH
	// /v1/tenants/{id}/config: pointer fields, overlaid on the current
	// policy and validated whole before any of it applies.
	PolicyPatch = ictl.PolicyPatch
)

// Job states. A job is terminal in JobDone, JobFailed or JobCanceled.
const (
	JobQueued   = ictl.JobQueued
	JobRunning  = ictl.JobRunning
	JobDone     = ictl.JobDone
	JobFailed   = ictl.JobFailed
	JobCanceled = ictl.JobCanceled
)

// New builds a Server. Mount Handler on an http.Server; Drain it on
// shutdown.
func New(opts Opts) *Server { return ictl.New(opts) }
