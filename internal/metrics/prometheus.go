package metrics

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Labeled pairs a Runtime with its tenant label for rendering. An
// empty Tenant renders samples without a label set (single-process
// tools like response-sim).
type Labeled struct {
	Tenant  string
	Runtime *Runtime
}

// descriptor describes one sample family: Prometheus name, HELP text,
// TYPE and the accessor pulling the value out of a Runtime.
type descriptor struct {
	name string
	help string
	typ  string // "counter" or "gauge"
	get  func(*Runtime) float64
}

func ctr(c *Counter) float64       { return float64(c.Value()) }
func fctr(c *FloatCounter) float64 { return c.Value() }

// descriptors is the full metric inventory, rendered in this order.
var descriptors = []descriptor{
	{"response_te_probe_rounds_total", "Full TE probe sweeps over managed flows.", "counter", func(r *Runtime) float64 { return ctr(&r.ProbeRounds) }},
	{"response_te_shifts_total", "Always-on shift-up/down decisions.", "counter", func(r *Runtime) float64 { return ctr(&r.Shifts) }},
	{"response_te_wake_requests_total", "On-demand level wake requests.", "counter", func(r *Runtime) float64 { return ctr(&r.WakeRequests) }},
	{"response_te_evacuations_total", "Flows moved off a failed or overloaded link.", "counter", func(r *Runtime) float64 { return ctr(&r.Evacuations) }},
	{"response_te_retargets_total", "Pending wakes retargeted mid-flight.", "counter", func(r *Runtime) float64 { return ctr(&r.Retargets) }},
	{"response_te_handoffs_total", "Demand handoffs to a woken level.", "counter", func(r *Runtime) float64 { return ctr(&r.Handoffs) }},
	{"response_te_retires_total", "Drained levels retired.", "counter", func(r *Runtime) float64 { return ctr(&r.Retires) }},
	{"response_sim_link_failures_total", "Simulated link failures.", "counter", func(r *Runtime) float64 { return ctr(&r.LinkFailures) }},
	{"response_sim_link_repairs_total", "Simulated link repairs.", "counter", func(r *Runtime) float64 { return ctr(&r.LinkRepairs) }},
	{"response_sim_link_sleeps_total", "Idle links entering the Sleeping phase.", "counter", func(r *Runtime) float64 { return ctr(&r.LinkSleeps) }},
	{"response_sim_link_wakes_total", "Sleeping links starting to wake.", "counter", func(r *Runtime) float64 { return ctr(&r.LinkWakes) }},
	{"response_sim_wake_latency_seconds_total", "Summed sleep-to-forwarding wake latency.", "counter", func(r *Runtime) float64 { return fctr(&r.WakeLatencySec) }},
	{"response_sim_alloc_epochs_total", "Incremental max-min allocator passes.", "counter", func(r *Runtime) float64 { return ctr(&r.AllocEpochs) }},
	{"response_sim_alloc_flows_total", "Flows touched across allocator passes.", "counter", func(r *Runtime) float64 { return ctr(&r.AllocFlows) }},
	{"response_lifecycle_checks_total", "Monitor ticks (deviation checks).", "counter", func(r *Runtime) float64 { return ctr(&r.Checks) }},
	{"response_lifecycle_triggers_total", "Replans fired by the deviation policy.", "counter", func(r *Runtime) float64 { return ctr(&r.Triggers) }},
	{"response_lifecycle_replans_total", "Completed replan computations (triggered, retried or forced).", "counter", func(r *Runtime) float64 { return ctr(&r.Replans) }},
	{"response_lifecycle_replans_failed_total", "Replan errors (infeasible, injected, canceled, timed out or panicked).", "counter", func(r *Runtime) float64 { return ctr(&r.ReplanFailed) }},
	{"response_lifecycle_replan_timeouts_total", "Replan errors that overran the replan deadline.", "counter", func(r *Runtime) float64 { return ctr(&r.ReplanTimeouts) }},
	{"response_lifecycle_replan_panics_total", "Replan errors that panicked and were recovered.", "counter", func(r *Runtime) float64 { return ctr(&r.ReplanPanics) }},
	{"response_lifecycle_rejected_invalid_total", "Staged plans failing structural validation or the artifact round trip.", "counter", func(r *Runtime) float64 { return ctr(&r.RejectedInvalid) }},
	{"response_lifecycle_rejected_power_total", "Staged plans strictly worse in power under the live matrix.", "counter", func(r *Runtime) float64 { return ctr(&r.RejectedPower) }},
	{"response_lifecycle_unchanged_total", "Replans whose tables fingerprint-matched the installed plan.", "counter", func(r *Runtime) float64 { return ctr(&r.Unchanged) }},
	{"response_lifecycle_superseded_total", "Replan results abandoned because demand had drifted past the trigger snapshot.", "counter", func(r *Runtime) float64 { return ctr(&r.Superseded) }},
	{"response_lifecycle_retries_total", "Backoff-paced retries of failed cycles, counted when they fire.", "counter", func(r *Runtime) float64 { return ctr(&r.Retries) }},
	{"response_lifecycle_swaps_total", "Hot swaps begun.", "counter", func(r *Runtime) float64 { return ctr(&r.Swaps) }},
	{"response_lifecycle_swaps_done_total", "Hot swaps fully drained.", "counter", func(r *Runtime) float64 { return ctr(&r.SwapsDone) }},
	{"response_lifecycle_migrated_flows_total", "Flows retargeted across all swaps.", "counter", func(r *Runtime) float64 { return ctr(&r.MigratedFlows) }},
	{"response_lifecycle_swap_duration_seconds_total", "Sim time summed over drained swaps, from begin to done.", "counter", func(r *Runtime) float64 { return fctr(&r.SwapDurationSec) }},
	{"response_lifecycle_degraded_entered_total", "Entries into the degraded state (all-on element set pinned).", "counter", func(r *Runtime) float64 { return ctr(&r.DegradedEntered) }},
	{"response_lifecycle_degraded_exited_total", "Exits from the degraded state.", "counter", func(r *Runtime) float64 { return ctr(&r.DegradedExited) }},
	{"response_lifecycle_degraded_seconds_total", "Sim time spent in the degraded state, the current episode included.", "counter", func(r *Runtime) float64 { return fctr(&r.DegradedSec) }},
	{"response_lifecycle_sim_seconds", "Sim clock at the lifecycle manager's latest step.", "gauge", func(r *Runtime) float64 { return r.SimSeconds.Value() }},
}

// WritePrometheus renders every runtime in Prometheus text exposition
// format (version 0.0.4), metric-major: one HELP/TYPE header per
// family, then one sample per labeled runtime, in the given order. Nil
// runtimes are skipped. The scrape path may allocate; only the
// increment path is zero-alloc.
func WritePrometheus(w io.Writer, sets []Labeled) error {
	bw := bufio.NewWriter(w)
	for _, d := range descriptors {
		bw.WriteString("# HELP ")
		bw.WriteString(d.name)
		bw.WriteByte(' ')
		bw.WriteString(d.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(d.name)
		bw.WriteByte(' ')
		bw.WriteString(d.typ)
		bw.WriteByte('\n')
		for _, s := range sets {
			if s.Runtime == nil {
				continue
			}
			bw.WriteString(d.name)
			if s.Tenant != "" {
				bw.WriteString(`{tenant="`)
				bw.WriteString(escapeLabel(s.Tenant))
				bw.WriteString(`"}`)
			}
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(d.get(s.Runtime), 'g', -1, 64))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
