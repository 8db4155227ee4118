package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"response/internal/controld"
)

const (
	daemonWorkers = 2 // plan-job slots, one per core of the reference box
	daemonClients = 2 // closed-loop clients: each waits for every reply
	advanceSec    = 900
	pollEvery     = time.Millisecond
	jobDeadline   = 60 * time.Second
)

// routes are the requests of one tenant round in order, plus register
// (set-up). Each is timed as controld.<route> in a traced run.
var routes = []string{"register", "advance", "status", "patch_config", "job_submit", "job_poll",
	"promote", "diff", "metrics_scrape", "trace_windows", "trace_summary", "trace_critical_path", "trace_events"}

// daemonState carries counts from the daemon phase to its metrics.
type daemonState struct {
	polls, jobs, conflicts, scrapeBytes int
}

// daemon is a controld server behind an httptest listener on the
// host's loopback interface, with its registered tenants.
type daemon struct {
	srv     *controld.Server
	ts      *httptest.Server
	tenants []*tenantRef
}

func (d *daemon) close(r *run) {
	r.rec.layer("controld.drain", 0, func() { d.srv.Drain(r.ctx) }) //nolint:errcheck // only ctx.Err
	d.ts.Close()
}

// tenantRef is a client's view of one tenant: its name and the digest
// of the artifact promoted last (the diff base of the next round).
type tenantRef struct {
	name     string
	promoted string
}

// apiClient is one closed-loop client. It owns its recorder and tally
// so the two clients never share mutable state.
type apiClient struct {
	base string
	http *http.Client
	rec  *recorder
	tally
	daemonState
}

// call sends one request, timed as controld.<route> when traced, and
// counts a status outside want as a failed operation. A 2xx body is
// decoded into out when out is non-nil. It returns the status and the
// body size.
func (c *apiClient) call(route string, iter int, method, path string, body, out any, want ...int) (int, int) {
	var status, size int
	var err error
	c.rec.layer("controld."+route, iter, func() {
		var rd io.Reader
		if body != nil {
			var raw []byte
			if raw, err = json.Marshal(body); err != nil {
				return
			}
			rd = bytes.NewReader(raw)
		}
		var req *http.Request
		if req, err = http.NewRequest(method, c.base+path, rd); err != nil {
			return
		}
		var resp *http.Response
		if resp, err = c.http.Do(req); err != nil {
			return
		}
		defer resp.Body.Close()
		var raw []byte
		if raw, err = io.ReadAll(resp.Body); err != nil {
			return
		}
		status, size = resp.StatusCode, len(raw)
		if out != nil && status < 300 {
			err = json.Unmarshal(raw, out)
		}
	})
	ok := err == nil
	if ok {
		ok = false
		for _, w := range want {
			ok = ok || status == w
		}
	}
	// How many polls a job takes depends on timing; the job is the
	// counted operation, so that attempted repeats run to run. A poll
	// that fails is still a failure.
	if route != "job_poll" || !ok {
		c.check(ok, "%s %s: status %d, want %v, err %v", method, path, status, want, err)
	}
	return status, size
}

// jobView is the part of controld's job document the client reads.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Artifact string `json:"artifact"`
}

func (j jobView) terminal() bool {
	return j.State == "done" || j.State == "failed" || j.State == "canceled"
}

// round is one operator round on one tenant: move time, look, retune,
// replan, wait for the plan, promote it, diff it, scrape, and drill
// into the tenant's latest trace window.
func (c *apiClient) round(t *tenantRef, iter int, deviation float64) {
	base := "/v1/tenants/" + t.name
	c.call("advance", iter, "POST", base+"/advance", map[string]float64{"sim_sec": advanceSec}, nil, http.StatusOK)
	c.call("status", iter, "GET", base, nil, nil, http.StatusOK)
	c.call("patch_config", iter, "PATCH", base+"/config", controld.PolicyPatch{Deviation: &deviation}, nil, http.StatusOK)

	var job jobView
	c.rec.op("job_turnaround", iter, func() {
		submitted := time.Now()
		c.call("job_submit", iter, "POST", base+"/jobs", nil, &job, http.StatusAccepted)
		var started time.Time // first poll that saw the job past the queue
		for job.ID != "" && !job.terminal() && time.Since(submitted) < jobDeadline {
			time.Sleep(pollEvery)
			c.call("job_poll", iter, "GET", base+"/jobs/"+job.ID, nil, &job, http.StatusOK)
			c.polls++
			if started.IsZero() && job.State != "queued" {
				started = time.Now()
			}
		}
		if !started.IsZero() {
			c.rec.interval("controld.job_queue_wait", iter, submitted, started)
			c.rec.interval("controld.job_run", iter, started, time.Now())
		}
	})
	c.jobs++
	if !c.check(job.State == "done", "%s: job %q ended %q: %s", t.name, job.ID, job.State, job.Error) {
		return
	}

	// A promote can meet a manager still draining the previous swap;
	// that 409 is legal contention, not a failure.
	status, _ := c.call("promote", iter, "POST", base+"/promote", map[string]string{"artifact": job.Artifact}, nil,
		http.StatusOK, http.StatusConflict)
	if status == http.StatusConflict {
		c.conflicts++
	}
	c.call("diff", iter, "GET", base+"/diff?a="+t.promoted+"&b="+job.Artifact, nil, nil, http.StatusOK)
	if status == http.StatusOK {
		t.promoted = job.Artifact
	}
	_, c.scrapeBytes = c.call("metrics_scrape", iter, "GET", "/metrics", nil, nil, http.StatusOK)

	var wins struct {
		Windows []struct {
			Start float64 `json:"start"`
		} `json:"windows"`
	}
	c.call("trace_windows", iter, "GET", base+"/trace/windows", nil, &wins, http.StatusOK)
	if !c.check(len(wins.Windows) > 0, "%s: no trace windows after %d rounds", t.name, iter+1) {
		return
	}
	at := fmt.Sprintf("?start=%g", wins.Windows[len(wins.Windows)-1].Start)
	c.call("trace_summary", iter, "GET", base+"/trace/summary"+at, nil, nil, http.StatusOK)
	c.call("trace_critical_path", iter, "GET", base+"/trace/critical-path"+at+"&k=10", nil, nil, http.StatusOK)
	c.call("trace_events", iter, "GET", base+"/trace/events?limit=50", nil, nil, http.StatusOK)
}

// startDaemon brings up the server, registers every tenant and moves
// each one a first quarter hour so its trace has a window.
func (r *run) startDaemon() (*daemon, error) {
	d := &daemon{srv: controld.New(controld.Opts{Workers: daemonWorkers})}
	d.ts = httptest.NewServer(d.srv.Handler())
	c := &apiClient{base: d.ts.URL, http: d.ts.Client(), rec: r.rec}
	for i := 0; i < r.sh.Tenants; i++ {
		t := &tenantRef{name: fmt.Sprintf("t%d", i)}
		spec := controld.TenantSpec{
			Name:     t.name,
			Topology: tenantTopology(r.sh.TenantNets[i%len(r.sh.TenantNets)]),
			Workload: &controld.WorkloadSpec{Flows: r.sh.TenantFlows, Seed: structSeed + int64(i)},
		}
		var st struct {
			Promoted string `json:"promoted_artifact"`
		}
		c.call("register", i, "POST", "/v1/tenants", spec, &st, http.StatusCreated)
		c.call("first_advance", i, "POST", "/v1/tenants/"+t.name+"/advance", map[string]float64{"sim_sec": advanceSec}, nil, http.StatusOK)
		t.promoted = st.Promoted
		d.tenants = append(d.tenants, t)
	}
	if c.failed > 0 {
		d.close(r)
		return nil, fmt.Errorf("register tenants: %s", c.failures[0])
	}
	return d, nil
}

// daemonPhase drives the controld API the way operators and automation
// do: a closed loop — every client waits for each reply before its next
// request — of daemonClients clients over the host's loopback.
func (r *run) daemonPhase() error {
	d, err := setupStep(r, "daemon", r.startDaemon, func(d *daemon) { d.close(r) })
	if err != nil {
		return err
	}
	clients := make([]*apiClient, daemonClients)
	var wall time.Duration
	err = r.measured(func() error {
		start := time.Now()
		var wg sync.WaitGroup
		for ci := range clients {
			c := &apiClient{base: d.ts.URL, http: d.ts.Client(), rec: r.rec.fork()}
			clients[ci] = c
			var mine []*tenantRef
			for i, t := range d.tenants {
				if i%daemonClients == ci {
					mine = append(mine, t)
				}
			}
			rng := r.rng(streamClients + int64(ci)*7919)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.drive(mine, r.sh.Rounds, rng)
			}()
		}
		wg.Wait()
		wall = time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	st := &r.daemon
	for _, c := range clients {
		r.rec.merge(c.rec)
		r.tally.add(c.tally)
		st.polls += c.polls
		st.jobs += c.jobs
		st.conflicts += c.conflicts
		st.scrapeBytes = max(st.scrapeBytes, c.scrapeBytes)
	}
	d.close(r)

	s := r.rec.samples
	r.e2e("round_p50_ms", median(s["round"])*1e3, len(s["round"]))
	r.e2e("job_turnaround_p50_ms", median(s["job_turnaround"])*1e3, len(s["job_turnaround"]))

	r.lay("controld.round_p95_ms", quantile(s["round"], 0.95)*1e3, len(s["round"]))
	for _, route := range routes {
		v := s["controld."+route]
		r.lay("controld."+route+"_p50_us", median(v)*1e6, len(v))
		r.lay("controld."+route+"_p99_us", quantile(v, 0.99)*1e6, len(v))
	}
	r.layMedian("controld.job_run_ms", "controld.job_run", 1e3)
	r.layMedian("controld.job_queue_wait_ms", "controld.job_queue_wait", 1e3)
	r.lay("controld.job_polls_per_job", float64(st.polls)/float64(st.jobs), st.jobs)
	r.lay("controld.promote_409", float64(st.conflicts), st.jobs)
	r.lay("controld.metrics_scrape_bytes", float64(st.scrapeBytes), 1)
	r.lay("controld.rounds_per_s", float64(len(s["round"]))/wall.Seconds(), len(s["round"]))
	r.lay("controld.drain_ms", lastOf(s["controld.drain"])*1e3, 1)
	return nil
}

// drive runs rounds over the client's tenants, visiting them in a
// seeded order each round.
func (c *apiClient) drive(tenants []*tenantRef, rounds int, rng *rand.Rand) {
	for round := 0; round < rounds; round++ {
		for _, i := range rng.Perm(len(tenants)) {
			deviation := 0.15 + 0.01*float64(rng.Intn(5))
			c.rec.op("round", round, func() { c.round(tenants[i], round, deviation) })
		}
	}
}
