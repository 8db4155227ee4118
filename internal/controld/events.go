package controld

import (
	"bytes"
	"sync"

	"response/internal/metrics"
)

// hub fans the per-tenant JSONL event traces out to API subscribers.
// Each tenant runtime owns a trace.EventWriter writing into a
// tenantTee; the tee stamps every line with the tenant name and
// publishes it. Subscribers hold a bounded channel: a slow consumer
// loses events (counted per kind of consumer and reported on
// /metrics), never stalls a tenant's simulation loop.
type hub struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

// subscriber is one event-stream consumer.
type subscriber struct {
	tenant  string // filter; "" receives every tenant
	ch      chan []byte
	dropped *metrics.Counter // the consumer kind's count of lines lost to a full buffer
}

// streamBuffer is an event stream's channel depth; a subscriber that
// falls further behind loses events.
const streamBuffer = 256

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// subscribe registers a consumer for one tenant's events ("" = all);
// dropped counts what its buffer loses.
func (h *hub) subscribe(tenant string, buffer int, dropped *metrics.Counter) *subscriber {
	sub := &subscriber{tenant: tenant, ch: make(chan []byte, buffer), dropped: dropped}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(sub.ch)
		return sub
	}
	h.subs[sub] = struct{}{}
	return sub
}

// unsubscribe removes a consumer and closes its channel.
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// close terminates every subscriber stream (daemon drain).
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
	}
	h.subs = make(map[*subscriber]struct{})
}

// publish delivers one event line to every matching subscriber,
// dropping on full buffers.
func (h *hub) publish(tenant string, line []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		if sub.tenant != "" && sub.tenant != tenant {
			continue
		}
		select {
		case sub.ch <- line:
		default:
			sub.dropped.Inc()
		}
	}
}

// tenantTee adapts a hub to the io.Writer a trace.EventWriter needs:
// it splits the JSONL stream into lines, splices the tenant name into
// each object and publishes it. The EventWriter emits one complete
// line per Write from the tenant loop goroutine, but the tee still
// buffers partial lines so any writer is safe.
type tenantTee struct {
	h      *hub
	tenant string
	prefix []byte
	part   []byte
}

func newTenantTee(h *hub, tenant string) *tenantTee {
	return &tenantTee{h: h, tenant: tenant, prefix: []byte(`{"tenant":"` + tenant + `",`)}
}

func (t *tenantTee) Write(p []byte) (int, error) {
	t.part = append(t.part, p...)
	for {
		i := bytes.IndexByte(t.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := t.part[:i]
		t.part = t.part[i+1:]
		if len(line) < 2 || line[0] != '{' {
			continue // not an event object; drop silently
		}
		out := make([]byte, 0, len(t.prefix)+len(line)-1)
		out = append(out, t.prefix...)
		out = append(out, line[1:]...)
		t.h.publish(t.tenant, out)
	}
}
