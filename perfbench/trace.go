package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/service"
)

// requestIDHeader carries the traced run's request id from the client
// span to the handler span.
const requestIDHeader = "X-Perfbench-Request"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; a mark has Start == End.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Keys is the key count of a registry batch lookup.
	Keys int `json:"keys,omitempty"`
}

// tracer records spans from the benchmark's side of every layer
// boundary. The traced run is serial (one client), so the current
// client and handler spans are unambiguous parents for whatever the
// service calls next. Spans stay in memory until the run writes them.
type tracer struct {
	// on gates recording, so set-up and warm-up stay untraced.
	on         atomic.Bool
	epoch      time.Time
	mu         sync.Mutex
	spans      []span
	req        atomic.Int64 // request id of the call in flight
	curClient  atomic.Int32 // its client span
	curHandler atomic.Int32 // its handler span
	// orphans counts handler spans whose request id did not match the
	// client call in flight (a broken serial assumption).
	orphans atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.curClient.Store(-1)
	t.curHandler.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

func (t *tracer) finish(id int32) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// beginClient opens the root span of one call.
func (t *tracer) beginClient(name string, req int64) int32 {
	t.req.Store(req)
	id := t.begin(name, -1, req)
	t.curClient.Store(id)
	return id
}

// child opens a span under the handler span in flight (-1 while
// recording is off).
func (t *tracer) child(name string) int32 {
	if !t.on.Load() {
		return -1
	}
	return t.begin(name, t.curHandler.Load(), t.req.Load())
}

// handler wraps the service's root handler in a span per request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil || req != t.req.Load() {
			t.orphans.Add(1)
		}
		id := t.begin("service.handler", t.curClient.Load(), req)
		t.curHandler.Store(id)
		h.ServeHTTP(w, r)
		t.finish(id)
	})
}

// decorate is an identity Config.Decorate that marks where the service
// has finished loading a chip and hands it to verification (or to the
// challenge interrogation).
func (t *tracer) decorate(d device.Device) device.Device {
	if id := t.child("service.device"); id >= 0 {
		t.mu.Lock()
		t.spans[id].End = t.spans[id].Start
		t.mu.Unlock()
	}
	return d
}

// store wraps a provenance store in timing spans. The wrapper offers
// service.BatchLookuper exactly when the wrapped store does, so the
// service takes the same batch path traced as untraced.
func (t *tracer) store(s registry.Store) registry.Store {
	ts := &timedStore{s: s, t: t}
	if bl, ok := s.(service.BatchLookuper); ok {
		return &timedBatchStore{timedStore: ts, bl: bl}
	}
	return ts
}

type timedStore struct {
	s registry.Store
	t *tracer
}

func (ts *timedStore) Enroll(e registry.Enrollment) (registry.EnrollResult, error) {
	id := ts.t.child("registry.enroll")
	defer ts.t.finish(id)
	return ts.s.Enroll(e)
}

func (ts *timedStore) Lookup(k registry.Key) (registry.LookupResult, bool) {
	id := ts.t.child("registry.lookup")
	defer ts.t.finish(id)
	return ts.s.Lookup(k)
}

func (ts *timedStore) SeenBefore(k registry.Key) bool {
	id := ts.t.child("registry.seen")
	defer ts.t.finish(id)
	return ts.s.SeenBefore(k)
}

// Stats is untimed: the service calls it only for /metrics gauges.
func (ts *timedStore) Stats() registry.Stats { return ts.s.Stats() }

type timedBatchStore struct {
	*timedStore
	bl service.BatchLookuper
}

func (ts *timedBatchStore) LookupBatch(keys []registry.Key) ([]registry.LookupResult, []bool) {
	id := ts.t.child("registry.lookup_batch")
	if id >= 0 {
		ts.t.mu.Lock()
		ts.t.spans[id].Keys = len(keys)
		ts.t.mu.Unlock()
	}
	defer ts.t.finish(id)
	return ts.bl.LookupBatch(keys)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestSpans groups the spans of one traced call.
type requestSpans struct {
	client, handler *span
	children        []*span // registry spans and device marks under the handler
}

// byRequest indexes spans by their client span.
func byRequest(spans []span) map[int32]*requestSpans {
	out := map[int32]*requestSpans{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == -1 {
			out[s.ID] = &requestSpans{client: s}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name == "service.handler" {
			if rs, ok := out[s.Parent]; ok {
				rs.handler = s
			}
		}
	}
	handlers := map[int32]*requestSpans{}
	for _, rs := range out {
		if rs.handler != nil {
			handlers[rs.handler.ID] = rs
		}
	}
	for i := range spans {
		s := &spans[i]
		if rs, ok := handlers[s.Parent]; ok {
			rs.children = append(rs.children, s)
		}
	}
	return out
}

// deviceSpan is the derived span from the first device mark to the next
// registry call, or to the handler's end: it covers physics extraction
// (or the challenge interrogation) and report encoding. ok is false
// when the request loaded no device.
func (rs *requestSpans) deviceSpan() (start, end int64, ok bool) {
	start = -1
	for _, c := range rs.children {
		if c.Name == "service.device" && (start < 0 || c.Start < start) {
			start = c.Start
		}
	}
	if start < 0 {
		return 0, 0, false
	}
	end = rs.handler.End
	for _, c := range rs.children {
		if c.Name != "service.device" && c.Start >= start && c.Start < end {
			end = c.Start
		}
	}
	return start, end, true
}

// selfTime is the handler's duration minus the part of it covered by
// its registry spans and the derived device span.
func (rs *requestSpans) selfTime() int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	if a, b, ok := rs.deviceSpan(); ok {
		ivs = append(ivs, iv{a, b})
	}
	for _, c := range rs.children {
		if c.Name != "service.device" && c.End > c.Start {
			ivs = append(ivs, iv{c.Start, c.End})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	h := rs.handler
	covered, cur := int64(0), h.Start
	for _, v := range ivs {
		a, b := max(v.a, cur), min(v.b, h.End)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return (h.End - h.Start) - covered
}
