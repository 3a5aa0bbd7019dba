package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashmark/flashmark/internal/rng"
)

// clients is the number of connections the load generator uses.
const clients = 2

// result is the outcome of one call.
type result struct {
	ok    bool
	shed  bool   // answered 429
	why   string // first problem, when !ok
	chips int
	body  []byte // the response body (kept for byte comparisons)
	start time.Time
	end   time.Time
}

// send performs one planned call and checks the answer against the
// request's expected outcome. reqID >= 0 tags the call for the tracer.
func (e *env) send(rq *request, buf *bytes.Buffer, reqID int64) result {
	method, path := http.MethodPost, ""
	var body io.Reader
	switch rq.op {
	case opVerify:
		path = "/v1/verify"
	case opEnroll:
		path = "/v1/enroll?source=rescan"
	case opChallenge:
		path = "/v1/challenge"
	case opBatch:
		path = "/v1/verify/batch"
		buf.Reset()
		buf.WriteString(`{"chips":[`)
		for j, i := range rq.chips {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.Write(e.in.chips[i].bytes)
		}
		buf.WriteString("]}")
		body = bytes.NewReader(buf.Bytes())
	case opScrape:
		method, path = http.MethodGet, "/metrics"
	}
	if body == nil && rq.op != opScrape {
		body = bytes.NewReader(e.in.chips[rq.chips[0]].bytes)
	}
	req, err := http.NewRequest(method, e.base+path, body)
	if err != nil {
		return result{why: err.Error()}
	}
	var span int32 = -1
	if e.tr != nil && reqID >= 0 {
		req.Header.Set(requestIDHeader, strconv.FormatInt(reqID, 10))
		span = e.tr.beginClient("client."+rq.op.String(), reqID)
	}
	res := result{start: time.Now(), chips: len(rq.chips)}
	resp, err := e.hc.Do(req)
	if err == nil {
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	res.end = time.Now()
	if span >= 0 {
		e.tr.finish(span)
	}
	switch {
	case resp == nil:
		res.why = "transport: " + err.Error()
	case err != nil:
		res.why = "reading response: " + err.Error()
	case resp.StatusCode == http.StatusTooManyRequests:
		res.shed, res.why = true, "shed (429)"
	case resp.StatusCode != http.StatusOK:
		res.why = fmt.Sprintf("status %d: %.200s", resp.StatusCode, res.body)
	default:
		res.why = check(rq, res.body)
		res.ok = res.why == ""
	}
	return res
}

// check compares a 200 answer with the request's expected outcome and
// returns the first mismatch ("" when every verdict is right).
func check(rq *request, body []byte) string {
	type verdict struct {
		Verdict   string `json:"verdict"`
		Duplicate bool   `json:"duplicate"`
		Conflict  bool   `json:"conflict"`
		Enrolled  bool   `json:"enrolled"`
		Match     bool   `json:"match"`
	}
	var got []verdict
	switch rq.op {
	case opScrape:
		if !bytes.Contains(body, []byte("fmverifyd_requests_total")) {
			return "metrics scrape lacks fmverifyd_requests_total"
		}
		return ""
	case opBatch:
		var br struct {
			Results []verdict `json:"results"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			return "decoding batch response: " + err.Error()
		}
		got = br.Results
	default:
		var v verdict
		if err := json.Unmarshal(body, &v); err != nil {
			return "decoding response: " + err.Error()
		}
		got = []verdict{v}
	}
	if len(got) != len(rq.want) {
		return fmt.Sprintf("%d results for %d chips", len(got), len(rq.want))
	}
	for j, w := range rq.want {
		g := got[j]
		bad := g.Verdict != w.verdict
		switch rq.op {
		case opEnroll:
			bad = bad || !g.Duplicate || g.Conflict
		case opChallenge:
			bad = bad || g.Enrolled != w.enrolled || g.Match != w.match
		}
		if bad {
			return fmt.Sprintf("%s chip %d: got %+v, want %+v", rq.op, rq.chips[j], g, w)
		}
	}
	return ""
}

// window is one measured phase of the end-to-end run.
type window struct {
	kind     string // "closed" or "open"
	elapsed  time.Duration
	sent     int
	ok       int
	shed     int
	chips    int       // chips in requests answered correctly
	latMs    []float64 // per chip: its call's latency (open loop: from due time)
	lateMs   []float64 // open loop: send time minus due time
	calibMs  float64
	cpu      time.Duration // process CPU time over the window
	stealPct float64       // share of the host's CPU time stolen from this VM
	firstBad string
}

func (w *window) add(r result, o op, latMs, lateMs float64) {
	w.sent++
	switch {
	case r.ok:
		w.ok++
		if o != opScrape {
			w.chips += r.chips
		}
	case r.shed:
		w.shed++
	}
	if !r.ok && w.firstBad == "" {
		w.firstBad = r.why
	}
	// Latency is per chip: every chip of a call waits for the call.
	for j := 0; j < r.chips; j++ {
		w.latMs = append(w.latMs, latMs)
	}
	if w.kind == "open" {
		w.lateMs = append(w.lateMs, lateMs)
	}
}

func (w *window) failed() int { return w.sent - w.ok }

func (w *window) cps() float64 { return float64(w.chips) / w.elapsed.Seconds() }

// cpuMsPerChip is the process CPU time spent per chip answered.
func (w *window) cpuMsPerChip() float64 { return ms(w.cpu) / float64(max(1, w.chips)) }

// scrapeReq is the planned GET /metrics.
var scrapeReq = request{op: opScrape}

// closedWindow runs `clients` closed-loop clients for d: each sends its
// next planned request as soon as the previous one returns. seq is the
// shared position in the plan, carried across windows.
func (e *env) closedWindow(seq *atomic.Int64, d time.Duration) window {
	w := window{kind: "closed", calibMs: calibrate()}
	cpu0, steal0 := cpuTime(), readCPUStat()
	start := time.Now()
	end := start.Add(d)
	var nextScrape atomic.Int64
	nextScrape.Store(int64(e.in.w.scrapeEvery))
	var mu sync.Mutex
	var last time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				rq, scrape := &scrapeReq, false
				if every := e.in.w.scrapeEvery; every > 0 {
					due := nextScrape.Load()
					scrape = time.Since(start) >= time.Duration(due) && nextScrape.CompareAndSwap(due, due+int64(every))
				}
				if !scrape {
					rq = e.in.at(seq.Add(1) - 1)
				}
				r := e.send(rq, &buf, -1)
				mu.Lock()
				w.add(r, rq.op, ms(r.end.Sub(r.start)), 0)
				if r.end.After(last) {
					last = r.end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = last.Sub(start)
	w.cpu = cpuTime() - cpu0
	w.stealPct = readCPUStat().stealPct(steal0)
	return w
}

// arrival is one open-loop due time.
type arrival struct {
	at     time.Duration
	scrape bool
}

// schedule draws Poisson arrivals at rate over d from r, plus a scrape
// at every multiple of scrapeEvery.
func schedule(r *rng.Stream, rate float64, d, scrapeEvery time.Duration) []arrival {
	var out []arrival
	nextScrape := scrapeEvery
	for t := time.Duration(0); ; {
		t += time.Duration(r.Exp() / rate * float64(time.Second))
		for scrapeEvery > 0 && nextScrape <= t && nextScrape < d {
			out = append(out, arrival{at: nextScrape, scrape: true})
			nextScrape += scrapeEvery
		}
		if t >= d {
			return out
		}
		out = append(out, arrival{at: t})
	}
}

// pacedPass replays the arrivals serially over one connection: each
// call goes out at its due time or, if the previous call is still
// running, as soon as it returns. Latency is timed from the due time,
// so a stall counts against every call it delays. keep sees each
// call's result; with reqIDs, the call's index tags it for the tracer.
func (e *env) pacedPass(arrivals []arrival, reqIDs bool, keep func(int, result)) window {
	w := window{kind: "open", calibMs: calibrate()}
	start := time.Now()
	var buf bytes.Buffer
	var n int64
	for k, a := range arrivals {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		rq := &scrapeReq
		if !a.scrape {
			rq = e.in.at(n)
			n++
		}
		id := int64(-1)
		if reqIDs {
			id = int64(k)
		}
		r := e.send(rq, &buf, id)
		keep(k, r)
		w.add(r, rq.op, ms(r.end.Sub(due)), ms(r.start.Sub(due)))
		w.elapsed = r.end.Sub(start)
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
