package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/rng"
)

// directChips caps the distinct chips timed by direct layer calls.
const directChips = 32

// pass is one serial, paced run of the traced plan and the counters
// read around it.
type pass struct {
	win        window
	bodies     [][]byte
	clientUs   []float64 // chip requests: send to last byte
	allocKB    float64   // allocated by the whole process
	gcs        uint32
	vars0      map[string]float64
	vars1      map[string]float64
	fsyncs     int64
	recoveryMs float64
	syncMs     float64
	failopens  int64
	failovers  int64
}

// runPass serves the arrivals one at a time on a fresh environment and
// keeps every response body. With a tracer, recording is on for the
// pass only.
func runPass(in *inputs, p *pristine, work string, arr []arrival, tr *tracer) (*pass, error) {
	e, _, err := startEnv(in, p, work, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	ps := &pass{bodies: make([][]byte, len(arr)), vars0: e.serviceVars(),
		recoveryMs: ms(e.recovery), syncMs: ms(e.sync)}
	fsyncs := sumFsyncs(e.stores)
	keep := func(k int, r result) {
		ps.bodies[k] = r.body
		if !arr[k].scrape {
			ps.clientUs = append(ps.clientUs, float64(r.end.Sub(r.start))/1e3)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.on.Store(true)
	}
	ps.win = e.pacedPass(arr, tr != nil, keep)
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.ReadMemStats(&m1)
	ps.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	ps.gcs = m1.NumGC - m0.NumGC
	ps.vars1 = e.serviceVars()
	ps.fsyncs = sumFsyncs(e.stores) - fsyncs
	if e.client != nil {
		ps.failopens, ps.failovers = e.client.FailOpens(), e.client.Failovers()
	}
	return ps, nil
}

func sumFsyncs(stores []*registry.Durable) int64 {
	var n int64
	for _, d := range stores {
		n += d.Stats().WALFsyncs
	}
	return n
}

// runTraced runs seconds/2 of paced arrivals twice, serially and each
// on a fresh copy of the registry: untraced, then traced. It reports
// the per-layer metrics from the traced pass, the tracing overhead
// (traced minus untraced), and fails the run if the passes' response
// bodies differ by a byte.
func runTraced(in *inputs, p *pristine, work, traceDir string, seconds int, stdout io.Writer) (*output, error) {
	d := time.Duration(seconds) * time.Second / 2
	arr := schedule(rng.New(in.seed).Split(0x54524143), in.w.traceRate, d, in.w.scrapeEvery) // "TRAC"

	plain, err := runPass(in, p, filepath.Join(work, "plain"), arr, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	printWindow(stdout, "untraced pass", plain.win)
	tr := newTracer()
	traced, err := runPass(in, p, filepath.Join(work, "traced"), arr, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	printWindow(stdout, "traced pass", traced.win)

	out := &output{Metrics: map[string]metric{}}
	out.Attempted = plain.win.sent + traced.win.sent
	out.Failed = plain.win.failed() + traced.win.failed()
	mismatches := 0
	for k := range arr {
		if !arr[k].scrape && !bytes.Equal(plain.bodies[k], traced.bodies[k]) {
			mismatches++
		}
	}
	out.Failed += mismatches
	orphans := tr.orphans.Load()
	out.Correct = out.Failed == 0 && orphans == 0
	fmt.Fprintf(stdout, "trace: %d calls; %d response bodies differ between the untraced and traced passes; %d orphan handler spans\n",
		len(arr), mismatches, orphans)

	spans := tr.snapshot()
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", in.w.name, in.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(spans), path)

	m := spanLayers(in, spans)
	counterLayers(m, in, arr, plain, traced)
	if err := directLayers(m, in, chipsSent(in, arr)); err != nil {
		return nil, err
	}
	out.Metrics = m
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-28s %14.3f %s\n", k, m[k].Value, m[k].Unit)
	}
	return out, nil
}

// spanLayers derives the per-layer timings from the traced spans.
func spanLayers(in *inputs, spans []span) map[string]metric {
	var handler, self, hitSelf, httpUs, lookup, enroll, batch, scrape []float64
	lookups := 0
	for _, rs := range byRequest(spans) {
		if rs.handler == nil || rs.client.End < 0 {
			continue
		}
		client := float64(rs.client.End-rs.client.Start) / 1e3
		if rs.client.Name == "client."+opScrape.String() {
			scrape = append(scrape, client/1e3)
			continue
		}
		h := float64(rs.handler.End-rs.handler.Start) / 1e3
		handler = append(handler, h)
		httpUs = append(httpUs, client-h)
		self = append(self, float64(rs.selfTime())/1e3)
		if _, _, loaded := rs.deviceSpan(); !loaded && rs.client.Name == "client."+opVerify.String() {
			// A single verify that loaded no device hit the verdict
			// cache: its self time is the body read, the cache key,
			// the cache probe and the report encoding.
			hitSelf = append(hitSelf, float64(rs.selfTime())/1e3)
		}
		for _, c := range rs.children {
			us := float64(c.End-c.Start) / 1e3
			switch c.Name {
			case "registry.lookup":
				lookup = append(lookup, us)
				lookups++
			case "registry.lookup_batch":
				batch = append(batch, us)
				lookups += c.Keys
			case "registry.enroll":
				enroll = append(enroll, us)
			}
		}
	}
	m := map[string]metric{
		"service.handler_p50_us":      {median(handler), "us"},
		"service.self_p50_us":         {median(self), "us"},
		"service.http_p50_us":         {median(httpUs), "us"},
		"service.key_p50_us":          {median(hitSelf), "us"},
		"registry.lookup_p50_us":      {median(lookup), "us"},
		"registry.lookups":            {float64(lookups), "count"},
		"registry.enroll_p50_us":      {median(enroll), "us"},
		"cluster.lookup_batch_p50_us": {median(batch), "us"},
		"cluster.enroll_ack_p50_us":   {0, "us"},
		"metrics.scrape_p50_ms":       {median(scrape), "ms"},
	}
	if in.w.shards > 0 {
		// On the cluster plane an enrollment returns once the primary
		// and its follower have both fsynced: the replicated ack.
		m["cluster.enroll_ack_p50_us"] = metric{median(enroll), "us"}
	}
	return m
}

// counterLayers adds the metrics read from counters around the passes.
func counterLayers(m map[string]metric, in *inputs, arr []arrival, plain, traced *pass) {
	delta := func(name string) float64 { return traced.vars1[name] - traced.vars0[name] }
	hits, misses := delta("fmverifyd_cache_hits_total"), delta("fmverifyd_cache_misses_total")
	calls := delta("fmverifyd_challenge_total")
	var scrapeKB []float64
	enrolls := 0
	n := int64(0)
	for k, a := range arr {
		if a.scrape {
			scrapeKB = append(scrapeKB, float64(len(traced.bodies[k]))/1024)
			continue
		}
		if in.at(n).op == opEnroll {
			enrolls++
		}
		n++
	}
	m["loadgen.late_p90_ms"] = metric{quantile(traced.win.lateMs, 0.9), "ms"}
	m["loadgen.sent"] = metric{float64(traced.win.sent), "count"}
	m["service.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["service.shed_ratio"] = metric{ratio(delta("fmverifyd_rejected_total"), delta("fmverifyd_requests_total")), "ratio"}
	m["counterfeit.verifies"] = metric{misses, "count"}
	m["counterfeit.inconclusive"] = metric{delta("fmverifyd_verdict_inconclusive_total"), "count"}
	m["registry.fsyncs_per_enroll"] = metric{ratio(float64(traced.fsyncs), float64(enrolls)), "count"}
	m["registry.recovery_ms"] = metric{traced.recoveryMs, "ms"}
	m["cluster.sync_ms"] = metric{traced.syncMs, "ms"}
	m["cluster.failopens"] = metric{float64(traced.failopens), "count"}
	m["cluster.failovers"] = metric{float64(traced.failovers), "count"}
	m["challenge.calls"] = metric{calls, "count"}
	m["challenge.match_ratio"] = metric{ratio(delta("fmverifyd_challenge_matches_total"), calls), "ratio"}
	m["metrics.scrape_kb"] = metric{median(scrapeKB), "kB"}
	m["runtime.alloc_kb_per_chip"] = metric{plain.allocKB / float64(max(1, plain.win.chips)), "kB"}
	m["runtime.gc_cycles"] = metric{float64(plain.gcs), "count"}
	m["host.calib_ms"] = metric{median([]float64{plain.win.calibMs, traced.win.calibMs}), "ms"}
	m["trace.overhead_p50_us"] = metric{median(traced.clientUs) - median(plain.clientUs), "us"}
}

// chipsSent lists the distinct chips of the plan requests the arrivals
// cover, in plan order, up to directChips.
func chipsSent(in *inputs, arr []arrival) []int {
	seen := map[int]bool{}
	var out []int
	n := int64(0)
	for _, a := range arr {
		if a.scrape {
			continue
		}
		for _, i := range in.at(n).chips {
			if !seen[i] && len(out) < directChips {
				seen[i] = true
				out = append(out, i)
			}
		}
		n++
	}
	return out
}

// directLayers times the layers the service calls per chip by calling
// them directly on the same bytes: the chip-file load, the physics
// verification, and on the challenge plane the interrogation.
func directLayers(m map[string]metric, in *inputs, idx []int) error {
	v := newVerifier()
	var ld mcu.Loader
	var loadUs, verifyUs, deviceMs, interrogateMs, kb []float64
	for _, i := range idx {
		b := in.chips[i].bytes
		kb = append(kb, float64(len(b))/1024)
		t := time.Now()
		dev, err := ld.Load(b)
		if err != nil {
			return err
		}
		loadUs = append(loadUs, float64(time.Since(t))/1e3)
		t = time.Now()
		if _, err := v.VerifyContext(context.Background(), dev); err != nil {
			return err
		}
		verifyUs = append(verifyUs, float64(time.Since(t))/1e3)
		deviceMs = append(deviceMs, ms(dev.Clock().Now()))
		if in.w.challenge {
			dev, err := ld.Load(b)
			if err != nil {
				return err
			}
			t = time.Now()
			if _, err := challenge.Interrogate(dev, challenge.Policy{}); err != nil {
				return err
			}
			interrogateMs = append(interrogateMs, ms(time.Since(t)))
		}
	}
	m["mcu.load_p50_us"] = metric{median(loadUs), "us"}
	m["mcu.chip_kb"] = metric{median(kb), "kB"}
	m["counterfeit.verify_p50_us"] = metric{median(verifyUs), "us"}
	m["counterfeit.verify_p90_us"] = metric{quantile(verifyUs, 0.9), "us"}
	m["counterfeit.device_ms"] = metric{median(deviceMs), "ms"}
	m["challenge.interrogate_p50_ms"] = metric{median(interrogateMs), "ms"}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
