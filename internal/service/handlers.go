package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/reram"
)

// ChipReport is the verdict JSON for one screened chip. Fields are
// derived only from the chip bytes and the server's verifier policy, so
// the report for a given chip file is byte-stable across requests and
// cacheable by content hash.
type ChipReport struct {
	SHA256              string         `json:"sha256"`
	Part                string         `json:"part,omitempty"`
	Seed                uint64         `json:"seed,omitempty"`
	Verdict             string         `json:"verdict"`
	Accepted            bool           `json:"accepted"`
	Payload             *PayloadReport `json:"payload,omitempty"`
	ReplicaDisagreement float64        `json:"replicaDisagreement"`
	WornDataSegments    int            `json:"wornDataSegments"`
	SampledDataSegments int            `json:"sampledDataSegments"`
	Fault               string         `json:"fault,omitempty"`
	DeviceTimeUs        int64          `json:"deviceTimeUs"`
	// Provenance explains a registry escalation: why a physics-GENUINE
	// chip was answered DUPLICATE-ID. Only set when the server runs
	// with a fleet registry; escalated reports are not cached.
	Provenance string `json:"provenance,omitempty"`
	Error      string `json:"error,omitempty"`
}

// PayloadReport is the decoded watermark payload, present when the chip
// carried a structurally valid watermark.
type PayloadReport struct {
	Manufacturer string `json:"manufacturer"`
	DieID        uint64 `json:"dieId"`
	SpeedGrade   uint8  `json:"speedGrade"`
	Status       string `json:"status"`
	YearWeek     uint16 `json:"yearWeek"`
}

// BatchRequest is the body of POST /v1/verify/batch: each element of
// Chips is one complete chip file (the same JSON either backend's Save
// writes).
type BatchRequest struct {
	Chips []json.RawMessage `json:"chips"`
}

// BatchSummary aggregates a batch's verdicts.
type BatchSummary struct {
	Chips    int            `json:"chips"`
	Accepted int            `json:"accepted"`
	Refused  int            `json:"refused"`
	Failed   int            `json:"failed"`
	Verdicts map[string]int `json:"verdicts"`
}

// BatchResponse is the body answered by POST /v1/verify/batch. Results
// are indexed by input position regardless of completion order.
type BatchResponse struct {
	Results []json.RawMessage `json:"results"`
	Summary BatchSummary      `json:"summary"`
}

// sniffFormat scans the head of a chip file for the leading
// {"format":"..."} member without parsing the whole body. Both backends'
// Save writes the format member first with no escapes, so the fast scan
// answers for every file the CLI produces; anything else (the member
// elsewhere, escapes, non-objects) reports !ok and the caller falls back
// to a full unmarshal for its exact legacy error surface.
func sniffFormat(raw []byte) ([]byte, bool) {
	i := 0
	skipWS := func() {
		for i < len(raw) && (raw[i] == ' ' || raw[i] == '\t' || raw[i] == '\n' || raw[i] == '\r') {
			i++
		}
	}
	skipWS()
	if i >= len(raw) || raw[i] != '{' {
		return nil, false
	}
	i++
	skipWS()
	const key = `"format"`
	if len(raw)-i < len(key) || string(raw[i:i+len(key)]) != key {
		return nil, false
	}
	i += len(key)
	skipWS()
	if i >= len(raw) || raw[i] != ':' {
		return nil, false
	}
	i++
	skipWS()
	if i >= len(raw) || raw[i] != '"' {
		return nil, false
	}
	i++
	start := i
	for ; i < len(raw); i++ {
		if raw[i] == '\\' {
			return nil, false
		}
		if raw[i] == '"' {
			return raw[start:i], true
		}
	}
	return nil, false
}

// chipLoader bundles one reusable loader per backend; the server pools
// them so a steady request stream reloads chips into recycled arrays.
// The device a load returns aliases the loader's storage, so a loader
// checked out of the pool must not be returned until the device is no
// longer used (screenChip's scope).
type chipLoader struct {
	mcu   mcu.Loader
	nand  nand.Loader
	reram reram.Loader
}

// load sniffs the chip file's self-describing format field and
// dispatches to the matching backend loader, mirroring the flashmark
// CLI's loader so the service accepts exactly the files the CLI writes.
func (l *chipLoader) load(raw []byte) (device.Device, error) {
	format, ok := sniffFormat(raw)
	if !ok {
		var head struct {
			Format string `json:"format"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("not a chip file: %w", err)
		}
		format = []byte(head.Format)
	}
	if string(format) == "flashmark-nand-chip" {
		a, err := l.nand.Load(raw)
		if err != nil {
			return nil, err
		}
		return a, nil
	}
	if string(format) == reram.ChipFormat {
		d, err := l.reram.Load(raw)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	d, err := l.mcu.Load(raw)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// screenChip runs one chip's bytes through parse -> decorate -> verify
// and renders the ChipReport. The encoded body, its decoded form, and
// the verdict come back for caching; failures come back as *httpError.
func (s *Server) screenChip(ctx context.Context, raw []byte, sum string) ([]byte, ChipReport, counterfeit.Verdict, *httpError) {
	ld := s.loaders.Get().(*chipLoader)
	defer s.loaders.Put(ld)
	dev, err := ld.load(raw)
	if err != nil {
		return nil, ChipReport{}, 0, &httpError{http.StatusBadRequest, err.Error()}
	}
	if s.cfg.Decorate != nil {
		dev = s.cfg.Decorate(dev)
	}
	res, err := s.cfg.Verifier.VerifyContext(ctx, dev)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.deadlines.Inc()
			return nil, ChipReport{}, 0, &httpError{http.StatusGatewayTimeout, "verification deadline exceeded"}
		}
		if errors.Is(err, context.Canceled) {
			return nil, ChipReport{}, 0, &httpError{statusClientClosedRequest, "client canceled the request"}
		}
		return nil, ChipReport{}, 0, &httpError{http.StatusUnprocessableEntity, "verification failed: " + err.Error()}
	}
	rep := ChipReport{
		SHA256:              sum,
		Part:                dev.PartName(),
		Seed:                dev.Seed(),
		Verdict:             res.Verdict.String(),
		Accepted:            res.Verdict.Accepted(),
		ReplicaDisagreement: res.ReplicaDisagreement,
		WornDataSegments:    res.WornDataSegments,
		SampledDataSegments: res.SampledDataSegments,
		DeviceTimeUs:        dev.Clock().Now().Microseconds(),
	}
	if res.DecodeErr == nil && res.Verdict != counterfeit.VerdictInconclusive {
		rep.Payload = &PayloadReport{
			Manufacturer: res.Payload.Manufacturer,
			DieID:        res.Payload.DieID,
			SpeedGrade:   res.Payload.SpeedGrade,
			Status:       res.Payload.Status.String(),
			YearWeek:     res.Payload.YearWeek,
		}
	}
	if res.FaultErr != nil {
		rep.Fault = res.FaultErr.Error()
	}
	body, herr := marshalReport(&rep)
	if herr != nil {
		return nil, ChipReport{}, 0, herr
	}
	return body, rep, res.Verdict, nil
}

// statusClientClosedRequest is nginx's conventional code for a request
// the client abandoned; no RFC status fits better.
const statusClientClosedRequest = 499

// chipKey is the registry-cache key: the content hash of the chip bytes.
// The verifier policy is fixed per server, so the hash alone identifies
// the verdict.
func chipKey(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// screenCached serves one chip through the verdict cache: a hit skips
// parsing and verification entirely, a miss computes and populates.
// key must be chipKey(raw); callers compute it once and reuse it.
// Cached entries hold the physics verdict only — the provenance overlay
// (applyProvenance/batchProvenance) runs per request on top, and the
// caller counts the final verdict into the metrics.
func (s *Server) screenCached(ctx context.Context, key string, raw []byte) ([]byte, ChipReport, counterfeit.Verdict, bool, *httpError) {
	if body, rep, verdict, ok := s.cache.Get(key); ok {
		s.met.cacheHit.Inc()
		return body, rep, verdict, true, nil
	}
	s.met.cacheMiss.Inc()
	body, rep, verdict, herr := s.screenChip(ctx, raw, key)
	if herr != nil {
		return nil, ChipReport{}, 0, false, herr
	}
	s.cache.Put(key, body, rep, verdict)
	return body, rep, verdict, false, nil
}

func (s *Server) countChip(v counterfeit.Verdict) {
	s.met.chips.Inc()
	if c, ok := s.met.verdicts[v]; ok {
		c.Inc()
	}
	if v == counterfeit.VerdictInconclusive {
		s.met.faults.Inc()
	}
}

// handleVerify answers POST /v1/verify: one chip file in, one
// ChipReport out.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	c := s.newCall(w, r)
	defer c.close()
	if !c.open("use POST with a chip file body", true, "") {
		return
	}
	// A cache hit bypasses admission: it consumes no verification
	// worker. The provenance overlay still applies — escalation depends
	// on live registry state, which is exactly what the cache omits.
	key := chipKey(c.raw)
	body, rep, verdict, hit := s.cache.Get(key)
	cached := hit
	if hit {
		s.met.cacheHit.Inc()
	} else {
		ctx, ok := c.admit()
		if !ok {
			return
		}
		var herr *httpError
		body, rep, verdict, cached, herr = s.screenCached(ctx, key, c.raw)
		if herr != nil {
			c.fail(herr)
			return
		}
	}
	body, verdict, herr := s.applyProvenance(body, &rep, verdict)
	if herr != nil {
		c.fail(herr)
		return
	}
	s.countChip(verdict)
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if !hit {
		s.logf("verify %s -> %s in %v", key[:12], verdict, s.since(c.start).Round(time.Millisecond))
	}
	writeJSONBody(w, http.StatusOK, body)
}

// handleVerifyBatch answers POST /v1/verify/batch: a population of chip
// files fans out over the deterministic parallel engine; results are
// indexed by input order, so two identical batch requests produce
// byte-identical response bodies no matter how the fan-out is scheduled.
func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	c := s.newCall(w, r)
	defer c.close()
	if !c.open("use POST with a JSON batch body", true, "") {
		return
	}
	// Unmarshal copies each chip element out of raw (RawMessage always
	// appends into its own storage), so the pooled body can be released
	// when the handler returns.
	var req BatchRequest
	if err := json.Unmarshal(c.raw, &req); err != nil {
		c.fail(&httpError{http.StatusBadRequest, "batch body must be {\"chips\":[...]}: " + err.Error()})
		return
	}
	if len(req.Chips) == 0 {
		c.fail(&httpError{http.StatusBadRequest, "batch contains no chips"})
		return
	}
	// The whole batch occupies one admission slot; its internal fan-out
	// is bounded separately by BatchWorkers on the parallel engine.
	ctx, ok := c.admit()
	if !ok {
		return
	}

	type chipOutcome struct {
		body    []byte
		rep     ChipReport
		verdict counterfeit.Verdict
		failed  bool
	}
	pool := parallel.Pool{Workers: s.cfg.BatchWorkers}
	outcomes, err := parallel.MapContext(ctx, pool, len(req.Chips), func(i int) (chipOutcome, error) {
		key := chipKey(req.Chips[i])
		body, rep, verdict, _, herr := s.screenCached(ctx, key, req.Chips[i])
		if herr != nil {
			if herr.status == http.StatusGatewayTimeout || herr.status == statusClientClosedRequest {
				// A dead context ends the whole batch, not just this chip.
				return chipOutcome{}, ctx.Err()
			}
			rep := ChipReport{SHA256: key, Verdict: "ERROR", Error: herr.msg}
			eb, merr := json.Marshal(rep)
			if merr != nil {
				return chipOutcome{}, merr
			}
			return chipOutcome{body: eb, rep: rep, failed: true}, nil
		}
		return chipOutcome{body: body, rep: rep, verdict: verdict}, nil
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.deadlines.Inc()
			c.fail(&httpError{http.StatusGatewayTimeout, "batch verification deadline exceeded"})
			return
		}
		c.fail(&httpError{http.StatusInternalServerError, "batch verification failed: " + err.Error()})
		return
	}
	// Registry post-pass: serial, in input order, after the parallel
	// physics fan-out — the response stays byte-deterministic no matter
	// how the fan-out was scheduled.
	resp := BatchResponse{
		Results: make([]json.RawMessage, len(outcomes)),
		Summary: BatchSummary{Chips: len(outcomes), Verdicts: make(map[string]int)},
	}
	reps := make([]ChipReport, len(outcomes))
	verdicts := make([]counterfeit.Verdict, len(outcomes))
	failed := make([]bool, len(outcomes))
	for i, o := range outcomes {
		resp.Results[i], reps[i], verdicts[i], failed[i] = o.body, o.rep, o.verdict, o.failed
	}
	if herr := s.batchProvenance(resp.Results, reps, verdicts, failed); herr != nil {
		c.fail(herr)
		return
	}
	summary := &resp.Summary
	for i := range outcomes {
		if failed[i] {
			summary.Failed++
			continue
		}
		s.countChip(verdicts[i])
		summary.Verdicts[verdicts[i].String()]++
		if verdicts[i].Accepted() {
			summary.Accepted++
		} else {
			summary.Refused++
		}
	}
	body, herr := marshalReport(&resp)
	if herr != nil {
		c.fail(herr)
		return
	}
	s.logf("batch of %d -> %d accepted, %d refused, %d failed in %v",
		summary.Chips, summary.Accepted, summary.Refused,
		summary.Failed, s.since(c.start).Round(time.Millisecond))
	writeJSONBody(w, http.StatusOK, body)
}

// handleHealthz answers liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSONBody(w, http.StatusOK, []byte(`{"status":"ok"}`))
}

// handleReadyz answers readiness: 503 once draining so load balancers
// stop routing new work here.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSONBody(w, http.StatusServiceUnavailable, []byte(`{"status":"draining"}`))
		return
	}
	writeJSONBody(w, http.StatusOK, []byte(`{"status":"ready"}`))
}
