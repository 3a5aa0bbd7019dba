package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// The POST request lifecycle, written once for every endpoint that
// does verification work. A handler declares a call, defers its close,
// and walks the steps in a fixed order:
//
//	open   count the request; refuse a wrong method (405), an endpoint
//	       whose feature is not configured (501), a draining server
//	       (503) and an unreadable or oversized body (400/413)
//	admit  take an admission slot (429 + Retry-After when the queue is
//	       full, 499 when the client gives up while queued) and arm the
//	       per-request deadline
//	close  undo whatever open and admit took, in reverse, then record
//	       the request latency
//
// /v1/verify serves a cache hit between open and admit, so a hit never
// occupies a verification worker. Every refusal except the 429 counts
// as an error; the 429 counts as rejected.

// httpError carries a status code through the screening path.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// call is one POST request's pass through the lifecycle. It lives on
// the handler's stack; each release field is set by the step that took
// the resource.
type call struct {
	s     *Server
	w     http.ResponseWriter
	r     *http.Request
	start time.Time
	// raw is the request body, valid until close.
	raw []byte

	done, releaseBody, releaseGate func()
	cancel                         context.CancelFunc
}

func (s *Server) newCall(w http.ResponseWriter, r *http.Request) call {
	return call{s: s, w: w, r: r, start: s.cfg.Now()}
}

// open runs the admission-free preamble. usage is the 405 message;
// when enabled is false the endpoint answers 501 with offMsg. It
// reports false once it has answered the request.
func (c *call) open(usage string, enabled bool, offMsg string) bool {
	c.s.met.requests.Inc()
	if c.r.Method != http.MethodPost {
		return c.fail(&httpError{http.StatusMethodNotAllowed, usage})
	}
	if !enabled {
		return c.fail(&httpError{http.StatusNotImplemented, offMsg})
	}
	done, ok := c.s.beginRequest()
	if !ok {
		return c.fail(&httpError{http.StatusServiceUnavailable, "server is draining"})
	}
	c.done = done
	raw, release, herr := c.s.readBody(c.w, c.r)
	if herr != nil {
		return c.fail(herr)
	}
	c.raw, c.releaseBody = raw, release
	return true
}

// admit takes an admission slot and returns the request's deadline
// context. It reports false once it has answered the request.
func (c *call) admit() (context.Context, bool) {
	release, err := c.s.gate.acquire(c.r.Context())
	if err != nil {
		if errors.Is(err, errOverloaded) {
			c.s.met.rejected.Inc()
			c.w.Header().Set("Retry-After", "1")
			writeError(c.w, http.StatusTooManyRequests, "verification queue is full; retry later")
			return nil, false
		}
		return nil, c.fail(&httpError{statusClientClosedRequest, "client canceled while queued"})
	}
	c.releaseGate = release
	ctx, cancel := context.WithTimeout(c.r.Context(), c.s.cfg.RequestTimeout)
	c.cancel = cancel
	return ctx, true
}

// fail counts an error and answers it. It always reports false, so a
// step can end with `return c.fail(...)`.
func (c *call) fail(herr *httpError) bool {
	c.s.met.errors.Inc()
	writeError(c.w, herr.status, herr.msg)
	return false
}

// close releases what the call took, newest first, and records the
// request latency.
func (c *call) close() {
	for _, release := range [...]func(){c.cancel, c.releaseGate, c.releaseBody, c.done} {
		if release != nil {
			release()
		}
	}
	c.s.met.latency.ObserveDuration(c.s.since(c.start))
}

// marshalReport renders a response body; a failure is a 500.
func marshalReport(v any) ([]byte, *httpError) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, "encoding report: " + err.Error()}
	}
	return body, nil
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		_, _ = io.WriteString(w, "\n")
	}
}

// beginRequest registers an in-flight verification unless the server is
// draining; the caller must invoke the returned done func.
func (s *Server) beginRequest() (done func(), ok bool) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.Draining() {
		return nil, false
	}
	s.inflight.Add(1)
	return func() { s.inflight.Done() }, true
}

// bodyScratch recycles request-body read buffers across requests: the
// dominant body (one chip file, ~100KB of base64) is read into pooled
// capacity instead of a fresh io.ReadAll allocation chain per request.
var bodyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// readBody drains the request body under the configured cap into a
// pooled buffer. On success the caller owns raw until it calls release
// (typically deferred to the end of the handler); raw must not be
// retained past it. Everything handed onward — report bodies, cache
// entries, batch chip elements — is copied out of raw by construction.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (raw []byte, release func(), herr *httpError) {
	bp := bodyScratch.Get().(*[]byte)
	buf := (*bp)[:0]
	lr := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf[:0]
			bodyScratch.Put(bp)
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, nil, &httpError{http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
			}
			return nil, nil, &httpError{http.StatusBadRequest, "reading request body: " + err.Error()}
		}
	}
	return buf, func() { *bp = buf[:0]; bodyScratch.Put(bp) }, nil
}
