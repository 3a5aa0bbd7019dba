package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/registry"
)

// TestPOSTRefusals drives every refusal of the shared POST lifecycle
// through every endpoint that does verification work, asserting the
// status, the exact body, the Retry-After header and which counter
// moved. Only the 429 counts as rejected; every other refusal counts
// as an error.
func TestPOSTRefusals(t *testing.T) {
	type endpoint struct {
		path  string
		usage string // 405 message
		off   string // 501 message; empty when the endpoint is always on
		// admissible is a body that clears every pre-admission check.
		admissible string
	}
	endpoints := []endpoint{
		{path: "/v1/verify", usage: "use POST with a chip file body", admissible: "{}"},
		{path: "/v1/verify/batch", usage: "use POST with a JSON batch body", admissible: `{"chips":[{}]}`},
		{path: "/v1/enroll", usage: "use POST with a chip file body", admissible: "{}",
			off: "no fleet registry configured (start fmverifyd with -registry-dir)"},
		{path: "/v1/challenge", usage: "use POST with a chip file body", admissible: "{}",
			off: "no challenge-response plane configured (start fmverifyd with -challenge)"},
	}
	type refusal struct {
		name string
		// featureOff starts the server without a registry or challenge
		// plane.
		featureOff bool
		// setup, when set, runs against the server before the request.
		setup      func(t *testing.T, s *Server)
		method     string
		body       func(ep endpoint) string
		status     int
		want       func(ep endpoint) string
		retryAfter string
		rejected   bool
	}
	admissible := func(ep endpoint) string { return ep.admissible }
	refusals := []refusal{
		{
			name:   "wrong method",
			method: http.MethodGet,
			body:   func(endpoint) string { return "" },
			status: http.StatusMethodNotAllowed,
			want:   func(ep endpoint) string { return ep.usage },
		},
		{
			name:       "feature not configured",
			featureOff: true,
			method:     http.MethodPost,
			body:       admissible,
			status:     http.StatusNotImplemented,
			want:       func(ep endpoint) string { return ep.off },
		},
		{
			name:   "oversized body",
			method: http.MethodPost,
			body:   func(endpoint) string { return strings.Repeat(" ", 65) },
			status: http.StatusRequestEntityTooLarge,
			want:   func(endpoint) string { return "request body exceeds 64 bytes" },
		},
		{
			name: "draining",
			setup: func(t *testing.T, s *Server) {
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
			method: http.MethodPost,
			body:   admissible,
			status: http.StatusServiceUnavailable,
			want:   func(endpoint) string { return "server is draining" },
		},
		{
			name: "queue full",
			setup: func(t *testing.T, s *Server) {
				// One worker, no queue: holding the only slot refuses
				// the next admission at the door.
				release, err := s.gate.acquire(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(release)
			},
			method:     http.MethodPost,
			body:       admissible,
			status:     http.StatusTooManyRequests,
			want:       func(endpoint) string { return "verification queue is full; retry later" },
			retryAfter: "1",
			rejected:   true,
		},
	}
	for _, ep := range endpoints {
		for _, rf := range refusals {
			if rf.featureOff && ep.off == "" {
				continue
			}
			t.Run(ep.path[1:]+"/"+rf.name, func(t *testing.T) {
				cfg := Config{
					Verifier:     testVerifier(),
					Workers:      1,
					QueueDepth:   -1,
					CacheEntries: -1,
					MaxBodyBytes: 64,
				}
				if !rf.featureOff {
					cfg.Provenance = registry.NewMemory(0)
					cfg.Challenge = &challenge.Policy{}
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rf.setup != nil {
					rf.setup(t, s)
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(rf.method, ep.path, strings.NewReader(rf.body(ep)))
				s.Handler().ServeHTTP(rec, req)

				if rec.Code != rf.status {
					t.Fatalf("status %d, want %d (body %q)", rec.Code, rf.status, rec.Body.String())
				}
				if want := `{"error":"` + rf.want(ep) + "\"}\n"; rec.Body.String() != want {
					t.Fatalf("body %q, want %q", rec.Body.String(), want)
				}
				if got := rec.Header().Get("Retry-After"); got != rf.retryAfter {
					t.Fatalf("Retry-After %q, want %q", got, rf.retryAfter)
				}
				wantErrors, wantRejected := int64(1), int64(0)
				if rf.rejected {
					wantErrors, wantRejected = 0, 1
				}
				if got := s.met.errors.Value(); got != wantErrors {
					t.Fatalf("errors_total = %d, want %d", got, wantErrors)
				}
				if got := s.met.rejected.Value(); got != wantRejected {
					t.Fatalf("rejected_total = %d, want %d", got, wantRejected)
				}
				if got := s.met.requests.Value(); got != 1 {
					t.Fatalf("requests_total = %d, want 1", got)
				}
			})
		}
	}
}
