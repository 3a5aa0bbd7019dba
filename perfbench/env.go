package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/cluster"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/metrics"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/service"
)

// fillerDieBase keeps filler identities clear of the fleet's die ids.
const fillerDieBase = 0x4000_0000

// pristine is the generated on-disk registry a run starts from: one
// directory per store (cluster shards list primary then follower) and
// the key count each must recover.
type pristine struct {
	dirs []string
	keys []int64
}

// writeRegistry generates the workload's registry under root: the
// fleet's enrolled identities and filler ids, compacted into a snapshot
// except for the last walTail records, which stay in the WAL. On the
// cluster plane each shard holds the ids the ring routes to it and its
// follower starts as a byte copy, so the sync handshake finds them level.
func (in *inputs) writeRegistry(root string) (*pristine, error) {
	w := in.w
	n := max(1, w.shards)
	stores := make([]*registry.Durable, n)
	dirs := make([]string, n)
	for s := range stores {
		dirs[s] = filepath.Join(root, fmt.Sprintf("shard%d", s))
		d, err := registry.Open(dirs[s], registry.Options{NoSync: true, CompactEvery: -1})
		if err != nil {
			return nil, err
		}
		defer d.Close()
		stores[s] = d
	}
	route := func(registry.Key) int { return 0 }
	if w.shards > 0 {
		ring, err := cluster.NewRing(w.shards)
		if err != nil {
			return nil, err
		}
		route = ring.Shard
	}

	var recs []registry.Enrollment
	if !w.challenge {
		for i, c := range in.chips {
			if in.enrolled[i] {
				recs = append(recs, registry.Enrollment{Key: c.key, Fingerprint: c.fp, Source: "fab-line", UnixMicro: 1_700_000_000_000_000})
			}
		}
	}
	fleetIDs := len(in.owners)
	r := rng.New(in.seed).Split(0x46494C4C) // "FILL"
	for i := 0; i < w.registryIDs-fleetIDs; i++ {
		e := registry.Enrollment{
			Key:       registry.Key{Manufacturer: in.manufacturer, DieID: fillerDieBase + uint64(i)},
			Source:    "fab-line",
			UnixMicro: 1_700_000_000_000_000 + int64(i),
		}
		if !w.challenge {
			for b := 0; b < len(e.Fingerprint); b += 8 {
				v := r.Uint64()
				for k := 0; k < 8; k++ {
					e.Fingerprint[b+k] = byte(v >> (8 * k))
				}
			}
		}
		recs = append(recs, e)
	}
	compactAt := w.registryIDs - w.walTail
	for i, e := range recs {
		if i == compactAt {
			for _, d := range stores {
				if err := d.Compact(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := stores[route(e.Key)].Enroll(e); err != nil {
			return nil, err
		}
	}
	if w.challenge {
		if err := in.enrollChallenges(stores[0]); err != nil {
			return nil, err
		}
	}

	p := &pristine{}
	for s, d := range stores {
		keys := d.Stats().Keys
		if err := d.Close(); err != nil {
			return nil, err
		}
		p.dirs = append(p.dirs, dirs[s])
		p.keys = append(p.keys, keys)
		if w.shards > 0 {
			follower := dirs[s] + "-follower"
			if err := copyDir(dirs[s], follower); err != nil {
				return nil, err
			}
			p.dirs = append(p.dirs, follower)
			p.keys = append(p.keys, keys)
		}
	}
	return p, nil
}

// enrollChallenges enrolls the fleet's genuine chips through the
// service's own /v1/enroll, which records the identity (with a zero
// fingerprint) and the challenge-response fingerprint beside it.
func (in *inputs) enrollChallenges(store registry.Store) error {
	srv, err := service.New(in.serviceConfig(store))
	if err != nil {
		return err
	}
	h := srv.Handler()
	idx := in.indices(func(i int, _ chip) bool { return in.enrolled[i] })
	return parallel.ForEach(parallel.Pool{Workers: clients}, len(idx), func(k int) error {
		i := idx[k]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/enroll?source=fab-line", bytes.NewReader(in.chips[i].bytes)))
		var rep service.EnrollReport
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rep) != nil ||
			rep.Verdict != counterfeit.VerdictGenuine.String() || rep.ChallengeFingerprint == "" {
			return fmt.Errorf("enrolling chip %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		return nil
	})
}

// serviceConfig is the fmverifyd configuration under test.
func (in *inputs) serviceConfig(store registry.Store) service.Config {
	cfg := service.Config{
		Verifier:     newVerifier(),
		CacheEntries: in.w.cache,
		Provenance:   store,
		Registry:     metrics.NewRegistry(),
	}
	if in.w.challenge {
		cfg.Challenge = &challenge.Policy{}
		cfg.OmitDeviceFingerprint = true
	}
	return cfg
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// env is one running instance of the system under test: registry
// stores (and cluster nodes), the service, and its loopback listener.
type env struct {
	in     *inputs
	stores []*registry.Durable
	nodes  []*cluster.Node
	client *cluster.Client
	srv    *service.Server
	http   *http.Server
	base   string
	hc     *http.Client
	tr     *tracer
	// serving counts the Serve loops of the listener and cluster nodes.
	serving sync.WaitGroup

	recovery time.Duration // summed registry Open time
	sync     time.Duration // cluster: serving until every follower link is up
	warm     time.Duration // the warm-up pass
}

// startEnv copies the pristine registry into work (untimed), then
// times the set-up proper: registry recovery, cluster start and
// follower sync, service.New, the listener and the warm-up pass. A
// non-nil tracer instruments the service from the benchmark's side.
func startEnv(in *inputs, p *pristine, work string, tr *tracer) (*env, time.Duration, error) {
	var dirs []string
	for i, d := range p.dirs {
		dst := filepath.Join(work, fmt.Sprintf("store%d", i))
		if err := copyDir(d, dst); err != nil {
			return nil, 0, err
		}
		dirs = append(dirs, dst)
	}
	start := time.Now()
	e := &env{in: in, tr: tr}
	if err := e.start(dirs, p.keys); err != nil {
		e.close()
		return nil, 0, err
	}
	t := time.Now()
	if err := e.warmUp(); err != nil {
		e.close()
		return nil, 0, err
	}
	e.warm = time.Since(t)
	return e, time.Since(start), nil
}

func (e *env) start(dirs []string, keys []int64) error {
	for i, dir := range dirs {
		t := time.Now()
		d, err := registry.Open(dir, registry.Options{})
		if err != nil {
			return err
		}
		e.recovery += time.Since(t)
		e.stores = append(e.stores, d)
		if got := d.Stats().Keys; got != keys[i] {
			return fmt.Errorf("registry %s recovered %d keys, want %d", dir, got, keys[i])
		}
	}
	var store registry.Store = e.stores[0]
	if e.in.w.shards > 0 {
		t := time.Now()
		spec := make([]cluster.ShardSpec, e.in.w.shards)
		var primaries []*cluster.Node
		for s := range spec {
			_, faddr, err := e.serveNode(cluster.NodeConfig{Store: e.stores[2*s+1], Role: cluster.RoleFollower})
			if err != nil {
				return err
			}
			primary, paddr, err := e.serveNode(cluster.NodeConfig{Store: e.stores[2*s], Role: cluster.RolePrimary,
				FollowerAddr: faddr, RequireFollower: true})
			if err != nil {
				return err
			}
			primaries = append(primaries, primary)
			spec[s] = cluster.ShardSpec{Primary: paddr, Follower: faddr}
		}
		deadline := time.Now().Add(10 * time.Second)
		for _, n := range primaries {
			for !n.LinkUp() {
				if time.Now().After(deadline) {
					return fmt.Errorf("cluster follower link did not come up within 10s")
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		e.sync = time.Since(t)
		c, err := cluster.NewClient(spec, cluster.ClientOptions{Timeout: 5 * time.Second})
		if err != nil {
			return err
		}
		e.client = c
		store = c
	}
	if e.tr != nil {
		store = e.tr.store(store)
	}
	cfg := e.in.serviceConfig(store)
	if e.tr != nil {
		cfg.Decorate = e.tr.decorate
	}
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	e.srv = srv
	var h http.Handler = srv.Handler()
	if e.tr != nil {
		h = e.tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = e.http.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	e.base = "http://" + ln.Addr().String()
	e.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	return nil
}

// serveNode starts one cluster node on a loopback port.
func (e *env) serveNode(cfg cluster.NodeConfig) (*cluster.Node, string, error) {
	n, err := cluster.NewNode(cfg)
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	e.nodes = append(e.nodes, n)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = n.Serve(ln) // returns nil once close closes the node
	}()
	return n, ln.Addr().String(), nil
}

// warmUp sends the workload's warm set once, two calls at a time, and
// checks every verdict: each chip as a single verify, then in batches
// of up to 16. A batch element's cache key is its JSON value without
// the chip file's trailing newline, so both shapes are warmed. On the
// hit workloads this fills the verdict cache; on dock-cold it warms
// pools and connections only, on a few genuine chips.
func (e *env) warmUp() error {
	var calls []request
	for _, i := range e.in.warm {
		calls = append(calls, e.in.request(opVerify, i))
	}
	for j := 0; j < len(e.in.warm); j += 16 {
		calls = append(calls, e.in.request(opBatch, e.in.warm[j:min(j+16, len(e.in.warm))]...))
	}
	return parallel.ForEach(parallel.Pool{Workers: clients}, len(calls), func(k int) error {
		var buf bytes.Buffer
		if res := e.send(&calls[k], &buf, -1); !res.ok {
			return fmt.Errorf("warm-up %s: %s", calls[k].op, res.why)
		}
		return nil
	})
}

// close tears everything down in dependency order and waits for every
// goroutine the environment started.
func (e *env) close() {
	if e.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.http.Shutdown(ctx)
		cancel()
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	if e.client != nil {
		e.client.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	e.serving.Wait()
	for _, d := range e.stores {
		d.Close()
	}
}

// serviceVars reads the service's metrics registry as name -> value.
func (e *env) serviceVars() map[string]float64 {
	var buf bytes.Buffer
	_ = e.srv.Registry().WriteJSON(&buf)
	var raw map[string]json.RawMessage
	out := map[string]float64{}
	if json.Unmarshal(buf.Bytes(), &raw) != nil {
		return out
	}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out
}
