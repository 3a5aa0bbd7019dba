package main

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/cluster"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/service"
)

// small shrinks a workload's registry so a test sets it up quickly.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.registryIDs, w.walTail = 2000, 100
	if w.counterfeits > 0 {
		w.genuine, w.clones, w.counterfeits = 24, 8, 8
	}
	return w
}

// inputsCache shares fabricated inputs between tests: a fleet takes a
// second or two to fabricate and screen.
var inputsCache sync.Map

func mustInputs(t *testing.T, w workload, seed uint64) *inputs {
	t.Helper()
	type key struct {
		name          string
		genuine, seed uint64
	}
	k := key{w.name, uint64(w.genuine), seed}
	if in, ok := inputsCache.Load(k); ok {
		return in.(*inputs)
	}
	in, err := buildInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	inputsCache.Store(k, in)
	return in
}

func wants(in *inputs) [][]want {
	out := make([][]want, len(in.plan))
	for i, rq := range in.plan {
		out[i] = rq.want
	}
	return out
}

func TestSameSeedSamePlan(t *testing.T) {
	w := small(t, "rescan-cluster")
	a := mustInputs(t, w, 1)
	b, err := buildInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.fleetDigest != b.fleetDigest || a.planDigest != b.planDigest || a.wantDigest != b.wantDigest {
		t.Fatalf("seed 1 twice: digests %s/%s/%s vs %s/%s/%s",
			a.fleetDigest, a.planDigest, a.wantDigest, b.fleetDigest, b.planDigest, b.wantDigest)
	}
	if !reflect.DeepEqual(wants(a), wants(b)) {
		t.Fatal("seed 1 twice: expected-verdict vectors differ")
	}
	c := mustInputs(t, w, 2)
	if c.planDigest == a.planDigest || c.fleetDigest == a.fleetDigest {
		t.Fatalf("seeds 1 and 2 share a digest: plan %s, fleet %s", a.planDigest, a.fleetDigest)
	}
}

// TestDockWarmUpIsGenuine pins dock-cold's warm set on the full-size
// fleet: dockWarm enrolled genuine chips, so the warm-up's cost does not
// depend on the seed's class mix, none of which the stream reaches
// before the 64-entry cache has evicted it.
func TestDockWarmUpIsGenuine(t *testing.T) {
	w, err := workloadByName("dock-cold")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		in := mustInputs(t, w, seed)
		if len(in.warm) != dockWarm {
			t.Fatalf("seed %d: warm set has %d chips, want %d", seed, len(in.warm), dockWarm)
		}
		first := map[int]int{}
		n := 0
		for k := 0; n < len(in.chips); k++ {
			for _, i := range in.plan[k].chips {
				if _, ok := first[i]; !ok {
					first[i] = n
				}
				n++
			}
		}
		for _, i := range in.warm {
			if !in.enrolled[i] {
				t.Errorf("seed %d: warm chip %d is not an enrolled genuine chip", seed, i)
			}
			if first[i] < in.w.cache {
				t.Errorf("seed %d: warm chip %d is requested after %d chips, within the %d-entry cache", seed, i, first[i], in.w.cache)
			}
		}
	}
}

// TestFleetClassSplitIsEven pins buildFleet's fixed counterfeit split,
// which keeps the seed from moving dock-cold's cost and memory.
func TestFleetClassSplitIsEven(t *testing.T) {
	w, err := workloadByName("dock-cold")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		in := mustInputs(t, w, seed)
		n := map[counterfeit.ChipClass]int{}
		for _, c := range in.chips {
			n[c.class]++
		}
		want := map[counterfeit.ChipClass]int{
			counterfeit.ClassGenuineAccept:   w.genuine,
			counterfeit.ClassReplayImprint:   w.clones,
			counterfeit.ClassMetadataForgery: w.counterfeits / 4,
			counterfeit.ClassUnmarked:        w.counterfeits / 4,
			counterfeit.ClassDigitalClone:    w.counterfeits / 4,
			counterfeit.ClassRecycled:        w.counterfeits / 4,
		}
		if !reflect.DeepEqual(n, want) {
			t.Errorf("seed %d: classes %v, want %v", seed, n, want)
		}
	}
}

func TestExpectBatchRule(t *testing.T) {
	in := mustInputs(t, small(t, "rescan-cluster"), 1)
	dup, genuine := counterfeit.VerdictDuplicateID.String(), counterfeit.VerdictGenuine.String()
	found := false
	for c, ch := range in.chips {
		v := ch.victim
		if v < 0 || !in.enrolled[v] || ch.physics != counterfeit.VerdictGenuine {
			continue
		}
		found = true
		if got := in.expect(opVerify, v, nil).verdict; got != genuine {
			t.Errorf("enrolled chip %d alone: %s, want %s", v, got, genuine)
		}
		if got := in.expect(opVerify, c, nil).verdict; got != dup {
			t.Errorf("clone %d alone: %s, want %s", c, got, dup)
		}
		if got := in.expect(opBatch, v, []int{v, c}).verdict; got != dup {
			t.Errorf("enrolled chip %d batched with its clone: %s, want %s", v, got, dup)
		}
	}
	if !found {
		t.Fatal("fleet has no clone of an enrolled chip")
	}
}

func TestCheckCatchesWrongVerdict(t *testing.T) {
	rq := &request{op: opVerify, chips: []int{0}, want: []want{{verdict: "GENUINE"}}}
	if why := check(rq, []byte(`{"verdict":"GENUINE"}`)); why != "" {
		t.Fatalf("right verdict rejected: %s", why)
	}
	if why := check(rq, []byte(`{"verdict":"DUPLICATE-ID"}`)); why == "" {
		t.Fatal("wrong verdict accepted")
	}
	batch := &request{op: opBatch, chips: []int{0, 1}, want: []want{{verdict: "GENUINE"}, {verdict: "NO-WATERMARK"}}}
	if why := check(batch, []byte(`{"results":[{"verdict":"GENUINE"}]}`)); why == "" {
		t.Fatal("short batch accepted")
	}
}

func TestTimedStoreKeepsBatchLookuper(t *testing.T) {
	tr := newTracer()
	c, err := cluster.NewClient([]cluster.ShardSpec{{Primary: "127.0.0.1:1"}}, cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := tr.store(c).(service.BatchLookuper); !ok {
		t.Fatal("timed cluster store lost service.BatchLookuper: the traced batch path would fall back to per-key lookups")
	}
	if _, ok := tr.store(registry.NewMemory(0)).(service.BatchLookuper); ok {
		t.Fatal("timed single-node store claims service.BatchLookuper")
	}
}

// TestTracedPassMatchesUntraced runs one short plan untraced and traced
// and requires byte-identical response bodies and no wrong verdict.
func TestTracedPassMatchesUntraced(t *testing.T) {
	for _, name := range []string{"dock-cold", "rescan-cluster", "challenge-audit"} {
		t.Run(name, func(t *testing.T) {
			in := mustInputs(t, small(t, name), 3)
			work := t.TempDir()
			p, err := in.writeRegistry(work + "/pristine")
			if err != nil {
				t.Fatal(err)
			}
			arr := schedule(rng.New(3), in.w.traceRate, 1500*time.Millisecond, in.w.scrapeEvery)
			plain, err := runPass(in, p, work+"/plain", arr, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := runPass(in, p, work+"/traced", arr, tr)
			if err != nil {
				t.Fatal(err)
			}
			if f := plain.win.failed() + traced.win.failed(); f > 0 {
				t.Fatalf("%d failed calls: %s %s", f, plain.win.firstBad, traced.win.firstBad)
			}
			for k := range arr {
				if !arr[k].scrape && !bytes.Equal(plain.bodies[k], traced.bodies[k]) {
					t.Fatalf("call %d: traced body differs:\n%s\n%s", k, plain.bodies[k], traced.bodies[k])
				}
			}
			if n := tr.orphans.Load(); n != 0 {
				t.Fatalf("%d orphan handler spans", n)
			}
			if len(tr.snapshot()) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
		})
	}
}
