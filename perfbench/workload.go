package main

import (
	"fmt"
	"time"
)

// op is one request kind the load generator sends.
type op uint8

const (
	opVerify    op = iota // POST /v1/verify, one chip
	opBatch               // POST /v1/verify/batch
	opEnroll              // POST /v1/enroll of an enrolled genuine chip
	opChallenge           // POST /v1/challenge
	opScrape              // GET /metrics
)

func (o op) String() string {
	return [...]string{"verify", "batch", "enroll", "challenge", "scrape"}[o]
}

// workload is one named traffic mix against one registry plane. Every
// size here is recorded in BENCHMARK.json beside the workload's reason.
type workload struct {
	name string

	// Fleet shape (loadgen.FleetSpec: a negative count means none).
	genuine, clones, counterfeits int

	// registryIDs is the number of identities on file before the run
	// (filler ids plus the fleet's enrolled genuine dies); walTail of
	// them are left in the WAL after the compacted snapshot.
	registryIDs, walTail int
	// shards > 0 selects the cluster plane: that many shards, each a
	// primary with a RequireFollower follower. 0 is a single durable.
	shards int
	// cache is the verdict-cache size (0 keeps the service default).
	cache int
	// challenge enables /v1/challenge in the honest-hardware regime
	// (OmitDeviceFingerprint).
	challenge bool
	// scrapeEvery adds a GET /metrics at this cadence (0: none).
	scrapeEvery time.Duration

	// traceRate is the fixed Poisson rate, in requests/s, that paces the
	// serial traced passes.
	traceRate float64
}

var workloads = []workload{
	{
		name:    "dock-cold",
		genuine: 160, clones: 48, counterfeits: 48,
		registryIDs: 200_000, walTail: 4096,
		cache:     64,
		traceRate: 8,
	},
	{
		name:    "rescan-cluster",
		genuine: 48, clones: 16, counterfeits: -1,
		registryIDs: 200_000, walTail: 4096,
		shards:      2,
		scrapeEvery: time.Second,
		traceRate:   25,
	},
	{
		name:    "challenge-audit",
		genuine: 48, clones: 16, counterfeits: -1,
		registryIDs: 200_000, walTail: 4096,
		challenge: true,
		traceRate: 8,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
