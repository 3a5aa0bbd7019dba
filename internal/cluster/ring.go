// Package cluster is the distributed verification plane: a sharded
// fleet registry behind the registry.Store seam. A consistent-hash
// ring routes each die identity to one shard; every shard is an
// fmregistryd primary that synchronously replicates its WAL to a
// follower and ships snapshots to resync a diverged one; Client is the
// stateless router fmverifyd uses, with deterministic failover
// promotion when a primary dies. The Store contract the single-node
// backends honor — acknowledged enrollments are durable, duplicate and
// conflict semantics come from the one shared dedup kernel — holds
// across the plane: an enrollment is acknowledged only after both the
// primary and its follower have it on disk, so no promotion can forget
// an acked die identity.
package cluster

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/flashmark/flashmark/internal/registry"
)

// vnodesPerShard is how many ring points each shard contributes.
// 64 virtual nodes keep the key share of N shards within a few percent
// of 1/N without making ring construction or lookup measurable.
const vnodesPerShard = 64

// Ring is a consistent-hash ring over a static membership table of N
// shards. It is immutable after construction: membership is
// configuration, not gossip, and every router instance built from the
// same table routes every key identically — which is what lets a
// stateless verify tier scale horizontally without coordination.
type Ring struct {
	hashes []uint64 // sorted vnode positions
	shards []int    // shards[i] owns hashes[i]
	n      int
}

// NewRing builds the ring for n shards (n >= 1).
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard, got %d", n)
	}
	type point struct {
		hash  uint64
		shard int
	}
	points := make([]point, 0, n*vnodesPerShard)
	var label [16]byte
	for shard := 0; shard < n; shard++ {
		for v := 0; v < vnodesPerShard; v++ {
			binary.LittleEndian.PutUint64(label[:8], uint64(shard))
			binary.LittleEndian.PutUint64(label[8:], uint64(v))
			points = append(points, point{fnv64a(label[:]), shard})
		}
	}
	slices.SortFunc(points, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.shard, b.shard))
	})
	r := &Ring{
		hashes: make([]uint64, len(points)),
		shards: make([]int, len(points)),
		n:      n,
	}
	for i, p := range points {
		r.hashes[i], r.shards[i] = p.hash, p.shard
	}
	return r, nil
}

// Shards returns the membership size.
func (r *Ring) Shards() int { return r.n }

// Shard routes a die identity to its owning shard: the first vnode at
// or after the key's hash, wrapping at the top of the ring.
func (r *Ring) Shard(k registry.Key) int {
	if r.n == 1 {
		return 0
	}
	h := keyHash(k)
	i, _ := slices.BinarySearch(r.hashes, h)
	if i == len(r.hashes) {
		i = 0
	}
	return r.shards[i]
}

// keyHash is FNV-64a over the manufacturer bytes, a separator, and the
// little-endian die id — allocation-free and stable across processes,
// so the routing table is part of the cluster's configuration contract.
func keyHash(k registry.Key) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Manufacturer); i++ {
		h = (h ^ uint64(k.Manufacturer[i])) * prime64
	}
	h = (h ^ 0xFF) * prime64
	id := k.DieID
	for i := 0; i < 8; i++ {
		h = (h ^ (id & 0xFF)) * prime64
		id >>= 8
	}
	return h
}

func fnv64a(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}
